//! The verdict oracle, in the benchmark's own exact arithmetic.
//!
//! `Safe_Π(A, B)` holds iff `P[AB] ≤ P[A]·P[B]` under every product
//! prior. The oracle never calls the solver; it checks each reply
//! against the definition:
//!
//! * a `flagged` reply's witness prior, parsed from its
//!   `product prior p = [...]` explanation, must strictly raise
//!   `P[A|B]` above `P[A]` — checked exactly over the dyadic rationals
//!   the printed floats denote;
//! * a `safe` reply must survive a dyadic grid of product priors over
//!   the records the pair mentions (unmentioned records marginalize out);
//! * a pair that is safe by construction must come back `safe`;
//! * anything else (`inconclusive`, an error) is a failed operation,
//!   counted by the caller.

use crate::workload::{Expr, Known, Pair};
use std::cmp::Ordering;

/// Grid resolution for `k` mentioned records: priors `t / 2^bits`,
/// `(2^bits + 1)^k` grid points — 4913 for three records, 6561 for four.
fn grid_bits(k: usize) -> u32 {
    match k {
        0..=3 => 4,
        4 => 3,
        _ => 2,
    }
}

/// A pair's sets over the records it mentions: bit `w` of `a` is the
/// local world whose bit `j` is record `records[j]`'s presence.
#[derive(Clone, Debug)]
pub struct LocalPair {
    pub records: Vec<usize>,
    pub a: u64,
    pub b: u64,
}

impl LocalPair {
    pub fn of(audit: &Expr, query: &Expr) -> LocalPair {
        let mut records = Vec::new();
        audit.mentioned(&mut records);
        query.mentioned(&mut records);
        assert!(records.len() <= 6, "at most six mentioned records");
        let global = |w: usize| {
            records
                .iter()
                .enumerate()
                .fold(0u32, |g, (j, &r)| g | ((w as u32 >> j & 1) << r))
        };
        let (mut a, mut b) = (0u64, 0u64);
        for w in 0..1usize << records.len() {
            a |= u64::from(audit.eval(global(w))) << w;
            b |= u64::from(query.eval(global(w))) << w;
        }
        LocalPair { records, a, b }
    }

    fn k(&self) -> usize {
        self.records.len()
    }

    /// Exact comparison of `P[AB]` with `P[A]·P[B]` under the product
    /// prior `p_j = num[j] / 2^bits` over the mentioned records.
    fn compare(&self, num: &[Big], bits: u32) -> Ordering {
        let one = Big::from(1).shl(bits);
        let (mut pa, mut pb, mut pab) = (Big::zero(), Big::zero(), Big::zero());
        for w in 0..1usize << self.k() {
            let (in_a, in_b) = (self.a >> w & 1 == 1, self.b >> w & 1 == 1);
            if !in_a && !in_b {
                continue;
            }
            let mut weight = Big::from(1);
            for (j, n) in num.iter().enumerate() {
                weight = if w >> j & 1 == 1 {
                    weight.mul(n)
                } else {
                    weight.mul(&one.sub(n))
                };
            }
            if in_a {
                pa = pa.add(&weight);
            }
            if in_b {
                pb = pb.add(&weight);
            }
            if in_a && in_b {
                pab = pab.add(&weight);
            }
        }
        // P[AB]·2^(bits·k) against P[A]·P[B], both scaled by 2^(2·bits·k).
        pab.shl(bits * self.k() as u32).cmp(&pa.mul(&pb))
    }

    /// The first prior of a dyadic grid over the mentioned records that
    /// breaks `P[AB] ≤ P[A]·P[B]`, as grid numerators `t_j / 2^bits`;
    /// `None` when the pair survives the grid. Exact in `u64`: every
    /// probability is scaled by `2^(bits·k) ≤ 2^12`.
    pub fn grid_breach(&self) -> Option<(Vec<u64>, u32)> {
        let k = self.k();
        let bits = grid_bits(k);
        let one = 1u64 << bits;
        let mut t = vec![0u64; k];
        loop {
            let (mut pa, mut pb, mut pab) = (0u64, 0u64, 0u64);
            for w in 0..1usize << k {
                let (in_a, in_b) = (self.a >> w & 1 == 1, self.b >> w & 1 == 1);
                if !in_a && !in_b {
                    continue;
                }
                let weight: u64 = t
                    .iter()
                    .enumerate()
                    .map(|(j, &tj)| if w >> j & 1 == 1 { tj } else { one - tj })
                    .product();
                pa += if in_a { weight } else { 0 };
                pb += if in_b { weight } else { 0 };
                pab += if in_a && in_b { weight } else { 0 };
            }
            if pab << (bits as usize * k) > pa * pb {
                return Some((t, bits));
            }
            // Odometer over the grid.
            let mut j = 0;
            loop {
                if j == k {
                    return None;
                }
                t[j] += 1;
                if t[j] <= one {
                    break;
                }
                t[j] = 0;
                j += 1;
            }
        }
    }

    /// Whether the prior `probs` (one per schema record) strictly raises
    /// `P[A|B]` above `P[A]`, i.e. `P[AB] > P[A]·P[B]`, exactly.
    pub fn witness_raises(&self, probs: &[f64]) -> Result<bool, String> {
        let mut dyadics = Vec::with_capacity(self.k());
        for &r in &self.records {
            let p = *probs
                .get(r)
                .ok_or_else(|| format!("witness has no entry for record r{r}"))?;
            dyadics.push(dyadic(p).ok_or_else(|| format!("witness entry {p} is not in [0, 1]"))?);
        }
        let bits = dyadics.iter().map(|&(_, s)| s).max().unwrap_or(0);
        let num: Vec<Big> = dyadics
            .iter()
            .map(|&(m, s)| Big::from(m).shl(bits - s))
            .collect();
        Ok(self.compare(&num, bits) == Ordering::Greater)
    }
}

/// `x ∈ [0, 1]` as `m / 2^s` exactly (every finite f64 is dyadic).
fn dyadic(x: f64) -> Option<(u64, u32)> {
    if !(0.0..=1.0).contains(&x) {
        return None;
    }
    if x == 0.0 {
        return Some((0, 0));
    }
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    let (mut m, mut e) = if exp == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, exp - 1075)
    };
    while m & 1 == 0 && e < 0 {
        m >>= 1;
        e += 1;
    }
    // x ≤ 1 so e ≤ 0 once m is odd (or x = 1 with m = 1, e = 0).
    Some((m, u32::try_from(-e).ok()?))
}

/// Parses the witness of a `product prior p = [p0, p1, ...] gains ...`
/// explanation.
pub fn parse_witness(explanation: &str) -> Option<Vec<f64>> {
    let start = explanation.find("product prior p = [")? + "product prior p = [".len();
    let end = start + explanation[start..].find(']')?;
    explanation[start..end]
        .split(',')
        .map(|s| s.trim().parse::<f64>().ok())
        .collect()
}

/// A decided verdict as the daemon reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Finding {
    Safe,
    Flagged,
}

/// Checks one decided reply for `pair`; `Err` says why it is wrong.
pub fn check(pair: &Pair, finding: Finding, explanation: &str) -> Result<(), String> {
    let local = &pair.local;
    match finding {
        Finding::Flagged => {
            if pair.known == Known::Safe {
                return Err("a pair safe by construction was flagged".to_owned());
            }
            let probs = parse_witness(explanation)
                .ok_or_else(|| format!("flagged without a parsable witness: {explanation}"))?;
            if local.witness_raises(&probs)? {
                Ok(())
            } else {
                Err(format!(
                    "witness {probs:?} does not raise P[A|B] above P[A]"
                ))
            }
        }
        Finding::Safe => match local.grid_breach() {
            None => Ok(()),
            Some((t, bits)) => Err(format!(
                "reported safe, but the grid prior {t:?}/{} on records {:?} raises P[A|B]",
                1u64 << bits,
                local.records
            )),
        },
    }
}

/// A minimal arbitrary-precision unsigned integer (little-endian base
/// 2^32 limbs), enough for the oracle's products of dyadic numerators.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Big(Vec<u32>);

impl Big {
    fn zero() -> Big {
        Big(Vec::new())
    }

    fn from(x: u64) -> Big {
        let mut b = Big(vec![x as u32, (x >> 32) as u32]);
        b.trim();
        b
    }

    fn trim(&mut self) {
        while self.0.last() == Some(&0) {
            self.0.pop();
        }
    }

    fn add(&self, other: &Big) -> Big {
        let mut out = Vec::with_capacity(self.0.len().max(other.0.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.0.len().max(other.0.len()) {
            let s = u64::from(*self.0.get(i).unwrap_or(&0))
                + u64::from(*other.0.get(i).unwrap_or(&0))
                + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        out.push(carry as u32);
        let mut b = Big(out);
        b.trim();
        b
    }

    /// `self − other`; requires `self ≥ other`.
    fn sub(&self, other: &Big) -> Big {
        assert!(self.cmp(other) != Ordering::Less, "Big::sub underflow");
        let mut out = Vec::with_capacity(self.0.len());
        let mut borrow = 0i64;
        for i in 0..self.0.len() {
            let mut d = i64::from(self.0[i]) - i64::from(*other.0.get(i).unwrap_or(&0)) - borrow;
            borrow = 0;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            }
            out.push(d as u32);
        }
        let mut b = Big(out);
        b.trim();
        b
    }

    fn mul(&self, other: &Big) -> Big {
        let mut out = vec![0u32; self.0.len() + other.0.len()];
        for (i, &x) in self.0.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &y) in other.0.iter().enumerate() {
                let t = u64::from(x) * u64::from(y) + u64::from(out[i + j]) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + other.0.len()] = carry as u32;
        }
        let mut b = Big(out);
        b.trim();
        b
    }

    fn shl(&self, bits: u32) -> Big {
        if self.0.is_empty() {
            return Big::zero();
        }
        let (words, rem) = ((bits / 32) as usize, bits % 32);
        let mut out = vec![0u32; words];
        let mut carry = 0u32;
        for &x in &self.0 {
            out.push(if rem == 0 { x } else { (x << rem) | carry });
            carry = if rem == 0 { 0 } else { x >> (32 - rem) };
        }
        out.push(carry);
        let mut b = Big(out);
        b.trim();
        b
    }
}

impl PartialOrd for Big {
    fn partial_cmp(&self, other: &Big) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Big {
    fn cmp(&self, other: &Big) -> Ordering {
        self.0
            .len()
            .cmp(&other.0.len())
            .then_with(|| self.0.iter().rev().cmp(other.0.iter().rev()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{place, Local, Rng, HIV, REMARK_5_12};

    fn local(set: Local) -> Pair {
        let records: Vec<usize> = (0..set.k).collect();
        place(set, &records, Known::Nothing, &mut Rng::new(3)).unwrap()
    }

    #[test]
    fn accepts_the_hiv_pair_as_safe() {
        let pair = local(HIV);
        assert_eq!(check(&pair, Finding::Safe, "unconditional"), Ok(()));
    }

    #[test]
    fn accepts_the_remark_5_12_pair_as_safe() {
        let pair = local(REMARK_5_12);
        assert_eq!(check(&pair, Finding::Safe, "SOS certificate"), Ok(()));
    }

    #[test]
    fn rejects_a_forged_safe_on_a_equals_b() {
        let r0 = Expr::var(0);
        let pair = Pair::new(r0.clone(), r0, Known::Nothing, &mut Rng::new(1)).unwrap();
        assert!(check(&pair, Finding::Safe, "forged").is_err());
        // …and accepts the honest refutation with an exact witness.
        let honest = "query `r0` answered true: product prior p = [0.5, 1.0, 0.0, 0.5, 0.5, 0.5] gains 0.25 (stage box criterion (Prop 5.10))";
        assert_eq!(check(&pair, Finding::Flagged, honest), Ok(()));
        // A witness at a corner where A is certain raises nothing.
        let corner = "product prior p = [1.0, 0.5, 0.5, 0.5, 0.5, 0.5] gains 0";
        assert!(check(&pair, Finding::Flagged, corner).is_err());
    }

    #[test]
    fn rejects_a_flagged_known_safe_pair() {
        let mut pair = local(REMARK_5_12);
        pair.known = Known::Safe;
        assert!(check(
            &pair,
            Finding::Flagged,
            "product prior p = [0.5, 0.5, 0.5] gains 1"
        )
        .is_err());
    }

    #[test]
    fn dyadic_is_exact() {
        assert_eq!(dyadic(0.375), Some((3, 3)));
        assert_eq!(dyadic(1.0), Some((1, 0)));
        assert_eq!(dyadic(0.0), Some((0, 0)));
        assert_eq!(dyadic(1.5), None);
        let (m, s) = dyadic(2f64.powi(-60) * 3.0).unwrap();
        assert_eq!((m, s), (3, 60));
    }

    #[test]
    fn big_arithmetic() {
        let a = Big::from(u64::MAX);
        let sq = a.mul(&a);
        assert_eq!(sq.add(&a.shl(1)).add(&Big::from(1)), Big::from(1).shl(128));
        assert_eq!(
            Big::from(1).shl(128).sub(&Big::from(1)).add(&Big::from(1)),
            Big::from(1).shl(128)
        );
    }
}
