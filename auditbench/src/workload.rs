//! Workload inputs: the record schema, the query pairs of each traffic
//! mix, and the seeded generators that place them on the schema.
//!
//! Every pair is written twice over: as query text for the daemon and as
//! an [`Expr`] the benchmark evaluates itself, so the verdict oracle never
//! depends on the daemon's own query compiler.

use crate::oracle::LocalPair;
use std::collections::HashSet;

/// Records in the benchmark schema (`r0` … `r5`; bit `i` of a world
/// mask is record `ri`'s presence, as in `epi-audit`).
pub const RECORDS: usize = 6;
/// Worlds of the schema (`2^RECORDS`).
pub const WORLDS: usize = 1 << RECORDS;

/// Record names, in schema order.
pub fn record_names() -> Vec<String> {
    (0..RECORDS).map(|i| format!("r{i}")).collect()
}

/// SplitMix64: a small, seedable generator with no dependencies.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A Boolean query over record presence, in the daemon's query language.
#[derive(Clone, Debug)]
pub enum Expr {
    Const(bool),
    Var(usize),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Implies(Box<Expr>, Box<Expr>),
}

impl Expr {
    pub fn var(i: usize) -> Expr {
        Expr::Var(i)
    }

    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    pub fn implies(a: Expr, b: Expr) -> Expr {
        Expr::Implies(Box::new(a), Box::new(b))
    }

    /// Truth value in the world whose bit `i` is record `i`'s presence.
    pub fn eval(&self, world: u32) -> bool {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(i) => world >> i & 1 == 1,
            Expr::Not(e) => !e.eval(world),
            Expr::And(a, b) => a.eval(world) && b.eval(world),
            Expr::Or(a, b) => a.eval(world) || b.eval(world),
            Expr::Implies(a, b) => !a.eval(world) || b.eval(world),
        }
    }

    /// Bitmask over the schema's 64 worlds of the worlds satisfying it.
    pub fn world_mask(&self) -> u64 {
        (0..WORLDS as u32)
            .filter(|&w| self.eval(w))
            .fold(0, |m, w| m | 1 << w)
    }

    /// Records the expression mentions, ascending.
    pub fn mentioned(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(i) => {
                if !out.contains(i) {
                    out.push(*i);
                    out.sort_unstable();
                }
            }
            Expr::Not(e) => e.mentioned(out),
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Implies(a, b) => {
                a.mentioned(out);
                b.mentioned(out);
            }
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(i) => write!(f, "r{i}"),
            Expr::Not(e) => write!(f, "!{e}"),
            Expr::And(a, b) => write!(f, "({a} & {b})"),
            Expr::Or(a, b) => write!(f, "({a} | {b})"),
            Expr::Implies(a, b) => write!(f, "({a} -> {b})"),
        }
    }
}

/// What the construction of a pair says about its verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Known {
    /// Nothing: the oracle decides alone.
    Nothing,
    /// Safe by construction (a placed Remark 5.12 pair).
    Safe,
}

/// One audited property `A` and one disclosed query `B`, with a world
/// in `A ∩ B` to disclose at (so the answer is true and the
/// negative-result rule never skips the decision).
#[derive(Clone, Debug)]
pub struct Pair {
    /// `A` and `B` over the records they mention, for the oracle.
    pub local: LocalPair,
    pub audit_text: String,
    pub query_text: String,
    pub state: u32,
    pub known: Known,
    /// `(A, B)` as 64-world masks: the verdict-cache key.
    pub key: (u64, u64),
}

impl Pair {
    /// Builds a pair, disclosing at a seeded world of `A ∩ B`; `None`
    /// when `A ∩ B` is empty.
    pub fn new(audit: Expr, query: Expr, known: Known, rng: &mut Rng) -> Option<Pair> {
        let key = (audit.world_mask(), query.world_mask());
        let both = key.0 & key.1;
        if both == 0 {
            return None;
        }
        let worlds: Vec<u32> = (0..WORLDS as u32).filter(|w| both >> w & 1 == 1).collect();
        let state = worlds[rng.below(worlds.len())];
        Some(Pair {
            local: LocalPair::of(&audit, &query),
            audit_text: audit.to_string(),
            query_text: query.to_string(),
            state,
            known,
            key,
        })
    }
}

/// The `hot_mix` query set: atoms, conjunctions and §1.1-style
/// implications, all decided by the §5 criteria.
pub fn hot_pairs(rng: &mut Rng) -> Vec<Pair> {
    let v = Expr::var;
    let specs = [
        (v(0), Expr::implies(v(0), v(1))),                 // §1.1: Thm 3.11
        (v(0), v(1)),                                      // independent: Thm 5.7
        (v(0), v(0)),                                      // flagged
        (Expr::and(v(0), v(1)), v(0)),                     // flagged
        (v(2), Expr::or(v(2), v(3))),                      // flagged
        (v(1), Expr::implies(v(1), v(2))),                 // Thm 3.11
        (Expr::and(v(0), v(1)), v(2)),                     // Thm 5.7
        (v(3), Expr::not(v(4))),                           // Thm 5.7
        (Expr::or(v(4), v(5)), Expr::implies(v(4), v(5))), // Thm 3.11
        (Expr::and(v(2), v(3)), Expr::implies(v(3), v(2))), // flagged
        (v(5), Expr::implies(v(5), v(0))),                 // Thm 3.11
        (Expr::and(v(1), v(4)), Expr::and(v(1), v(4))),    // flagged
    ];
    specs
        .into_iter()
        .map(|(a, b)| Pair::new(a, b, Known::Nothing, rng).expect("A ∩ B is nonempty"))
        .collect()
}

/// A pair of sets over `k` local records: bit `w` of `a` is the local
/// world whose bit `j` is record `j`'s presence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Local {
    pub k: usize,
    pub a: u16,
    pub b: u16,
}

impl Local {
    /// All worlds of the `k` local records, as a set.
    pub fn full(k: usize) -> u16 {
        ((1u32 << (1 << k)) - 1) as u16
    }
}

/// The Remark 5.12 pair over three local records: gap
/// `p₁(1−p₁)(p₃−p₂)²` — safe, but zero on an interior surface, so the
/// branch-and-bound cannot close it and the SOS certificate decides.
pub const REMARK_5_12: Local = Local {
    k: 3,
    a: set(&[0b011, 0b100, 0b110, 0b111]),
    b: set(&[0b010, 0b101, 0b110, 0b111]),
};
/// The §1.1 pair: `A` = `r0`, `B` = `r0 -> r1` over local records 0, 1.
#[cfg(test)]
pub const HIV: Local = Local {
    k: 2,
    a: set(&[0b01, 0b11]),
    b: set(&[0b00, 0b10, 0b11]),
};

const fn set(worlds: &[u8]) -> u16 {
    let mut s = 0u16;
    let mut i = 0;
    while i < worlds.len() {
        s |= 1 << worlds[i];
        i += 1;
    }
    s
}

/// One symmetry of the product-prior family on `k` local records:
/// permute the records, complement some of them (`p ↦ 1 − p` maps
/// product priors to product priors), swap `A` and `B` (the condition
/// `P[AB] ≤ P[A]·P[B]` is symmetric), and complement both sets
/// (`(Ā, B̄)` has the same covariance as `(A, B)`). Verdicts are
/// invariant under all of them; the last two leave the safety-gap
/// polynomial itself unchanged.
#[derive(Clone, Debug)]
pub struct Symmetry {
    pub perm: Vec<usize>,
    pub flip: u8,
    pub swap: bool,
    pub co: bool,
}

fn permutations(k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(k - 1) {
        for pos in 0..k {
            let mut q = p.clone();
            q.insert(pos, k - 1);
            out.push(q);
        }
    }
    out
}

impl Symmetry {
    /// The whole group on `k` records (`k!·2^k·4` elements); with
    /// `polynomial_only`, just the permutations and complements, which
    /// are all that can change the safety-gap polynomial.
    pub fn all(k: usize, polynomial_only: bool) -> Vec<Symmetry> {
        let bools: &[bool] = if polynomial_only {
            &[false]
        } else {
            &[false, true]
        };
        let mut out = Vec::new();
        for perm in permutations(k) {
            for flip in 0..1u8 << k {
                for &swap in bools {
                    for &co in bools {
                        out.push(Symmetry {
                            perm: perm.clone(),
                            flip,
                            swap,
                            co,
                        });
                    }
                }
            }
        }
        out
    }

    pub fn random(k: usize, rng: &mut Rng) -> Symmetry {
        let mut perm: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Symmetry {
            perm,
            flip: rng.below(1 << k) as u8,
            swap: rng.below(2) == 1,
            co: rng.below(2) == 1,
        }
    }

    fn map_set(&self, set: u16, k: usize) -> u16 {
        let mut out = 0u16;
        for w in 0..1usize << k {
            if set >> w & 1 == 1 {
                let mut image = 0usize;
                for (j, &target) in self.perm.iter().enumerate() {
                    let bit = (w >> j & 1) ^ (self.flip as usize >> j & 1);
                    image |= bit << target;
                }
                out |= 1 << image;
            }
        }
        out
    }

    /// The image of a local pair.
    pub fn apply(&self, l: Local) -> Local {
        let (mut a, mut b) = (self.map_set(l.a, l.k), self.map_set(l.b, l.k));
        if self.swap {
            std::mem::swap(&mut a, &mut b);
        }
        if self.co {
            a ^= Local::full(l.k);
            b ^= Local::full(l.k);
        }
        Local { k: l.k, a, b }
    }
}

/// All ways to place `k` local records on the six schema records, in
/// increasing order (the symmetries supply the reorderings).
pub fn placements(k: usize) -> Vec<Vec<usize>> {
    fn go(k: usize, from: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for r in from..RECORDS {
            cur.push(r);
            go(k, r + 1, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    go(k, 0, &mut Vec::new(), &mut out);
    out
}

/// The disjunctive normal form of a set of local worlds placed on
/// `records`.
pub fn dnf(set: u16, records: &[usize]) -> Expr {
    let minterm = |w: usize| {
        records
            .iter()
            .enumerate()
            .map(|(j, &r)| {
                if w >> j & 1 == 1 {
                    Expr::var(r)
                } else {
                    Expr::not(Expr::var(r))
                }
            })
            .reduce(Expr::and)
            .expect("at least one literal")
    };
    (0..1usize << records.len())
        .filter(|&w| set >> w & 1 == 1)
        .map(minterm)
        .reduce(Expr::or)
        .unwrap_or(Expr::Const(false))
}

/// A local pair placed on the schema, as a disclosure [`Pair`].
pub fn place(local: Local, records: &[usize], known: Known, rng: &mut Rng) -> Option<Pair> {
    Pair::new(dnf(local.a, records), dnf(local.b, records), known, rng)
}

/// Seeded stream of cold disclosures: each a random symmetry image of a
/// random catalogue pair on a random placement, never repeating a
/// verdict-cache key.
pub struct ColdStream {
    catalogue: Vec<Local>,
    known: Known,
    seen: HashSet<(u64, u64)>,
    rng: Rng,
}

impl ColdStream {
    pub fn new(catalogue: Vec<Local>, known: Known, seed: u64) -> ColdStream {
        ColdStream {
            catalogue,
            known,
            seen: HashSet::new(),
            rng: Rng::new(seed),
        }
    }

    /// The next fresh pair; `None` once a long run of draws found only
    /// keys already used (the key space is nearly exhausted).
    pub fn next_pair(&mut self) -> Option<Pair> {
        for _ in 0..10_000 {
            let local = self.catalogue[self.rng.below(self.catalogue.len())];
            let image = Symmetry::random(local.k, &mut self.rng).apply(local);
            let all = placements(local.k);
            let records = &all[self.rng.below(all.len())];
            let Some(pair) = place(image, records, self.known, &mut self.rng) else {
                continue;
            };
            if self.seen.insert(pair.key) {
                return Some(pair);
            }
        }
        None
    }
}

/// The `cold_bnb` catalogue shipped with the benchmark (see README and
/// the `catalogue` subcommand that regenerates it).
pub fn bnb_catalogue() -> Vec<Local> {
    parse_catalogue(include_str!("../catalogue.txt"))
}

/// Parses `k A B` lines (record count, then two hex sets); `#` starts a
/// comment.
pub fn parse_catalogue(text: &str) -> Vec<Local> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "catalogue line `{l}` is not `k A B`");
            let hex = |s: &str| u16::from_str_radix(s, 16).expect("hex set");
            Local {
                k: f[0].parse().expect("record count"),
                a: hex(f[1]),
                b: hex(f[2]),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hiv_constant_matches_the_query() {
        let mut rng = Rng::new(1);
        let pair = place(HIV, &[0, 1], Known::Nothing, &mut rng).unwrap();
        let direct = (
            Expr::var(0).world_mask(),
            Expr::implies(Expr::var(0), Expr::var(1)).world_mask(),
        );
        assert_eq!(pair.key, direct);
    }

    #[test]
    fn cold_stream_never_repeats_a_key() {
        let mut s = ColdStream::new(vec![REMARK_5_12], Known::Safe, 7);
        let mut seen = HashSet::new();
        for _ in 0..300 {
            let p = s.next_pair().unwrap();
            assert!(seen.insert(p.key));
            assert!((p.key.0 & p.key.1) >> p.state & 1 == 1);
        }
    }
}
