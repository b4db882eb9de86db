//! Regenerates the `cold_bnb` pair catalogue from scratch.
//!
//! Selection rule (see README.md): draw pairs `(A, B)` of sets over
//! four records with `A ∩ B ≠ ∅` from SplitMix64 seed 0. Keep a drawn
//! pair's [`Symmetry`] orbit, as its smallest image, when the pair,
//! placed on records `r0..r3` of the six-record schema, is decided by
//! the branch-and-bound stage of the decision pipeline in 16 to 511
//! boxes without the SOS fallback; when the orbit is not kept already;
//! and when **every** record permutation and complement of the smallest
//! image on `r0..r3`, and that image on **every** placement, is also
//! decided by the branch-and-bound within 511 boxes. (Box counts are not invariant under the symmetries: the
//! warm-start ascent finds some images' witnesses before any box.) Stop
//! at [`TARGET`] orbits. The file lists sets only; verdicts are never
//! copied from it, the oracle recomputes them.
//!
//! Three-record pairs cannot fill the window: all 429 orbits over three
//! records were enumerated, and only four reach the branch-and-bound —
//! decided in 0, 3, 513 (SOS) and 807 (SOS) boxes.

use crate::workload::{place, placements, Known, Local, Rng, Symmetry, RECORDS};
use epi_boolean::Cube;
use epi_core::WorldSet;
use epi_solver::{decide_product_pipeline, ProductSolverOptions, SafeEvidence, Stage, Verdict};

/// Inclusive box-count window of a catalogue pair.
pub const MIN_BOXES: usize = 16;
pub const MAX_BOXES: usize = 511;
/// Orbits the catalogue keeps.
pub const TARGET: usize = 24;
/// Records of a catalogue pair.
pub const K: usize = 4;

/// A 64-world mask as a [`WorldSet`] of the six-record cube.
pub fn world_set(cube: &Cube, mask: u64) -> WorldSet {
    cube.set_from_masks((0..64u32).filter(|w| mask >> w & 1 == 1))
}

/// Boxes the pipeline's branch-and-bound needed to decide the pair, or
/// `None` when another stage, the SOS fallback or nobody decided it.
pub fn bnb_boxes(cube: &Cube, key: (u64, u64)) -> Option<usize> {
    let a = world_set(cube, key.0);
    let b = world_set(cube, key.1);
    // A budget of exactly the window's top and no SOS fallback: pairs
    // decided inside the window are decided identically (same boxes, same
    // verdict) as under the daemon's default options, and the rest are
    // rejected cheaply. The deterministic search gives the same verdict
    // and box count at any thread count.
    let options = ProductSolverOptions {
        max_boxes: MAX_BOXES,
        sos_fallback: false,
        threads: 1,
        ..ProductSolverOptions::default()
    };
    let d = decide_product_pipeline(cube, &a, &b, options);
    let by_bnb = d.stage == Stage::BranchAndBound
        && matches!(
            d.verdict,
            Verdict::Safe(SafeEvidence::BranchAndBound { .. }) | Verdict::Unsafe(_)
        );
    by_bnb.then_some(d.boxes_processed)
}

/// Runs the selection and prints the catalogue file to stdout.
pub fn regenerate() {
    let group = Symmetry::all(K, false);
    let shapes = Symmetry::all(K, true);
    let places = placements(K);
    let mut rng = Rng::new(0);
    let mut kept: Vec<(Local, usize, usize)> = Vec::new();
    let mut draws = 0u64;
    while kept.len() < TARGET {
        draws += 1;
        let (a, b) = (rng.next_u64() as u16, rng.next_u64() as u16);
        let drawn = Local { k: K, a, b };
        if a & b == 0 || box_range(&[drawn], &places[..1]).is_none_or(|(lo, _)| lo < MIN_BOXES) {
            continue;
        }
        // The orbit's smallest image among those the stream can generate
        // (`(Ā, B̄)` may have an empty intersection).
        let local = group
            .iter()
            .map(|g| g.apply(drawn))
            .filter(|l| l.a & l.b != 0)
            .min()
            .expect("the drawn pair qualifies");
        if kept.iter().any(|(l, _, _)| *l == local) {
            continue;
        }
        let images: Vec<Local> = shapes.iter().map(|g| g.apply(local)).collect();
        let ranges = [
            box_range(&images, &places[..1]),
            box_range(&[local], &places),
        ];
        if let [Some(x), Some(y)] = ranges {
            let range = (x.0.min(y.0), x.1.max(y.1));
            eprintln!(
                "kept {:04x} {:04x}: {}..={} boxes",
                local.a, local.b, range.0, range.1
            );
            kept.push((local, range.0, range.1));
        }
    }
    println!("# cold_bnb catalogue: `k A B`, pairs of sets over k local records as");
    println!("# hex bitmasks (bit w = local world w; bit j of w = local record j present).");
    println!("# Regenerate with `auditbench catalogue`; selection rule in README.md.");
    println!("# {TARGET} orbits kept from {draws} draws.");
    for (l, lo, hi) in &kept {
        println!("{} {:04x} {:04x}  # {lo}..={hi} boxes", l.k, l.a, l.b);
    }
}

/// The fewest and most boxes the branch-and-bound needs over every pair
/// on every placement, or `None` when one of them is not decided there
/// within the window's top. Splits the work over two threads.
fn box_range(pairs: &[Local], places: &[Vec<usize>]) -> Option<(usize, usize)> {
    let cube = Cube::new(RECORDS);
    let jobs: Vec<(Local, &Vec<usize>)> = pairs
        .iter()
        .flat_map(|&l| places.iter().map(move |r| (l, r)))
        .collect();
    let half = jobs.len().div_ceil(2);
    let range = |jobs: &[(Local, &Vec<usize>)]| {
        let mut rng = Rng::new(1);
        jobs.iter().try_fold((usize::MAX, 0), |(lo, hi), (l, r)| {
            let pair = place(*l, r, Known::Nothing, &mut rng).expect("A ∩ B is non-empty");
            bnb_boxes(&cube, pair.key).map(|n| (lo.min(n), hi.max(n)))
        })
    };
    let (x, y) = std::thread::scope(|s| {
        let other = s.spawn(|| range(&jobs[half..]));
        (
            range(&jobs[..half]),
            other.join().expect("catalogue thread"),
        )
    });
    Some((x?.0.min(y?.0), x?.1.max(y?.1)))
}
