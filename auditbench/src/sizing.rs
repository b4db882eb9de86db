//! `auditbench sizing <case>`: reproduces the faults found while sizing
//! the workloads (README, "Findings"). Each case prints its timings.
//!
//! * `deadline` — the 5-record tensor of the Remark 5.12 and §1.1 pairs
//!   under a 20 s request deadline: the SOS fallback never checks it;
//! * `width` — the Remark 5.12 decision with 3 records mentioned on
//!   schemas of 3 to 12 records: unmentioned records still cost `3ⁿ`;
//! * `auto7` — the `cold_bnb` catalogue on seven records, where
//!   `SubdivisionMode::Auto` switches to recompute: box counts past the
//!   512-box SOS checkpoint.

use crate::catalogue::MAX_BOXES;
use crate::workload::{bnb_catalogue, dnf, REMARK_5_12};
use epi_boolean::Cube;
use epi_core::{Deadline, WorldSet};
use epi_solver::{
    decide_product_pipeline, decide_product_pipeline_deadline, ProductSolverOptions, Verdict,
};
use std::time::{Duration, Instant};

fn verdict(v: &Verdict<epi_solver::ProductWitness>) -> &'static str {
    match v {
        Verdict::Safe(_) => "safe",
        Verdict::Unsafe(_) => "flagged",
        Verdict::Unknown => "undecided",
    }
}

/// A local pair on records `0..k` of an `n`-record cube.
fn on_cube(n: usize, k: usize, a: u16, b: u16) -> (Cube, WorldSet, WorldSet) {
    let cube = Cube::new(n);
    let records: Vec<usize> = (0..k).collect();
    let (ea, eb) = (dnf(a, &records), dnf(b, &records));
    let sa = cube.set_from_predicate(|w| ea.eval(w));
    let sb = cube.set_from_predicate(|w| eb.eval(w));
    (cube, sa, sb)
}

pub fn run(case: &str) -> Result<(), String> {
    match case {
        "deadline" => {
            let (cube, a, b) =
                epi_bench::tensor_pair(&epi_bench::remark_5_12_pair(), &epi_bench::hiv_pair());
            let started = Instant::now();
            let d = decide_product_pipeline_deadline(
                &cube,
                &a,
                &b,
                ProductSolverOptions::default(),
                &Deadline::within(Duration::from_secs(20)),
            );
            println!(
                "5-record tensor under a 20 s deadline: {} after {:.1} s",
                verdict(&d.verdict),
                started.elapsed().as_secs_f64()
            );
        }
        "width" => {
            for n in [3, 6, 8, 10] {
                let (cube, a, b) = on_cube(n, 3, REMARK_5_12.a, REMARK_5_12.b);
                let started = Instant::now();
                let d = decide_product_pipeline(&cube, &a, &b, ProductSolverOptions::default());
                println!(
                    "Remark 5.12 on {n} records: {} in {:.1} ms",
                    verdict(&d.verdict),
                    started.elapsed().as_secs_f64() * 1e3
                );
            }
        }
        "auto7" => {
            // The SOS fallback is off here: with it on, a pair past the
            // checkpoint goes to the SDP solver for minutes.
            let options = ProductSolverOptions {
                sos_fallback: false,
                ..ProductSolverOptions::default()
            };
            for l in bnb_catalogue() {
                let boxes = |n| {
                    let (cube, a, b) = on_cube(n, l.k, l.a, l.b);
                    decide_product_pipeline(&cube, &a, &b, options).boxes_processed
                };
                let (six, seven) = (boxes(6), boxes(7));
                let flag = if seven > MAX_BOXES {
                    "  past the checkpoint"
                } else {
                    ""
                };
                println!(
                    "{:04x} {:04x}: {six} boxes on 6 records, {seven} on 7{flag}",
                    l.a, l.b
                );
            }
        }
        _ => {
            return Err(format!(
                "unknown sizing case `{case}` (deadline, width, auto7)"
            ))
        }
    }
    Ok(())
}
