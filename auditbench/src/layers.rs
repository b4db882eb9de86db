//! The traced run's in-process probes: the benchmark times its own calls
//! into each layer's public functions on the workload's inputs.
//!
//! * service — `AuditService::handle` on the same disclosure stream as
//!   the TCP run, plus `session` reads;
//! * query — `epi_audit` parse and compile of the stream's queries;
//! * pipeline — `decide_product_pipeline_observed` stage times;
//! * solve — `decide_product_safety` at one and two threads;
//! * kernel — the four Bernstein kernels of `epi_poly::subdivision` on
//!   the workload's 3⁶-element tensor;
//! * sos — `epi_sos::certify_nonneg_on_box_with` on the workload's
//!   safety-gap polynomial.

use crate::catalogue::world_set;
use crate::daemon;
use crate::run::{disclose_request, Checker, Stream, Workload};
use crate::trace::{median, micros_of, Spans};
use crate::workload::{Pair, RECORDS};
use epi_audit::query::parse;
use epi_boolean::Cube;
use epi_core::Deadline;
use epi_poly::{indicator, subdivision};
use epi_service::{AuditService, Request, Response};
use epi_solver::{
    decide_product_pipeline_observed, decide_product_safety, ProductSolverOptions, SafeEvidence,
    Stage, Verdict,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Pairs the solver-layer probes run on: the whole `hot_mix` set, or
/// the first pairs of a cold stream (the same seed, so the same pairs
/// the TCP run began with).
pub fn sample(workload: Workload, seed: u64, cold: usize) -> Vec<Pair> {
    let mut stream = Stream::new(workload, seed);
    if workload == Workload::HotMix {
        return stream.pairs;
    }
    for _ in 0..cold {
        if stream.next_op().is_none() {
            break;
        }
    }
    stream.pairs
}

/// What the in-process service phase measured.
pub struct ServicePhase {
    pub handle_us: Vec<f64>,
    pub session_read_us: Vec<f64>,
    pub checker: Checker,
}

/// Replays the workload's disclosure stream through an in-process
/// [`AuditService`] (same configuration as the daemon, log in `dir`),
/// timing every `handle` call, with a `session` read after every tenth
/// disclosure.
pub fn service_phase(
    workload: Workload,
    seed: u64,
    dir: &Path,
    seconds: f64,
    spans: &mut Spans,
) -> Result<ServicePhase, String> {
    let service = AuditService::open(daemon::schema(), daemon::config(dir))
        .map_err(|e| format!("cannot open the in-process service: {e}"))?;
    let mut stream = Stream::new(workload, seed);
    let mut times = vec![0u64; 1 << 10];
    let mut checker = Checker::default();
    let started = Instant::now();
    let mut n = 0usize;
    while started.elapsed().as_secs_f64() < seconds {
        let Some((p, u)) = stream.next_op() else {
            break;
        };
        times[u] += 1;
        let request = disclose_request(&stream.pairs[p], u, times[u]);
        let reply = spans.span("service.handle", |_| service.handle(&request));
        checker.response(&stream.pairs, p, reply);
        n += 1;
        if n.is_multiple_of(10) {
            let read = Request::SessionInfo {
                user: format!("u{u}"),
            };
            let reply = spans.span("session.read", |_| service.handle(&read));
            if !matches!(reply, Response::SessionInfo(ref s) if s.disclosures == times[u]) {
                return Err(format!("in-process session read disagrees: {reply:?}"));
            }
        }
    }
    let recorded = spans.recorded();
    Ok(ServicePhase {
        handle_us: micros_of(recorded, "service.handle"),
        session_read_us: micros_of(recorded, "session.read"),
        checker,
    })
}

/// Median microseconds to parse and compile a pair's two queries.
pub fn compile_probe(pairs: &[Pair], spans: &mut Spans) -> f64 {
    let schema = daemon::schema();
    for _ in 0..5 {
        for pair in pairs {
            spans.span("query.compile", |_| {
                for text in [&pair.audit_text, &pair.query_text] {
                    let q = parse(text, &schema).expect("the benchmark's queries parse");
                    black_box(q.compile(&schema));
                }
            });
        }
    }
    median(&micros_of(spans.recorded(), "query.compile"))
}

pub struct PipelineProbe {
    pub decide_ms: Vec<f64>,
    pub criteria_us: f64,
    pub box_necessary_us: f64,
    pub tail_ms: f64,
    pub decisions: usize,
    pub bnb_decided: usize,
}

fn keys(cube: &Cube, pair: &Pair) -> (epi_core::WorldSet, epi_core::WorldSet) {
    (world_set(cube, pair.key.0), world_set(cube, pair.key.1))
}

/// Decides every sample pair through the pipeline [`ROUNDS`] times,
/// with its stage times (whole microseconds, so averaged over rounds).
pub fn pipeline_probe(pairs: &[Pair], spans: &mut Spans) -> PipelineProbe {
    const ROUNDS: usize = 3;
    let cube = Cube::new(RECORDS);
    let (mut criteria, mut necessary, mut tail) = (0u64, 0u64, 0u64);
    let mut bnb_decided = 0;
    for (i, pair) in pairs.iter().cycle().take(ROUNDS * pairs.len()).enumerate() {
        let (a, b) = keys(&cube, pair);
        let d = spans.span("pipeline.decide", |_| {
            decide_product_pipeline_observed(
                &cube,
                &a,
                &b,
                ProductSolverOptions::default(),
                &Deadline::none(),
                &mut |stage, micros| match stage {
                    Stage::BoxNecessary => necessary += micros,
                    Stage::BranchAndBound => tail += micros,
                    _ => criteria += micros,
                },
            )
        });
        let by_bnb = d.stage == Stage::BranchAndBound
            && matches!(
                d.verdict,
                Verdict::Safe(SafeEvidence::BranchAndBound { .. }) | Verdict::Unsafe(_)
            );
        if i < pairs.len() {
            bnb_decided += usize::from(by_bnb);
        }
    }
    let n = (ROUNDS * pairs.len()).max(1) as f64;
    PipelineProbe {
        decide_ms: micros_of(spans.recorded(), "pipeline.decide")
            .iter()
            .map(|us| us / 1e3)
            .collect(),
        criteria_us: criteria as f64 / n,
        box_necessary_us: necessary as f64 / n,
        tail_ms: tail as f64 / n / 1e3,
        decisions: pairs.len(),
        bnb_decided,
    }
}

pub struct SolveProbe {
    pub boxes_per_decision: f64,
    pub boxes_per_s_per_core: f64,
    pub scaling_2t: f64,
    pub allocs_per_box: f64,
}

/// The branch-and-bound alone (a 511-box budget, no SOS fallback) on
/// every sample pair, at one and at two threads; each pass repeats the
/// sample until it has run for at least `min_s` seconds.
pub fn solve_probe(pairs: &[Pair], min_s: f64, spans: &mut Spans) -> SolveProbe {
    let cube = Cube::new(RECORDS);
    let sets: Vec<_> = pairs.iter().map(|p| keys(&cube, p)).collect();
    let pass = |threads: usize, spans: &mut Spans, name: &'static str| {
        let options = ProductSolverOptions {
            max_boxes: 511,
            sos_fallback: false,
            threads,
            ..ProductSolverOptions::default()
        };
        // Warm the arenas once, untimed.
        for (a, b) in &sets {
            black_box(decide_product_safety(&cube, a, b, options));
        }
        let (mut boxes, mut decisions) = (0usize, 0usize);
        let allocs = epi_par::heap_allocations();
        let started = Instant::now();
        while decisions == 0 || started.elapsed().as_secs_f64() < min_s {
            spans.span(name, |_| {
                for (a, b) in &sets {
                    boxes += decide_product_safety(&cube, a, b, options)
                        .1
                        .boxes_processed;
                    decisions += 1;
                }
            });
        }
        let seconds = started.elapsed().as_secs_f64();
        (
            boxes,
            decisions,
            seconds,
            epi_par::heap_allocations() - allocs,
        )
    };
    let (boxes, decisions, t1, allocs) = pass(1, spans, "solve.pass_1t");
    let (boxes2, decisions2, t2, _) = pass(2, spans, "solve.pass_2t");
    let _ = boxes2;
    SolveProbe {
        boxes_per_decision: boxes as f64 / decisions as f64,
        boxes_per_s_per_core: boxes as f64 / t1,
        scaling_2t: (decisions2 as f64 / t2) / (decisions as f64 / t1),
        allocs_per_box: if boxes > 0 {
            allocs as f64 / boxes as f64
        } else {
            0.0
        },
    }
}

pub struct KernelProbe {
    pub split_halves: f64,
    pub coefficient_range: f64,
    pub midpoint_split_axis: f64,
    pub widest_axis: f64,
}

/// Nanoseconds per tensor element of the four Bernstein kernels on the
/// safety-gap tensor of the first sample pair with a non-zero gap (the
/// 3⁶-element tensor the solver's sweeps see); each the median of five
/// timed batches.
pub fn kernel_probe(pairs: &[Pair], spans: &mut Spans) -> KernelProbe {
    const CALLS: usize = 4000;
    let cube = Cube::new(RECORDS);
    let bern = pairs
        .iter()
        .map(|p| {
            let (a, b) = keys(&cube, p);
            let pow3 = indicator::safety_gap_pow3::<f64>(RECORDS, &a, &b);
            let mut bern = epi_solver::bernstein::DenseTensor::from_dense_pow3(&pow3)
                .coeffs()
                .to_vec();
            subdivision::pow3_to_bernstein(&mut bern, RECORDS);
            bern
        })
        .find(|t| t.iter().any(|&c| c != 0.0))
        .expect("a sample pair with a non-zero safety gap");
    let n = RECORDS;
    let len = bern.len() as f64;
    let mut time = |name: &'static str, f: &mut dyn FnMut()| {
        let mut batches = Vec::with_capacity(5);
        for _ in 0..5 {
            let started = Instant::now();
            spans.span(name, |_| {
                for _ in 0..CALLS {
                    f();
                }
            });
            batches.push(started.elapsed().as_nanos() as f64 / CALLS as f64 / len);
        }
        median(&batches)
    };
    let (mut left, mut right, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    let split_halves = time("kernel.split_halves", &mut || {
        subdivision::split_halves(black_box(&bern), n, n / 2, &mut left, &mut right);
        black_box(&left);
    });
    let coefficient_range = time("kernel.coefficient_range", &mut || {
        black_box(subdivision::coefficient_range(black_box(&bern)));
    });
    let midpoint_split_axis = time("kernel.midpoint_split_axis", &mut || {
        black_box(subdivision::midpoint_and_split_axis(
            black_box(&bern),
            n,
            &mut scratch,
        ));
    });
    let widest_axis = time("kernel.widest_axis", &mut || {
        black_box(subdivision::widest_derivative_axis(black_box(&bern), n));
    });
    KernelProbe {
        split_halves,
        coefficient_range,
        midpoint_split_axis,
        widest_axis,
    }
}

pub struct SosProbe {
    pub certify_ms: f64,
    pub attempted: usize,
    pub certified: usize,
}

/// `certify_nonneg_on_box_with` on each sample pair's safety-gap
/// polynomial, with the options the solver's SOS fallback uses.
pub fn sos_probe(pairs: &[Pair], spans: &mut Spans) -> SosProbe {
    let cube = Cube::new(RECORDS);
    let mut certified = 0;
    for pair in pairs {
        let (a, b) = keys(&cube, pair);
        let gap = indicator::safety_gap_polynomial::<f64>(RECORDS, &a, &b);
        let cert = spans.span("sos.certify", |_| {
            epi_sos::certify_nonneg_on_box_with(
                &gap,
                0,
                epi_sdp::SdpOptions::default(),
                epi_sos::BoxMultipliers::PairedBoxes,
            )
        });
        certified += usize::from(cert.is_some());
    }
    let ms: Vec<f64> = micros_of(spans.recorded(), "sos.certify")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    SosProbe {
        certify_ms: median(&ms),
        attempted: pairs.len(),
        certified,
    }
}
