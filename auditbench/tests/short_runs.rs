//! A short run of every workload, untraced and traced, must complete
//! with zero failed operations and every check passing; the traced runs
//! must show the intended layer doing the work.

use std::process::Command;

/// Runs the benchmark and returns the result line's metrics as
/// `(name, value)` pairs, after asserting it passed.
fn run(workload: &str, trace: u8) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_auditbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1.5"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stderr}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");
    // `"name": {"value": v, "unit": "u"}` entries.
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name");
            let value = entry.split("\"value\": ").nth(1).expect("value");
            let value = value
                .split(',')
                .next()
                .unwrap()
                .parse()
                .expect("numeric value");
            (name.to_owned(), value)
        })
        .collect()
}

fn get(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no metric {name} in {metrics:?}"))
        .1
}

#[test]
fn every_workload_runs_clean() {
    for workload in ["hot_mix", "cold_bnb", "cold_sos"] {
        let e2e = run(workload, 0);
        assert_eq!(e2e.len(), 6, "{e2e:?}");
        assert!(get(&e2e, "disclose_rps") > 0.0);
        assert!(get(&e2e, "setup_s") > 0.0);
    }
}

#[test]
fn traced_runs_show_the_intended_layer() {
    let hot = run("hot_mix", 1);
    assert_eq!(get(&hot, "cache.hit_ratio"), 1.0);
    assert_eq!(get(&hot, "pipeline.bnb_decided"), 0.0);

    let bnb = run("cold_bnb", 1);
    assert_eq!(get(&bnb, "cache.hit_ratio"), 0.0);
    assert_eq!(
        get(&bnb, "pipeline.bnb_decided"),
        get(&bnb, "pipeline.decisions")
    );

    let sos = run("cold_sos", 1);
    assert_eq!(get(&sos, "pipeline.bnb_decided"), 0.0);
    assert_eq!(get(&sos, "sos.certified"), get(&sos, "pipeline.decisions"));
}
