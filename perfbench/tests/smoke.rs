//! The benchmark's own smoke test, at tiny scale: every workload runs
//! and answers correctly, the correctness gate trips when the served
//! service corrupts one answer, the traced runs emit every per-layer
//! metric, and `BENCHMARK.json` matches the metric table.

use std::time::Duration;

use perfbench::metrics::{self, Class, DEFS};
use perfbench::{run, Config, Measured, Scale, Workload};

fn config(workload: Workload, trace: bool, corrupt_at: Option<u64>) -> Config {
    Config {
        workload,
        seed: 7,
        duration: Duration::from_millis(600),
        trace,
        scale: Scale::tiny(),
        corrupt_at,
        trace_dir: std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
    }
}

fn run_ok(workload: Workload, trace: bool) -> Measured {
    let measured = run(&config(workload, trace, None)).expect("workload runs");
    assert_eq!(
        measured.gate.mismatches,
        0,
        "{}: {:?}",
        workload.name(),
        measured.gate.first
    );
    assert!(measured.gate.checked > 0);
    assert_eq!(measured.ops.failed, 0, "{:?}", measured.ops.first);
    assert!(measured.ops.attempted > 0);
    measured
}

#[test]
fn every_workload_answers_correctly_and_emits_its_metrics() {
    let mut layers = Vec::new();
    for workload in Workload::ALL {
        let untraced = run_ok(workload, false);
        for m in &untraced.e2e.0 {
            let def = DEFS.iter().find(|d| d.name == m.name);
            assert!(
                def.is_some_and(|d| d.unit == m.unit && d.class != Class::Layer),
                "{} is not an end-to-end metric of the table",
                m.name
            );
        }
        let (line, _) = metrics::result_line(&untraced, false).expect("end-to-end metrics");
        for m in &line {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let traced = run_ok(workload, true);
        for m in &traced.layers.0 {
            assert!(
                DEFS.iter()
                    .any(|d| d.name == m.name && d.unit == m.unit && d.class == Class::Layer),
                "{} is not a per-layer metric of the table",
                m.name
            );
        }
        let (line, _) = metrics::result_line(&traced, true).expect("per-layer metrics");
        assert_eq!(
            line.len(),
            DEFS.iter().filter(|d| d.class == Class::Layer).count()
        );
        layers.extend(traced.layers.0.into_iter().map(|m| m.name));
    }
    for def in DEFS.iter().filter(|d| d.class == Class::Layer) {
        assert!(
            layers.iter().any(|n| n == def.name),
            "no workload emits {}",
            def.name
        );
    }
}

#[test]
fn the_gate_trips_when_one_answer_is_corrupted() {
    for workload in Workload::ALL {
        // Past the ingest warm-up's reads, inside the measured phase.
        let measured = run(&config(workload, false, Some(200))).expect("workload runs");
        assert!(
            measured.gate.mismatches >= 1,
            "{}: a corrupted answer went unnoticed",
            workload.name()
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
    let expected = metrics::benchmark_json();
    assert!(
        file == expected,
        "BENCHMARK.json differs from the metric table; expected:\n{expected}"
    );
}
