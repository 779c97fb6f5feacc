//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the machine fingerprint, a report line with every measured
//! figure, and as its last line the result: `correct`, `attempted`,
//! `failed` and the metrics (end-to-end untraced, per-layer traced).
//! Exits 1 when an answer is wrong or the run fails, 2 on bad flags.

use perfbench::{fingerprint, json_metrics, json_string, metrics, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match Config::from_args(&args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let measured = match perfbench::run(&config) {
        Ok(measured) => measured,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", config.workload.name());
            std::process::exit(1);
        }
    };
    let (line, idle) = match metrics::result_line(&measured, config.trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let correct = measured.gate.mismatches == 0;
    println!(
        "{{\"fingerprint\": {}}}",
        fingerprint::fingerprint(config.workload.name(), config.seed)
    );
    let mut report = measured.e2e.0.clone();
    report.extend(measured.detail.0.iter().cloned());
    let idle: Vec<String> = idle.iter().map(|n| json_string(n)).collect();
    let first: Vec<String> = measured
        .gate
        .first
        .iter()
        .chain(&measured.ops.first)
        .map(|m| json_string(m))
        .collect();
    println!(
        "{{\"report\": {}, \"checked\": {}, \"mismatches\": {}, \"not_exercised\": [{}], \"first_problems\": [{}]}}",
        json_metrics(&report),
        measured.gate.checked,
        measured.gate.mismatches,
        idle.join(", "),
        first.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.ops.attempted.max(1),
        measured.ops.failed,
        json_metrics(&line)
    );
    if !correct {
        eprintln!(
            "perfbench: {} wrong answers, first: {:?}",
            measured.gate.mismatches, measured.gate.first
        );
        std::process::exit(1);
    }
}
