//! Every metric the benchmark reports: its unit, better direction,
//! layer, and the end-to-end metric and workload it feeds.
//!
//! `BENCHMARK.json` lists the gated end-to-end metrics and the
//! per-layer metrics; the smoke test checks that it agrees with this
//! table. A gated metric is measured on every workload and never reads
//! 0, so the figures only some workloads produce (report and point
//! rates, seal latency, per-method and LDP accuracy) and the failure
//! ratio are printed on the report line instead. So are the wall-clock
//! throughput and latencies and the raw CPU throughput: on a shared host
//! they moved by 20–76 % between runs of the same code. The gated
//! `queries_per_nominal_cpu_s` and `setup_s` are scaled by the speed of
//! fixed reference jobs timed alongside them ([`crate::reference`]). On
//! `ingest_epochs` each tick does a fixed amount of every kind of work,
//! so `queries_per_nominal_cpu_s` moves with the cost of its reports,
//! points and seals too.

use crate::{json_number, json_string, Measured, Metric, Workload};

/// Seconds each run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// The command that runs the benchmark, before its flags.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// How a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    /// Printed on the result line of untraced runs, on every workload,
    /// and gated by `bound` (the share of the parent's median it may
    /// worsen by).
    EndToEnd {
        /// The allowed worsening, as a share of the parent's median.
        bound: f64,
    },
    /// An end-to-end figure of some workloads only, printed on their
    /// report line.
    Reported,
    /// Printed on the result line of traced runs.
    Layer,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name on the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// How it is reported.
    pub class: Class,
    /// The layer (crate and module) it measures.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move.
    pub feeds: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        class: Class::EndToEnd { bound },
        layer: "end_to_end",
        feeds: "",
    }
}

const fn reported(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        class: Class::Reported,
        layer: "end_to_end",
        feeds: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    feeds: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        class: Class::Layer,
        layer,
        feeds,
    }
}

/// The table.
pub const DEFS: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("queries_per_nominal_cpu_s", "1/cpu_s", "higher", 0.25),
    e2e("rel_error", "ratio", "lower", 0.15),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
    reported("queries_per_cpu_s", "1/cpu_s", "higher"),
    reported("queries_per_s", "1/s", "higher"),
    reported("request_p50_ms", "ms", "lower"),
    reported("request_p99_ms", "ms", "lower"),
    reported("failed_ratio", "ratio", "lower"),
    reported("reports_per_s", "1/s", "higher"),
    reported("points_per_s", "1/s", "higher"),
    reported("seal_p50_ms", "ms", "lower"),
    reported("seal_p90_ms", "ms", "lower"),
    reported("rel_error_ug", "ratio", "lower"),
    reported("rel_error_ag", "ratio", "lower"),
    reported("ldp_mae", "ratio", "lower"),
    layer(
        "net.roundtrip_self_us_p50",
        "us",
        "lower",
        "net",
        "request_p50_ms on read_small",
    ),
    layer(
        "net.inbound_us_p50",
        "us",
        "lower",
        "net",
        "request_p50_ms on read_small",
    ),
    layer(
        "net.bytes_per_rect",
        "B",
        "lower",
        "net",
        "queries_per_s on read_bulk",
    ),
    layer(
        "net.write_stalls",
        "count",
        "lower",
        "net",
        "request_p99_ms on read_bulk",
    ),
    layer(
        "serve.wire.encode_ns_per_rect",
        "ns",
        "lower",
        "serve.wire",
        "queries_per_s on read_bulk",
    ),
    layer(
        "serve.wire.decode_ns_per_rect",
        "ns",
        "lower",
        "serve.wire",
        "queries_per_s on read_bulk",
    ),
    layer(
        "serve.wire.report_decode_ns_per_report",
        "ns",
        "lower",
        "serve.wire",
        "reports_per_s on ingest_epochs",
    ),
    layer(
        "serve.shard.router_self_us_p50",
        "us",
        "lower",
        "serve.shard",
        "request_p50_ms on read_small",
    ),
    layer(
        "serve.engine.request_us_p50",
        "us",
        "lower",
        "serve.engine",
        "request_p50_ms on read_small, queries_per_s on read_bulk",
    ),
    layer(
        "serve.engine.busy_s",
        "s",
        "lower",
        "serve.engine",
        "queries_per_s on read_bulk",
    ),
    layer(
        "serve.engine.shed",
        "count",
        "lower",
        "serve.engine",
        "failed_ratio",
    ),
    layer(
        "serve.catalog.hit_ratio",
        "ratio",
        "higher",
        "serve.catalog",
        "request_p99_ms on ingest_epochs",
    ),
    layer(
        "serve.catalog.compilations",
        "count",
        "lower",
        "serve.catalog",
        "request_p99_ms on ingest_epochs",
    ),
    layer(
        "serve.catalog.evictions",
        "count",
        "lower",
        "serve.catalog",
        "request_p99_ms on ingest_epochs",
    ),
    layer(
        "serve.catalog.resident_mb",
        "MiB",
        "lower",
        "serve.catalog",
        "peak_rss_mb on ingest_epochs",
    ),
    layer(
        "serve.catalog.compile_ms_p50",
        "ms",
        "lower",
        "serve.catalog",
        "request_p99_ms on ingest_epochs",
    ),
    layer(
        "core.surface.ug_ns_per_rect",
        "ns",
        "lower",
        "core.surface",
        "queries_per_s on read_bulk; no change on read_small",
    ),
    layer(
        "core.surface.ag_ns_per_rect",
        "ns",
        "lower",
        "core.surface",
        "queries_per_s on read_bulk",
    ),
    layer(
        "serve.window.request_us_p50",
        "us",
        "lower",
        "serve.window",
        "request_p50_ms on ingest_epochs",
    ),
    layer(
        "core.temporal.compact_ms",
        "ms",
        "lower",
        "core.temporal",
        "seal_p90_ms on ingest_epochs",
    ),
    layer(
        "ldp.submit_us_per_batch",
        "us",
        "lower",
        "ldp",
        "reports_per_s on ingest_epochs",
    ),
    layer(
        "ldp.seal_ms_p50",
        "ms",
        "lower",
        "ldp",
        "seal_p50_ms on ingest_epochs",
    ),
    layer(
        "ldp.reports_accepted",
        "count",
        "higher",
        "ldp",
        "reports_per_s on ingest_epochs",
    ),
    layer(
        "kernels.fold_grr_ns_per_report",
        "ns",
        "lower",
        "kernels",
        "reports_per_s on ingest_epochs",
    ),
    layer(
        "kernels.fold_oue_ns_per_report",
        "ns",
        "lower",
        "kernels",
        "reports_per_s on ingest_epochs",
    ),
    layer(
        "mech.debias_ns_per_cell",
        "ns",
        "lower",
        "mech",
        "seal_p50_ms on ingest_epochs",
    ),
    layer(
        "mech.laplace_ns_per_draw",
        "ns",
        "lower",
        "mech",
        "seal_p50_ms on ingest_epochs, setup_s on read_bulk",
    ),
    layer(
        "stream.push_ns_per_point",
        "ns",
        "lower",
        "stream",
        "points_per_s on ingest_epochs",
    ),
    layer(
        "stream.seal_ms_p50",
        "ms",
        "lower",
        "stream",
        "seal_p50_ms on ingest_epochs",
    ),
    layer(
        "core.publish_ms",
        "ms",
        "lower",
        "core",
        "setup_s on read_bulk",
    ),
    layer(
        "trace.request_us_p50",
        "us",
        "lower",
        "bench",
        "request_p50_ms (traced request time the breakdown accounts for)",
    ),
    layer(
        "trace.unattributed_us_p50",
        "us",
        "lower",
        "bench",
        "request time no span covers",
    ),
    layer(
        "trace.accounted_ratio",
        "ratio",
        "higher",
        "bench",
        "mean self times plus unattributed over mean request time",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "bench",
        "traced over untraced request_p50_ms, minus 1",
    ),
    layer("trace.spans", "count", "higher", "bench", "spans recorded"),
];

/// The result-line metrics of a run: every gated end-to-end metric
/// (untraced) or every per-layer metric (traced). Per-layer metrics a
/// workload does not exercise read 0; their names are returned too.
pub fn result_line(measured: &Measured, trace: bool) -> Result<(Vec<Metric>, Vec<String>), String> {
    let mut out = Vec::new();
    let mut idle = Vec::new();
    for def in DEFS {
        let source = match (def.class, trace) {
            (Class::EndToEnd { .. }, false) => &measured.e2e,
            (Class::Layer, true) => &measured.layers,
            _ => continue,
        };
        let value = match source.get(def.name) {
            Some(v) => v,
            None if trace => {
                idle.push(def.name.to_string());
                0.0
            }
            None => return Err(format!("end-to-end metric {} was not measured", def.name)),
        };
        out.push(Metric {
            name: def.name.to_string(),
            value,
            unit: def.unit.to_string(),
        });
    }
    Ok((out, idle))
}

/// `BENCHMARK.json` as this table defines it.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| json_string(c)).collect();
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_string(w.name()),
                json_string(w.why())
            )
        })
        .collect();
    let of = |pick: fn(&Def) -> Option<String>| DEFS.iter().filter_map(pick).collect();
    let end_to_end = of(|d| match d.class {
        Class::EndToEnd { bound } => Some(format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
            json_string(d.name),
            json_string(d.unit),
            json_string(d.better),
            json_number(bound)
        )),
        _ => None,
    });
    let per_layer = of(|d| match d.class {
        Class::Layer => Some(format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
            json_string(d.name),
            json_string(d.unit),
            json_string(d.better)
        )),
        _ => None,
    });
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}
