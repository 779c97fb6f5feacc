//! The dpgrid benchmark: three closed-loop workloads against the real
//! serving stack over loopback TCP, with a correctness gate, served
//! accuracy, and a traced per-layer breakdown.
//!
//! Every workload serves binary v2 frames from one `MuxServer` whose
//! service is a `ShardRouter` over two in-process `LocalShard`s:
//!
//! * `read_small` — two connections of 8-rectangle queries against
//!   guideline-size UG releases with a warm catalog; per-frame cost in
//!   `net`, `serve.wire`, `serve.shard` and `serve.engine` dominates.
//! * `read_bulk` — one connection of 1024-rectangle queries cycling
//!   over independent UG and AG draws; `core.surface` and per-rectangle
//!   codec cost dominate, and the draws feed the accuracy figures.
//! * `ingest_epochs` — one connection interleaving GRR+OUE report
//!   batches, a point stream, epoch seals and reads (windows, the
//!   newest LDP epoch, older epochs past the catalog's byte budget).
//!
//! [`run`] measures one workload; `src/main.rs` is the command line.
//! The metric names, units, layers and the end-to-end metric each
//! layer metric feeds are listed in [`metrics::DEFS`].

pub mod fingerprint;
pub mod fixture;
pub mod ingest;
pub mod metrics;
pub mod reads;
pub mod reference;
pub mod replay;
pub mod stack;
pub mod stats;
pub mod trace;

use std::time::Duration;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small warm reads over two connections.
    ReadSmall,
    /// Bulk reads over UG and AG draws.
    ReadBulk,
    /// Reports, points, seals and reads over one connection.
    IngestEpochs,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ReadSmall,
        Workload::ReadBulk,
        Workload::IngestEpochs,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSmall => "read_small",
            Workload::ReadBulk => "read_bulk",
            Workload::IngestEpochs => "ingest_epochs",
        }
    }

    /// Why the workload exists, as recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadSmall => {
                "two connections of 8-rect queries to warm UG releases: per-frame cost in net, \
                 serve.wire, serve.shard and serve.engine sets the result, the surface barely shows"
            }
            Workload::ReadBulk => {
                "one connection of 1024-rect queries over 3 UG and 5 AG draws: core.surface and \
                 per-rect codec cost dominate, and the draws feed the served accuracy"
            }
            Workload::IngestEpochs => {
                "GRR+OUE reports, a point stream, epoch seals and reads of windows and evicted \
                 epochs: the only load on kernels, ldp, mech, stream, core.temporal and eviction"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::full`] is what the command line runs;
/// [`Scale::tiny`] keeps the smoke test fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Points in the landmark dataset of the read workloads.
    pub points: usize,
    /// Times the set-up is repeated (the median is reported).
    pub setups: usize,
    /// UG draws served by `read_small`.
    pub small_draws: usize,
    /// Rectangles per q-size in each `read_small` connection's pool.
    pub small_per_size: usize,
    /// UG draws served by `read_bulk`.
    pub bulk_ug_draws: usize,
    /// AG draws served by `read_bulk`.
    pub bulk_ag_draws: usize,
    /// Rectangles per q-size in the `read_bulk` pool.
    pub bulk_per_size: usize,
    /// Rectangles per `read_bulk` request.
    pub bulk_rects: usize,
    /// Reports per batch in `ingest_epochs` (each tick sends four GRR
    /// and four OUE batches).
    pub reports_per_batch: usize,
    /// Distinct epochs of reports and of stream points, cycled.
    pub report_epochs: usize,
    /// Stream points pushed per tick.
    pub points_per_tick: usize,
    /// Rectangles per window query.
    pub window_rects: usize,
    /// Rectangles per q-size in the pool the window queries rotate
    /// through.
    pub window_pool_per_size: usize,
}

impl Scale {
    /// The benchmark's scale.
    pub fn full() -> Self {
        Scale {
            points: 100_000,
            setups: 9,
            small_draws: 4,
            small_per_size: 1024,
            bulk_ug_draws: 3,
            bulk_ag_draws: 5,
            bulk_per_size: 4096,
            bulk_rects: 1024,
            reports_per_batch: 256,
            report_epochs: 16,
            points_per_tick: 2_000,
            window_rects: 60,
            window_pool_per_size: 1000,
        }
    }

    /// A scale small enough for a unit test.
    pub fn tiny() -> Self {
        Scale {
            points: 5_000,
            setups: 2,
            small_draws: 2,
            small_per_size: 16,
            bulk_ug_draws: 1,
            bulk_ag_draws: 2,
            bulk_per_size: 32,
            bulk_rects: 64,
            reports_per_batch: 32,
            report_epochs: 3,
            points_per_tick: 200,
            window_rects: 12,
            window_pool_per_size: 4,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seeds every input.
    pub seed: u64,
    /// Measured time.
    pub duration: Duration,
    /// Whether to record spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Makes the served service corrupt the `n`-th answer (testing the
    /// correctness gate).
    pub corrupt_at: Option<u64>,
    /// Where traced runs write their spans.
    pub trace_dir: std::path::PathBuf,
}

impl Config {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                        return Err(format!("--seconds {s} is outside (0, 120]"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            duration: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.unwrap_or(false),
            scale: Scale::full(),
            corrupt_at: None,
            trace_dir: std::path::PathBuf::from("perfbench/out"),
        })
    }
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name (see [`metrics::DEFS`]).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Appends metrics by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// The value under `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// The correctness gate: every served answer, window and ack is
/// compared with its expected value.
#[derive(Debug, Default, Clone)]
pub struct Gate {
    /// Values compared.
    pub checked: u64,
    /// Values that disagreed.
    pub mismatches: u64,
    /// The first few disagreements, described.
    pub first: Vec<String>,
}

impl Gate {
    /// Records a disagreement.
    pub fn fail(&mut self, what: String) {
        self.mismatches += 1;
        if self.first.len() < 5 {
            self.first.push(what);
        }
    }

    /// Served answers must equal the in-process answers bit for bit:
    /// both come from the same compiled surface code, and binary v2
    /// carries f64 bits unchanged.
    pub fn exact(&mut self, what: impl FnOnce() -> String, got: &[f64], want: &[f64]) {
        self.checked += want.len() as u64;
        if got.len() != want.len() {
            let what = what();
            return self.fail(format!(
                "{what}: {} answers, expected {}",
                got.len(),
                want.len()
            ));
        }
        if let Some(i) = (0..want.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            let what = what();
            self.fail(format!(
                "{what}: answer {i} is {}, expected {}",
                got[i], want[i]
            ));
        }
    }

    /// Compares one count.
    pub fn count(&mut self, what: &str, got: u64, want: u64) {
        self.checked += 1;
        if got != want {
            self.fail(format!("{what}: {got}, expected {want}"));
        }
    }

    /// Merges another gate's findings.
    pub fn merge(&mut self, other: Gate) {
        self.checked += other.checked;
        for what in other.first {
            if self.first.len() < 5 {
                self.first.push(what);
            }
        }
        self.mismatches += other.mismatches;
    }
}

/// Operations attempted and failed by the load, with the first few
/// failures described.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Of those, failed or refused (typed overload included).
    pub failed: u64,
    /// The first few failures.
    pub first: Vec<String>,
}

impl Ops {
    /// Counts one operation and its outcome.
    pub fn record<T, E: std::fmt::Display>(&mut self, what: &str, result: &Result<T, E>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.first.len() < 5 {
                self.first.push(format!("{what}: {e}"));
            }
        }
    }

    /// Counts `n` operations that failed and were retried out of sight
    /// (a client redialing a dropped connection).
    pub fn hidden_retries(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
        if n > 0 && self.first.len() < 5 {
            self.first.push(format!("{n} silent reconnects"));
        }
    }

    /// Merges another counter.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for what in other.first {
            if self.first.len() < 5 {
                self.first.push(what);
            }
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Every end-to-end figure, including the workload's own ones.
    pub e2e: Metrics,
    /// Per-layer figures (traced runs only).
    pub layers: Metrics,
    /// Sample counts and load-loop health, for the report line.
    pub detail: Metrics,
    /// The correctness gate.
    pub gate: Gate,
    /// Operation counts of the measured phase.
    pub ops: Ops,
}

impl Measured {
    /// The end-to-end figures every workload measures, from its set-up
    /// times and its untraced phase of `wall_s` seconds.
    pub fn put_common(&mut self, setup: &SetupTimes, summary: &stats::Summary, wall_s: f64) {
        let e2e = &mut self.e2e;
        e2e.put("setup_s", stats::median(&setup.nominal_s), "s");
        e2e.put(
            "queries_per_nominal_cpu_s",
            summary.rects_per_nominal_cpu_s,
            "1/cpu_s",
        );
        e2e.put("queries_per_cpu_s", summary.rects_per_cpu_s, "1/cpu_s");
        e2e.put("queries_per_s", summary.rects_per_s, "1/s");
        e2e.put("request_p50_ms", summary.p50_ms, "ms");
        e2e.put("request_p99_ms", summary.p99_ms, "ms");
        e2e.put("peak_rss_mb", summary.peak_rss_mb, "MiB");
        let detail = &mut self.detail;
        detail.put("setup_runs", setup.wall_s.len() as f64, "count");
        detail.put("setup_wall_s", stats::median(&setup.wall_s), "s");
        detail.put("measured_s", wall_s, "s");
        detail.put("request_samples", summary.requests as f64, "count");
        detail.put("throughput_windows", summary.windows as f64, "count");
        detail.put("latency_blocks", summary.blocks as f64, "count");
        detail.put("cpu_windows", summary.cpu_windows as f64, "count");
        detail.put("speed_index", summary.speed, "ratio");
        detail.put("vm_hwm_mb", stats::peak_rss_mb(), "MiB");
        detail.put(
            "queries_per_s_whole_run",
            summary.rects as f64 / wall_s,
            "1/s",
        );
    }

    /// Closes the books: counts the server's extra connections as hidden
    /// retries and puts the failure ratio.
    pub fn finish_ops(&mut self, reconnects: u64) {
        self.ops.hidden_retries(reconnects);
        let ratio = self.ops.failed as f64 / self.ops.attempted.max(1) as f64;
        self.e2e.put("failed_ratio", ratio, "ratio");
    }
}

/// The untraced time of a run is split into this many rounds, each on
/// a new server with new connections and load threads. Where the
/// scheduler happens to place the load and server threads on two CPUs
/// moves a whole round's throughput by up to a fifth; the mean over the
/// rounds evens that out.
pub const ROUNDS: u32 = 10;

/// How long each set-up took.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Wall seconds, as measured.
    pub wall_s: Vec<f64>,
    /// Wall seconds times the machine's speed index measured right
    /// after the set-up: seconds on a machine as fast as the nominal one.
    pub nominal_s: Vec<f64>,
}

/// Builds a workload's stack `n` times (at least once), dropping each
/// before the next is built, and returns the last with every build's
/// time: the `setup_s` samples.
pub fn repeat_setup<T>(
    n: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(set_up()?);
        let wall = t.elapsed().as_secs_f64();
        times.wall_s.push(wall);
        times
            .nominal_s
            .push(wall * reference::Speed::measure()?.index());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Runs one workload as configured.
pub fn run(config: &Config) -> Result<Measured, String> {
    match config.workload {
        Workload::ReadSmall => reads::run(config, reads::Shape::Small),
        Workload::ReadBulk => reads::run(config, reads::Shape::Bulk),
        Workload::IngestEpochs => ingest::run(config),
    }
}

/// Writes a JSON number: finite values as measured, anything else as
/// 0 (the output must stay valid JSON).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for JSON.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
