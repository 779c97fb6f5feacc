//! `ingest_epochs`: report batches, a point stream, epoch seals and
//! reads interleaved over one connection, one tick at a time.
//!
//! Each tick `t`:
//! 1. submits four GRR and four OUE batches (genuine seeded
//!    perturbations of a known population) for LDP epoch `t`,
//!    pipelined;
//! 2. pushes a landmark-shaped point stream for epoch `t` into a
//!    `StreamIngestor`;
//! 3. seals both epochs into the shards (the `Compactor` runs when a
//!    tier is due) and queries both new releases over TCP — the seal
//!    latency runs from the tick boundary until both answer;
//! 4. queries a window over the last eight stream epochs, and every
//!    fourth tick an older LDP epoch, which the catalog's byte budget
//!    has usually evicted.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpgrid_core::{
    epoch_key, CompiledSurface, EpochLayout, EpochRange, Method, Release, ReleaseSink,
};
use dpgrid_geo::{Domain, GeoDataset, Point, Rect};
use dpgrid_ldp::{CollectingService, CollectorConfig, ReportCollector};
use dpgrid_mech::{BudgetSchedule, FrequencyOracle, Grr, LocalReport, Oue};
use dpgrid_net::TcpClient;
use dpgrid_serve::wire::{RequestBody, ResponseBody, WireRect, WireWindow, WireWindowAnswers};
use dpgrid_serve::{QueryResponse, ReportBatch, ReportPayload, ShardRouter, WindowAnswer};
use dpgrid_stream::{Compactor, StreamIngestor};

use crate::fixture::{self, Accuracy, Queries};
use crate::reference::Speed;
use crate::stack::{self, Snapshot, Stack};
use crate::stats::{
    self, mean, median, percentile, CpuTimes, Recorder, Sampler, Summary, WINDOW_S,
};
use crate::trace::{self, fingerprint_batch, fingerprint_rects, Kind, Tracer, SPAN_CAP};
use crate::{replay, Config, Gate, Measured, Metrics, Ops, ROUNDS};

/// The LDP grid is 32 × 32 cells over the landmark domain.
const GRID: usize = 32;
const CELLS: u32 = (GRID * GRID) as u32;
/// Batches of each oracle family per tick.
const BATCHES_PER_FAMILY: usize = 4;
/// The per-epoch ε of both keyspaces.
const EPOCH_EPSILON: f64 = 1.0;
/// Epochs the budget schedules cover; far more than any run seals.
const HORIZON: usize = 1_000_000;
/// Epochs summed by each window query.
const WINDOW: u64 = 8;
/// Fine stream epochs merged per compacted tier.
const TIER: u64 = 8;
/// Most recent stream epochs kept fine.
const RETAIN_FINE: u64 = 16;
/// LDP epochs and stream tiers older than this many epochs are retired.
const RETAIN: u64 = 64;
/// An older LDP epoch is queried every this many ticks.
const OLD_EVERY: u64 = 4;
/// Ticks run during set-up, so the measured phase starts with full
/// windows.
const WARM_TICKS: u64 = 8;
/// The catalog budget per shard, in compiled LDP surfaces: fewer than
/// the live epochs, so older epochs miss and recompile.
const BUDGET_SURFACES: usize = 12;

const LDP: &str = "ldp";
const GEO: &str = "geo";

/// The served service: the router with an LDP collector in front.
type IngestService = CollectingService<Arc<ShardRouter>>;

/// One pre-perturbed epoch of reports and the histogram it came from.
struct ReportSet {
    batches: Vec<ReportBatch>,
    truth: Vec<f64>,
    reports: u64,
}

/// The q1–q6 rectangles windows rotate through, and the exact count of
/// each stream slice's points inside each: expected answers, computed
/// once per run outside the timed set-up.
struct WindowTruth {
    pool: Vec<Rect>,
    /// `counts[slice][rect]`.
    counts: Vec<Vec<f64>>,
}

/// The stream's points, one slice per epoch of the cycle.
fn stream_points(config: &Config) -> GeoDataset {
    fixture::dataset(
        fixture::sub_seed(config.seed, "stream"),
        config.scale.report_epochs * config.scale.points_per_tick,
    )
}

fn window_truth(config: &Config) -> Result<WindowTruth, String> {
    let stream = stream_points(config);
    let mut truth = WindowTruth {
        pool: Vec::new(),
        counts: Vec::new(),
    };
    for slice in stream.points().chunks(config.scale.points_per_tick) {
        let data =
            GeoDataset::from_points(slice.to_vec(), *stream.domain()).map_err(|e| e.to_string())?;
        let queries = Queries::generate(
            &data,
            config.scale.window_pool_per_size,
            config.seed,
            "window-queries",
        );
        truth.pool = queries.rects;
        truth.counts.push(queries.truth);
    }
    Ok(truth)
}

/// Everything a run ticks with.
struct Rig {
    stack: Stack<IngestService>,
    client: TcpClient,
    ingestor: StreamIngestor,
    compactor: Compactor,
    report_sets: Vec<ReportSet>,
    /// The stream's slices of points, one per epoch of the cycle.
    point_sets: Vec<Vec<Point>>,
    /// The window rectangles, `window_len` per window, and their truth.
    windows: Arc<WindowTruth>,
    window_len: usize,
    /// One rectangle per LDP grid cell.
    cell_rects: Vec<Rect>,
    /// Releases the stack serves, as published, for expected answers.
    ldp: BTreeMap<u64, Release>,
    geo: BTreeMap<u64, Release>,
    /// Compacted tiers still served: (range end, key).
    tiers: VecDeque<(u64, String)>,
    next_tick: u64,
}

/// What ticks measured.
struct TickStats {
    ticks: u64,
    reports: u64,
    points: u64,
    recorder: Recorder,
    seal_ms: Vec<f64>,
    /// Relative errors of the latest window answers.
    window_errors: Accuracy,
    ldp_mae: Vec<f64>,
    max_gap_ms: f64,
    ops: Ops,
    gate: Gate,
}

fn set_up(
    config: &Config,
    tracer: &Arc<Tracer>,
    windows: &Arc<WindowTruth>,
) -> Result<Rig, String> {
    let scale = &config.scale;
    let seed = config.seed;
    let domain = dpgrid_geo::generators::PaperDataset::Landmark.domain();

    // The LDP population: each report set perturbs the true cells of
    // its own users.
    let per_family = BATCHES_PER_FAMILY * scale.reports_per_batch;
    let users = fixture::dataset(seed, scale.report_epochs * 2 * per_family);
    let grr = Grr::new(CELLS as usize, EPOCH_EPSILON).map_err(|e| e.to_string())?;
    let oue = Oue::new(CELLS as usize, EPOCH_EPSILON).map_err(|e| e.to_string())?;
    let mut rng = fixture::rng(seed, "perturb");
    let mut report_sets = Vec::with_capacity(scale.report_epochs);
    for set in users.points().chunks(2 * per_family) {
        let cells: Vec<usize> = set
            .iter()
            .map(|p| {
                let (col, row) = domain
                    .cell_of(p, GRID, GRID)
                    .expect("points lie in the domain");
                row * GRID + col
            })
            .collect();
        let mut truth = vec![0.0; CELLS as usize];
        for &c in &cells {
            truth[c] += 1.0;
        }
        let (grr_users, oue_users) = cells.split_at(per_family);
        let mut batches = Vec::new();
        for chunk in grr_users.chunks(scale.reports_per_batch) {
            let mut reports = Vec::with_capacity(chunk.len());
            for &c in chunk {
                match grr.perturb(c, &mut rng).map_err(|e| e.to_string())? {
                    LocalReport::Cell(r) => reports.push(r),
                    LocalReport::Bits(_) => return Err("GRR produced a bit report".into()),
                }
            }
            batches.push(batch(ReportPayload::Grr(reports)));
        }
        for chunk in oue_users.chunks(scale.reports_per_batch) {
            let mut bits = Vec::new();
            for &c in chunk {
                match oue.perturb(c, &mut rng).map_err(|e| e.to_string())? {
                    LocalReport::Bits(words) => bits.extend(words),
                    LocalReport::Cell(_) => return Err("OUE produced a cell report".into()),
                }
            }
            batches.push(batch(ReportPayload::Oue {
                count: chunk.len() as u32,
                bits,
            }));
        }
        report_sets.push(ReportSet {
            batches,
            truth,
            reports: cells.len() as u64,
        });
    }

    let point_sets: Vec<Vec<Point>> = stream_points(config)
        .points()
        .chunks(scale.points_per_tick)
        .map(<[Point]>::to_vec)
        .collect();
    let cell_rects: Vec<Rect> = (0..GRID)
        .flat_map(|row| (0..GRID).map(move |col| domain.cell_rect(GRID, GRID, col, row)))
        .collect();

    let budget = BUDGET_SURFACES * ldp_surface_bytes(domain);
    let shards = stack::shards(tracer, budget);
    let schedule = || {
        BudgetSchedule::uniform(EPOCH_EPSILON * HORIZON as f64, HORIZON).map_err(|e| e.to_string())
    };
    let collector = ReportCollector::new(
        CollectorConfig::new(LDP, domain, GRID, GRID, schedule()?).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let service = CollectingService::new(Arc::clone(&shards.router), collector);
    let stack = Stack::serve(tracer, shards, service, config.corrupt_at)?;
    let client = stack.connect()?;
    let ingestor = StreamIngestor::new(
        GEO,
        domain,
        EpochLayout::new(0.0, 60.0).map_err(|e| e.to_string())?,
        schedule()?,
    )
    .map_err(|e| e.to_string())?
    .with_method(Method::ug_suggested())
    .with_seed(fixture::sub_seed(seed, "stream-noise"));
    let mut rig = Rig {
        stack,
        client,
        ingestor,
        compactor: Compactor::new(TIER, RETAIN_FINE).map_err(|e| e.to_string())?,
        report_sets,
        point_sets,
        windows: Arc::clone(windows),
        window_len: scale.window_rects.clamp(1, 6 * scale.window_pool_per_size),
        cell_rects,
        ldp: BTreeMap::new(),
        geo: BTreeMap::new(),
        tiers: VecDeque::new(),
        next_tick: 0,
    };
    let mut warm = TickStats::new();
    for _ in 0..WARM_TICKS {
        rig.tick(&mut warm, tracer);
    }
    if warm.ops.failed > 0 || warm.gate.mismatches > 0 {
        return Err(format!(
            "warm-up failed: {:?} {:?}",
            warm.ops.first, warm.gate.first
        ));
    }
    Ok(rig)
}

fn batch(payload: ReportPayload) -> ReportBatch {
    ReportBatch {
        keyspace: LDP.to_string(),
        epoch: 0,
        epsilon: EPOCH_EPSILON,
        cells: CELLS,
        payload,
    }
}

/// Bytes of one compiled LDP epoch surface.
fn ldp_surface_bytes(domain: Domain) -> usize {
    let cells: Vec<(Rect, f64)> = (0..GRID)
        .flat_map(|row| (0..GRID).map(move |col| (domain.cell_rect(GRID, GRID, col, row), 1.0)))
        .collect();
    CompiledSurface::compile(domain, &cells).memory_bytes()
}

/// A read request with its spans.
fn traced_call<T, E>(
    tracer: &Tracer,
    parent: u64,
    fps: &[u64],
    call: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    if !tracer.enabled() {
        return call();
    }
    let req = tracer.next_id();
    let request = tracer.open(Kind::Request, req, parent);
    let client = tracer.open(Kind::Client, req, request.id());
    for &fp in fps {
        tracer.announce(fp, req, client.id());
    }
    let out = call();
    tracer.close(client);
    for &fp in fps {
        tracer.retire(fp);
    }
    tracer.close(request);
    out
}

/// Queries `key` over the connection, counting the operation and its
/// latency.
fn read(
    client: &mut TcpClient,
    stats: &mut TickStats,
    tracer: &Tracer,
    parent: u64,
    key: &str,
    rects: &[Rect],
) -> Option<QueryResponse> {
    let t0 = Instant::now();
    let result = traced_call(tracer, parent, &[fingerprint_rects(rects)], || {
        client.query(key, rects)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    stats.ops.record(key, &result);
    let response = result.ok()?;
    stats.sample(ms, rects.len());
    Some(response)
}

/// Checks served answers against the published `release`.
fn check(
    stats: &mut TickStats,
    key: &str,
    rects: &[Rect],
    answers: &[f64],
    release: Option<&Release>,
) {
    match release {
        Some(release) => stats.gate.exact(
            || key.to_string(),
            answers,
            &release.surface().answer_all(rects),
        ),
        None => stats
            .gate
            .fail(format!("{key} is served but was never published")),
    }
}

impl Rig {
    /// The slice of the window pool tick `t` queries.
    fn window(&self, t: u64) -> std::ops::Range<usize> {
        let windows = self.windows.pool.len() / self.window_len;
        let i = (t % windows as u64) as usize;
        i * self.window_len..(i + 1) * self.window_len
    }

    fn tick(&mut self, stats: &mut TickStats, tracer: &Tracer) {
        let t = self.next_tick;
        self.next_tick += 1;
        let set = (t % self.report_sets.len() as u64) as usize;
        let tick_start = Instant::now();
        // The tick's own spans (push, seal, publish) share one request id.
        let tick = tracer.next_id();

        // 1. Reports for LDP epoch t, pipelined.
        for b in &mut self.report_sets[set].batches {
            b.epoch = t;
        }
        let batches = &self.report_sets[set].batches;
        let fps: Vec<u64> = batches.iter().map(fingerprint_batch).collect();
        let client = &mut self.client;
        let acks = traced_call(tracer, 0, &fps, || client.submit_reports(batches));
        match acks {
            Ok(acks) => {
                for (b, ack) in batches.iter().zip(acks) {
                    stats.ops.record("report batch", &ack);
                    if let Ok(ack) = ack {
                        stats.gate.count("report ack", ack.accepted, b.count());
                        stats.reports += ack.accepted;
                    }
                }
            }
            Err(e) => {
                for _ in batches {
                    stats.ops.record::<(), _>("report batch", &Err(&e));
                }
            }
        }

        // 2. The point stream for epoch t.
        let slice = (t % self.point_sets.len() as u64) as usize;
        let push = tracer
            .enabled()
            .then(|| tracer.open(Kind::StreamPush, tick, 0));
        let points = &self.point_sets[slice];
        let step = 60.0 / points.len() as f64;
        for (i, p) in points.iter().enumerate() {
            let pushed =
                self.ingestor
                    .push(*p, t as f64 * 60.0 + i as f64 * step, &mut self.stack.sink);
            if let Err(e) = pushed {
                stats.ops.record::<(), _>("stream push", &Err(e));
            }
        }
        stats.points += points.len() as u64;
        if let Some(push) = push {
            tracer.close(push);
        }

        // 3. Seal both epochs; done when both answer over TCP.
        let seal_start = Instant::now();
        let seal = tracer.enabled().then(|| tracer.open(Kind::Seal, tick, 0));
        let seal_id = seal.as_ref().map_or(0, |s| s.id());
        self.stack.sink.context = (tick, seal_id);
        let ldp_span = tracer
            .enabled()
            .then(|| tracer.open(Kind::LdpSeal, tick, seal_id));
        let sealed = self.stack.service.inner().seal_open_epoch();
        stats.ops.record("ldp seal", &sealed);
        if let Ok(sealed) = sealed {
            self.stack
                .sink
                .accept_release(sealed.summary.key, sealed.release);
        }
        if let Some(s) = ldp_span {
            tracer.close(s);
        }
        let stream_span = tracer
            .enabled()
            .then(|| tracer.open(Kind::StreamSeal, tick, seal_id));
        let receipts = self.ingestor.seal_through(t, &mut self.stack.sink);
        stats.ops.record("stream seal", &receipts);
        if let Some(s) = stream_span {
            tracer.close(s);
        }
        let compact_span = tracer
            .enabled()
            .then(|| tracer.open(Kind::Compact, tick, seal_id));
        let tiers = self
            .compactor
            .compact(&mut self.ingestor, &mut self.stack.sink);
        stats.ops.record("compaction", &tiers);
        if let (Some(s), Ok(tiers)) = (compact_span, &tiers) {
            if !tiers.is_empty() {
                tracer.close(s);
            }
        }
        self.absorb_published(tiers.unwrap_or_default());

        let ldp_key = epoch_key(LDP, EpochRange::single(t));
        let geo_key = epoch_key(GEO, EpochRange::single(t));
        let subset = self.window(t);
        let ldp_read = read(
            &mut self.client,
            stats,
            tracer,
            seal_id,
            &ldp_key,
            &self.cell_rects,
        );
        let geo_read = read(
            &mut self.client,
            stats,
            tracer,
            seal_id,
            &geo_key,
            &self.windows.pool[subset.clone()],
        );
        stats.seal_ms.push(seal_start.elapsed().as_secs_f64() * 1e3);
        if let Some(seal) = seal {
            tracer.close(seal);
        }
        self.stack.sink.context = (0, 0);
        // Answers are checked after the seal latency is taken.
        if let Some(response) = ldp_read {
            check(
                stats,
                &ldp_key,
                &self.cell_rects,
                &response.answers,
                self.ldp.get(&t),
            );
            let set = &self.report_sets[set];
            let mae: f64 = response
                .answers
                .iter()
                .zip(&set.truth)
                .map(|(a, t)| (a - t).abs())
                .sum::<f64>()
                / set.truth.len() as f64;
            stats.ldp_mae.push(mae / set.reports as f64);
        }
        if let Some(response) = geo_read {
            check(
                stats,
                &geo_key,
                &self.windows.pool[subset.clone()],
                &response.answers,
                self.geo.get(&t),
            );
        }

        // 4. A window over the last eight stream epochs.
        let start = t.saturating_sub(WINDOW - 1);
        let client = &mut self.client;
        let rects = &self.windows.pool[subset.clone()];
        let t0 = Instant::now();
        let window = traced_call(tracer, 0, &[fingerprint_rects(rects)], || {
            client.window(GEO, start, t + 1, rects)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        stats.ops.record("window", &window);
        if let Ok(answer) = window {
            stats.sample(ms, rects.len());
            self.check_window(stats, start, t, &answer);
        }

        // 5. Every fourth tick, an older LDP epoch.
        if t.is_multiple_of(OLD_EVERY) && t >= 16 {
            let back = 16 + ((t / OLD_EVERY) % 48).min(t - 16);
            let old = t - back;
            let key = epoch_key(LDP, EpochRange::single(old));
            let rects = &self.windows.pool[subset];
            if let Some(response) = read(&mut self.client, stats, tracer, 0, &key, rects) {
                check(stats, &key, rects, &response.answers, self.ldp.get(&old));
            }
        }

        self.retire(t);
        stats.ticks += 1;
        stats.max_gap_ms = stats
            .max_gap_ms
            .max(tick_start.elapsed().as_secs_f64() * 1e3);
    }

    /// Records what the sink published this tick and mirrors the
    /// compactor's evictions.
    fn absorb_published(&mut self, tiers: Vec<dpgrid_stream::CompactedTier>) {
        for (key, release) in self.stack.sink.take_published() {
            match dpgrid_core::parse_epoch_key(&key) {
                Some((LDP, range)) => {
                    self.ldp.insert(range.start, release);
                }
                Some((GEO, range)) if range.len() == 1 => {
                    self.geo.insert(range.start, release);
                }
                _ => {}
            }
        }
        for tier in tiers {
            for e in &tier.epochs {
                self.geo.remove(e);
            }
            self.tiers.push_back((tier.range.end, tier.key));
        }
    }

    /// The window must be the sum of its epochs' answers, summed in
    /// epoch order as the server does.
    fn check_window(&self, stats: &mut TickStats, start: u64, t: u64, answer: &WindowAnswer) {
        let range = self.window(t);
        let rects = &self.windows.pool[range.clone()];
        let mut want = vec![0.0f64; rects.len()];
        let mut truth = vec![0.0f64; rects.len()];
        for e in start..=t {
            let Some(release) = self.geo.get(&e) else {
                stats
                    .gate
                    .fail(format!("window epoch {e} is not held fine"));
                return;
            };
            for (w, a) in want.iter_mut().zip(release.surface().answer_all(rects)) {
                *w += a;
            }
            let set = (e % self.point_sets.len() as u64) as usize;
            for (w, c) in truth
                .iter_mut()
                .zip(&self.windows.counts[set][range.clone()])
            {
                *w += c;
            }
        }
        let covered: Vec<EpochRange> = (start..=t).map(EpochRange::single).collect();
        if answer.covered != covered {
            stats
                .gate
                .fail(format!("window {start}..={t} covered {:?}", answer.covered));
        }
        stats
            .gate
            .exact(|| format!("window {start}..={t}"), &answer.answers, &want);
        let rho = 0.001 * (t + 1 - start) as f64 * self.point_sets[0].len() as f64;
        for (k, (a, tr)) in answer.answers.iter().zip(&truth).enumerate() {
            stats.window_errors.push(
                range.start + k,
                dpgrid_eval::metrics::relative_error(*a, *tr, rho),
            );
        }
    }

    /// Retires LDP epochs and stream tiers past the retention horizon.
    fn retire(&mut self, t: u64) {
        if t >= RETAIN {
            let old = t - RETAIN;
            self.stack
                .sink
                .evict_release(&epoch_key(LDP, EpochRange::single(old)));
            self.ldp.remove(&old);
        }
        while let Some((end, key)) = self.tiers.front() {
            if *end + RETAIN > t + 1 {
                break;
            }
            self.stack.sink.evict_release(key);
            self.tiers.pop_front();
        }
    }
}

impl TickStats {
    fn new() -> Self {
        TickStats {
            ticks: 0,
            reports: 0,
            points: 0,
            recorder: Recorder::new(Instant::now()),
            seal_ms: Vec::new(),
            window_errors: Accuracy::new(1 << 15),
            ldp_mae: Vec::new(),
            max_gap_ms: 0.0,
            ops: Ops::default(),
            gate: Gate::default(),
        }
    }

    fn sample(&mut self, ms: f64, rects: usize) {
        self.recorder.record(ms, rects as u64);
    }
}

/// Runs ticks until `length` has passed, adding to `stats`, and
/// summarizes the phase's throughput and latency; the CPU clock is
/// sampled at the first tick end in each throughput window.
fn ticks(
    rig: &mut Rig,
    tracer: &Tracer,
    length: Duration,
    stats: &mut TickStats,
) -> (Summary, f64) {
    let start = Instant::now();
    stats.recorder = Recorder::new(start);
    let mut cpu = Sampler::start(0);
    let window = Duration::from_secs_f64(WINDOW_S);
    let mut next = window;
    while start.elapsed() < length {
        rig.tick(stats, tracer);
        if start.elapsed() >= next {
            cpu.sample(stats.recorder.rects());
            next += window;
        }
    }
    cpu.close(stats.recorder.rects());
    let wall = start.elapsed().as_secs_f64();
    let summary = Recorder::summarize(vec![stats.recorder.clone()], wall, &cpu);
    (summary, wall)
}

/// Runs `ingest_epochs`.
pub fn run(config: &Config) -> Result<Measured, String> {
    let tracer = Tracer::new(SPAN_CAP);
    let windows = Arc::new(window_truth(config)?);
    let (mut rig, setup_s) =
        crate::repeat_setup(config.scale.setups, || set_up(config, &tracer, &windows))?;
    let mut measured = Measured::default();
    // The memory peak is that of the measured phase, over the live
    // data alone (see `release_free_heap`).
    stats::release_free_heap();
    let cpu = CpuTimes::now();
    let (untraced_length, rounds) = if config.trace {
        (config.duration / 2, 1)
    } else {
        (config.duration, ROUNDS)
    };
    let mut untraced = TickStats::new();
    let mut summaries = Vec::new();
    let mut wall = 0.0;
    for round in 0..rounds {
        if round > 0 {
            // The epochs, catalogs and collector carry over; only the
            // server, its threads and the connection are new.
            rig.stack.restart()?;
            rig.client = rig.stack.connect()?;
        }
        let (summary, w) = ticks(&mut rig, &tracer, untraced_length / rounds, &mut untraced);
        summaries.push(summary.at_speed(Speed::measure()?.index()));
        wall += w;
    }
    let summary = Summary::mean_of(&summaries);
    measured.put_common(&setup_s, &summary, wall);
    let detail = &mut measured.detail;
    detail.put("host_steal_pct", CpuTimes::steal_pct_since(cpu), "%");
    detail.put("rounds", rounds as f64, "count");
    let e2e = &mut measured.e2e;
    e2e.put("rel_error", untraced.window_errors.score(), "ratio");
    e2e.put("rel_error_ug", untraced.window_errors.score(), "ratio");
    e2e.put("reports_per_s", untraced.reports as f64 / wall, "1/s");
    e2e.put("points_per_s", untraced.points as f64 / wall, "1/s");
    e2e.put("seal_p50_ms", percentile(&untraced.seal_ms, 0.5), "ms");
    e2e.put("seal_p90_ms", percentile(&untraced.seal_ms, 0.9), "ms");
    e2e.put("ldp_mae", mean(&untraced.ldp_mae), "ratio");
    let detail = &mut measured.detail;
    detail.put("ticks", untraced.ticks as f64, "count");
    detail.put("seal_samples", untraced.seal_ms.len() as f64, "count");
    detail.put("load_max_tick_ms", untraced.max_gap_ms, "ms");
    let untraced_p50 = summary.p50_ms;
    measured.ops.merge(untraced.ops);
    measured.gate.merge(untraced.gate);

    if config.trace {
        let before = rig.stack.snapshot();
        tracer.set_enabled(true);
        let mut traced = TickStats::new();
        let (traced_summary, _) = ticks(&mut rig, &tracer, config.duration / 2, &mut traced);
        tracer.set_enabled(false);
        let after = rig.stack.snapshot();
        let spans = tracer.take_spans();
        let traced_p50 = traced_summary.p50_ms;
        layers(
            &mut measured.layers,
            &rig,
            &spans,
            &traced,
            traced_p50 / untraced_p50 - 1.0,
            (&before, &after),
            config.seed,
        );
        measured
            .detail
            .put("trace_spans_dropped", tracer.dropped() as f64, "count");
        trace::write_out(config, &spans);
        measured.ops.merge(traced.ops);
        measured.gate.merge(traced.gate);
    }
    measured.finish_ops(rig.stack.reconnects());
    let Rig { stack, .. } = rig;
    stack.shutdown();
    Ok(measured)
}

fn durations_ms(spans: &[trace::Span], kind: Kind) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| s.duration() as f64 / 1e6)
        .collect()
}

/// Per-layer figures of the traced phase.
fn layers(
    layers: &mut Metrics,
    rig: &Rig,
    spans: &[trace::Span],
    traced: &TickStats,
    overhead: f64,
    (before, after): (&Snapshot, &Snapshot),
    seed: u64,
) {
    layers.put("trace.overhead_pct", overhead * 100.0, "%");
    let submits: Vec<f64> = durations_ms(spans, Kind::Submit)
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    layers.put("ldp.submit_us_per_batch", mean(&submits), "us");
    layers.put(
        "ldp.seal_ms_p50",
        median(&durations_ms(spans, Kind::LdpSeal)),
        "ms",
    );
    layers.put(
        "stream.seal_ms_p50",
        median(&durations_ms(spans, Kind::StreamSeal)),
        "ms",
    );
    let compact = durations_ms(spans, Kind::Compact);
    if !compact.is_empty() {
        layers.put("core.temporal.compact_ms", median(&compact), "ms");
    }
    let push_ms: f64 = durations_ms(spans, Kind::StreamPush).iter().sum();
    layers.put(
        "stream.push_ns_per_point",
        push_ms * 1e6 / traced.points.max(1) as f64,
        "ns",
    );

    before.layers_until(after, traced.recorder.rects(), layers);

    // Replays on this run's own inputs.
    let set = &rig.report_sets[0];
    let batches: Vec<&ReportBatch> = set.batches.iter().collect();
    let ldp = replay::ldp(&batches, CELLS, EPOCH_EPSILON);
    layers.put(
        "kernels.fold_grr_ns_per_report",
        ldp.fold_grr_ns_per_report,
        "ns",
    );
    layers.put(
        "kernels.fold_oue_ns_per_report",
        ldp.fold_oue_ns_per_report,
        "ns",
    );
    layers.put("mech.debias_ns_per_cell", ldp.debias_ns_per_cell, "ns");
    layers.put(
        "serve.wire.report_decode_ns_per_report",
        replay::report_decode_ns_per_report(&batches),
        "ns",
    );
    let (ldp_key, ldp_release) = rig.ldp.iter().next_back().expect("an LDP epoch is held");
    let (geo_epoch, geo_release) = rig.geo.iter().next_back().expect("a stream epoch is held");
    let frames = read_frames(rig, *ldp_key, ldp_release, *geo_epoch, geo_release);
    let codec_us = replay::codec_layers(layers, &frames);
    trace::path_layers(layers, spans, codec_us);
    let geo: Vec<&Release> = rig.geo.values().collect();
    layers.put(
        "core.surface.ug_ns_per_rect",
        replay::surface_ns_per_rect(&geo, &[&rig.windows.pool[rig.window(0)]]),
        "ns",
    );
    let sample: Vec<&Release> = rig
        .ldp
        .values()
        .rev()
        .take(8)
        .chain(geo.iter().copied())
        .collect();
    layers.put(
        "serve.catalog.compile_ms_p50",
        replay::compile_ms_p50(&sample),
        "ms",
    );
    layers.put(
        "mech.laplace_ns_per_draw",
        replay::laplace_ns_per_draw(geo_release.cell_count(), seed),
        "ns",
    );
}

/// One tick's read frames with their served answers.
fn read_frames(
    rig: &Rig,
    ldp_epoch: u64,
    ldp: &Release,
    geo_epoch: u64,
    geo: &Release,
) -> Vec<replay::Frame> {
    let start = geo_epoch.saturating_sub(WINDOW - 1);
    let rects = &rig.windows.pool[rig.window(geo_epoch)];
    let window = WindowAnswer {
        keyspace: GEO.to_string(),
        covered: (start..=geo_epoch).map(EpochRange::single).collect(),
        answers: geo.surface().answer_all(rects),
    };
    vec![
        replay::query_frame(
            &epoch_key(LDP, EpochRange::single(ldp_epoch)),
            &rig.cell_rects,
            ldp.surface().answer_all(&rig.cell_rects),
        ),
        replay::query_frame(
            &epoch_key(GEO, EpochRange::single(geo_epoch)),
            rects,
            geo.surface().answer_all(rects),
        ),
        (
            RequestBody::Window(WireWindow {
                keyspace: GEO.to_string(),
                epoch_start: start,
                epoch_end: geo_epoch + 1,
                rects: rects.iter().map(WireRect::from).collect(),
            }),
            ResponseBody::Window(WireWindowAnswers::from_answer(&window)),
            rects.len(),
        ),
    ]
}
