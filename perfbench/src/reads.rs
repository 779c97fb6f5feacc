//! `read_small` and `read_bulk`: closed-loop queries over warm
//! catalogs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpgrid_core::{Method, Pipeline, Release, ReleaseSink};
use dpgrid_geo::GeoDataset;
use dpgrid_net::TcpClient;
use dpgrid_serve::{CacheState, QueryResponse, ShardRouter, DEFAULT_MEMORY_BUDGET_BYTES};

use crate::fixture::{self, Accuracy, Queries, EPSILON};
use crate::reference::Speed;
use crate::stack::{self, Stack};
use crate::stats::{self, median, CpuTimes, Recorder, Sampler, Summary};
use crate::trace::{self, fingerprint_rects, Kind, Tracer, SPAN_CAP};
use crate::{replay, Config, Gate, Measured, Metrics, Ops, ROUNDS};

/// Which read workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Two connections, 8 rectangles per request, UG draws.
    Small,
    /// One connection, `bulk_rects` per request, UG and AG draws.
    Bulk,
}

const SMALL_RECTS: usize = 8;
const SMALL_CONNECTIONS: usize = 2;

/// The served stack of a read workload: the router is the service.
type ReadStack = Stack<Arc<ShardRouter>>;

/// What one connection sends, in order, and what must come back.
struct Plan {
    /// The release keys the plan queries.
    keys: Vec<String>,
    /// The rectangle pool with exact answers.
    queries: Queries,
    /// Rectangles per request.
    chunk: usize,
    /// Request `i` queries release `order[i].0` with chunk `order[i].1`.
    order: Vec<(usize, usize)>,
    /// The in-process answer to each request.
    expected: Vec<Vec<f64>>,
}

impl Plan {
    fn rects(&self, chunk: usize) -> &[dpgrid_geo::Rect] {
        &self.queries.rects[chunk * self.chunk..(chunk + 1) * self.chunk]
    }

    /// Each chunk visits every release before the next chunk starts,
    /// so every rectangle is answered by every draw once per cycle.
    fn new(keys: Vec<String>, releases: &[&Release], queries: Queries, chunk: usize) -> Self {
        let chunks = queries.rects.len() / chunk;
        let order: Vec<(usize, usize)> = (0..chunks)
            .flat_map(|c| (0..keys.len()).map(move |r| (r, c)))
            .collect();
        let mut plan = Plan {
            keys,
            queries,
            chunk,
            order,
            expected: Vec::new(),
        };
        plan.expected = plan
            .order
            .iter()
            .map(|&(r, c)| releases[r].surface().answer_all(plan.rects(c)))
            .collect();
        plan
    }
}

/// A set-up stack plus what the workload needs from its set-up.
struct Setup {
    data: GeoDataset,
    releases: Vec<(String, Release)>,
    publish_ms: Vec<f64>,
    stack: ReadStack,
    clients: Vec<TcpClient>,
}

/// Generates the data, publishes the draws, binds the server, connects
/// and warms every surface.
fn set_up(config: &Config, shape: Shape, tracer: &Arc<Tracer>) -> Result<Setup, String> {
    let scale = &config.scale;
    let data = fixture::dataset(config.seed, scale.points);
    let (ug, ag) = match shape {
        Shape::Small => (scale.small_draws, 0),
        Shape::Bulk => (scale.bulk_ug_draws, scale.bulk_ag_draws),
    };
    let draws = (0..ug)
        .map(|i| (format!("ug-{i}"), Method::ug_suggested()))
        .chain((0..ag).map(|i| (format!("ag-{i}"), Method::ag_suggested())));
    let mut releases = Vec::new();
    let mut publish_ms = Vec::new();
    for (key, method) in draws {
        let t = Instant::now();
        let release = Pipeline::new(&data)
            .epsilon(EPSILON)
            .method(method)
            .seed(fixture::sub_seed(config.seed, &key))
            .publish()
            .map_err(|e| format!("publish {key}: {e}"))?;
        publish_ms.push(t.elapsed().as_secs_f64() * 1e3);
        releases.push((key, release));
    }
    let mut shards = stack::shards(tracer, DEFAULT_MEMORY_BUDGET_BYTES);
    for (key, release) in &releases {
        shards.sink.accept_release(key.clone(), release.clone());
    }
    shards.sink.take_published();
    let router = Arc::clone(&shards.router);
    let stack = Stack::serve(tracer, shards, router, config.corrupt_at)?;
    let connections = match shape {
        Shape::Small => SMALL_CONNECTIONS,
        Shape::Bulk => 1,
    };
    let mut clients = Vec::new();
    for _ in 0..connections {
        clients.push(stack.connect()?);
    }
    // Warm-up compiles every surface, so the measured phase sees a warm
    // catalog.
    let probe = [*data.domain().rect()];
    for client in &mut clients {
        for (key, _) in &releases {
            client
                .query(key, &probe)
                .map_err(|e| format!("warm-up query {key}: {e}"))?;
        }
    }
    Ok(Setup {
        data,
        releases,
        publish_ms,
        stack,
        clients,
    })
}

/// What one connection's loop saw in one phase.
struct LoopOut {
    recorder: Recorder,
    ops: Ops,
    gate: Gate,
    /// The longest time between one reply and the next send.
    max_gap_ms: f64,
}

/// Sends the plan's requests in a closed loop until `deadline`,
/// resuming at `*pos`.
fn drive(
    client: &mut TcpClient,
    plan: &Plan,
    pos: &mut usize,
    served: &mut [Option<Vec<f64>>],
    tracer: &Tracer,
    answered: &AtomicU64,
    phase: std::ops::Range<Instant>,
) -> LoopOut {
    let deadline = phase.end;
    let mut out = LoopOut {
        recorder: Recorder::new(phase.start),
        ops: Ops::default(),
        gate: Gate::default(),
        max_gap_ms: 0.0,
    };
    let mut last_end: Option<Instant> = None;
    while Instant::now() < deadline {
        let i = *pos % plan.order.len();
        *pos += 1;
        let (r, c) = plan.order[i];
        let key = &plan.keys[r];
        let rects = plan.rects(c);
        let t0 = Instant::now();
        if let Some(end) = last_end {
            out.max_gap_ms = out.max_gap_ms.max((t0 - end).as_secs_f64() * 1e3);
        }
        let result = if tracer.enabled() {
            let fp = fingerprint_rects(rects);
            let req = tracer.next_id();
            let request = tracer.open(Kind::Request, req, 0);
            let call = tracer.open(Kind::Client, req, request.id());
            tracer.announce(fp, req, call.id());
            let result = client.query(key, rects);
            tracer.close(call);
            tracer.retire(fp);
            check(&mut out, &result, plan, i, served);
            tracer.close(request);
            result
        } else {
            let result = client.query(key, rects);
            check(&mut out, &result, plan, i, served);
            result
        };
        let t1 = Instant::now();
        out.ops.record(key, &result);
        if result.is_ok() {
            out.recorder
                .record((t1 - t0).as_secs_f64() * 1e3, rects.len() as u64);
            answered.fetch_add(rects.len() as u64, Ordering::Relaxed);
        }
        last_end = Some(t1);
    }
    out
}

fn check(
    out: &mut LoopOut,
    result: &Result<QueryResponse, dpgrid_net::NetError>,
    plan: &Plan,
    i: usize,
    served: &mut [Option<Vec<f64>>],
) {
    if let Ok(response) = result {
        let (r, c) = plan.order[i];
        out.gate.exact(
            || format!("{} chunk {c}", plan.keys[r]),
            &response.answers,
            &plan.expected[i],
        );
        if response.cache != CacheState::Warm {
            out.gate.fail(format!(
                "{} answered cold from a warm catalog",
                plan.keys[r]
            ));
        }
        if served[i].is_none() {
            served[i] = Some(response.answers.clone());
        }
    }
}

/// One measured phase over every connection at once.
struct Phase {
    wall_s: f64,
    loops: Vec<LoopOut>,
    cpu: Sampler,
}

fn phase(
    clients: &mut [TcpClient],
    plans: &[Plan],
    positions: &mut [usize],
    served: &mut [Vec<Option<Vec<f64>>>],
    tracer: &Tracer,
    length: Duration,
) -> Phase {
    let answered = AtomicU64::new(0);
    let answered = &answered;
    let start = Instant::now();
    let deadline = start + length;
    let mut cpu = Sampler::start(0);
    let loops = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .zip(positions.iter_mut())
            .zip(served.iter_mut())
            .map(|(((client, plan), pos), served)| {
                scope.spawn(move || {
                    drive(client, plan, pos, served, tracer, answered, start..deadline)
                })
            })
            .collect();
        cpu.sample_windows(start, deadline, || answered.load(Ordering::Relaxed));
        handles
            .into_iter()
            .map(|h| h.join().expect("load loop panicked"))
            .collect::<Vec<_>>()
    });
    cpu.close(answered.load(Ordering::Relaxed));
    Phase {
        wall_s: start.elapsed().as_secs_f64(),
        loops,
        cpu,
    }
}

impl Phase {
    fn summary(&self) -> Summary {
        let recorders = self.loops.iter().map(|l| l.recorder.clone()).collect();
        Recorder::summarize(recorders, self.wall_s, &self.cpu)
    }
}

/// Runs `read_small` or `read_bulk`.
pub fn run(config: &Config, shape: Shape) -> Result<Measured, String> {
    let tracer = Tracer::new(SPAN_CAP);
    let (setup, setup_s) =
        crate::repeat_setup(config.scale.setups, || set_up(config, shape, &tracer))?;
    let Setup {
        data,
        releases,
        publish_ms,
        mut stack,
        mut clients,
    } = setup;

    // Expected answers, before any timing.
    let mut gate = Gate::default();
    let release_refs: Vec<&Release> = releases.iter().map(|(_, r)| r).collect();
    let keys: Vec<String> = releases.iter().map(|(k, _)| k.clone()).collect();
    let plans: Vec<Plan> = match shape {
        Shape::Small => (0..clients.len())
            .map(|c| {
                let queries = Queries::generate(
                    &data,
                    config.scale.small_per_size,
                    config.seed,
                    &format!("small-queries-{c}"),
                );
                Plan::new(keys.clone(), &release_refs, queries, SMALL_RECTS)
            })
            .collect(),
        Shape::Bulk => {
            let queries = Queries::generate(
                &data,
                config.scale.bulk_per_size,
                config.seed,
                "bulk-queries",
            );
            vec![Plan::new(
                keys.clone(),
                &release_refs,
                queries,
                config.scale.bulk_rects,
            )]
        }
    };
    for (key, release) in &releases {
        // A fixed sample: every 16th rectangle of the first plan.
        let sample: Vec<_> = plans[0].queries.rects.iter().step_by(16).copied().collect();
        let (n, bad) = fixture::check_against_scan(release, &sample);
        gate.checked += n;
        if let Some(bad) = bad {
            gate.fail(format!("{key}: {bad}"));
        }
    }

    let mut positions: Vec<usize> = (0..plans.len()).collect();
    let mut served: Vec<Vec<Option<Vec<f64>>>> =
        plans.iter().map(|p| vec![None; p.order.len()]).collect();
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
    let mut untraced = Vec::new();
    let mut speeds = Vec::new();
    for round in 0..rounds {
        if round > 0 {
            clients.clear();
            stack.restart()?;
            for _ in 0..plans.len() {
                clients.push(stack.connect()?);
            }
        }
        untraced.push(phase(
            &mut clients,
            &plans,
            &mut positions,
            &mut served,
            &tracer,
            untraced_length / rounds,
        ));
        speeds.push(Speed::measure()?.index());
    }
    let traced = if config.trace {
        let before = stack.snapshot();
        tracer.set_enabled(true);
        let traced = phase(
            &mut clients,
            &plans,
            &mut positions,
            &mut served,
            &tracer,
            config.duration / 2,
        );
        tracer.set_enabled(false);
        let after = stack.snapshot();
        Some((traced, before, after))
    } else {
        None
    };

    // End-to-end figures of the untraced rounds.
    let summaries: Vec<Summary> = untraced
        .iter()
        .zip(&speeds)
        .map(|(p, &speed)| p.summary().at_speed(speed))
        .collect();
    let summary = Summary::mean_of(&summaries);
    let wall_s = untraced.iter().map(|p| p.wall_s).sum();
    measured.put_common(&setup_s, &summary, wall_s);
    measured
        .detail
        .put("host_steal_pct", CpuTimes::steal_pct_since(cpu), "%");
    measured.detail.put("rounds", rounds as f64, "count");
    let (ug, ag) = accuracy(&plans, &served);
    let e2e = &mut measured.e2e;
    match shape {
        Shape::Small => e2e.put("rel_error", ug.score(), "ratio"),
        Shape::Bulk => {
            e2e.put("rel_error", (ug.score() + ag.score()) / 2.0, "ratio");
            e2e.put("rel_error_ag", ag.score(), "ratio");
        }
    }
    e2e.put("rel_error_ug", ug.score(), "ratio");
    let detail = &mut measured.detail;
    detail.put(
        "accuracy_samples",
        (ug.samples() + ag.samples()) as f64,
        "count",
    );
    detail.put(
        "load_max_gap_ms",
        untraced
            .iter()
            .flat_map(|p| &p.loops)
            .map(|l| l.max_gap_ms)
            .fold(0.0, f64::max),
        "ms",
    );

    for l in untraced.into_iter().flat_map(|p| p.loops) {
        measured.ops.merge(l.ops);
        gate.merge(l.gate);
    }
    if let Some((traced, before, after)) = traced {
        let spans = tracer.take_spans();
        let layers = &mut measured.layers;
        let codec_us = replay_layers(layers, &plans, &releases, &publish_ms, config.seed);
        trace::path_layers(layers, &spans, codec_us);
        let traced_summary = traced.summary();
        let overhead = traced_summary.p50_ms / summary.p50_ms - 1.0;
        layers.put("trace.overhead_pct", overhead * 100.0, "%");
        before.layers_until(&after, traced_summary.rects, layers);
        trace::write_out(config, &spans);
        detail.put("trace_spans_dropped", tracer.dropped() as f64, "count");
        for l in traced.loops {
            measured.ops.merge(l.ops);
            gate.merge(l.gate);
        }
    }
    measured.finish_ops(stack.reconnects());
    measured.gate = gate;
    stack.shutdown();
    Ok(measured)
}

/// Relative errors of every served answer, UG and AG apart.
fn accuracy(plans: &[Plan], served: &[Vec<Option<Vec<f64>>>]) -> (Accuracy, Accuracy) {
    let (mut ug, mut ag) = (Accuracy::new(1 << 15), Accuracy::new(1 << 15));
    for (plan, served) in plans.iter().zip(served) {
        for (&(r, c), answers) in plan.order.iter().zip(served) {
            let Some(answers) = answers else { continue };
            let out = if plan.keys[r].starts_with("ag-") {
                &mut ag
            } else {
                &mut ug
            };
            plan.queries.relative_errors(c * plan.chunk, answers, out);
        }
    }
    (ug, ag)
}

/// Per-layer costs replayed on the workload's own requests and
/// releases. Returns the codec cost per request, in microseconds.
fn replay_layers(
    layers: &mut Metrics,
    plans: &[Plan],
    releases: &[(String, Release)],
    publish_ms: &[f64],
    seed: u64,
) -> f64 {
    let plan = &plans[0];
    let frames: Vec<replay::Frame> = plan
        .order
        .iter()
        .zip(&plan.expected)
        .map(|(&(r, c), answers)| {
            replay::query_frame(&plan.keys[r], plan.rects(c), answers.clone())
        })
        .collect();
    let codec_us = replay::codec_layers(layers, &frames);
    let chunks: Vec<&[dpgrid_geo::Rect]> = (0..plan.queries.rects.len() / plan.chunk)
        .map(|c| plan.rects(c))
        .collect();
    let of_kind = |prefix: &str| -> Vec<&Release> {
        releases
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, r)| r)
            .collect()
    };
    for (prefix, name) in [
        ("ug-", "core.surface.ug_ns_per_rect"),
        ("ag-", "core.surface.ag_ns_per_rect"),
    ] {
        let kind = of_kind(prefix);
        if !kind.is_empty() {
            layers.put(name, replay::surface_ns_per_rect(&kind, &chunks), "ns");
        }
    }
    let all: Vec<&Release> = releases.iter().map(|(_, r)| r).collect();
    layers.put(
        "serve.catalog.compile_ms_p50",
        replay::compile_ms_p50(&all),
        "ms",
    );
    let cells = of_kind("ug-").first().map_or(0, |r| r.cell_count());
    layers.put(
        "mech.laplace_ns_per_draw",
        replay::laplace_ns_per_draw(cells, seed),
        "ns",
    );
    layers.put("core.publish_ms", median(publish_ms), "ms");
    codec_us
}
