//! In-memory span recording around the stack's public seams.
//!
//! The benchmark never instruments the program itself. Instead it
//! wraps the served [`QueryService`]/[`ReportService`], each shard and
//! each [`ReleaseSink`] in wrappers of its own, and records a span for
//! every call that crosses one of them. Client-side spans (the load
//! loop, the TCP round trip, the seal phase) are recorded by the
//! workloads through the same [`Tracer`].
//!
//! Server-side spans run on the server's worker threads, so they learn
//! which client request caused them from a fingerprint of the request
//! payload: the client announces `fingerprint → (request id, parent
//! span)` before it sends, and each wrapper looks the fingerprint up.
//! Each closed loop has at most one request of a given payload in
//! flight, and concurrent loops draw their rectangles from distinct
//! seeds, so a fingerprint names one request.
//!
//! With tracing off every wrapper costs one relaxed atomic load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use dpgrid_core::{Release, ReleaseSink};
use dpgrid_geo::Rect;
use dpgrid_serve::{
    EngineStats, QueryRequest, QueryResponse, QueryService, ReportAck, ReportBatch, ReportPayload,
    ReportService, Shard, WindowAnswer, WindowQuery,
};

/// Spans a run keeps (48 bytes each); a traced `read_small` phase of
/// fifteen seconds fits.
pub const SPAN_CAP: usize = 1_500_000;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One iteration of a load loop: a request as the caller sees it.
    Request,
    /// A `TcpClient` call: encode, send, wait, receive, decode.
    Client,
    /// The served service's `answer_batch`: the shard router.
    Router,
    /// The served service's `window`.
    Window,
    /// The served service's report path: `CollectingService`.
    Submit,
    /// One shard's `answer_batch`: a `LocalShard` and its engine.
    Engine,
    /// One `ReleaseSink::accept_release` into the shards.
    Sink,
    /// A tick's seal phase, from the tick boundary until both new
    /// epochs answer queries.
    Seal,
    /// `CollectingService::seal_open_epoch`.
    LdpSeal,
    /// `StreamIngestor::seal_through`.
    StreamSeal,
    /// A tick's `StreamIngestor::push` loop.
    StreamPush,
    /// A `Compactor::compact` call that merged at least one tier.
    Compact,
}

impl Kind {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Request => "bench.request",
            Kind::Client => "net.client",
            Kind::Router => "serve.shard.router",
            Kind::Window => "serve.window",
            Kind::Submit => "ldp.submit",
            Kind::Engine => "serve.engine",
            Kind::Sink => "core.sink.accept",
            Kind::Seal => "bench.seal",
            Kind::LdpSeal => "ldp.seal",
            Kind::StreamSeal => "stream.seal",
            Kind::StreamPush => "stream.push",
            Kind::Compact => "core.temporal.compact",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// This span's id (never 0).
    pub id: u64,
    /// The id of the span that caused it, 0 for none.
    pub parent: u64,
    /// The id of the request the span belongs to, 0 for none.
    pub req: u64,
    /// What the span covers.
    pub kind: Kind,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span that has started and not yet ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    kind: Kind,
    start: u64,
}

impl Open {
    /// The span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The span store shared by every wrapper and load loop of one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    cap: usize,
    dropped: AtomicU64,
    inflight: Mutex<HashMap<u64, (u64, u64)>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a thread panicked while holding a tracer lock")
}

impl Tracer {
    /// A disabled tracer keeping at most `cap` spans. The store is
    /// allocated up front, so recording never pauses to grow it; once
    /// it is full, recording stops and further spans count as dropped.
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(Tracer {
            origin: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(cap)),
            cap,
            dropped: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
        })
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh span or request id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a span.
    pub fn open(&self, kind: Kind, req: u64, parent: u64) -> Open {
        Open {
            id: self.next_id(),
            parent,
            req,
            kind,
            start: self.now(),
        }
    }

    /// Ends a span and stores it.
    pub fn close(&self, open: Open) {
        let end = self.now();
        self.record(Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            kind: open.kind,
            start: open.start,
            end,
        });
    }

    fn record(&self, span: Span) {
        let mut spans = lock(&self.spans);
        if spans.len() < self.cap {
            spans.push(span);
        } else {
            self.on.store(false, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Client side: frames with payload fingerprint `fp` belong to
    /// request `req`, sent under span `parent`.
    pub fn announce(&self, fp: u64, req: u64, parent: u64) {
        lock(&self.inflight).insert(fp, (req, parent));
    }

    /// Client side: the request carrying `fp` has completed.
    pub fn retire(&self, fp: u64) {
        lock(&self.inflight).remove(&fp);
    }

    /// Server side: the `(request, parent span)` announced for `fp`,
    /// re-pointing later lookups at `child` so the spans it causes
    /// nest under it. `(0, 0)` when nothing was announced.
    pub fn adopt(&self, fp: u64, child: u64) -> (u64, u64) {
        match lock(&self.inflight).get_mut(&fp) {
            Some(entry) => {
                let found = *entry;
                entry.1 = child;
                found
            }
            None => (0, 0),
        }
    }

    /// Server side: the `(request, parent span)` announced for `fp`.
    pub fn lookup(&self, fp: u64) -> (u64, u64) {
        lock(&self.inflight).get(&fp).copied().unwrap_or((0, 0))
    }

    /// Takes every recorded span, leaving the store empty.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *lock(&self.spans))
    }

    /// Spans not stored because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The payload fingerprint of a query or window: its length and up to
/// sixteen rectangles sampled evenly, so hashing stays cheap on bulk
/// requests.
pub fn fingerprint_rects(rects: &[Rect]) -> u64 {
    let mut h = Mix::new(rects.len() as u64);
    let step = rects.len().div_ceil(16).max(1);
    for r in rects.iter().step_by(step) {
        for v in [r.x0(), r.y0(), r.x1(), r.y1()] {
            h.word(v.to_bits());
        }
    }
    h.0
}

/// The payload fingerprint of a report batch: its epoch, size and the
/// reports at both ends.
pub fn fingerprint_batch(batch: &ReportBatch) -> u64 {
    let mut h = Mix::new(batch.epoch);
    h.word(batch.count());
    match &batch.payload {
        ReportPayload::Grr(cells) => {
            for c in cells.iter().take(8).chain(cells.iter().rev().take(8)) {
                h.word(u64::from(*c));
            }
        }
        ReportPayload::Oue { bits, .. } => {
            for w in bits.iter().take(8).chain(bits.iter().rev().take(8)) {
                h.word(*w);
            }
        }
    }
    h.0
}

/// A word-at-a-time multiply–xorshift mixer.
struct Mix(u64);

impl Mix {
    fn new(seed: u64) -> Self {
        let mut m = Mix(0x9e37_79b9_7f4a_7c15);
        m.word(seed);
        m
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0xff51_afd7_ed55_8ccd);
        self.0 ^= self.0 >> 32;
    }
}

/// The served service as the transport sees it: records a span per
/// `answer_batch`, `window` and report submission of the wrapped
/// service.
///
/// It can also corrupt one answer on purpose, so a test can prove the
/// benchmark's correctness gate trips.
pub struct TracedService<S> {
    inner: S,
    tracer: Arc<Tracer>,
    corrupt_at: Option<u64>,
    answered: AtomicU64,
}

impl<S> TracedService<S> {
    /// Wraps `inner`. With `corrupt_at = Some(n)`, the `n`-th answered
    /// query or window (counting from 1) comes back with its first
    /// answer off by one.
    pub fn new(inner: S, tracer: Arc<Tracer>, corrupt_at: Option<u64>) -> Self {
        TracedService {
            inner,
            tracer,
            corrupt_at,
            answered: AtomicU64::new(0),
        }
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn corrupt_now(&self) -> bool {
        // No shared counter on the measured path unless a test asked
        // for a corruption.
        self.corrupt_at
            .is_some_and(|at| self.answered.fetch_add(1, Ordering::Relaxed) + 1 == at)
    }
}

impl<S: QueryService> QueryService for TracedService<S> {
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<dpgrid_serve::Result<QueryResponse>> {
        let mut out = if self.tracer.enabled() {
            let id = self.tracer.next_id();
            let (req, parent) = requests.first().map_or((0, 0), |r| {
                self.tracer.adopt(fingerprint_rects(&r.rects), id)
            });
            let start = self.tracer.now();
            let out = self.inner.answer_batch(requests);
            self.tracer.record(Span {
                id,
                parent,
                req,
                kind: Kind::Router,
                start,
                end: self.tracer.now(),
            });
            out
        } else {
            self.inner.answer_batch(requests)
        };
        if self.corrupt_now() {
            if let Some(Ok(response)) = out.first_mut() {
                if let Some(a) = response.answers.first_mut() {
                    *a += 1.0;
                }
            }
        }
        out
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }

    fn window(&self, query: &WindowQuery) -> dpgrid_serve::Result<WindowAnswer> {
        let mut out = if self.tracer.enabled() {
            let id = self.tracer.next_id();
            let (req, parent) = self.tracer.adopt(fingerprint_rects(&query.rects), id);
            let start = self.tracer.now();
            let out = self.inner.window(query);
            self.tracer.record(Span {
                id,
                parent,
                req,
                kind: Kind::Window,
                start,
                end: self.tracer.now(),
            });
            out
        } else {
            self.inner.window(query)
        };
        if self.corrupt_now() {
            if let Ok(answer) = &mut out {
                if let Some(a) = answer.answers.first_mut() {
                    *a += 1.0;
                }
            }
        }
        out
    }

    fn reports(&self) -> Option<&dyn ReportService> {
        self.inner.reports().map(|_| self as &dyn ReportService)
    }
}

impl<S: QueryService> ReportService for TracedService<S> {
    fn submit_reports(&self, batch: &ReportBatch) -> dpgrid_serve::Result<ReportAck> {
        let sink = self
            .inner
            .reports()
            .expect("the wrapper only exposes a write path when the inner service has one");
        if !self.tracer.enabled() {
            return sink.submit_reports(batch);
        }
        let (req, parent) = self.tracer.lookup(fingerprint_batch(batch));
        let span = self.tracer.open(Kind::Submit, req, parent);
        let out = sink.submit_reports(batch);
        self.tracer.close(span);
        out
    }
}

/// A shard as the router sees it: records a span per `answer_batch`.
pub struct TracedShard<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S> TracedShard<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TracedShard { inner, tracer }
    }
}

impl<S: Shard> QueryService for TracedShard<S> {
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<dpgrid_serve::Result<QueryResponse>> {
        if !self.tracer.enabled() {
            return self.inner.answer_batch(requests);
        }
        let (req, parent) = requests
            .first()
            .map_or((0, 0), |r| self.tracer.lookup(fingerprint_rects(&r.rects)));
        let span = self.tracer.open(Kind::Engine, req, parent);
        let out = self.inner.answer_batch(requests);
        self.tracer.close(span);
        out
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn keys(&self) -> Vec<String> {
        self.inner.keys()
    }
}

impl<S: Shard> Shard for TracedShard<S> {
    fn contains_key(&self, key: &str) -> bool {
        self.inner.contains_key(key)
    }
}

/// A publishing sink that records a span per accepted release and
/// keeps a copy of each, so the benchmark can compute the answers the
/// served release must give.
pub struct TracedSink<S> {
    inner: S,
    tracer: Arc<Tracer>,
    /// Releases accepted since the last [`TracedSink::take_published`].
    published: Vec<(String, Release)>,
    /// The request id and parent span new sink spans are recorded under.
    pub context: (u64, u64),
}

impl<S> TracedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Arc<Tracer>) -> Self {
        TracedSink {
            inner,
            tracer,
            published: Vec::new(),
            context: (0, 0),
        }
    }

    /// The releases accepted since the last call, in order.
    pub fn take_published(&mut self) -> Vec<(String, Release)> {
        std::mem::take(&mut self.published)
    }
}

impl<S: ReleaseSink> ReleaseSink for TracedSink<S> {
    fn accept_release(&mut self, key: String, release: Release) {
        self.published.push((key.clone(), release.clone()));
        if self.tracer.enabled() {
            let span = self.tracer.open(Kind::Sink, self.context.0, self.context.1);
            self.inner.accept_release(key, release);
            self.tracer.close(span);
        } else {
            self.inner.accept_release(key, release);
        }
    }

    fn evict_release(&mut self, key: &str) -> bool {
        self.inner.evict_release(key)
    }
}

/// The length of `parent` covered by the union of `children`'s
/// intervals (clipped to the parent).
pub fn covered(parent: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// One traced read request, decomposed along its path.
#[derive(Debug, Clone, Copy)]
pub struct ReadCost {
    /// The load loop's view of the request.
    pub request_us: f64,
    /// Request time outside the client call (the loop's own work).
    pub unattributed_us: f64,
    /// The client call minus the served span: both codec ends, the
    /// sockets and the server's frame handling.
    pub client_self_us: f64,
    /// From the client call's start to the served span's start.
    pub inbound_us: f64,
    /// The served span (router or window).
    pub served_us: f64,
    /// The served span minus its shard spans.
    pub served_self_us: f64,
    /// The shard spans under the served span (their union).
    pub engine_us: f64,
    /// Whether the served span was a window.
    pub window: bool,
}

/// Decomposes every traced read request in `spans`: request →
/// client call → router or window → shard spans. Requests missing a
/// level (report submissions, untraced ones) are skipped.
pub fn read_costs(spans: &[Span]) -> Vec<ReadCost> {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let kids = |id: u64, kind: Kind| -> Vec<&Span> {
        children
            .get(&id)
            .map(|v| v.iter().copied().filter(|c| c.kind == kind).collect())
            .unwrap_or_default()
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let mut out = Vec::new();
    for request in spans.iter().filter(|s| s.kind == Kind::Request) {
        let Some(client) = kids(request.id, Kind::Client).into_iter().next() else {
            continue;
        };
        let served = kids(client.id, Kind::Router)
            .into_iter()
            .chain(kids(client.id, Kind::Window))
            .next();
        let Some(served) = served else {
            continue;
        };
        let engines = kids(served.id, Kind::Engine);
        let engine = covered(served, &engines);
        let served_len = covered(client, &[served]);
        out.push(ReadCost {
            request_us: us(request.duration()),
            unattributed_us: us(request.duration() - covered(request, &[client])),
            client_self_us: us(client.duration() - served_len),
            inbound_us: us(served.start.saturating_sub(client.start)),
            served_us: us(served.duration()),
            served_self_us: us(served.duration() - engine),
            engine_us: us(engine),
            window: served.kind == Kind::Window,
        });
    }
    out
}

/// The per-layer figures of the read path, from the traced requests'
/// decomposition: the accounting (`trace.*`), `net` less the replayed
/// codec cost `codec_us` per request, the router's and the engine's
/// spans, and windows.
pub fn path_layers(layers: &mut crate::Metrics, spans: &[Span], codec_us: f64) {
    use crate::stats::{mean, median};
    let costs = read_costs(spans);
    let col = |window: Option<bool>, f: fn(&ReadCost) -> f64| -> Vec<f64> {
        costs
            .iter()
            .filter(|c| window.is_none_or(|w| c.window == w))
            .map(f)
            .collect()
    };
    let request = col(None, |c| c.request_us);
    let unattributed = col(None, |c| c.unattributed_us);
    let client_self = col(None, |c| c.client_self_us);
    let engine = col(None, |c| c.engine_us);
    layers.put("trace.spans", spans.len() as f64, "count");
    layers.put("trace.request_us_p50", median(&request), "us");
    layers.put("trace.unattributed_us_p50", median(&unattributed), "us");
    let parts = mean(&unattributed)
        + mean(&client_self)
        + mean(&col(None, |c| c.served_self_us))
        + mean(&engine);
    layers.put("trace.accounted_ratio", parts / mean(&request), "ratio");
    layers.put(
        "net.inbound_us_p50",
        median(&col(None, |c| c.inbound_us)),
        "us",
    );
    layers.put(
        "net.roundtrip_self_us_p50",
        median(&client_self) - codec_us,
        "us",
    );
    layers.put(
        "serve.shard.router_self_us_p50",
        median(&col(Some(false), |c| c.served_self_us)),
        "us",
    );
    layers.put(
        "serve.engine.request_us_p50",
        median(&col(Some(false), |c| c.engine_us)),
        "us",
    );
    layers.put("serve.engine.busy_s", engine.iter().sum::<f64>() / 1e6, "s");
    let windows = col(Some(true), |c| c.served_us);
    if !windows.is_empty() {
        layers.put("serve.window.request_us_p50", median(&windows), "us");
    }
}

/// Writes a traced run's spans to `trace-<workload>.csv` in the
/// configured directory; a failure is reported, not fatal.
pub fn write_out(config: &crate::Config, spans: &[Span]) {
    let path = config
        .trace_dir
        .join(format!("trace-{}.csv", config.workload.name()));
    if let Err(e) = write_csv(&path, spans) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Writes `spans` as CSV (`id,parent,req,name,start_ns,end_ns`).
fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,req,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id,
            s.parent,
            s.req,
            s.kind.name(),
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            id: 1,
            parent: 0,
            req: 0,
            kind: Kind::Engine,
            start,
            end,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let parent = span(10, 100);
        let a = span(0, 20);
        let b = span(15, 30);
        let c = span(50, 60);
        let d = span(90, 200);
        assert_eq!(covered(&parent, &[&a, &b, &c, &d]), 20 + 10 + 10);
        assert_eq!(covered(&parent, &[]), 0);
    }

    #[test]
    fn adopt_repoints_children() {
        let t = Tracer::new(16);
        t.announce(7, 3, 11);
        assert_eq!(t.adopt(7, 12), (3, 11));
        assert_eq!(t.lookup(7), (3, 12));
        t.retire(7);
        assert_eq!(t.lookup(7), (0, 0));
    }
}
