//! The served stack every workload runs against: a `ShardRouter` over
//! two in-process `LocalShard`s behind one `MuxServer` on loopback.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpgrid_core::ShardedSink;
use dpgrid_net::{MuxServer, TcpClient};
use dpgrid_serve::{
    Catalog, EngineStats, LocalShard, QueryEngine, QueryService, ShardRouter, TransportStats,
};

use crate::trace::{TracedService, TracedShard, TracedSink, Tracer};
use crate::Metrics;

/// Transport and engine counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    transport: TransportStats,
    engine: EngineStats,
}

impl Snapshot {
    /// The per-layer figures counted between `self` and the later
    /// snapshot `after`, over a phase that answered `rects` rectangles.
    pub fn layers_until(&self, after: &Snapshot, rects: u64, layers: &mut Metrics) {
        let (t0, t1) = (&self.transport, &after.transport);
        let (e0, e1) = (&self.engine, &after.engine);
        let (c0, c1) = (&e0.catalog, &e1.catalog);
        let bytes = (t1.bytes_in + t1.bytes_out) - (t0.bytes_in + t0.bytes_out);
        layers.put(
            "net.bytes_per_rect",
            bytes as f64 / rects.max(1) as f64,
            "B",
        );
        layers.put(
            "net.write_stalls",
            (t1.write_stalls - t0.write_stalls) as f64,
            "count",
        );
        layers.put(
            "ldp.reports_accepted",
            (t1.reports_accepted - t0.reports_accepted) as f64,
            "count",
        );
        layers.put("serve.engine.shed", (e1.shed - e0.shed) as f64, "count");
        layers.put(
            "serve.catalog.hit_ratio",
            (c1.warm_hits - c0.warm_hits) as f64 / (c1.lookups - c0.lookups).max(1) as f64,
            "ratio",
        );
        layers.put(
            "serve.catalog.compilations",
            (c1.compilations - c0.compilations) as f64,
            "count",
        );
        layers.put(
            "serve.catalog.evictions",
            (c1.evictions - c0.evictions) as f64,
            "count",
        );
        layers.put(
            "serve.catalog.resident_mb",
            c1.resident_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        );
    }
}

/// Shard names; placement follows names, so publishing and routing
/// agree through them.
pub const SHARDS: [&str; 2] = ["shard-a", "shard-b"];

/// The publishing side of the stack.
pub type Sink = TracedSink<ShardedSink<LocalShard>>;

/// A running stack. Dropping it shuts the server down.
pub struct Stack<S: QueryService + 'static> {
    engines: Vec<Arc<QueryEngine>>,
    /// Connections the benchmark opened to the running server.
    connections: AtomicU64,
    /// Reconnects counted on servers stopped by [`Stack::restart`].
    past_reconnects: u64,
    /// The served service, as handed to the server.
    pub service: Arc<TracedService<S>>,
    /// Publishes releases onto the shard the router will look on.
    pub sink: Sink,
    server: Option<MuxServer>,
}

/// The router half of a stack, before the served service is chosen.
pub struct Shards {
    /// The router over both traced shards.
    pub router: Arc<ShardRouter>,
    /// Each shard's engine.
    pub engines: Vec<Arc<QueryEngine>>,
    /// The publishing sink over the same shards.
    pub sink: Sink,
}

/// Builds two shards whose catalogs each keep `budget_bytes` of
/// compiled surface resident.
pub fn shards(tracer: &Arc<Tracer>, budget_bytes: usize) -> Shards {
    let engines: Vec<Arc<QueryEngine>> = SHARDS
        .iter()
        .map(|_| Arc::new(QueryEngine::new(Catalog::with_memory_budget(budget_bytes))))
        .collect();
    let router = ShardRouter::with_shards(SHARDS.iter().zip(&engines).map(|(name, engine)| {
        (
            name.to_string(),
            TracedShard::new(LocalShard::new(Arc::clone(engine)), Arc::clone(tracer)),
        )
    }))
    .expect("distinct shard names");
    let sink = ShardedSink::new(
        SHARDS
            .iter()
            .zip(&engines)
            .map(|(name, engine)| (name.to_string(), LocalShard::new(Arc::clone(engine))))
            .collect(),
    );
    Shards {
        router: Arc::new(router),
        engines,
        sink: TracedSink::new(sink, Arc::clone(tracer)),
    }
}

impl<S: QueryService + 'static> Stack<S> {
    /// Serves `service` (built over `shards.router`) on an ephemeral
    /// loopback port.
    pub fn serve(
        tracer: &Arc<Tracer>,
        shards: Shards,
        service: S,
        corrupt_at: Option<u64>,
    ) -> Result<Self, String> {
        let service = Arc::new(TracedService::new(service, Arc::clone(tracer), corrupt_at));
        let server = MuxServer::bind(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Stack {
            engines: shards.engines,
            connections: AtomicU64::new(0),
            past_reconnects: 0,
            service,
            sink: shards.sink,
            server: Some(server),
        })
    }

    /// Opens one client connection; it negotiates binary v2.
    pub fn connect(&self) -> Result<TcpClient, String> {
        let addr = self.server.as_ref().expect("server runs").local_addr();
        let mut client = TcpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        self.connections.fetch_add(1, Ordering::Relaxed);
        client.ping().map_err(|e| format!("ping: {e}"))?;
        if client.protocol_version() != Some(2) {
            return Err("connection did not negotiate binary v2".into());
        }
        Ok(client)
    }

    /// The server's and both engines' counters now.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            transport: self.server.as_ref().expect("server runs").transport_stats(),
            engine: self.engines.iter().map(|e| e.stats()).sum(),
        }
    }

    /// Connections the server accepted beyond those the benchmark
    /// opened: each is a client that silently redialed and resent a
    /// request.
    pub fn reconnects(&self) -> u64 {
        let accepted = self.snapshot().transport.accepted;
        self.past_reconnects + accepted.saturating_sub(self.connections.load(Ordering::Relaxed))
    }

    /// Stops the server and serves the same service (and so the same
    /// warm catalogs) from a new server with new worker threads. Open
    /// clients must reconnect.
    pub fn restart(&mut self) -> Result<(), String> {
        self.past_reconnects = self.reconnects();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let server = MuxServer::bind(Arc::clone(&self.service), "127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        self.server = Some(server);
        self.connections.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Stops the server and joins its workers.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl<S: QueryService + 'static> Drop for Stack<S> {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
