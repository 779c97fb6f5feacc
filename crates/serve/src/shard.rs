//! The sharded serving tier: route one keyspace over many engines.
//!
//! A single [`QueryEngine`] scales until one host's cores or memory
//! run out; the serving problem after that is *horizontal* — split the
//! release keyspace over several engines (in this process or across
//! hosts) and route every query to the engine that owns its key. This
//! module is that tier:
//!
//! * [`Shard`] — the backend seam: a [`QueryService`] that can also
//!   say which keys it holds ([`Shard::contains_key`], plus the
//!   advertised keyspace from [`QueryService::keys`]). Implemented by
//!   [`LocalShard`] (an in-process [`QueryEngine`]) and by
//!   `dpgrid-net`'s `RemoteShard` (an engine on another host behind a
//!   TCP connection pool) — a router mixes both transparently.
//! * [`ShardRouter`] — the router. It implements [`QueryService`]
//!   itself, so everything built against the service seam (the wire
//!   protocol, the TCP server, another router) serves a whole shard
//!   fleet unchanged: bind a `TcpServer` to a router and you have a
//!   front-door node proxying N backends.
//!
//! # Placement
//!
//! Routing is deterministic **rendezvous hashing** over shard *names*
//! ([`dpgrid_core::rendezvous_route`]): no coordination, no lookup
//! table, identical in every process that agrees on the names. The
//! publishing side places releases with the same function via
//! [`dpgrid_core::ShardedSink`], so build → publish → route agree by
//! construction — name the sink shards exactly like the router shards
//! and a published key is always found where the router looks.
//! Topology changes are minimally disruptive: removing one of `k`
//! shards remaps exactly the keys it owned (~1/k), adding one steals
//! only the keys it now wins.
//!
//! # Batches, errors, stats
//!
//! [`ShardRouter::answer_batch`] scatter–gathers: a mixed-key batch is
//! split per owning shard, sub-batches run concurrently (scoped
//! threads, one per shard touched), and responses are reassembled in
//! request order. Failures stay isolated exactly as in the engine's
//! contract — one shard shedding [`ServeError::Overloaded`] (or being
//! unreachable: [`ServeError::Unavailable`]) fails only the requests
//! routed to it. [`QueryService::stats`] merges every shard's
//! [`EngineStats`] into the exact aggregate ([`EngineStats::merge`]);
//! [`ShardRouter::router_stats`] keeps the per-shard breakdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dpgrid_core::rendezvous_route;
use serde::{Deserialize, Serialize};

use crate::engine::{EngineStats, QueryEngine, QueryRequest, QueryResponse};
use crate::error::{Result, ServeError};
use crate::service::QueryService;

/// A routable serving backend: a [`QueryService`] that can also answer
/// placement questions about its keyspace.
///
/// The router only *routes* by rendezvous hash — it never scans shards
/// for a key — so `contains_key` is diagnostic surface: placement
/// verification, health checks, operator tooling. The default
/// implementation scans the advertised keyspace; backends with an
/// O(1) membership test (the local engine) override it.
pub trait Shard: QueryService {
    /// Whether this shard currently holds `key`.
    fn contains_key(&self, key: &str) -> bool {
        self.keys().iter().any(|k| k == key)
    }
}

/// Forwarding impl so `Arc<LocalShard>`, `Arc<dyn Shard>` (and any
/// other shared handle) are themselves shards.
impl<S: Shard + ?Sized> Shard for Arc<S> {
    fn contains_key(&self, key: &str) -> bool {
        (**self).contains_key(key)
    }
}

/// An in-process shard: a [`QueryEngine`] served directly, no wire.
///
/// The cheapest backend a router can hold — sub-batches routed here
/// are answered on the router's own scatter threads. Mixing
/// `LocalShard`s with remote ones is the natural migration path: start
/// with every shard local, move hot shards to their own hosts later
/// without touching routing (placement follows the *names*).
#[derive(Debug, Clone)]
pub struct LocalShard {
    engine: Arc<QueryEngine>,
}

impl LocalShard {
    /// Wraps a shared engine as a routable shard.
    pub fn new(engine: Arc<QueryEngine>) -> Self {
        LocalShard { engine }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }
}

impl QueryService for LocalShard {
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        self.engine.answer_batch(requests)
    }

    fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    fn keys(&self) -> Vec<String> {
        self.engine.keys()
    }
}

impl Shard for LocalShard {
    fn contains_key(&self, key: &str) -> bool {
        self.engine.with_catalog(|catalog| catalog.contains(key))
    }
}

/// Local shards accept published releases (the engine's interior
/// locking makes `&self` inserts safe), so a
/// [`dpgrid_core::ShardedSink`] over `LocalShard`s fans a pipeline's
/// output across the very engines a router serves from — publish into
/// the shard, serve from the shard, one placement.
impl dpgrid_core::ReleaseSink for LocalShard {
    fn accept_release(&mut self, key: String, release: dpgrid_core::Release) {
        self.engine.insert(key, release);
    }

    /// Evicts from the wrapped engine's catalog — so a compactor
    /// publishing through a `ShardedSink` of `LocalShard`s retires
    /// expired epochs from the same engines a router serves from.
    fn evict_release(&mut self, key: &str) -> bool {
        self.engine
            .with_catalog(|catalog| catalog.remove(key).is_some())
    }
}

/// One registered shard plus the router's per-shard traffic counters.
struct ShardSlot {
    name: String,
    shard: Arc<dyn Shard>,
    /// Requests the router dispatched to this shard.
    routed: AtomicU64,
    /// Of those, how many came back as errors (typed failures and
    /// unreachable-shard substitutions alike).
    failed: AtomicU64,
}

impl std::fmt::Debug for ShardSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSlot")
            .field("name", &self.name)
            .field("routed", &self.routed)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

/// Per-shard traffic breakdown inside [`RouterStats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    /// The shard's router-registered name (the rendezvous identity).
    pub name: String,
    /// Requests the router dispatched to this shard since it was
    /// added.
    pub routed: u64,
    /// Dispatched requests that failed (shard-typed errors and
    /// unreachability).
    pub failed: u64,
    /// The shard's own engine counters (zeroed when the shard is
    /// currently unreachable).
    pub engine: EngineStats,
}

/// A point-in-time view of a router: per-shard breakdown plus the
/// merged aggregate the router reports through [`QueryService::stats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStats {
    /// One entry per registered shard, in registration order.
    pub shards: Vec<ShardStats>,
    /// The exact element-wise sum of every shard's engine stats.
    pub merged: EngineStats,
}

/// Routes one keyspace over many shards — local, remote, or a mix.
///
/// ```
/// use std::sync::Arc;
/// use dpgrid_core::{Method, Pipeline, ShardedSink};
/// use dpgrid_geo::generators::PaperDataset;
/// use dpgrid_geo::Rect;
/// use dpgrid_serve::shard::{LocalShard, ShardRouter};
/// use dpgrid_serve::{Catalog, QueryEngine, QueryRequest, QueryService};
///
/// // Two engines, one keyspace: publish through a ShardedSink named
/// // like the router's shards, so placement and routing agree.
/// let engines: Vec<Arc<QueryEngine>> = (0..2)
///     .map(|_| Arc::new(QueryEngine::new(Catalog::new())))
///     .collect();
/// let mut sink = ShardedSink::new(vec![
///     ("a".to_string(), LocalShard::new(engines[0].clone())),
///     ("b".to_string(), LocalShard::new(engines[1].clone())),
/// ]);
/// let dataset = PaperDataset::Storage.generate_n(1, 1_500).unwrap();
/// for key in ["k1", "k2", "k3"] {
///     Pipeline::new(&dataset)
///         .method(Method::ug(8))
///         .seed(7)
///         .publish_into(&mut sink, key)
///         .unwrap();
/// }
///
/// let router = ShardRouter::new();
/// router.add_shard("a", LocalShard::new(engines[0].clone())).unwrap();
/// router.add_shard("b", LocalShard::new(engines[1].clone())).unwrap();
///
/// let q = Rect::new(-100.0, 30.0, -90.0, 40.0).unwrap();
/// let responses = router.answer_batch(&[
///     QueryRequest::new("k1", vec![q]),
///     QueryRequest::new("k2", vec![q]),
///     QueryRequest::new("k3", vec![q]),
/// ]);
/// assert!(responses.iter().all(|r| r.is_ok()));
/// assert_eq!(router.keys(), vec!["k1", "k2", "k3"]);
/// ```
#[derive(Debug, Default)]
pub struct ShardRouter {
    /// Registration-ordered slots. Reads snapshot the `Arc`s and drop
    /// the guard before any shard work, so topology updates never wait
    /// on slow backends.
    shards: RwLock<Vec<Arc<ShardSlot>>>,
}

impl ShardRouter {
    /// An empty router. Until a shard is added, every request fails
    /// with [`ServeError::Unavailable`].
    pub fn new() -> Self {
        ShardRouter::default()
    }

    /// A router over `shards` (name, backend) pairs.
    pub fn with_shards<S, I>(shards: I) -> Result<Self>
    where
        S: Shard + 'static,
        I: IntoIterator<Item = (String, S)>,
    {
        let router = ShardRouter::new();
        for (name, shard) in shards {
            router.add_shard(name, shard)?;
        }
        Ok(router)
    }

    /// Registers `shard` under `name` — the name is the shard's
    /// rendezvous identity, so it must match the name the publishing
    /// side used in its [`dpgrid_core::ShardedSink`]. Only the keys
    /// the new shard wins remap; everything else keeps its placement.
    ///
    /// Fails with [`ServeError::InvalidKey`] on a duplicate name
    /// (two shards under one name would split one rendezvous identity
    /// nondeterministically).
    pub fn add_shard<S: Shard + 'static>(&self, name: impl Into<String>, shard: S) -> Result<()> {
        let name = name.into();
        let mut shards = self.write();
        if shards.iter().any(|slot| slot.name == name) {
            return Err(ServeError::InvalidKey(format!(
                "shard name `{name}` is already registered"
            )));
        }
        shards.push(Arc::new(ShardSlot {
            name,
            shard: Arc::new(shard),
            routed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }));
        Ok(())
    }

    /// Deregisters the shard under `name`, returning whether it was
    /// present. Only the removed shard's keys remap (each to its new
    /// rendezvous winner); a key whose releases lived *only* on the
    /// removed shard then fails typed (`UnknownKey`) at its new home —
    /// the router routes placement, it does not migrate data.
    pub fn remove_shard(&self, name: &str) -> bool {
        let mut shards = self.write();
        let before = shards.len();
        shards.retain(|slot| slot.name != name);
        shards.len() < before
    }

    /// The registered shard names, in registration order.
    pub fn shard_names(&self) -> Vec<String> {
        self.read().iter().map(|s| s.name.clone()).collect()
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the router has no shards.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Name of the shard that owns `key` under the current topology
    /// (`None` on an empty router).
    pub fn route(&self, key: &str) -> Option<String> {
        let shards = self.read();
        let names: Vec<&str> = shards.iter().map(|s| s.name.as_str()).collect();
        rendezvous_route(&names, key).map(|i| shards[i].name.clone())
    }

    /// Per-shard traffic breakdown plus the merged aggregate. Remote
    /// shards are polled for their stats; an unreachable one reports
    /// zeroed engine counters (its `routed`/`failed` counters are the
    /// router's own and stay exact).
    pub fn router_stats(&self) -> RouterStats {
        let slots = self.snapshot();
        let engines = poll_shards(&slots, |slot| slot.shard.stats());
        let shards: Vec<ShardStats> = slots
            .iter()
            .zip(engines)
            .map(|(slot, engine)| ShardStats {
                name: slot.name.clone(),
                routed: slot.routed.load(Ordering::Relaxed),
                failed: slot.failed.load(Ordering::Relaxed),
                engine,
            })
            .collect();
        let merged = shards.iter().map(|s| &s.engine).sum();
        RouterStats { shards, merged }
    }

    /// Dispatches one sub-batch to its shard, keeping the router's
    /// per-shard counters and the one-result-per-request contract: a
    /// misbehaving backend that returns the wrong count is clamped
    /// (extras dropped, deficits filled with typed
    /// [`ServeError::Unavailable`]) so reassembly can never mismatch
    /// answers to requests.
    fn dispatch(slot: &ShardSlot, sub: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        slot.routed.fetch_add(sub.len() as u64, Ordering::Relaxed);
        let mut results = slot.shard.answer_batch(sub);
        results.truncate(sub.len());
        while results.len() < sub.len() {
            results.push(Err(ServeError::Unavailable {
                shard: slot.name.clone(),
                reason: "shard returned too few responses".into(),
            }));
        }
        let failed = results.iter().filter(|r| r.is_err()).count() as u64;
        slot.failed.fetch_add(failed, Ordering::Relaxed);
        results
    }

    /// Current slots, snapshotted so shard work runs without the lock.
    fn snapshot(&self) -> Vec<Arc<ShardSlot>> {
        self.read().clone()
    }

    fn read(&self) -> RwLockReadGuard<'_, Vec<Arc<ShardSlot>>> {
        self.shards
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Arc<ShardSlot>>> {
        self.shards
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl QueryService for ShardRouter {
    /// Scatter–gather over the owning shards: requests are bucketed by
    /// rendezvous placement, each touched shard answers its sub-batch
    /// on its own scoped thread (remote shards overlap their network
    /// round trips this way), and results reassemble in request order.
    /// Failures are per-request, exactly as the engine isolates them.
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse>> {
        let slots = self.snapshot();
        if slots.is_empty() {
            return requests
                .iter()
                .map(|_| {
                    Err(ServeError::Unavailable {
                        shard: "<none>".into(),
                        reason: "router has no shards".into(),
                    })
                })
                .collect();
        }
        let names: Vec<&str> = slots.iter().map(|s| s.name.as_str()).collect();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); slots.len()];
        for (i, request) in requests.iter().enumerate() {
            let owner = rendezvous_route(&names, &request.release_key).expect("router has shards");
            buckets[owner].push(i);
        }
        let touched: Vec<(&Arc<ShardSlot>, &Vec<usize>)> = slots
            .iter()
            .zip(&buckets)
            .filter(|(_, bucket)| !bucket.is_empty())
            .collect();
        if touched.len() <= 1 {
            // One shard owns the whole batch in request order (or the
            // batch is empty): answer inline, no threads, no copies.
            return match touched.first() {
                Some((slot, _)) => Self::dispatch(slot, requests),
                None => Vec::new(),
            };
        }
        let mut out: Vec<Option<Result<QueryResponse>>> = requests.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = touched
                .iter()
                .map(|(slot, bucket)| {
                    scope.spawn(move || {
                        let sub: Vec<QueryRequest> =
                            bucket.iter().map(|&i| requests[i].clone()).collect();
                        Self::dispatch(slot, &sub)
                    })
                })
                .collect();
            for ((_, bucket), handle) in touched.iter().zip(handles) {
                let results = handle.join().expect("shard dispatch panicked");
                for (&i, result) in bucket.iter().zip(results) {
                    out[i] = Some(result);
                }
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every request was bucketed exactly once"))
            .collect()
    }

    /// The exact merged counters of every shard (see
    /// [`EngineStats::merge`]), polled concurrently; an unreachable
    /// remote contributes zeroes. Use [`ShardRouter::router_stats`]
    /// for the per-shard breakdown.
    fn stats(&self) -> EngineStats {
        poll_shards(&self.snapshot(), |slot| slot.shard.stats())
            .into_iter()
            .sum()
    }

    /// The union of every shard's advertised keys (polled
    /// concurrently), sorted and deduped.
    fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = poll_shards(&self.snapshot(), |slot| slot.shard.keys())
            .into_iter()
            .flatten()
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }
}

/// Runs `f` against every slot, concurrently when there is more than
/// one — a shard may be on the far side of a wire, and one slow or
/// unreachable backend must not serialise polling the rest (the
/// scatter path in `answer_batch` already works this way).
fn poll_shards<T: Send>(
    slots: &[Arc<ShardSlot>],
    f: impl Fn(&ShardSlot) -> T + Send + Sync,
) -> Vec<T> {
    if slots.len() <= 1 {
        return slots.iter().map(|slot| f(slot)).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .iter()
            .map(|slot| scope.spawn(move || f(slot)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("shard poll panicked"))
            .collect()
    })
}

/// Routers are shards themselves: `contains_key` asks the rendezvous
/// winner (a placement-faithful check — "is the key where this
/// topology says it belongs"), which also lets routers nest into
/// routing trees.
impl Shard for ShardRouter {
    fn contains_key(&self, key: &str) -> bool {
        let slots = self.snapshot();
        let names: Vec<&str> = slots.iter().map(|s| s.name.as_str()).collect();
        match rendezvous_route(&names, key) {
            Some(owner) => slots[owner].shard.contains_key(key),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;
    use dpgrid_core::{Method, Pipeline, ShardedSink};
    use dpgrid_geo::generators::PaperDataset;
    use dpgrid_geo::Rect;

    fn rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n.max(1) as f64;
                Rect::new(-125.0 + 20.0 * t, 12.0 + 15.0 * t, -85.0, 45.0).unwrap()
            })
            .collect()
    }

    /// Publishes `keys` into (a) one reference engine holding all of
    /// them and (b) `shard_names.len()` sharded engines placed by a
    /// `ShardedSink`, returning the reference plus a router over local
    /// shards that agree with the sink's placement.
    fn reference_and_router(
        keys: &[String],
        shard_names: &[&str],
    ) -> (QueryEngine, ShardRouter, Vec<Arc<QueryEngine>>) {
        let dataset = PaperDataset::Storage.generate_n(5, 2_000).unwrap();
        let mut reference = Catalog::new();
        let engines: Vec<Arc<QueryEngine>> = shard_names
            .iter()
            .map(|_| Arc::new(QueryEngine::new(Catalog::new())))
            .collect();
        let mut sink = ShardedSink::new(
            shard_names
                .iter()
                .zip(&engines)
                .map(|(name, engine)| (name.to_string(), LocalShard::new(Arc::clone(engine))))
                .collect(),
        );
        for (i, key) in keys.iter().enumerate() {
            let pipeline = Pipeline::new(&dataset)
                .method(Method::ug(8 + (i % 3) * 4))
                .seed(i as u64);
            pipeline.publish_into(&mut reference, key.clone()).unwrap();
            pipeline.publish_into(&mut sink, key.clone()).unwrap();
        }
        let router = ShardRouter::with_shards(
            shard_names
                .iter()
                .zip(&engines)
                .map(|(name, engine)| (name.to_string(), LocalShard::new(Arc::clone(engine)))),
        )
        .unwrap();
        (QueryEngine::new(reference), router, engines)
    }

    #[test]
    fn mixed_batches_match_the_unsharded_engine_in_order() {
        let keys: Vec<String> = (0..9).map(|i| format!("r{i}")).collect();
        let (reference, router, _) = reference_and_router(&keys, &["s0", "s1", "s2"]);
        // A mixed-key batch, some keys repeated, plus one unknown.
        let mut batch: Vec<QueryRequest> = keys
            .iter()
            .chain(keys.iter().take(3))
            .map(|k| QueryRequest::new(k.clone(), rects(4)))
            .collect();
        batch.insert(5, QueryRequest::new("missing", rects(2)));
        let expected = reference.answer_batch(&batch);
        let routed = router.answer_batch(&batch);
        assert_eq!(routed.len(), expected.len());
        for (i, (r, e)) in routed.iter().zip(&expected).enumerate() {
            match (r, e) {
                (Ok(r), Ok(e)) => {
                    assert_eq!(r.release_key, batch[i].release_key);
                    assert_eq!(r.release_key, e.release_key);
                    assert_eq!(r.answers, e.answers, "request #{i} diverged");
                }
                (Err(ServeError::UnknownRelease(k)), Err(ServeError::UnknownRelease(k2))) => {
                    assert_eq!(k, k2);
                    assert_eq!(k, "missing");
                }
                other => panic!("request #{i}: mismatched outcomes {other:?}"),
            }
        }
        // The union keyspace is the reference keyspace.
        assert_eq!(router.keys(), reference.keys());
    }

    #[test]
    fn placement_agrees_with_sharded_sink_and_contains_key() {
        let keys: Vec<String> = (0..16).map(|i| format!("key-{i}")).collect();
        let (_, router, engines) = reference_and_router(&keys, &["s0", "s1", "s2", "s3"]);
        let mut non_empty = 0;
        for key in &keys {
            // The router's placement points at a shard that really
            // holds the key (build → publish → route agree).
            assert!(router.contains_key(key), "{key} not where routed");
            let owner = router.route(key).unwrap();
            let owner_idx = ["s0", "s1", "s2", "s3"]
                .iter()
                .position(|n| *n == owner)
                .unwrap();
            assert!(engines[owner_idx].with_catalog(|c| c.contains(key)));
        }
        for engine in &engines {
            non_empty += usize::from(!engine.keys().is_empty());
        }
        assert!(non_empty >= 2, "16 keys should spread over 4 shards");
        assert!(!router.contains_key("never-published"));
    }

    #[test]
    fn one_overloaded_shard_fails_only_its_sub_batch() {
        let keys: Vec<String> = (0..8).map(|i| format!("r{i}")).collect();
        let (_, router, engines) = reference_and_router(&keys, &["s0", "s1"]);
        // Choke shard s1: any request with >1 rect sheds there.
        let choked: Vec<String> = keys
            .iter()
            .filter(|k| router.route(k).as_deref() == Some("s1"))
            .cloned()
            .collect();
        assert!(!choked.is_empty(), "some keys must land on s1");
        assert!(choked.len() < keys.len(), "some keys must land on s0");
        // Rebuild the router with an admission-choked s1. (Engines are
        // shared; the router is cheap to reconstruct.)
        let choked_engine = Arc::new(QueryEngine::new(Catalog::new()).with_admission_limit(1));
        let dataset = PaperDataset::Storage.generate_n(5, 2_000).unwrap();
        let mut sink = LocalShard::new(Arc::clone(&choked_engine));
        for key in &choked {
            Pipeline::new(&dataset)
                .method(Method::ug(8))
                .seed(1)
                .publish_into(&mut sink, key.clone())
                .unwrap();
        }
        let router = ShardRouter::new();
        router
            .add_shard("s0", LocalShard::new(Arc::clone(&engines[0])))
            .unwrap();
        router
            .add_shard("s1", LocalShard::new(choked_engine))
            .unwrap();
        let batch: Vec<QueryRequest> = keys
            .iter()
            .map(|k| QueryRequest::new(k.clone(), rects(3)))
            .collect();
        let results = router.answer_batch(&batch);
        for (req, result) in batch.iter().zip(&results) {
            if choked.contains(&req.release_key) {
                assert!(
                    matches!(result, Err(ServeError::Overloaded { .. })),
                    "{}: expected Overloaded, got {result:?}",
                    req.release_key
                );
            } else {
                assert!(result.is_ok(), "{}: {result:?}", req.release_key);
            }
        }
        let stats = router.router_stats();
        let s1 = stats.shards.iter().find(|s| s.name == "s1").unwrap();
        assert_eq!(s1.failed, choked.len() as u64);
        assert_eq!(s1.routed, choked.len() as u64);
        let s0 = stats.shards.iter().find(|s| s.name == "s0").unwrap();
        assert_eq!(s0.failed, 0);
        assert_eq!(s0.routed, (keys.len() - choked.len()) as u64);
    }

    #[test]
    fn merged_stats_are_the_exact_sum_of_the_shards() {
        let keys: Vec<String> = (0..6).map(|i| format!("r{i}")).collect();
        let (_, router, engines) = reference_and_router(&keys, &["s0", "s1", "s2"]);
        let batch: Vec<QueryRequest> = keys
            .iter()
            .map(|k| QueryRequest::new(k.clone(), rects(2)))
            .collect();
        for result in router.answer_batch(&batch) {
            result.unwrap();
        }
        let merged = router.stats();
        let by_hand: EngineStats = engines.iter().map(|e| e.stats()).sum();
        assert_eq!(merged, by_hand);
        assert_eq!(merged.requests, keys.len() as u64);
        assert_eq!(merged.answers, (keys.len() * 2) as u64);
        // The aggregate admission budget is the sum of the members'.
        assert_eq!(
            merged.admission_limit,
            engines.iter().map(|e| e.admission_limit() as u64).sum()
        );
        let router_stats = router.router_stats();
        assert_eq!(router_stats.merged, merged);
        assert_eq!(
            router_stats.shards.iter().map(|s| s.routed).sum::<u64>(),
            keys.len() as u64
        );
    }

    #[test]
    fn topology_updates_remap_only_the_moved_keys() {
        let keys: Vec<String> = (0..64).map(|i| format!("topo-{i}")).collect();
        let (_, router, _) = reference_and_router(&keys, &["s0", "s1", "s2", "s3"]);
        let before: Vec<(String, String)> = keys
            .iter()
            .map(|k| (k.clone(), router.route(k).unwrap()))
            .collect();
        assert!(router.remove_shard("s2"));
        assert!(!router.remove_shard("s2"), "second removal is a no-op");
        let mut moved = 0;
        for (key, owner) in &before {
            let after = router.route(key).unwrap();
            if owner == "s2" {
                assert_ne!(&after, "s2");
                moved += 1;
            } else {
                assert_eq!(&after, owner, "{key} moved although its shard survived");
            }
        }
        assert!(moved > 0, "s2 owned some keys");
        assert!(
            moved <= keys.len() / 2,
            "removing 1 of 4 shards moved {moved}/{} keys",
            keys.len()
        );
        // Adding it back restores the original placement exactly.
        let engine = Arc::new(QueryEngine::new(Catalog::new()));
        router.add_shard("s2", LocalShard::new(engine)).unwrap();
        for (key, owner) in &before {
            assert_eq!(&router.route(key).unwrap(), owner);
        }
        // Duplicate names are rejected.
        let dup = Arc::new(QueryEngine::new(Catalog::new()));
        assert!(matches!(
            router.add_shard("s2", LocalShard::new(dup)),
            Err(ServeError::InvalidKey(_))
        ));
    }

    #[test]
    fn empty_router_fails_typed_not_panicking() {
        let router = ShardRouter::new();
        assert!(router.is_empty());
        assert_eq!(router.len(), 0);
        assert_eq!(router.route("k"), None);
        let results = router.answer_batch(&[QueryRequest::new("k", rects(1))]);
        assert!(matches!(results[0], Err(ServeError::Unavailable { .. })));
        assert_eq!(router.stats(), EngineStats::zeroed());
        assert!(router.keys().is_empty());
    }
}
