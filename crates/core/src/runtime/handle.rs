//! [`ProxyHandle`]: the shared, thread-safe proxy.
//!
//! The handle serves the paper's decision procedure (§3: exact match,
//! containment, region containment, overlap, disjoint), structured into
//! phases so no lock is ever held across an origin fetch:
//!
//! 1. **Cache phase** (one shard lock): exact lookup, relationship
//!    classification, and — when possible — the complete answer (exact
//!    hit or local evaluation over a containing entry). Misses leave
//!    the phase with an origin plan: which query to send and what
//!    cached contribution to merge in.
//! 2. **Flight phase** (flight-table lock only): the request joins or
//!    leads the single flight for its canonical SQL. A leader re-runs
//!    the cache phase after registering its flight; together with
//!    leaders inserting results *before* resolving, that closes the
//!    race where a fetch lands between a miss and the join, so
//!    concurrent identical queries issue exactly one origin fetch.
//! 3. **Origin phase** (no locks): the leader executes its plan, takes
//!    the shard lock once more to insert/compact, resolves the flight.
//!
//! Followers either adopt the leader's response (exact) or retry the
//! cache phase once the flight lands (contained); a follower whose
//! flight lands without leaving a usable entry retries, bounded by
//! [`MAX_COALESCE_ATTEMPTS`], after which a request serves itself
//! without coalescing.
//!
//! **Failure path.** A leader whose fetch fails publishes the error to
//! its followers ([`FlightLease::fail`]) — exactly one origin attempt
//! per failed flight. Neither the leader nor any follower retries the
//! origin; each re-checks the cache and then attempts **degraded
//! serving**: for a transient failure
//! the proxy answers from cached data alone — region containment
//! serves the union of the subsumed entries, overlap serves the cached
//! intersection — marked `degraded` and never inserted into the cache
//! (a partial answer must not masquerade as a complete entry). Only
//! rejections and true disjoint misses surface the error.

use crate::cache::{
    entry_from_xml, entry_to_xml, prebuild, CacheStats, CacheStore, ProfitEstimate, ProfitModel,
    SlabSlice,
};
use crate::config::{ProxyConfig, SchemeChoice};
use crate::lifecycle::snapshot::{read_snapshot_file, write_snapshot_file};
use crate::lifecycle::Freshness;
use crate::metrics::{Outcome, QueryMetrics};
use crate::observe::{Observer, OutcomeClass, PathClass, Phase as ObsPhase};
use crate::origin::Origin;
use crate::query::{
    classify, classify_graded, eval_entry_region, merge_results, remainder_query, EvalScratch,
    QueryStatus,
};
use crate::resilience::{Clock, ResilientOrigin, SystemClock};
use crate::runtime::shard::ShardedStore;
use crate::runtime::singleflight::{Coalesce, FlightLease, Joined, SingleFlight};
use crate::runtime::{RuntimeSnapshot, RuntimeStats};
use crate::schemes::Scheme;
use crate::template::{BoundQuery, TemplateManager};
use crate::ProxyError;
use fp_skyserver::{ColumnarRows, ResultSet};
use fp_sqlmini::Query;
use fp_xmlite::Element;
use std::cell::RefCell;
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

thread_local! {
    /// Per-thread evaluation buffers: the handle is `&self` across
    /// threads, so the scratch cannot live on the proxy itself.
    static SCRATCH: RefCell<EvalScratch> = RefCell::new(EvalScratch::default());
}

fn with_scratch<R>(f: impl FnOnce(&mut EvalScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// How many times a request retries after following a flight that
/// landed without helping it (failed leader, evicted entry) before it
/// serves itself without coalescing.
pub const MAX_COALESCE_ATTEMPTS: usize = 3;

/// A cheaply cloneable, thread-safe handle to one shared proxy.
///
/// All methods take `&self`; clones share the cache shards, the flight
/// table, and the runtime counters. This is the front the HTTP router
/// and the multi-client replayer use.
pub struct ProxyHandle {
    inner: Arc<Runtime>,
}

impl Clone for ProxyHandle {
    fn clone(&self) -> Self {
        ProxyHandle {
            inner: Arc::clone(&self.inner),
        }
    }
}

struct Runtime {
    manager: TemplateManager,
    store: ShardedStore,
    flights: SingleFlight,
    stats: RuntimeStats,
    config: ProxyConfig,
    origin: Arc<dyn Origin>,
    /// Set iff `config.resilience` is set; `origin` then points at this
    /// same decorator. Kept separately for snapshot access.
    resilient: Option<Arc<ResilientOrigin>>,
    /// The clock lifecycle timing and the snapshot schedule run on.
    clock: Arc<dyn Clock>,
    /// `config.lifecycle.is_active()`, hoisted off the hot path.
    lifecycle_active: bool,
    /// The live data-release epoch (monotone; starts at the config's,
    /// advanced by [`ProxyHandle::set_epoch`] and advertised epochs).
    current_epoch: AtomicU64,
    /// Canonical SQL of entries with a background refresh in flight —
    /// the dedup set behind "exactly one refresh per expired key".
    revalidating: Mutex<HashSet<String>>,
    /// Ids of demoted entries with a background promotion in flight —
    /// exactly one slab parse per entry however many disk hits land.
    promoting: Mutex<HashSet<u64>>,
    /// Live background threads (revalidations and promotions), joined
    /// by [`ProxyHandle::quiesce_revalidations`].
    reval_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Snapshot schedule state; `None` when persistence is off.
    snap: Option<Mutex<SnapSched>>,
    /// The adaptive scheme selector; `Some` iff the config's
    /// `scheme_choice` is [`SchemeChoice::Adaptive`]. Consulted once
    /// per request and fed once per finished request.
    profit: Option<ProfitModel>,
    /// The observability hub: per-phase latency histograms and the
    /// sampled span recorder, shared with the resilience layer.
    observe: Arc<Observer>,
}

/// Mutable snapshot-scheduler state (behind a `try_lock` so the serve
/// path never blocks on a concurrent snapshot pass).
struct SnapSched {
    /// Next virtual-clock instant a snapshot pass is due.
    next_due: Instant,
    /// Per-shard store generation at its last written snapshot; a shard
    /// whose generation is unchanged is skipped (incremental writes).
    written_gens: Vec<u64>,
}

/// Lifecycle facts about the cached data behind one response, captured
/// under the shard lock and applied to the metrics after serving.
#[derive(Clone, Default)]
struct ServeLife {
    /// Any contributing entry was past its TTL deadline.
    stale: bool,
    /// Age of the oldest contributing entry, ms.
    age_ms: f64,
    /// Canonical SQL to refresh in the background (stale exact or
    /// contained hits on the healthy path).
    revalidate: Option<String>,
}

impl ServeLife {
    /// Folds another contributing entry's facts in (merge paths).
    fn absorb(&mut self, other: &ServeLife) {
        self.stale |= other.stale;
        self.age_ms = self.age_ms.max(other.age_ms);
    }
}

/// Wall-clock bookkeeping for one request, accumulated across phases.
struct Timing {
    start: Instant,
    check_ms: f64,
    local_ms: f64,
    lock_wait_ms: f64,
}

impl Timing {
    fn begin() -> Self {
        Timing {
            start: Instant::now(),
            check_ms: 0.0,
            local_ms: 0.0,
            lock_wait_ms: 0.0,
        }
    }
}

/// A served request: the result plus its metrics record.
///
/// The result is `Arc`-shared with the cache entry that holds (or was
/// served from) it, so responding never deep-copies tuples.
#[derive(Debug, Clone)]
pub struct ProxyResponse {
    /// Rows returned to the client.
    pub result: Arc<ResultSet>,
    /// The per-query metrics the proxy servlet logs.
    pub metrics: QueryMetrics,
    /// The columnar form built from exactly `result` (a fetched miss, or
    /// the exact entry that served it), when one exists: its row slab is
    /// the serialized answer, so byte serving copies it instead of
    /// serializing `result` again.
    pub(crate) columnar: Option<Arc<ColumnarRows>>,
}

/// A response served as pre-assembled XML bytes. On the columnar hot
/// paths (exact and contained hits) the body is copied out of the
/// entry's pre-serialized row slab — no tuple materialization, no XML
/// re-serialization. Byte-identical to serializing the row response.
#[derive(Debug, Clone)]
pub struct XmlResponse {
    /// The complete `<ResultSet>` document.
    pub body: Vec<u8>,
    /// The same metrics a row response would carry.
    pub metrics: QueryMetrics,
}

/// What the cache phase decided (after off-lock local evaluation).
enum Phase {
    /// Fully answered from the cache.
    Served(ProxyResponse),
    /// Origin work is needed; here is the plan.
    Origin(Box<OriginPlan>),
}

/// What the shard-lock window itself decided. Contained hits leave the
/// lock with `Arc` snapshots of the entry; the actual region selection
/// runs after the lock is released, so a large scan never serializes
/// other requests on the same shard.
enum LockedPhase {
    /// Exact hit: the entry's shared result (and columnar form, for
    /// byte-level serving).
    Exact {
        result: Arc<ResultSet>,
        columnar: Option<Arc<ColumnarRows>>,
        sim_ms: f64,
        life: ServeLife,
    },
    /// A containing entry was found; evaluate off-lock.
    Contained(Box<ContainedPlan>),
    /// The matching entry lives on the disk tier; serve it from the
    /// mmap'd slab segment off-lock.
    Disk(Box<DiskPlan>),
    /// Origin work is needed; here is the plan.
    Origin(Box<OriginPlan>),
}

/// A demoted entry's serve plan, captured under the shard lock. The
/// slice pins the mmap (not the store), so assembly — splicing the
/// entry's pre-serialized row bytes straight out of the page cache —
/// runs after the lock is released. The resident skeleton does the row
/// selection; the payload bytes are never copied until they reach the
/// response body.
struct DiskPlan {
    id: u64,
    residual_key: Arc<str>,
    slice: SlabSlice,
    skeleton: Arc<ColumnarRows>,
    /// Total rows in the demoted entry (exact hits serve them all).
    rows: usize,
    /// `true` = exact hit; `false` = contained (select then assemble).
    exact: bool,
    sim_ms: f64,
    life: ServeLife,
}

/// `Arc` snapshots of a containing entry, captured under the shard lock.
/// Entries are immutable once inserted, so the snapshot stays valid even
/// if the entry is evicted while we evaluate.
struct ContainedPlan {
    result: Arc<ResultSet>,
    columnar: Option<Arc<ColumnarRows>>,
    /// Region dims → result columns; `None` = the entry cannot map the
    /// template's coordinate columns (treated like a malformed entry).
    coord_idx: Option<Vec<usize>>,
    sim_ms: f64,
    life: ServeLife,
}

/// One probed entry in a merge plan: its shared result, its columnar
/// form, and — on the overlap path — the coordinate mapping to filter
/// it by. Filtering happens off-lock in [`ProxyHandle::execute_plan`].
struct ProbePart {
    result: Arc<ResultSet>,
    columnar: Option<Arc<ColumnarRows>>,
    /// `Some` = filter to the query region (overlap probes); `None` =
    /// contributes whole (region containment).
    filter_idx: Option<Vec<usize>>,
    /// Lifecycle facts for this entry alone; folded into the response
    /// only when the part contributes rows to the served answer.
    life: ServeLife,
}

/// Everything a leader needs to finish a request off-lock: the query to
/// send, `Arc` snapshots of the probed entries, and the entries to
/// compact afterwards.
struct OriginPlan {
    query: Query,
    is_remainder: bool,
    /// Probed entries whose rows merge into the response.
    probe_parts: Vec<ProbePart>,
    /// Simulated cost of reading the probed entries.
    probe_sim_ms: f64,
    /// Entries subsumed by the merged result (compacted after insert).
    compact_ids: Vec<u64>,
    outcome: Outcome,
    /// Whether this plan replaced a local evaluation that hit a
    /// malformed cached entry.
    local_fallback: bool,
    /// Lifecycle facts about the probed entries (merge paths can draw
    /// on stale-but-serveable parts).
    life: ServeLife,
}

impl OriginPlan {
    fn forward(bound: &BoundQuery, compact_ids: Vec<u64>) -> Box<Self> {
        Box::new(OriginPlan {
            query: bound.query.clone(),
            is_remainder: false,
            probe_parts: Vec::new(),
            probe_sim_ms: 0.0,
            compact_ids,
            outcome: Outcome::Forwarded,
            local_fallback: false,
            life: ServeLife::default(),
        })
    }

    fn forward_fallback(bound: &BoundQuery) -> Box<Self> {
        let mut plan = Self::forward(bound, Vec::new());
        plan.local_fallback = true;
        plan
    }
}

impl ProxyHandle {
    /// Builds a handle with one cache shard per available CPU (clamped
    /// to 64).
    pub fn new(manager: TemplateManager, origin: Arc<dyn Origin>, config: ProxyConfig) -> Self {
        let shards = std::thread::available_parallelism().map_or(8, |n| n.get().min(64));
        Self::with_shards(manager, origin, config, shards)
    }

    /// Builds a handle with an explicit shard count (at least one).
    pub fn with_shards(
        manager: TemplateManager,
        origin: Arc<dyn Origin>,
        config: ProxyConfig,
        shards: usize,
    ) -> Self {
        Self::build(manager, origin, config, shards, Arc::new(SystemClock))
    }

    /// [`ProxyHandle::with_shards`] with an injected clock for the
    /// resilience layer (deadlines, backoff, breaker cooldowns) — the
    /// constructor deterministic tests and the chaos harness use. The
    /// clock is inert unless `config.resilience` is set.
    pub fn with_shards_clocked(
        manager: TemplateManager,
        origin: Arc<dyn Origin>,
        config: ProxyConfig,
        shards: usize,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self::build(manager, origin, config, shards, clock)
    }

    fn build(
        manager: TemplateManager,
        origin: Arc<dyn Origin>,
        config: ProxyConfig,
        shards: usize,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let store = ShardedStore::with_clock(&config, shards, Arc::clone(&clock));
        let observe = Arc::new(Observer::new(&config.observe));
        let (origin, resilient) = match &config.resilience {
            Some(policy) => {
                let decorated = Arc::new(
                    ResilientOrigin::with_clock(origin, policy.clone(), Arc::clone(&clock))
                        .with_observer(Arc::clone(&observe)),
                );
                (Arc::clone(&decorated) as Arc<dyn Origin>, Some(decorated))
            }
            None => (origin, None),
        };
        let snap = config.lifecycle.snapshot.as_ref().map(|policy| {
            Mutex::new(SnapSched {
                next_due: clock.now() + policy.interval,
                written_gens: vec![0; store.shard_count()],
            })
        });
        let snapshot_dir = config.lifecycle.snapshot.as_ref().map(|p| p.dir.clone());
        let profit = match config.scheme_choice {
            SchemeChoice::Adaptive(params) => Some(ProfitModel::new(params)),
            SchemeChoice::Fixed(_) => None,
        };
        let handle = ProxyHandle {
            inner: Arc::new(Runtime {
                manager,
                store,
                flights: SingleFlight::new(),
                stats: RuntimeStats::default(),
                origin,
                resilient,
                lifecycle_active: config.lifecycle.is_active(),
                current_epoch: AtomicU64::new(config.lifecycle.epoch),
                revalidating: Mutex::new(HashSet::new()),
                promoting: Mutex::new(HashSet::new()),
                reval_threads: Mutex::new(Vec::new()),
                snap,
                profit,
                observe,
                clock,
                config,
            }),
        };
        // Tier recovery first: the slab already holds full payloads, so
        // a legacy `.fpsnap` pass afterwards can only refine (same-SQL
        // replacement keeps the later insert).
        if handle.inner.config.tier.is_some() {
            handle.recover_tier();
        }
        if let Some(dir) = snapshot_dir {
            handle.recover_from(&dir);
        }
        handle
    }

    /// Startup recovery of the disk tier: every shard replays its slab
    /// (CRC-verified, front-recoverable) and applies its warm-restart
    /// metadata snapshot when one exists. Corrupt segments are counted,
    /// never fatal.
    fn recover_tier(&self) {
        let _trace = self.inner.observe.begin_trace();
        let recover_start = Instant::now();
        let mut recovered = 0usize;
        let mut corrupt = 0usize;
        for i in 0..self.inner.store.shard_count() {
            let outcome = self.inner.store.lock_shard(i).recover_tier();
            recovered += outcome.recovered;
            corrupt += outcome.corrupt;
        }
        if recovered > 0 {
            self.inner.stats.note_recovered_entries(recovered);
        }
        if corrupt > 0 {
            self.inner.stats.note_snapshot_corrupt(corrupt);
        }
        let obs = &self.inner.observe;
        obs.record_phase(
            ObsPhase::SnapshotRecover,
            PathClass::Background,
            ms_since(recover_start),
        );
        obs.span(
            "tier.recover",
            "lifecycle",
            recover_start,
            recover_start.elapsed(),
            || Some(format!("entries={recovered}")),
        );
    }

    /// The template registry.
    pub fn manager(&self) -> &TemplateManager {
        &self.inner.manager
    }

    /// The active configuration.
    pub fn config(&self) -> &ProxyConfig {
        &self.inner.config
    }

    /// Number of cache shards.
    pub fn shard_count(&self) -> usize {
        self.inner.store.shard_count()
    }

    /// Cache statistics aggregated across shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.store.stats()
    }

    /// A snapshot of the runtime's concurrency counters, merged with
    /// the resilience layer's (when one is configured).
    pub fn runtime_stats(&self) -> RuntimeSnapshot {
        let mut snapshot = self.inner.stats.snapshot(
            self.inner.flights.in_flight_peak(),
            self.inner.store.shard_count(),
        );
        if let Some(resilient) = &self.inner.resilient {
            let r = resilient.snapshot();
            snapshot.origin_timeouts = r.timeouts;
            snapshot.origin_retries = r.retries;
            snapshot.origin_fast_fails = r.fast_fails;
            snapshot.breaker_opens = r.breaker_opens;
            snapshot.breaker_state = r.breaker_state;
            snapshot.breaker_retry_after_ms = r.breaker_retry_after_ms;
            snapshot.origin_backoff_hint_ms = r.backoff_hint_ms;
        }
        let cache = self.inner.store.stats();
        snapshot.epoch_invalidations = cache.epoch_invalidations;
        snapshot.entries_expired = cache.expired;
        snapshot.disk_entries = cache.disk_entries;
        snapshot.slab_bytes = cache.slab_bytes;
        snapshot.demotions = cache.demotions;
        snapshot.promotions = cache.promotions;
        snapshot.slab_compactions = cache.slab_compactions;
        snapshot.slab_corrupt_segments = cache.slab_corrupt_segments;
        snapshot.tier_degraded = cache.tier_degraded;
        snapshot.tier_recoveries = cache.tier_recoveries;
        snapshot.slab_io_errors = cache.slab_io_errors;
        let obs = &self.inner.observe;
        snapshot.request_latency = obs.request_summary();
        snapshot.hit_latency = obs.hit_summary();
        snapshot.origin_fetch_latency = obs.origin_fetch_summary();
        if let Some(profit) = &self.inner.profit {
            snapshot.scheme_switches = profit.switches();
            snapshot.adaptive_templates = profit.templates_tracked();
        }
        snapshot
    }

    /// The adaptive profit model's current estimate for `template`.
    /// `None` when the runtime is fixed-scheme or the template has not
    /// been observed yet.
    pub fn profit_estimate(&self, template: &str) -> Option<ProfitEstimate> {
        self.inner.profit.as_ref()?.estimate(template)
    }

    /// The scheme this request serves under: the configured scheme,
    /// or the profit model's current per-template choice when the
    /// config asked for adaptive selection. Resolved once per request
    /// so one request never straddles a scheme switch.
    fn effective_scheme(&self, bound: &BoundQuery) -> Scheme {
        match &self.inner.profit {
            Some(profit) => profit.scheme_for(&bound.reg.template.name),
            None => self.inner.config.scheme,
        }
    }

    /// End-of-request adaptive accounting: tally the serve under the
    /// scheme that produced it and feed the profit model's estimates.
    fn note_served(&self, template: &str, scheme: Scheme, metrics: &QueryMetrics) {
        self.inner.stats.note_scheme_serve(scheme);
        if let Some(profit) = &self.inner.profit {
            profit.observe(template, metrics);
        }
    }

    /// The observe layer behind this handle: per-phase and per-outcome
    /// latency histograms plus the sampled span recorder.
    pub fn observer(&self) -> &Observer {
        &self.inner.observe
    }

    /// An owned, shareable handle to the observe layer, for subsystems
    /// (the edge reactor, worker pools) that record phases from threads
    /// that outlive a single request.
    pub fn observer_shared(&self) -> Arc<Observer> {
        Arc::clone(&self.inner.observe)
    }

    /// The `Retry-After` hint (whole seconds, ≥ 1) an admission-control
    /// layer should shed with while the origin circuit breaker is open;
    /// `None` when the breaker is closed, half-open, or resilience is
    /// not configured. Cheap enough for a per-request probe — one
    /// atomic-snapshot read, no locks.
    pub fn breaker_shed_hint(&self) -> Option<u64> {
        let r = self.inner.resilient.as_ref()?.snapshot();
        if r.breaker_state == "open" {
            Some(r.breaker_retry_after_ms.div_ceil(1000).max(1))
        } else {
            None
        }
    }

    /// The full `/metrics` payload in Prometheus text exposition format
    /// (version 0.0.4): runtime counters and gauges followed by every
    /// latency histogram family.
    pub fn metrics_text(&self) -> String {
        let mut out = self.runtime_stats().render_prometheus();
        out.push_str(&self.inner.observe.render_prometheus());
        out
    }

    /// Counts a cluster peer-cache probe issued by this node's serving
    /// path (`hit` when the remote cache answered it). Called by the
    /// cluster router, which owns the probe; the handle only keeps the
    /// per-node books.
    pub fn note_peer_probe(&self, hit: bool) {
        self.inner.stats.note_peer_probe(hit);
    }

    /// Counts a peer probe that failed transport after its retries and
    /// fell through to the local origin path.
    pub fn note_peer_probe_failure(&self) {
        self.inner.stats.note_peer_probe_failure();
    }

    /// Buffered trace spans as a chrome://tracing JSON document.
    pub fn trace_chrome_json(&self) -> String {
        self.inner.observe.spans().chrome_json()
    }

    /// Buffered trace spans as JSON Lines (one span object per line).
    pub fn trace_jsonl(&self) -> String {
        self.inner.observe.spans().jsonl()
    }

    /// The `Retry-After` hint (whole seconds, ≥ 1) a client should be
    /// given for `error`, or `None` when a retry is pointless (the
    /// error is not transient). Prefers the breaker's actual
    /// remaining-open time, then the error's own hint, then the
    /// resilience layer's next backoff delay — so a transient failure
    /// carries an honest nonzero hint even while the breaker is still
    /// closed (a bare 503 used to be the answer in that window).
    pub fn retry_after_secs(&self, error: &ProxyError) -> Option<u64> {
        let ProxyError::Origin(e) = error else {
            return None;
        };
        if !e.is_transient() {
            return None;
        }
        let stats = self.runtime_stats();
        let ms = if stats.breaker_retry_after_ms > 0 {
            stats.breaker_retry_after_ms
        } else if let Some(hint) = e.retry_after() {
            hint.as_millis().try_into().unwrap_or(u64::MAX)
        } else if stats.origin_backoff_hint_ms > 0 {
            stats.origin_backoff_hint_ms
        } else {
            1000
        };
        Some(ms.div_ceil(1000).max(1))
    }

    /// The live data-release epoch new cache entries are stamped with.
    pub fn current_epoch(&self) -> u64 {
        self.inner.current_epoch.load(Ordering::SeqCst)
    }

    /// Advances the proxy to data-release `epoch`, atomically retiring
    /// every cache entry stamped with an older one (shard by shard, so
    /// the serve path is never blocked behind one global pause). Returns
    /// how many entries were retired; a non-advancing epoch is a no-op.
    pub fn set_epoch(&self, epoch: u64) -> usize {
        let prev = self.inner.current_epoch.fetch_max(epoch, Ordering::SeqCst);
        if epoch <= prev {
            return 0;
        }
        let mut retired = 0;
        for i in 0..self.inner.store.shard_count() {
            retired += self.inner.store.lock_shard(i).bump_epoch(epoch);
        }
        retired
    }

    /// Blocks until every background revalidation spawned so far has
    /// finished — the deterministic-test barrier ("exactly one refresh
    /// per expired key" is only countable once the refreshes landed).
    pub fn quiesce_revalidations(&self) {
        loop {
            let threads: Vec<JoinHandle<()>> = {
                let mut guard = self
                    .inner
                    .reval_threads
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut *guard)
            };
            if threads.is_empty() {
                return;
            }
            for t in threads {
                let _ = t.join();
            }
        }
    }

    /// Serves an HTML-form request: resolve against the registered info
    /// files and templates, then answer per the configured scheme.
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_form(
        &self,
        path: &str,
        fields: &[(String, String)],
    ) -> Result<ProxyResponse, ProxyError> {
        let bound = self.inner.manager.resolve_form(path, fields)?;
        self.handle_bound(bound)
    }

    /// Serves a raw SQL request (the power-user path). Queries that match
    /// a registered template get full active caching; anything else is
    /// forwarded to the origin uncached (the proxy has no semantics to
    /// cache it by — exactly the paper's motivation for templates).
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_sql(&self, sql: &str) -> Result<ProxyResponse, ProxyError> {
        match self.inner.manager.resolve_sql(sql) {
            Some(bound) => self.handle_bound(bound?),
            None => {
                let _trace = self.inner.observe.begin_trace();
                let started = Instant::now();
                let response = self.forward_raw_sql(sql);
                self.observe_request(started, response.as_ref().ok().map(|r| &r.metrics));
                response
            }
        }
    }

    /// The unregistered-SQL path: parse and forward, no cache
    /// interaction (there is no template, so no region to reason about).
    fn forward_raw_sql(&self, sql: &str) -> Result<ProxyResponse, ProxyError> {
        self.inner.stats.note_request();
        let query =
            fp_sqlmini::parse_query(sql).map_err(|e| ProxyError::BadRequest(e.to_string()))?;
        let timing = Timing::begin();
        let (result, sim_ms) = self.fetch(&query, false, PathClass::Miss)?;
        Ok(self.respond(
            Arc::new(result),
            Outcome::Forwarded,
            0,
            sim_ms,
            &timing,
            false,
        ))
    }

    /// Serves an already-resolved query from any thread.
    ///
    /// # Errors
    /// Propagates origin errors; cache-side failures fall back to
    /// forwarding instead of erroring.
    pub fn handle_bound(&self, bound: BoundQuery) -> Result<ProxyResponse, ProxyError> {
        let _trace = self.inner.observe.begin_trace();
        let started = Instant::now();
        let reg = Arc::clone(&bound.reg);
        let scheme = self.effective_scheme(&bound);
        let response = self.handle_bound_inner(bound, scheme);
        if let Ok(r) = &response {
            self.note_served(&reg.template.name, scheme, &r.metrics);
        }
        self.observe_request(started, response.as_ref().ok().map(|r| &r.metrics));
        self.maybe_snapshot();
        response
    }

    /// End-of-request observe recording: fold the request's accumulated
    /// timing segments into the per-phase histograms, classify the
    /// outcome, and close the root span. `None` metrics = the request
    /// errored; only the root span is recorded then (failure counters
    /// live in [`RuntimeStats`] and the resilience layer).
    ///
    /// Phase segments record only when the phase actually ran — folding
    /// in zero-length segments for phases a path never touched would
    /// drown the distributions in zeros. The outcome histogram records
    /// `proxy_ms` (measured proxy-side time), not `response_ms`, which
    /// mixes in simulated WAN cost.
    fn observe_request(&self, started: Instant, metrics: Option<&QueryMetrics>) {
        let obs = &self.inner.observe;
        let Some(m) = metrics else {
            obs.span("request", "proxy", started, started.elapsed(), || {
                Some("error".into())
            });
            return;
        };
        let path = if matches!(m.outcome, Outcome::Exact | Outcome::Contained) {
            PathClass::Hit
        } else {
            PathClass::Miss
        };
        if m.check_ms > 0.0 {
            obs.record_phase(ObsPhase::Classify, path, m.check_ms);
        }
        if m.local_ms > 0.0 {
            obs.record_phase(ObsPhase::LocalEval, path, m.local_ms);
        }
        if m.lock_wait_ms > 0.0 {
            obs.record_phase(ObsPhase::LockWait, path, m.lock_wait_ms);
        }
        let class = OutcomeClass::of(m.outcome, m.degraded, m.stale);
        obs.record_outcome(class, m.proxy_ms);
        obs.span("request", "proxy", started, started.elapsed(), || {
            Some(class.label().to_string())
        });
    }

    fn handle_bound_inner(
        &self,
        bound: BoundQuery,
        scheme: Scheme,
    ) -> Result<ProxyResponse, ProxyError> {
        self.inner.stats.note_request();
        match scheme {
            Scheme::NoCache => {
                let timing = Timing::begin();
                let (result, sim_ms) = self.fetch(&bound.query, false, PathClass::Miss)?;
                Ok(self.respond(
                    Arc::new(result),
                    Outcome::Forwarded,
                    0,
                    sim_ms,
                    &timing,
                    false,
                ))
            }
            _ => self.serve_caching(bound, scheme),
        }
    }

    /// Serves an HTML-form request straight to response bytes. Cache
    /// hits (exact and contained) copy pre-serialized XML out of the
    /// entry's columnar slab without materializing tuples; every other
    /// path serializes the row response. The body is byte-identical to
    /// serializing [`ProxyHandle::handle_form`]'s result.
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_form_xml(
        &self,
        path: &str,
        fields: &[(String, String)],
    ) -> Result<XmlResponse, ProxyError> {
        let bound = self.inner.manager.resolve_form(path, fields)?;
        self.serve_xml(bound)
    }

    /// [`ProxyHandle::handle_sql`], served straight to response bytes.
    ///
    /// # Errors
    /// Propagates resolution failures and origin errors.
    pub fn handle_sql_xml(&self, sql: &str) -> Result<XmlResponse, ProxyError> {
        match self.inner.manager.resolve_sql(sql) {
            Some(bound) => self.serve_xml(bound?),
            None => {
                let _trace = self.inner.observe.begin_trace();
                let started = Instant::now();
                let response = self
                    .forward_raw_sql(sql)
                    .map(|response| self.xml_from_rows(response));
                self.observe_request(started, response.as_ref().ok().map(|r| &r.metrics));
                response
            }
        }
    }

    /// Turns a row response into response bytes, timing the work into
    /// the observe layer (the columnar hot paths time their slab
    /// assembly at the site). A response that carries its columnar form
    /// copies the form's document; only one without a form serializes
    /// its rows.
    fn xml_from_rows(&self, response: ProxyResponse) -> XmlResponse {
        let ser_start = Instant::now();
        let body = match response.columnar.as_deref() {
            Some(col) => col.full_document(),
            None => response.result.to_xml_string().into_bytes(),
        };
        let path = if matches!(
            response.metrics.outcome,
            Outcome::Exact | Outcome::Contained
        ) {
            PathClass::Hit
        } else {
            PathClass::Miss
        };
        let obs = &self.inner.observe;
        obs.record_phase(ObsPhase::Serialize, path, ms_since(ser_start));
        obs.span("serialize", "serve", ser_start, ser_start.elapsed(), || {
            None
        });
        XmlResponse {
            body,
            metrics: response.metrics,
        }
    }

    /// The byte-serving front: try the hot paths (exact / contained hit
    /// assembled from the columnar slab), fall back to the ordinary row
    /// pipeline plus serialization for everything else.
    fn serve_xml(&self, bound: BoundQuery) -> Result<XmlResponse, ProxyError> {
        let _trace = self.inner.observe.begin_trace();
        let started = Instant::now();
        let reg = Arc::clone(&bound.reg);
        let scheme = self.effective_scheme(&bound);
        let response = self.serve_xml_inner(bound, scheme);
        if let Ok(r) = &response {
            self.note_served(&reg.template.name, scheme, &r.metrics);
        }
        self.observe_request(started, response.as_ref().ok().map(|r| &r.metrics));
        self.maybe_snapshot();
        response
    }

    fn serve_xml_inner(
        &self,
        bound: BoundQuery,
        scheme: Scheme,
    ) -> Result<XmlResponse, ProxyError> {
        self.inner.stats.note_request();
        if scheme == Scheme::NoCache {
            let timing = Timing::begin();
            let (result, sim_ms) = self.fetch(&bound.query, false, PathClass::Miss)?;
            let response = self.respond(
                Arc::new(result),
                Outcome::Forwarded,
                0,
                sim_ms,
                &timing,
                false,
            );
            return Ok(self.xml_from_rows(response));
        }

        let mut timing = Timing::begin();
        match self.try_locked_hit(&bound, scheme, &mut timing, false) {
            Some(response) => Ok(response),
            // Malformed entry or miss: rejoin the ordinary loop (it
            // re-runs the cache phase under the flight table, which is
            // what closes the fetch/join race).
            None => Ok(self.xml_from_rows(self.serve_caching(bound, scheme)?)),
        }
    }

    /// One shard-lock window's worth of byte serving: an exact or
    /// contained hit becomes a response, anything needing origin work
    /// (or a malformed entry) becomes `None`. With `fresh_only`, stale
    /// hits also return `None` — the nonblocking edge path declines them
    /// so revalidation spawning stays off the reactor thread.
    fn try_locked_hit(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        timing: &mut Timing,
        fresh_only: bool,
    ) -> Option<XmlResponse> {
        match self.cache_phase_locked(bound, scheme, timing) {
            LockedPhase::Exact {
                result,
                columnar,
                sim_ms,
                life,
            } => {
                if fresh_only && life.stale {
                    return None;
                }
                let ser_start = Instant::now();
                let body = match columnar.as_deref() {
                    Some(col) => col.full_document(),
                    None => result.to_xml_string().into_bytes(),
                };
                let obs = &self.inner.observe;
                obs.record_phase(ObsPhase::Serialize, PathClass::Hit, ms_since(ser_start));
                obs.span("serialize", "serve", ser_start, ser_start.elapsed(), || {
                    Some("exact".into())
                });
                let cached = result.len();
                let mut metrics =
                    self.metrics_for(result.len(), Outcome::Exact, cached, sim_ms, timing, false);
                self.apply_life(&mut metrics, &life, true);
                Some(XmlResponse { body, metrics })
            }
            LockedPhase::Contained(plan) => {
                if fresh_only && plan.life.stale {
                    return None;
                }
                self.contained_bytes(bound, &plan, timing)
            }
            LockedPhase::Disk(plan) => {
                if fresh_only && plan.life.stale {
                    return None;
                }
                let response = self.disk_bytes(bound, &plan, timing);
                // Promotion (a slab parse) runs on a worker; the edge
                // reactor path must not spawn threads, so it serves
                // from disk again until a blocking request promotes.
                if !fresh_only {
                    self.spawn_promotion(&plan);
                }
                Some(response)
            }
            LockedPhase::Origin(_) => None,
        }
    }

    /// The edge reactor's fast path: serve an HTML-form request to bytes
    /// **only if** a fresh exact or contained hit answers it within one
    /// shard-lock window. Returns `None` — without touching the origin,
    /// the flight table, or the snapshot schedule — whenever serving
    /// would block: misses, stale entries, malformed entries, resolution
    /// failures, and the no-cache scheme all decline. Declined requests
    /// must be re-served through [`ProxyHandle::handle_form_xml`] on a
    /// thread that may block.
    pub fn try_form_xml_cached(
        &self,
        path: &str,
        fields: &[(String, String)],
    ) -> Option<XmlResponse> {
        let bound = self.inner.manager.resolve_form(path, fields).ok()?;
        self.try_cached_xml(bound)
    }

    /// [`ProxyHandle::try_form_xml_cached`] for raw SQL requests.
    /// Unregistered SQL always declines (it always needs the origin).
    pub fn try_sql_xml_cached(&self, sql: &str) -> Option<XmlResponse> {
        match self.inner.manager.resolve_sql(sql)? {
            Ok(bound) => self.try_cached_xml(bound),
            Err(_) => None,
        }
    }

    fn try_cached_xml(&self, bound: BoundQuery) -> Option<XmlResponse> {
        let scheme = self.effective_scheme(&bound);
        if scheme == Scheme::NoCache {
            return None;
        }
        let _trace = self.inner.observe.begin_trace();
        let started = Instant::now();
        let mut timing = Timing::begin();
        let response = self.try_locked_hit(&bound, scheme, &mut timing, true)?;
        // Count the request only once it is actually served here; a
        // declined probe is re-served (and counted) by the blocking
        // path. Snapshot scheduling is deliberately skipped — the
        // reactor thread must not absorb file I/O.
        self.inner.stats.note_request();
        self.note_served(&bound.reg.template.name, scheme, &response.metrics);
        self.observe_request(started, Some(&response.metrics));
        Some(response)
    }

    /// A contained hit as bytes: prune through the micro-index, then
    /// assemble the body by copying each selected row's pre-serialized
    /// span out of the slab. Returns `None` for malformed entries.
    fn contained_bytes(
        &self,
        bound: &BoundQuery,
        plan: &ContainedPlan,
        timing: &mut Timing,
    ) -> Option<XmlResponse> {
        let idx = plan.coord_idx.as_deref()?;
        let local_start = Instant::now();
        if let Some(col) = plan.columnar.as_deref().filter(|c| c.coord_idx() == idx) {
            let (body, rows, stats, ser_ms) = with_scratch(|scratch| {
                let (point, selected) = scratch.parts_mut();
                let stats = col.select_region(&bound.region, selected, point);
                if let Some(n) = bound.query.top {
                    selected.truncate(n as usize);
                }
                let ser_start = Instant::now();
                let body = col.assemble_document(selected);
                (body, selected.len(), stats, ms_since(ser_start))
            });
            // `local_ms` keeps its established meaning (all off-lock
            // local work, assembly included); the serialize histogram
            // carves the assembly share out separately.
            timing.local_ms += ms_since(local_start);
            self.inner
                .observe
                .record_phase(ObsPhase::Serialize, PathClass::Hit, ser_ms);
            let mut metrics =
                self.metrics_for(rows, Outcome::Contained, rows, plan.sim_ms, timing, false);
            metrics.rows_scanned = stats.rows_scanned;
            metrics.rows_pruned = stats.rows_pruned();
            self.apply_life(&mut metrics, &plan.life, true);
            return Some(XmlResponse { body, metrics });
        }
        // No matching columnar form: row-major selection, then serialize.
        let eval = with_scratch(|scratch| {
            eval_entry_region(&plan.result, None, idx, &bound.region, scratch)
        })?;
        let mut result = eval.result;
        if let Some(n) = bound.query.top {
            result.rows.truncate(n as usize);
        }
        timing.local_ms += ms_since(local_start);
        let rows = result.len();
        let ser_start = Instant::now();
        let body = result.to_xml_string().into_bytes();
        self.inner
            .observe
            .record_phase(ObsPhase::Serialize, PathClass::Hit, ms_since(ser_start));
        let mut metrics =
            self.metrics_for(rows, Outcome::Contained, rows, plan.sim_ms, timing, false);
        metrics.rows_scanned = eval.stats.rows_scanned;
        metrics.rows_pruned = eval.stats.rows_pruned();
        self.apply_life(&mut metrics, &plan.life, true);
        Some(XmlResponse { body, metrics })
    }

    /// The caching schemes' request loop: cache phase, then flight
    /// phase, retried while coalescing fails to help.
    fn serve_caching(
        &self,
        bound: BoundQuery,
        scheme: Scheme,
    ) -> Result<ProxyResponse, ProxyError> {
        let mut timing = Timing::begin();
        // Passive caching cannot answer a query from a containing
        // entry, so it must not wait on a merely containing flight.
        let allow_contained = scheme != Scheme::Passive;

        // Fast path: a cache hit needs no flight-table traffic.
        if let Phase::Served(response) = self.cache_phase(&bound, scheme, &mut timing, false) {
            return Ok(response);
        }

        for _ in 0..MAX_COALESCE_ATTEMPTS {
            match self.inner.flights.join(
                &bound.sql,
                &bound.residual_key,
                &bound.region,
                allow_contained,
            ) {
                Joined::Lead(lease) => {
                    self.inner.stats.note_flight_led();
                    // Re-check under the registered flight: a fetch that
                    // landed between our miss and this join is visible
                    // now, because leaders insert before resolving.
                    let response = match self.cache_phase(&bound, scheme, &mut timing, false) {
                        Phase::Served(response) => response,
                        Phase::Origin(plan) => {
                            return self.lead_origin(&bound, scheme, *plan, lease, &mut timing)
                        }
                    };
                    lease.resolve(response.clone());
                    return Ok(response);
                }
                Joined::Follow(Coalesce::Exact, ticket) => {
                    let wait_start = Instant::now();
                    let waited = ticket.wait();
                    self.inner.observe.span(
                        "flight.wait",
                        "flight",
                        wait_start,
                        wait_start.elapsed(),
                        || Some("exact".into()),
                    );
                    match waited {
                        Ok(leader) => {
                            self.inner.stats.note_coalesced_exact();
                            return Ok(self.adopt(leader, &timing));
                        }
                        // The leader's failure is this request's failure: a
                        // fresh flight here would turn one outage into a
                        // retry storm. Re-check the cache (the entry may
                        // have landed through another group), then try
                        // degraded serving.
                        Err(error) => {
                            if let Phase::Served(response) =
                                self.cache_phase(&bound, scheme, &mut timing, false)
                            {
                                return Ok(response);
                            }
                            return self.serve_after_failure(&bound, scheme, error, &mut timing);
                        }
                    }
                }
                Joined::Follow(Coalesce::Contained, ticket) => {
                    let wait_start = Instant::now();
                    let waited = ticket.wait();
                    self.inner.observe.span(
                        "flight.wait",
                        "flight",
                        wait_start,
                        wait_start.elapsed(),
                        || Some("contained".into()),
                    );
                    match waited {
                        Ok(_) => {
                            if let Phase::Served(response) =
                                self.cache_phase(&bound, scheme, &mut timing, true)
                            {
                                self.inner.stats.note_coalesced_contained();
                                return Ok(response);
                            }
                            // The flight landed but didn't leave a usable
                            // entry (truncated or evicted result): retry.
                        }
                        Err(error) => {
                            if let Phase::Served(response) =
                                self.cache_phase(&bound, scheme, &mut timing, false)
                            {
                                return Ok(response);
                            }
                            return self.serve_after_failure(&bound, scheme, error, &mut timing);
                        }
                    }
                }
            }
        }

        // Coalescing kept failing; serve uncoalesced rather than loop.
        match self.cache_phase(&bound, scheme, &mut timing, false) {
            Phase::Served(response) => Ok(response),
            Phase::Origin(plan) => match self.execute_plan(&bound, scheme, *plan, &mut timing) {
                Ok(response) => Ok(response),
                Err(error) => self.serve_after_failure(&bound, scheme, error, &mut timing),
            },
        }
    }

    /// The leader's origin phase plus failure handling: on success the
    /// flight resolves with the response; on failure the error is
    /// published to every follower exactly once and the leader falls
    /// back to degraded serving for its own client.
    fn lead_origin(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        plan: OriginPlan,
        lease: FlightLease<'_>,
        timing: &mut Timing,
    ) -> Result<ProxyResponse, ProxyError> {
        let lead_start = Instant::now();
        match self.execute_plan(bound, scheme, plan, timing) {
            Ok(response) => {
                self.inner.observe.span(
                    "flight.lead",
                    "flight",
                    lead_start,
                    lead_start.elapsed(),
                    || Some(format!("{:?}", response.metrics.outcome)),
                );
                lease.resolve(response.clone());
                Ok(response)
            }
            Err(error) => {
                self.inner.observe.span(
                    "flight.lead",
                    "flight",
                    lead_start,
                    lead_start.elapsed(),
                    || Some("failed".into()),
                );
                lease.fail(error.clone());
                self.serve_after_failure(bound, scheme, error, timing)
            }
        }
    }

    /// After a failed fetch (this request's own or a followed
    /// leader's): serve degraded from the cache when the failure is
    /// transient and the cache covers any of the query; otherwise
    /// surface the error.
    fn serve_after_failure(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        error: ProxyError,
        timing: &mut Timing,
    ) -> Result<ProxyResponse, ProxyError> {
        let transient = matches!(&error, ProxyError::Origin(e) if e.is_transient());
        if transient {
            if let Some(response) = self.degraded_phase(bound, scheme, timing) {
                return Ok(response);
            }
        }
        Err(error)
    }

    /// One pass over the shard, then off-lock local evaluation: classify
    /// and either answer from the cache or plan the origin work.
    fn cache_phase(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        timing: &mut Timing,
        coalesced: bool,
    ) -> Phase {
        match self.cache_phase_locked(bound, scheme, timing) {
            LockedPhase::Exact {
                result,
                columnar,
                sim_ms,
                life,
            } => {
                let cached = result.len();
                let mut response =
                    self.respond(result, Outcome::Exact, cached, sim_ms, timing, coalesced);
                response.columnar = columnar;
                self.apply_life(&mut response.metrics, &life, true);
                Phase::Served(response)
            }
            LockedPhase::Contained(plan) => self.finish_contained(bound, &plan, timing, coalesced),
            LockedPhase::Disk(plan) => self.finish_disk_rows(bound, *plan, timing, coalesced),
            LockedPhase::Origin(plan) => Phase::Origin(plan),
        }
    }

    /// The shard-lock window: exact lookup, classification, and `Arc`
    /// snapshots of whatever entries the answer needs. Never fetches,
    /// never scans tuples — contained-hit selection and overlap probe
    /// filtering both run after the lock is released.
    fn cache_phase_locked(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        timing: &mut Timing,
    ) -> LockedPhase {
        let (mut store, wait) = self.inner.store.lock(&bound.residual_key);
        self.note_lock_wait(timing, wait);
        let config = &self.inner.config;
        if self.inner.lifecycle_active {
            // Expiry is lazy: entries die when next probed, not on a
            // timer, so retire this probe's dead candidates first.
            store.sweep_dead(&bound.residual_key, &bound.region);
        }

        let check_start = Instant::now();
        // An exact entry past its serveable windows (Grace on the
        // healthy path) falls through to classification, which applies
        // the same freshness grade to every candidate.
        let status = match store.lookup_exact(&bound.sql) {
            Some(id) if store.freshness(id).is_some_and(|f| f.serveable(false)) => {
                QueryStatus::ExactMatch(id)
            }
            // Passive caching only ever matches exact text.
            _ if scheme == Scheme::Passive => QueryStatus::Disjoint,
            _ => classify(&store, bound),
        };
        timing.check_ms += ms_since(check_start);

        match status {
            QueryStatus::ExactMatch(id) => {
                let life = self.life_of(&store, id);
                if store.peek(id).is_some() {
                    let entry = store.get(id).expect("resident above");
                    LockedPhase::Exact {
                        result: Arc::clone(&entry.result),
                        columnar: entry.columnar.clone(),
                        sim_ms: config.cost.cache_read_ms(entry.bytes),
                        life,
                    }
                } else {
                    self.disk_phase(&mut store, id, bound, true, life)
                }
            }

            QueryStatus::ContainedBy(id) => {
                let life = self.life_of(&store, id);
                if store.peek(id).is_some() {
                    let entry = store.get(id).expect("resident above");
                    LockedPhase::Contained(Box::new(ContainedPlan {
                        result: Arc::clone(&entry.result),
                        columnar: entry.columnar.clone(),
                        coord_idx: entry.coord_indexes(&bound.reg.coord_columns),
                        sim_ms: config.cost.cache_read_ms(entry.bytes),
                        life,
                    }))
                } else {
                    self.disk_phase(&mut store, id, bound, false, life)
                }
            }

            QueryStatus::RegionContainment(ids) if scheme.handles_region_containment() => {
                self.merge_plan(
                    &mut store, bound, ids, /*probe_filters=*/ false, timing,
                )
            }

            QueryStatus::Overlapping(ids)
                if scheme.handles_overlap() && coverage_worthwhile(config, &store, bound, &ids) =>
            {
                self.merge_plan(&mut store, bound, ids, /*probe_filters=*/ true, timing)
            }

            QueryStatus::RegionContainment(_)
            | QueryStatus::Overlapping(_)
            | QueryStatus::Disjoint => LockedPhase::Origin(OriginPlan::forward(bound, Vec::new())),
        }
    }

    /// Builds the serve plan for a classification hit on a demoted
    /// entry: pin its slab segment (zero-copy mmap slice) and snapshot
    /// its resident skeleton, all within the held lock window. An
    /// unreachable segment drops the entry (counting the corruption)
    /// and falls back to forwarding.
    fn disk_phase(
        &self,
        store: &mut CacheStore,
        id: u64,
        bound: &BoundQuery,
        exact: bool,
        life: ServeLife,
    ) -> LockedPhase {
        let Some(d) = store.disk_entry(id) else {
            return LockedPhase::Origin(OriginPlan::forward(bound, Vec::new()));
        };
        let skeleton = Arc::clone(&d.skeleton);
        let residual_key = Arc::clone(&d.residual_key);
        let rows = d.rows;
        let bytes = d.bytes;
        if !exact && skeleton.coord_idx().is_empty() {
            // The skeleton cannot select rows by region — same handling
            // as a malformed contained entry.
            self.inner.stats.note_local_fallback();
            return LockedPhase::Origin(OriginPlan::forward_fallback(bound));
        }
        match store.disk_slice(id) {
            Some(slice) => LockedPhase::Disk(Box::new(DiskPlan {
                id,
                residual_key,
                slice,
                skeleton,
                rows,
                exact,
                sim_ms: self.inner.config.cost.cache_read_ms(bytes),
                life,
            })),
            None => {
                // Read-repair: quarantine the unreadable segment; the
                // forward plan below re-fetches from origin and its
                // insert rewrites the entry.
                if store.quarantine_corrupt_demoted(id).is_some() {
                    self.inner.stats.note_read_repair();
                }
                LockedPhase::Origin(OriginPlan::forward(bound, Vec::new()))
            }
        }
    }

    /// A disk-tier hit as bytes, entirely off-lock: an exact hit splices
    /// the skeleton's XML framing around the mmap'd row slab; a
    /// contained hit selects rows through the resident micro-index first
    /// and assembles only the selected spans. Byte-identical to serving
    /// the entry from RAM.
    fn disk_bytes(&self, bound: &BoundQuery, plan: &DiskPlan, timing: &mut Timing) -> XmlResponse {
        let serve_start = Instant::now();
        let obs = &self.inner.observe;
        let (body, rows, scanned, pruned) = if plan.exact {
            (
                plan.skeleton.full_document_with(plan.slice.row_slab()),
                plan.rows,
                0,
                0,
            )
        } else {
            let (body, rows, stats) = with_scratch(|scratch| {
                let (point, selected) = scratch.parts_mut();
                let stats = plan.skeleton.select_region(&bound.region, selected, point);
                if let Some(n) = bound.query.top {
                    selected.truncate(n as usize);
                }
                let body = plan
                    .skeleton
                    .assemble_document_with(plan.slice.row_slab(), selected);
                (body, selected.len(), stats)
            });
            timing.local_ms += ms_since(serve_start);
            (body, rows, stats.rows_scanned, stats.rows_pruned())
        };
        obs.record_phase(ObsPhase::DiskServe, PathClass::Hit, ms_since(serve_start));
        obs.span(
            "disk.serve",
            "serve",
            serve_start,
            serve_start.elapsed(),
            || Some(if plan.exact { "exact" } else { "contained" }.into()),
        );
        self.inner.stats.note_disk_hit();
        let outcome = if plan.exact {
            Outcome::Exact
        } else {
            Outcome::Contained
        };
        let mut metrics = self.metrics_for(rows, outcome, rows, plan.sim_ms, timing, false);
        metrics.rows_scanned = scanned;
        metrics.rows_pruned = pruned;
        metrics.disk_hit = true;
        self.apply_life(&mut metrics, &plan.life, true);
        XmlResponse { body, metrics }
    }

    /// A disk-tier hit on the row-response path. The slab payload must
    /// be parsed back into tuples anyway, and that parse *is* the
    /// promotion work — so the entry is promoted inline (relock, swap
    /// in the rebuilt result) instead of spawning a worker.
    fn finish_disk_rows(
        &self,
        bound: &BoundQuery,
        plan: DiskPlan,
        timing: &mut Timing,
        coalesced: bool,
    ) -> Phase {
        let serve_start = Instant::now();
        let parsed = std::str::from_utf8(plan.slice.xml())
            .ok()
            .and_then(|text| Element::parse(text).ok())
            .and_then(|doc| entry_from_xml(&doc));
        let Some(((_, _, result, _, _, coord_idx), _stamp)) = parsed else {
            let (mut store, wait) = self.inner.store.lock(&bound.residual_key);
            self.note_lock_wait(timing, wait);
            // Read-repair: quarantine, then let the forward plan's
            // origin fetch and insert rewrite the entry.
            if store.quarantine_corrupt_demoted(plan.id).is_some() {
                self.inner.stats.note_read_repair();
            }
            return Phase::Origin(OriginPlan::forward(bound, Vec::new()));
        };
        let result = Arc::new(result);
        let columnar = ColumnarRows::build(&result, &coord_idx).map(Arc::new);
        timing.local_ms += ms_since(serve_start);
        self.inner
            .observe
            .record_phase(ObsPhase::DiskServe, PathClass::Hit, ms_since(serve_start));
        {
            let (mut store, wait) = self.inner.store.lock(&plan.residual_key);
            self.note_lock_wait(timing, wait);
            store.promote(plan.id, Arc::clone(&result), columnar.clone());
        }
        self.inner.stats.note_disk_hit();
        if plan.exact {
            let cached = result.len();
            let mut response = self.respond(
                result,
                Outcome::Exact,
                cached,
                plan.sim_ms,
                timing,
                coalesced,
            );
            response.columnar = columnar;
            response.metrics.disk_hit = true;
            self.apply_life(&mut response.metrics, &plan.life, true);
            Phase::Served(response)
        } else {
            let contained = ContainedPlan {
                result,
                columnar,
                coord_idx: Some(coord_idx),
                sim_ms: plan.sim_ms,
                life: plan.life.clone(),
            };
            match self.finish_contained(bound, &contained, timing, coalesced) {
                Phase::Served(mut response) => {
                    response.metrics.disk_hit = true;
                    Phase::Served(response)
                }
                phase => phase,
            }
        }
    }

    /// The off-lock half of a contained hit: select the rows inside the
    /// query region from the snapshotted entry (columnar when the forms
    /// match, row-major otherwise).
    fn finish_contained(
        &self,
        bound: &BoundQuery,
        plan: &ContainedPlan,
        timing: &mut Timing,
        coalesced: bool,
    ) -> Phase {
        let local_start = Instant::now();
        let eval = plan.coord_idx.as_deref().and_then(|idx| {
            with_scratch(|scratch| {
                eval_entry_region(
                    &plan.result,
                    plan.columnar.as_deref(),
                    idx,
                    &bound.region,
                    scratch,
                )
            })
        });
        timing.local_ms += ms_since(local_start);
        match eval {
            Some(eval) => {
                let mut result = eval.result;
                if let Some(n) = bound.query.top {
                    result.rows.truncate(n as usize);
                }
                let cached = result.len();
                let mut response = self.respond(
                    Arc::new(result),
                    Outcome::Contained,
                    cached,
                    plan.sim_ms,
                    timing,
                    coalesced,
                );
                response.metrics.rows_scanned = eval.stats.rows_scanned;
                response.metrics.rows_pruned = eval.stats.rows_pruned();
                self.apply_life(&mut response.metrics, &plan.life, true);
                Phase::Served(response)
            }
            // Malformed cached document: fall back to the origin.
            None => {
                self.inner.stats.note_local_fallback();
                Phase::Origin(OriginPlan::forward_fallback(bound))
            }
        }
    }

    /// Cache-only answering after a transient origin failure.
    ///
    /// Re-classifies the query against the cache, ignoring the gates
    /// the full path applies (remainder support, `TOP`, the coverage
    /// threshold) — origin-side completion is off the table, so any
    /// sound cached subset beats a refusal:
    ///
    /// * exact / contained: complete answers, served normally (these
    ///   arise when another group's fetch landed the entry meanwhile);
    /// * region containment: the union of the subsumed cached entries,
    ///   a sound subset of the full answer, marked `degraded`;
    /// * overlap: the cached entries filtered to the query region (the
    ///   cached intersection), likewise sound, marked `degraded`.
    ///
    /// Malformed entries are skipped best-effort rather than failing
    /// the whole answer. Degraded responses are **never** inserted into
    /// the cache. Returns `None` when the cache cannot contribute
    /// (disjoint, passive scheme, nothing usable).
    fn degraded_phase(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        timing: &mut Timing,
    ) -> Option<ProxyResponse> {
        let config = &self.inner.config;
        // Passive caching cannot reason spatially; its only possible
        // hit (exact text) was already checked before the fetch.
        if !scheme.caches() || scheme == Scheme::Passive {
            return None;
        }

        let (mut store, wait) = self.inner.store.lock(&bound.residual_key);
        self.note_lock_wait(timing, wait);
        let check_start = Instant::now();
        // The error path's privilege: entries in the stale-if-error
        // Grace window are admitted — an outage extends expired entries
        // instead of abandoning them. No revalidation is spawned here
        // (the origin is known down).
        let status = match store.lookup_exact(&bound.sql) {
            Some(id) if store.freshness(id).is_some_and(|f| f.serveable(true)) => {
                QueryStatus::ExactMatch(id)
            }
            _ => classify_graded(&store, bound, true),
        };
        timing.check_ms += ms_since(check_start);

        let (ids, filtered, outcome) = match status {
            QueryStatus::ExactMatch(id) => {
                let life = self.error_life_of(&store, id);
                if store.peek(id).is_none() {
                    // Demoted: serve (and promote) from the slab.
                    let LockedPhase::Disk(plan) =
                        self.disk_phase(&mut store, id, bound, true, life)
                    else {
                        return None;
                    };
                    drop(store);
                    return match self.finish_disk_rows(bound, *plan, timing, false) {
                        Phase::Served(response) => Some(response),
                        Phase::Origin(_) => None,
                    };
                }
                let entry = store.get(id).expect("resident above");
                let result = Arc::clone(&entry.result);
                let sim_ms = config.cost.cache_read_ms(entry.bytes);
                drop(store);
                let cached = result.len();
                let mut response =
                    self.respond(result, Outcome::Exact, cached, sim_ms, timing, false);
                self.apply_life(&mut response.metrics, &life, false);
                return Some(response);
            }
            QueryStatus::ContainedBy(id) => {
                let life = self.error_life_of(&store, id);
                if store.peek(id).is_none() {
                    let LockedPhase::Disk(plan) =
                        self.disk_phase(&mut store, id, bound, false, life)
                    else {
                        return None;
                    };
                    drop(store);
                    return match self.finish_disk_rows(bound, *plan, timing, false) {
                        Phase::Served(response) => Some(response),
                        Phase::Origin(_) => None,
                    };
                }
                let entry = store.get(id).expect("resident above");
                let plan = ContainedPlan {
                    result: Arc::clone(&entry.result),
                    columnar: entry.columnar.clone(),
                    coord_idx: entry.coord_indexes(&bound.reg.coord_columns),
                    sim_ms: config.cost.cache_read_ms(entry.bytes),
                    life,
                };
                drop(store);
                return match self.finish_contained(bound, &plan, timing, false) {
                    Phase::Served(response) => Some(response),
                    // Malformed entry; nothing else covers the query.
                    Phase::Origin(_) => None,
                };
            }
            QueryStatus::RegionContainment(ids) if scheme.handles_region_containment() => {
                (ids, false, Outcome::RegionContainment)
            }
            QueryStatus::Overlapping(ids) if scheme.handles_overlap() => {
                (ids, true, Outcome::Overlap)
            }
            _ => return None,
        };

        // Snapshot the contributing entries, skipping malformed ones.
        let mut probe_sim_ms = 0.0;
        let mut parts: Vec<ProbePart> = Vec::with_capacity(ids.len());
        for &id in &ids {
            // Demoted entries skip the merge — their rows are on disk,
            // and a degraded answer is best-effort anyway.
            let Some(entry) = store.peek(id) else {
                continue;
            };
            let filter_idx = if filtered {
                match entry.coord_indexes(&bound.reg.coord_columns) {
                    Some(idx) => Some(idx),
                    None => continue,
                }
            } else {
                None
            };
            probe_sim_ms += config.cost.cache_read_ms(entry.bytes);
            parts.push(ProbePart {
                result: Arc::clone(&entry.result),
                columnar: entry.columnar.clone(),
                filter_idx,
                life: self.error_life_of(&store, id),
            });
        }
        drop(store);
        if parts.is_empty() {
            return None;
        }

        // Off-lock: filter the overlap parts and merge by key. Like the
        // healthy merge path, lifecycle facts come only from the parts
        // that contribute rows to the served answer.
        let local_start = Instant::now();
        let mut life = ServeLife::default();
        let mut rows_scanned = 0usize;
        let mut rows_pruned = 0usize;
        let mut pieces: Vec<ResultSet> = Vec::with_capacity(parts.len());
        let mut wholes: Vec<Arc<ResultSet>> = Vec::new();
        for p in &parts {
            match &p.filter_idx {
                None => {
                    if !p.result.rows.is_empty() {
                        life.absorb(&p.life);
                    }
                    wholes.push(Arc::clone(&p.result));
                }
                Some(idx) => {
                    let eval = with_scratch(|scratch| {
                        eval_entry_region(
                            &p.result,
                            p.columnar.as_deref(),
                            idx,
                            &bound.region,
                            scratch,
                        )
                    });
                    if let Some(e) = eval {
                        rows_scanned += e.stats.rows_scanned;
                        rows_pruned += e.stats.rows_pruned();
                        if !e.result.rows.is_empty() {
                            life.absorb(&p.life);
                        }
                        pieces.push(e.result);
                    }
                }
            }
        }
        let refs: Vec<&ResultSet> = wholes.iter().map(|a| &**a).chain(pieces.iter()).collect();
        if refs.is_empty() {
            timing.local_ms += ms_since(local_start);
            return None;
        }
        let mut merged = merge_results(&bound.reg.key_column, &refs);
        if let Some(n) = bound.query.top {
            merged.rows.truncate(n as usize);
        }
        timing.local_ms += ms_since(local_start);

        let result = Arc::new(merged);
        let rows = result.len();
        self.inner.stats.note_degraded(rows);
        let mut response = self.respond(result, outcome, rows, probe_sim_ms, timing, false);
        response.metrics.degraded = true;
        response.metrics.rows_scanned = rows_scanned;
        response.metrics.rows_pruned = rows_pruned;
        self.apply_life(&mut response.metrics, &life, false);
        Some(response)
    }

    /// Plans the merge paths (region containment / overlap): snapshots
    /// the probed entries under the held lock so both the fetch *and*
    /// the probe filtering can run lock-free. The fan-in is bounded by
    /// `max_merge_entries`, preferring the largest cached parts.
    fn merge_plan(
        &self,
        store: &mut CacheStore,
        bound: &BoundQuery,
        mut ids: Vec<u64>,
        probe_filters: bool,
        timing: &mut Timing,
    ) -> LockedPhase {
        let config = &self.inner.config;
        // Remainder queries need server support and a TOP-free query.
        if !self.inner.origin.supports_remainder() || bound.query.top.is_some() {
            // Region containment: the forwarded result still covers the
            // subsumed entries, so compaction remains valid.
            let compact_ids = if probe_filters { Vec::new() } else { ids };
            return LockedPhase::Origin(OriginPlan::forward(bound, compact_ids));
        }

        // Demoted entries never join merges: probing one would drag a
        // slab parse into the lock window. They are excluded here —
        // before the remainder's exclude-regions are computed, so the
        // fetch covers their regions again — but under region
        // containment they are still subsumed and compact away.
        let mut demoted_ids: Vec<u64> = Vec::new();
        ids.retain(|id| {
            if store.peek(*id).is_some() {
                true
            } else {
                demoted_ids.push(*id);
                false
            }
        });
        if ids.is_empty() {
            let compact_ids = if probe_filters {
                Vec::new()
            } else {
                demoted_ids
            };
            return LockedPhase::Origin(OriginPlan::forward(bound, compact_ids));
        }

        // Bound the fan-in; prefer the largest cached parts.
        ids.sort_by_key(|id| std::cmp::Reverse(store.peek(*id).map_or(0, |e| e.bytes)));
        ids.truncate(config.max_merge_entries);

        // Stale parts may still contribute (the merged result is
        // re-anchored by the fresh remainder fetch, and region
        // containment compacts them away). Each part carries its own
        // lifecycle facts; `execute_plan` folds in only the parts whose
        // rows actually reach the served answer, so a stale-but-empty
        // probe can never flag (or age) the response.
        // Probe phase: snapshot each entry (shared, not deep-copied) and
        // charge the simulated read cost. Actual filtering is deferred
        // to `execute_plan`, outside this lock window.
        let local_start = Instant::now();
        let mut probe_sim_ms = 0.0;
        let mut probe_parts: Vec<ProbePart> = Vec::with_capacity(ids.len());
        for &id in &ids {
            let entry = store.peek(id).expect("classify returned live ids");
            probe_sim_ms += config.cost.cache_read_ms(entry.bytes);
            let filter_idx = if probe_filters {
                match entry.coord_indexes(&bound.reg.coord_columns) {
                    Some(idx) => Some(idx),
                    // The entry cannot map the template's coordinate
                    // columns: treat like a malformed entry.
                    None => {
                        self.inner.stats.note_local_fallback();
                        return LockedPhase::Origin(OriginPlan::forward_fallback(bound));
                    }
                }
            } else {
                None
            };
            probe_parts.push(ProbePart {
                result: Arc::clone(&entry.result),
                columnar: entry.columnar.clone(),
                filter_idx,
                life: self.life_of(store, id),
            });
        }

        // Remainder phase setup (the fetch itself happens off-lock).
        let exclude: Vec<fp_geometry::Region> = ids
            .iter()
            .map(|id| store.peek(*id).expect("live id").region.clone())
            .collect();
        let exclude_refs: Vec<&fp_geometry::Region> = exclude.iter().collect();
        timing.local_ms += ms_since(local_start);
        let Some(rq) = remainder_query(bound, &exclude_refs) else {
            return LockedPhase::Origin(OriginPlan::forward(bound, Vec::new()));
        };

        let (compact_ids, outcome) = if probe_filters {
            (Vec::new(), Outcome::Overlap)
        } else {
            ids.extend(demoted_ids);
            (ids, Outcome::RegionContainment)
        };
        LockedPhase::Origin(Box::new(OriginPlan {
            query: rq,
            is_remainder: true,
            probe_parts,
            probe_sim_ms,
            compact_ids,
            outcome,
            local_fallback: false,
            life: ServeLife::default(),
        }))
    }

    /// The leader's origin phase, entirely off-lock until the final
    /// insert: filter the snapshotted probes, fetch, merge, then one
    /// more shard-lock window to insert and compact.
    fn execute_plan(
        &self,
        bound: &BoundQuery,
        scheme: Scheme,
        mut plan: OriginPlan,
        timing: &mut Timing,
    ) -> Result<ProxyResponse, ProxyError> {
        // Probe filtering runs here, off-lock, against the `Arc`
        // snapshots taken in `merge_plan` (entries are immutable, so
        // concurrent eviction cannot invalidate them).
        enum Part {
            Whole(Arc<ResultSet>),
            Filtered(ResultSet),
        }
        let mut rows_scanned = 0usize;
        let mut rows_pruned = 0usize;
        let mut cached_part: Option<ResultSet> = None;
        if !plan.probe_parts.is_empty() {
            let local_start = Instant::now();
            let mut served_life = ServeLife::default();
            let mut parts: Vec<Part> = Vec::with_capacity(plan.probe_parts.len());
            let mut malformed = false;
            for p in &plan.probe_parts {
                match &p.filter_idx {
                    None => {
                        if !p.result.rows.is_empty() {
                            served_life.absorb(&p.life);
                        }
                        parts.push(Part::Whole(Arc::clone(&p.result)));
                    }
                    Some(idx) => {
                        let eval = with_scratch(|scratch| {
                            eval_entry_region(
                                &p.result,
                                p.columnar.as_deref(),
                                idx,
                                &bound.region,
                                scratch,
                            )
                        });
                        match eval {
                            Some(e) => {
                                rows_scanned += e.stats.rows_scanned;
                                rows_pruned += e.stats.rows_pruned();
                                if !e.result.rows.is_empty() {
                                    served_life.absorb(&p.life);
                                }
                                parts.push(Part::Filtered(e.result));
                            }
                            None => {
                                malformed = true;
                                break;
                            }
                        }
                    }
                }
            }
            if malformed {
                // Malformed probe entry: forward the original query.
                self.inner.stats.note_local_fallback();
                plan = *OriginPlan::forward_fallback(bound);
                rows_scanned = 0;
                rows_pruned = 0;
            } else {
                let refs: Vec<&ResultSet> = parts
                    .iter()
                    .map(|p| match p {
                        Part::Whole(a) => &**a,
                        Part::Filtered(r) => r,
                    })
                    .collect();
                cached_part = Some(merge_results(&bound.reg.key_column, &refs));
                // Only the entries whose rows reached the merged answer
                // shape its lifecycle facts (staleness flag and age).
                plan.life = served_life;
            }
            timing.local_ms += ms_since(local_start);
        }

        let (fetched, origin_sim_ms) =
            self.fetch(&plan.query, plan.is_remainder, PathClass::Miss)?;

        let (result, rows_from_cache, truncated) = match cached_part {
            Some(part) => {
                let merge_start = Instant::now();
                let merged = merge_results(&bound.reg.key_column, &[&part, &fetched]);
                timing.local_ms += ms_since(merge_start);
                (merged, part.len(), false)
            }
            None => {
                let truncated = bound.query.top.is_some_and(|n| fetched.len() as u64 >= n);
                (fetched, 0, truncated)
            }
        };
        let result = Arc::new(result);

        // The expensive part of an insert — the columnar form (row slab,
        // micro-index), whose slab also gives the charged size and the
        // response body — is prebuilt here, off-lock, so the locked
        // window below is just map updates. Building it under the shard
        // lock made every miss landing serialize the shard's concurrent
        // hits: the 8-thread hit p99 sat three orders of magnitude above
        // single-thread.
        let prebuilt = if scheme.caches() {
            let build_start = Instant::now();
            let coord_idx: Option<Vec<usize>> = bound
                .reg
                .coord_columns
                .iter()
                .map(|c| result.column_index(c))
                .collect();
            let prebuilt = prebuild(&result, coord_idx.as_deref().unwrap_or(&[]));
            timing.local_ms += ms_since(build_start);
            Some(prebuilt)
        } else {
            None
        };
        let columnar = prebuilt.as_ref().and_then(|(_, col)| col.clone());

        {
            let (mut store, wait) = self.inner.store.lock(&bound.residual_key);
            self.note_lock_wait(timing, wait);
            if let Some((bytes, columnar)) = prebuilt {
                let inserted = store.insert_prebuilt(
                    &bound.residual_key,
                    bound.region.clone(),
                    Arc::clone(&result),
                    truncated,
                    &bound.sql,
                    bytes,
                    columnar,
                );
                // Seed the entry's measured refetch cost for the
                // cost-aware replacement policy: what this fetch just
                // charged is what re-acquiring the entry would cost.
                if let Some(id) = inserted {
                    store.note_refetch_cost(id, (origin_sim_ms * 1000.0) as u64);
                }
            }
            // Some ids may have been evicted while we fetched; compact
            // skips missing entries, and ids are never reused.
            store.compact(&plan.compact_ids);
        }

        let mut response = self.respond(
            result,
            plan.outcome,
            rows_from_cache,
            origin_sim_ms + plan.probe_sim_ms,
            timing,
            false,
        );
        response.columnar = columnar;
        response.metrics.rows_scanned = rows_scanned;
        response.metrics.rows_pruned = rows_pruned;
        response.metrics.local_fallback = plan.local_fallback;
        // Stale probe parts flag the merged answer; no revalidation —
        // the remainder fetch just refreshed this region's coverage.
        self.apply_life(&mut response.metrics, &plan.life, false);
        Ok(response)
    }

    /// Builds an exact follower's response from the leader's. The
    /// simulated cost stays the leader's (the follower really did wait
    /// out that fetch); the measured time is the follower's own.
    fn adopt(&self, leader: ProxyResponse, timing: &Timing) -> ProxyResponse {
        let mut metrics = leader.metrics;
        // A degraded leader response stays what it is — relabelling a
        // partial answer as an exact hit would hide its partiality.
        if !metrics.degraded {
            metrics.outcome = Outcome::Exact;
        }
        metrics.rows_from_cache = metrics.rows_total;
        metrics.coalesced = true;
        metrics.check_ms = timing.check_ms;
        metrics.local_ms = 0.0;
        metrics.lock_wait_ms = timing.lock_wait_ms;
        metrics.proxy_ms = ms_since(timing.start);
        metrics.response_ms = metrics.sim_ms + metrics.proxy_ms;
        metrics.rows_scanned = 0;
        metrics.rows_pruned = 0;
        metrics.local_fallback = false;
        ProxyResponse {
            result: leader.result,
            metrics,
            columnar: leader.columnar,
        }
    }

    /// One origin interaction: execute + charge the cost model. A
    /// successful fetch also picks up the origin's advertised
    /// data-release epoch, bumping ours when the site moved ahead.
    fn fetch(
        &self,
        query: &Query,
        is_remainder: bool,
        path: PathClass,
    ) -> Result<(ResultSet, f64), ProxyError> {
        let fetch_start = Instant::now();
        let executed = self.inner.origin.execute(query);
        let elapsed = fetch_start.elapsed();
        let obs = &self.inner.observe;
        obs.record_phase(ObsPhase::OriginFetch, path, elapsed.as_secs_f64() * 1e3);
        let failed = executed.is_err();
        obs.span("origin.fetch", "origin", fetch_start, elapsed, || {
            Some(format!(
                "{}{}",
                if is_remainder { "remainder" } else { "forward" },
                if failed { " failed" } else { "" }
            ))
        });
        let outcome = executed?;
        if let Some(epoch) = self.inner.origin.advertised_epoch() {
            // No-op (and lock-free) unless the epoch actually advances.
            self.set_epoch(epoch);
        }
        let sim_ms = self
            .inner
            .config
            .cost
            .origin_ms(&outcome.stats, is_remainder);
        Ok((outcome.result, sim_ms))
    }

    /// Lifecycle facts about entry `id`, read under the held shard lock.
    /// Stale (or Grace, on the error path) entries carry their exact SQL
    /// for a background refresh.
    fn life_of(&self, store: &CacheStore, id: u64) -> ServeLife {
        if !self.inner.lifecycle_active {
            return ServeLife::default();
        }
        let age_ms = store.entry_age_ms(id);
        match store.freshness(id) {
            Some(Freshness::Fresh) | None => ServeLife {
                stale: false,
                age_ms,
                revalidate: None,
            },
            Some(_) => ServeLife {
                stale: true,
                age_ms,
                revalidate: store.exact_sql_of(id).map(|sql| sql.to_string()),
            },
        }
    }

    /// [`Self::life_of`] for the degraded path: same staleness facts,
    /// but never a revalidation target — the origin is known down.
    fn error_life_of(&self, store: &CacheStore, id: u64) -> ServeLife {
        let mut life = self.life_of(store, id);
        life.revalidate = None;
        life
    }

    /// Folds a response's lifecycle facts into its metrics; when
    /// `revalidate` is allowed and the serving entry was stale, spawns
    /// the background refresh (stale-while-revalidate).
    fn apply_life(&self, metrics: &mut QueryMetrics, life: &ServeLife, revalidate: bool) {
        // `life` already describes exactly the entries whose rows were
        // served (the merge paths absorb per contributing part), and a
        // response passes through `apply_life` at most once — so this
        // is a plain assignment. The old max-fold let the age of an
        // unrelated probed entry leak into the served answer.
        metrics.entry_age_ms = life.age_ms;
        if life.stale {
            metrics.stale = true;
            self.inner.stats.note_stale_hit();
            if revalidate {
                if let Some(sql) = &life.revalidate {
                    self.spawn_revalidation(sql.clone());
                }
            }
        }
    }

    /// Registers `id` in the promotion dedup set and spawns the worker
    /// that parses its slab payload back into a resident entry. A
    /// second disk hit on the same entry while the first promotion is
    /// in flight is a no-op.
    fn spawn_promotion(&self, plan: &DiskPlan) {
        {
            let mut inflight = self
                .inner
                .promoting
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if !inflight.insert(plan.id) {
                return;
            }
        }
        let handle = self.clone();
        let id = plan.id;
        let residual_key = Arc::clone(&plan.residual_key);
        let slice = plan.slice.clone();
        let spawned = std::thread::Builder::new()
            .name("fp-promote".into())
            .spawn(move || handle.promote_demoted(id, &residual_key, slice));
        match spawned {
            Ok(thread) => self
                .inner
                .reval_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(thread),
            Err(_) => {
                self.inner
                    .promoting
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(&id);
            }
        }
    }

    /// The promotion worker body: parse the pinned slab slice (XML →
    /// tuples, rebuild the columnar form) entirely off-lock, then one
    /// short lock window to swap the entry back into RAM. A payload
    /// that fails to parse drops the demoted entry and counts the
    /// corruption — the next request re-fetches from the origin.
    fn promote_demoted(&self, id: u64, residual_key: &str, slice: SlabSlice) {
        let _trace = self.inner.observe.begin_trace();
        let start = Instant::now();
        let parsed = std::str::from_utf8(slice.xml())
            .ok()
            .and_then(|text| Element::parse(text).ok())
            .and_then(|doc| entry_from_xml(&doc));
        match parsed {
            Some(((_, _, result, _, _, coord_idx), _stamp)) => {
                let result = Arc::new(result);
                let columnar = ColumnarRows::build(&result, &coord_idx).map(Arc::new);
                let (mut store, _) = self.inner.store.lock(residual_key);
                store.promote(id, result, columnar);
            }
            None => {
                // Read-repair: no client request is waiting on this
                // background promotion, so the rewrite must be spawned
                // explicitly — quarantine, then re-fetch the entry's
                // own SQL through the resilient origin path and
                // reinsert (the revalidation machinery is exactly that
                // fetch-and-replace).
                let repair = {
                    let (mut store, _) = self.inner.store.lock(residual_key);
                    store.quarantine_corrupt_demoted(id)
                };
                if let Some(sql) = repair {
                    self.inner.stats.note_read_repair();
                    self.spawn_revalidation(sql.to_string());
                }
            }
        }
        self.inner
            .observe
            .span("promote", "lifecycle", start, start.elapsed(), || None);
        self.inner
            .promoting
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id);
    }

    /// Registers `sql` in the dedup set and spawns its background
    /// refresh thread. A second stale hit on the same key while the
    /// first refresh is in flight is a no-op — exactly one refresh per
    /// expired key.
    fn spawn_revalidation(&self, sql: String) {
        {
            let mut inflight = self
                .inner
                .revalidating
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if !inflight.insert(sql.clone()) {
                return;
            }
        }
        let handle = self.clone();
        let spawned = std::thread::Builder::new()
            .name("fp-revalidate".into())
            .spawn({
                let sql = sql.clone();
                move || handle.revalidate(sql)
            });
        match spawned {
            Ok(thread) => self
                .inner
                .reval_threads
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(thread),
            Err(_) => {
                // Could not spawn: release the reservation so a later
                // stale hit can retry.
                self.inner
                    .revalidating
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .remove(&sql);
            }
        }
    }

    /// The background refresh body: re-resolve the entry's own SQL,
    /// skip if someone already refreshed it, fetch on the resilient
    /// origin path, and replace the entry on success. A failed fetch
    /// leaves the stale entry in place — that is what stale-if-error
    /// serves during the outage.
    fn revalidate(&self, sql: String) {
        // Background threads get their own sampled trace: the client
        // request that spawned this refresh already returned.
        let _trace = self.inner.observe.begin_trace();
        let reval_start = Instant::now();
        if let Some(Ok(bound)) = self.inner.manager.resolve_sql(&sql) {
            let already_fresh = {
                let (store, _) = self.inner.store.lock(&bound.residual_key);
                store
                    .lookup_exact(&bound.sql)
                    .and_then(|id| store.freshness(id))
                    == Some(Freshness::Fresh)
            };
            if !already_fresh {
                self.inner.stats.note_revalidation();
                if let Ok((result, _sim_ms)) =
                    self.fetch(&bound.query, false, PathClass::Background)
                {
                    let truncated = bound.query.top.is_some_and(|n| result.len() as u64 >= n);
                    // Prebuild off-lock, like the request path's insert.
                    let result = Arc::new(result);
                    let coord_idx: Option<Vec<usize>> = bound
                        .reg
                        .coord_columns
                        .iter()
                        .map(|c| result.column_index(c))
                        .collect();
                    let (bytes, columnar) = prebuild(&result, coord_idx.as_deref().unwrap_or(&[]));
                    let (mut store, _) = self.inner.store.lock(&bound.residual_key);
                    store.insert_prebuilt(
                        &bound.residual_key,
                        bound.region.clone(),
                        result,
                        truncated,
                        &bound.sql,
                        bytes,
                        columnar,
                    );
                }
            }
        }
        self.inner.observe.span(
            "revalidate",
            "lifecycle",
            reval_start,
            reval_start.elapsed(),
            || None,
        );
        self.inner
            .revalidating
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&sql);
    }

    fn note_lock_wait(&self, timing: &mut Timing, wait: std::time::Duration) {
        self.inner
            .stats
            .note_lock_wait(u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX));
        timing.lock_wait_ms += wait.as_secs_f64() * 1000.0;
    }

    fn respond(
        &self,
        result: Arc<ResultSet>,
        outcome: Outcome,
        rows_from_cache: usize,
        sim_ms: f64,
        timing: &Timing,
        coalesced: bool,
    ) -> ProxyResponse {
        let metrics = self.metrics_for(
            result.len(),
            outcome,
            rows_from_cache,
            sim_ms,
            timing,
            coalesced,
        );
        ProxyResponse {
            result,
            metrics,
            columnar: None,
        }
    }

    fn metrics_for(
        &self,
        rows_total: usize,
        outcome: Outcome,
        rows_from_cache: usize,
        sim_ms: f64,
        timing: &Timing,
        coalesced: bool,
    ) -> QueryMetrics {
        let proxy_ms = ms_since(timing.start);
        QueryMetrics {
            outcome,
            response_ms: sim_ms + proxy_ms,
            sim_ms,
            proxy_ms,
            check_ms: timing.check_ms,
            local_ms: timing.local_ms,
            rows_total,
            rows_from_cache,
            coalesced,
            lock_wait_ms: timing.lock_wait_ms,
            rows_scanned: 0,
            rows_pruned: 0,
            local_fallback: false,
            degraded: false,
            stale: false,
            entry_age_ms: 0.0,
            disk_hit: false,
        }
    }

    /// End-of-request snapshot check: when persistence is configured and
    /// the virtual-clock schedule is due, write the shards that changed.
    /// `try_lock` keeps concurrent requests from queueing behind one
    /// writer; write errors are swallowed (a failed snapshot must never
    /// fail a query — the previous snapshot generation stays on disk).
    fn maybe_snapshot(&self) {
        let (Some(sched), Some(policy)) = (&self.inner.snap, &self.inner.config.lifecycle.snapshot)
        else {
            return;
        };
        let Ok(mut s) = sched.try_lock() else { return };
        let now = self.inner.clock.now();
        if now < s.next_due {
            return;
        }
        s.next_due = now + policy.interval;
        let _ = self.write_snapshots(&policy.dir, &mut s.written_gens);
    }

    /// Forces a snapshot pass now (shutdown hooks, tests). Returns how
    /// many shard files were written; unchanged shards are skipped.
    ///
    /// # Errors
    /// Never fails today: a shard whose snapshot write errors (ENOSPC,
    /// EIO) is counted (`snapshot_io_errors`), left dirty so the next
    /// pass retries it, and skipped — a failed snapshot must never
    /// poison the serving path, which keeps answering from RAM. The
    /// `Result` stays for callers that match on it. A partially
    /// completed pass leaves every already-written shard file valid
    /// (each is written to a temporary file and atomically renamed).
    pub fn snapshot_now(&self) -> io::Result<usize> {
        let (Some(sched), Some(policy)) = (&self.inner.snap, &self.inner.config.lifecycle.snapshot)
        else {
            return Ok(0);
        };
        let mut s = sched.lock().unwrap_or_else(|e| e.into_inner());
        Ok(self.write_snapshots(&policy.dir, &mut s.written_gens))
    }

    /// One snapshot pass: serialize each dirty shard's entries (with
    /// relative lifecycle stamps) into the checksummed segment format.
    /// Write errors never escape: the shard stays dirty (its previous
    /// snapshot generation stays on disk, so at worst a restart replays
    /// older metadata) and the error is counted.
    fn write_snapshots(&self, dir: &Path, written_gens: &mut [u64]) -> usize {
        let pass_start = Instant::now();
        if std::fs::create_dir_all(dir).is_err() {
            self.inner.stats.note_snapshot_io_error();
            return 0;
        }
        let epoch = self.current_epoch();
        let mut written = 0;
        for (i, written_gen) in written_gens.iter_mut().enumerate() {
            let dirty = {
                let mut store = self.inner.store.lock_shard(i);
                let generation = store.generation();
                if generation == *written_gen {
                    None
                } else if store.has_tier() {
                    // Tier-unified warm restart: payloads already live in
                    // the slab, so the snapshot is one tiny record per
                    // entry (segment location + lifecycle stamp) —
                    // proportional to entry count, not cached bytes.
                    match store.write_tier_meta() {
                        Ok(_) => {
                            *written_gen = generation;
                            written += 1;
                        }
                        Err(_) => self.inner.stats.note_snapshot_io_error(),
                    }
                    None
                } else {
                    let now = store.now();
                    let segments: Vec<Vec<u8>> = store
                        .iter_entries()
                        .map(|e| entry_to_xml(e, now).to_xml().into_bytes())
                        .collect();
                    Some((generation, segments))
                }
            };
            let Some((generation, segments)) = dirty else {
                continue;
            };
            match write_snapshot_file(&dir.join(format!("shard_{i}.fpsnap")), epoch, &segments) {
                Ok(()) => {
                    *written_gen = generation;
                    written += 1;
                }
                Err(_) => self.inner.stats.note_snapshot_io_error(),
            }
        }
        if written > 0 {
            self.inner.stats.note_snapshot_writes(written);
            let obs = &self.inner.observe;
            obs.record_phase(
                ObsPhase::SnapshotWrite,
                PathClass::Background,
                ms_since(pass_start),
            );
            obs.span(
                "snapshot.write",
                "lifecycle",
                pass_start,
                pass_start.elapsed(),
                || Some(format!("files={written}")),
            );
        }
        written
    }

    /// Startup recovery: load every `*.fpsnap` file in `dir`,
    /// corruption-tolerantly — an unreadable file or segment is counted
    /// and skipped, never fatal. Entries are re-anchored onto the live
    /// clock via their relative stamps; entries from an older epoch (or
    /// aged past every serve window) are dropped by the store. Finishes
    /// by advancing to the highest epoch seen on disk.
    fn recover_from(&self, dir: &Path) {
        // Recovery runs at build time, before any request: give it its
        // own sampled trace so the startup cost is visible.
        let _trace = self.inner.observe.begin_trace();
        let recover_start = Instant::now();
        let Ok(listing) = std::fs::read_dir(dir) else {
            return;
        };
        let mut files: Vec<std::path::PathBuf> = listing
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "fpsnap"))
            .collect();
        files.sort();
        let mut max_epoch = self.inner.config.lifecycle.epoch;
        let mut recovered = 0usize;
        for path in &files {
            match read_snapshot_file(path) {
                // Bad magic/version/header: the whole file is one
                // corrupt unit.
                Err(_) => self.inner.stats.note_snapshot_corrupt(1),
                Ok(file) => {
                    max_epoch = max_epoch.max(file.epoch);
                    if file.corrupt_segments > 0 {
                        self.inner
                            .stats
                            .note_snapshot_corrupt(file.corrupt_segments);
                    }
                    for segment in &file.segments {
                        let parsed = std::str::from_utf8(segment)
                            .ok()
                            .and_then(|text| Element::parse(text).ok())
                            .and_then(|doc| entry_from_xml(&doc));
                        match parsed {
                            Some((
                                (residual_key, region, result, truncated, sql, coord_idx),
                                stamp,
                            )) => {
                                let (mut store, _) = self.inner.store.lock(&residual_key);
                                let restored = store.insert_restored(
                                    &residual_key,
                                    region,
                                    result,
                                    truncated,
                                    &sql,
                                    &coord_idx,
                                    &stamp,
                                );
                                if restored.is_some() {
                                    recovered += 1;
                                }
                            }
                            // A checksum-valid segment that fails to
                            // parse still counts as corrupt.
                            None => self.inner.stats.note_snapshot_corrupt(1),
                        }
                    }
                }
            }
        }
        if recovered > 0 {
            self.inner.stats.note_recovered_entries(recovered);
        }
        self.set_epoch(max_epoch);
        let obs = &self.inner.observe;
        obs.record_phase(
            ObsPhase::SnapshotRecover,
            PathClass::Background,
            ms_since(recover_start),
        );
        obs.span(
            "snapshot.recover",
            "lifecycle",
            recover_start,
            recover_start.elapsed(),
            || Some(format!("entries={recovered}")),
        );
    }
}

/// The §3.2 tradeoff gate against a single shard: is enough of the new
/// region cached to make probe + remainder cheaper than forwarding?
/// Estimated by quasi-Monte-Carlo coverage sampling; always `true` at
/// the default threshold of zero.
fn coverage_worthwhile(
    config: &ProxyConfig,
    store: &CacheStore,
    bound: &BoundQuery,
    ids: &[u64],
) -> bool {
    let threshold = config.min_overlap_coverage;
    if threshold <= 0.0 {
        return true;
    }
    let regions: Vec<&fp_geometry::Region> = ids
        .iter()
        .filter_map(|id| store.peek(*id).map(|e| &e.region))
        .collect();
    if regions.is_empty() {
        return false;
    }
    let coverage = fp_geometry::volume::monte_carlo_union_coverage(&bound.region, &regions, 512);
    coverage >= threshold
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::SiteOrigin;
    use crate::sim::CostModel;
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};
    use std::sync::Condvar;

    fn handle(scheme: Scheme) -> ProxyHandle {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(scheme)
                .with_cost(CostModel::free()),
            4,
        )
    }

    fn radial(h: &ProxyHandle, ra: f64, dec: f64, radius: f64) -> ProxyResponse {
        h.handle_form(
            "/search/radial",
            &[
                ("ra".to_string(), ra.to_string()),
                ("dec".to_string(), dec.to_string()),
                ("radius".to_string(), radius.to_string()),
            ],
        )
        .unwrap()
    }

    fn ids_of(r: &ProxyResponse) -> Vec<i64> {
        let k = r.result.column_index("objID").unwrap();
        let mut ids: Vec<i64> = r
            .result
            .rows
            .iter()
            .map(|row| row[k].as_i64().unwrap())
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn handle_serves_exact_and_contained_like_the_proxy() {
        let h = handle(Scheme::FullSemantic);
        let big = radial(&h, 185.0, 0.0, 25.0);
        assert_eq!(big.metrics.outcome, Outcome::Forwarded);
        let again = radial(&h, 185.0, 0.0, 25.0);
        assert_eq!(again.metrics.outcome, Outcome::Exact);
        let small = radial(&h, 185.0, 0.0, 10.0);
        assert_eq!(small.metrics.outcome, Outcome::Contained);

        let oracle = handle(Scheme::NoCache);
        let truth = radial(&oracle, 185.0, 0.0, 10.0);
        assert_eq!(ids_of(&small), ids_of(&truth));
    }

    #[test]
    fn handle_merges_overlap_and_region_containment() {
        let h = handle(Scheme::FullSemantic);
        radial(&h, 185.0, 0.0, 20.0);
        let o = radial(&h, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Overlap);
        assert!(o.metrics.rows_from_cache > 0);
        assert!(o.metrics.cache_efficiency() > 0.0 && o.metrics.cache_efficiency() < 1.0);

        let oracle = handle(Scheme::NoCache);
        let truth = radial(&oracle, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(ids_of(&o), ids_of(&truth));

        let rc = handle(Scheme::RegionContainment);
        radial(&rc, 185.0 - 10.0 / 60.0, 0.0, 8.0);
        radial(&rc, 185.0 + 10.0 / 60.0, 0.0, 8.0);
        let big = radial(&rc, 185.0, 0.0, 40.0);
        assert_eq!(big.metrics.outcome, Outcome::RegionContainment);
        assert_eq!(rc.cache_stats().entries, 1);
        assert_eq!(rc.cache_stats().compactions, 2);
        let truth = radial(&oracle, 185.0, 0.0, 40.0);
        assert_eq!(ids_of(&big), ids_of(&truth));
    }

    #[test]
    fn passive_handle_hits_only_exact_text() {
        let h = handle(Scheme::Passive);
        let a = radial(&h, 185.0, 0.0, 20.0);
        assert_eq!(a.metrics.outcome, Outcome::Forwarded);
        let b = radial(&h, 185.0, 0.0, 20.0);
        assert_eq!(b.metrics.outcome, Outcome::Exact);
        assert_eq!(b.metrics.cache_efficiency(), 1.0);
        assert_eq!(ids_of(&a), ids_of(&b));
        // A subsumed query is a passive miss.
        assert_eq!(
            radial(&h, 185.0, 0.0, 10.0).metrics.outcome,
            Outcome::Forwarded
        );
    }

    #[test]
    fn no_cache_handle_always_forwards() {
        let h = handle(Scheme::NoCache);
        let a = radial(&h, 185.0, 0.0, 20.0);
        let b = radial(&h, 185.0, 0.0, 20.0);
        assert_eq!(a.metrics.outcome, Outcome::Forwarded);
        assert_eq!(b.metrics.outcome, Outcome::Forwarded);
        assert_eq!(h.cache_stats().entries, 0);
        assert_eq!(h.runtime_stats().requests, 2);
        assert_eq!(ids_of(&a), ids_of(&b));
    }

    #[test]
    fn active_answers_contained_queries_locally() {
        let h = handle(Scheme::ContainmentOnly);
        let big = radial(&h, 185.0, 0.0, 25.0);
        assert_eq!(big.metrics.outcome, Outcome::Forwarded);

        let small = radial(&h, 185.0, 0.0, 10.0);
        assert_eq!(small.metrics.outcome, Outcome::Contained);
        assert_eq!(small.metrics.cache_efficiency(), 1.0);

        // The locally evaluated answer must equal the origin's.
        let oracle = handle(Scheme::NoCache);
        let truth = radial(&oracle, 185.0, 0.0, 10.0);
        assert_eq!(ids_of(&small), ids_of(&truth));
        assert!(
            !small.result.is_empty(),
            "hotspot region should be populated"
        );
    }

    #[test]
    fn containment_only_ignores_overlap_and_region_containment() {
        let h = handle(Scheme::ContainmentOnly);
        radial(&h, 185.0, 0.0, 15.0);
        // Overlapping query → forwarded, cached.
        let o = radial(&h, 185.0 + 20.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
        // Covering query → forwarded too (no region containment in Third).
        let big = radial(&h, 185.0, 0.0, 60.0);
        assert_eq!(big.metrics.outcome, Outcome::Forwarded);
        assert_eq!(h.cache_stats().compactions, 0);
    }

    #[test]
    fn region_containment_merges_and_compacts() {
        let h = handle(Scheme::RegionContainment);
        radial(&h, 185.0 - 10.0 / 60.0, 0.0, 8.0);
        radial(&h, 185.0 + 10.0 / 60.0, 0.0, 8.0);
        assert_eq!(h.cache_stats().entries, 2);

        let big = radial(&h, 185.0, 0.0, 40.0);
        assert_eq!(big.metrics.outcome, Outcome::RegionContainment);
        assert!(big.metrics.rows_from_cache > 0);
        // The two subsumed entries were replaced by the one merged entry.
        assert_eq!(h.cache_stats().entries, 1);
        assert_eq!(h.cache_stats().compactions, 2);

        let oracle = handle(Scheme::NoCache);
        let truth = radial(&oracle, 185.0, 0.0, 40.0);
        assert_eq!(ids_of(&big), ids_of(&truth));

        // The merged entry now answers subsumed queries.
        let small = radial(&h, 185.0, 0.0, 12.0);
        assert_eq!(small.metrics.outcome, Outcome::Contained);
        let truth = radial(&oracle, 185.0, 0.0, 12.0);
        assert_eq!(ids_of(&small), ids_of(&truth));
    }

    #[test]
    fn region_containment_scheme_skips_general_overlap() {
        let h = handle(Scheme::RegionContainment);
        radial(&h, 185.0, 0.0, 20.0);
        let o = radial(&h, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
    }

    #[test]
    fn origin_without_remainder_forces_original_queries() {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::without_remainder(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free()),
            1,
        );
        radial(&h, 185.0, 0.0, 20.0);
        let o = radial(&h, 185.0 + 25.0 / 60.0, 0.0, 15.0);
        // Overlap still answered correctly, but by forwarding the original.
        assert_eq!(o.metrics.outcome, Outcome::Forwarded);
    }

    #[test]
    fn capacity_bound_is_respected() {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free())
                .with_capacity(Some(64 * 1024)),
            1,
        );
        for i in 0..12 {
            radial(&h, 183.0 + i as f64 * 0.5, 0.0, 12.0);
        }
        assert!(h.cache_stats().bytes <= 64 * 1024);
    }

    #[test]
    fn coverage_threshold_gates_the_overlap_path() {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let strict = |threshold: f64| {
            ProxyHandle::with_shards(
                TemplateManager::with_sky_defaults(),
                Arc::new(SiteOrigin::new(site.clone())),
                ProxyConfig::default()
                    .with_scheme(Scheme::FullSemantic)
                    .with_cost(CostModel::free())
                    .with_min_overlap_coverage(threshold),
                1,
            )
        };

        // A sliver of overlap: centers 28' apart, radii 20' and 10'.
        let h = strict(0.9);
        radial(&h, 185.0, 0.0, 20.0);
        let slim = radial(&h, 185.0 + 28.0 / 60.0, 0.0, 10.0);
        assert_eq!(
            slim.metrics.outcome,
            Outcome::Forwarded,
            "thin overlap must not clear a 0.9 coverage threshold"
        );

        // Near-total coverage: same center, slightly shifted, must pass a
        // modest threshold.
        let h = strict(0.5);
        radial(&h, 185.0, 0.0, 20.0);
        let broad = radial(&h, 185.0 + 2.0 / 60.0, 0.0, 19.0);
        assert_eq!(broad.metrics.outcome, Outcome::Overlap);
        assert!(broad.metrics.cache_efficiency() > 0.5);
    }

    #[test]
    fn metrics_breakdown_is_consistent() {
        let h = handle(Scheme::FullSemantic);
        let a = radial(&h, 185.0, 0.0, 20.0);
        assert!(a.metrics.response_ms >= a.metrics.proxy_ms);
        assert!((a.metrics.response_ms - a.metrics.sim_ms - a.metrics.proxy_ms).abs() < 1e-9);
        assert_eq!(a.metrics.rows_total, a.result.len());
    }

    #[test]
    fn clones_share_one_cache() {
        let h = handle(Scheme::FullSemantic);
        let clone = h.clone();
        radial(&h, 185.0, 0.0, 20.0);
        let hit = radial(&clone, 185.0, 0.0, 20.0);
        assert_eq!(hit.metrics.outcome, Outcome::Exact);
        assert_eq!(clone.runtime_stats().requests, 2);
    }

    /// A [`SiteOrigin`] behind a closable gate: while closed, `execute`
    /// blocks (after counting its arrival) until the gate reopens — a
    /// way to hold one origin fetch in flight while others arrive.
    struct GateOrigin {
        site: SiteOrigin,
        open: Mutex<bool>,
        cv: Condvar,
        executes: std::sync::atomic::AtomicUsize,
    }

    impl GateOrigin {
        fn new() -> Self {
            let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
            GateOrigin {
                site: SiteOrigin::new(site),
                open: Mutex::new(true),
                cv: Condvar::new(),
                executes: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn set_open(&self, open: bool) {
            *self.open.lock().unwrap() = open;
            self.cv.notify_all();
        }

        fn executes(&self) -> usize {
            self.executes.load(Ordering::SeqCst)
        }
    }

    impl Origin for GateOrigin {
        fn execute(
            &self,
            query: &Query,
        ) -> Result<fp_skyserver::result::QueryOutcome, crate::origin::OriginError> {
            self.executes.fetch_add(1, Ordering::SeqCst);
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
            drop(open);
            self.site.execute(query)
        }
    }

    fn spin_until(deadline_ms: u64, mut done: impl FnMut() -> bool) {
        let start = Instant::now();
        while !done() {
            assert!(
                start.elapsed().as_millis() < deadline_ms as u128,
                "condition not reached within {deadline_ms}ms"
            );
            std::thread::yield_now();
        }
    }

    /// The arcminute radius around (`ra`, `dec`) that puts catalog row
    /// `row` in the ε fringe of ball membership: strictly outside the
    /// exact radius (r² < d²), accepted by the ε-tolerant contains
    /// (d² ≤ r² + EPS) — built like `fp-skyserver`'s fringe test.
    fn fringe_radius(catalog: &Catalog, row: usize, ra: f64, dec: f64) -> f64 {
        use fp_geometry::celestial::{angle_of_chord, radec_to_unit, radial_query_sphere};
        let obj = catalog.unit_coords(row);
        let d2 = fp_geometry::point::dist2_slices(&radec_to_unit(ra, dec), &obj);
        let chord = (d2 - 0.5 * fp_geometry::EPS).sqrt();
        let arcmin = angle_of_chord(chord).to_degrees() * 60.0;
        let ball = radial_query_sphere(ra, dec, arcmin).unwrap();
        assert!(d2 > ball.radius() * ball.radius(), "strictly outside r");
        assert!(ball.contains_coords(&obj), "membership accepts the fringe");
        arcmin
    }

    #[test]
    fn overlap_remainder_in_flight_keeps_the_next_answers_fringe_rows() {
        use fp_geometry::celestial::{angular_separation, arcmin_to_rad};
        let origin = Arc::new(GateOrigin::new());
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::clone(&origin) as Arc<dyn Origin>,
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free()),
            1,
        );

        // Seed one cached entry both later queries overlap.
        radial(&h, 185.0, 0.0, 20.0);
        assert_eq!(origin.executes(), 1);

        // The second query sits west of the seed, sized so a catalog
        // object well outside the seed's region lands in its ε fringe:
        // only the remainder fetch can contribute that row.
        let (ra2, dec2) = (185.0 - 25.0 / 60.0, 0.1);
        let catalog = origin.site.site().catalog();
        let row = (0..catalog.len())
            .find(|&row| {
                let (ra, dec) = catalog.radec(row);
                let near_rim = angular_separation(ra2, dec2, ra, dec);
                let from_seed = angular_separation(185.0, 0.0, ra, dec);
                near_rim > arcmin_to_rad(13.0)
                    && near_rim < arcmin_to_rad(17.0)
                    && from_seed > arcmin_to_rad(22.0)
            })
            .expect("a catalog object near the second query's rim");
        let r2 = fringe_radius(catalog, row, ra2, dec2);
        let queries = [(185.0 + 25.0 / 60.0, 0.0, 15.0), (ra2, dec2, r2)];

        // Hold the first query's remainder fetch inside the origin, then
        // let the second overlap miss on the same residual key arrive.
        origin.set_open(false);
        let spawn = |&(ra, dec, r): &(f64, f64, f64)| {
            let h = h.clone();
            std::thread::spawn(move || radial(&h, ra, dec, r))
        };
        let first = spawn(&queries[0]);
        spin_until(10_000, || origin.executes() == 2);
        let second = spawn(&queries[1]);
        // Give the second remainder up to 2 s to reach the origin too; an
        // engine that parks it elsewhere instead is judged by its answer.
        let start = Instant::now();
        while origin.executes() < 3 && start.elapsed().as_millis() < 2_000 {
            std::thread::yield_now();
        }
        origin.set_open(true);
        let responses = [first.join().unwrap(), second.join().unwrap()];
        assert_eq!(origin.executes(), 3);

        // Both answers are row-identical to the no-cache handle's, the
        // fringe object included.
        let oracle = handle(Scheme::NoCache);
        for (response, &(ra, dec, r)) in responses.iter().zip(&queries) {
            assert_eq!(response.metrics.outcome, Outcome::Overlap);
            assert!(response.metrics.rows_from_cache > 0);
            assert_eq!(ids_of(response), ids_of(&radial(&oracle, ra, dec, r)));
        }
        assert!(ids_of(&responses[1]).contains(&catalog.obj_id(row)));
    }

    #[test]
    fn adaptive_handle_abandons_expensive_overlap_handling() {
        // Remainder trips cost a fortune, plain forwards are cheap:
        // the paper's "First loses" regime. The adaptive runtime must
        // discover this and stop taking the overlap path.
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let cost = CostModel {
            rtt_ms: 100.0,
            remainder_overhead_ms: 10_000.0,
            ..CostModel::free()
        };
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_adaptive_params(crate::cache::ProfitParams {
                    explore_samples: 12,
                    refresh_samples: 4,
                    reeval_every: 1000,
                    ..Default::default()
                })
                .with_cost(cost),
            2,
        );

        // Exploration: rotations of fresh-forward, exact repeat, and
        // overlap keep every relationship class observable.
        for i in 0..8 {
            let far = 100.0 + i as f64;
            radial(&h, far, 30.0, 5.0);
            radial(&h, far, 30.0, 5.0);
            radial(&h, 185.0 + i as f64 * 0.05, 0.0, 15.0);
        }

        let est = h.profit_estimate("radial").expect("template observed");
        assert!(!est.exploring, "24 samples exceed the 12-sample window");
        assert!(
            !est.scheme.handles_overlap(),
            "10s remainders vs 100ms forwards must turn overlap handling off, got {}",
            est.scheme
        );
        let stats = h.runtime_stats();
        assert!(stats.scheme_switches >= 1);
        assert_eq!(stats.adaptive_templates, 1);
        assert!(stats.scheme_serves[Scheme::FullSemantic.index()] > 0);

        // Committed: a fresh overlapping query now forwards instead of
        // paying the remainder price.
        let post = radial(&h, 185.0 - 0.03, 0.01, 15.0);
        assert_eq!(post.metrics.outcome, Outcome::Forwarded);
        assert!(stats.scheme_serves.iter().sum::<usize>() >= 24);
    }

    #[test]
    fn fixed_configs_never_consult_the_profit_model() {
        let h = handle(Scheme::FullSemantic);
        radial(&h, 185.0, 0.0, 20.0);
        radial(&h, 185.0, 0.0, 20.0);
        assert!(h.profit_estimate("radial").is_none());
        let stats = h.runtime_stats();
        assert_eq!(stats.scheme_switches, 0);
        assert_eq!(stats.adaptive_templates, 0);
        assert_eq!(stats.scheme_serves[Scheme::FullSemantic.index()], 2);
    }

    #[test]
    fn origin_fetches_seed_measured_refetch_costs() {
        // With a real (non-free) cost model, the inserted entry's
        // refetch estimate must come from the measured fetch, not the
        // size-proportional default.
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let h = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_replacement(crate::cache::Replacement::CostAware),
            1,
        );
        let r = radial(&h, 185.0, 0.0, 20.0);
        assert!(r.metrics.sim_ms > 0.0);
        let again = radial(&h, 185.0, 0.0, 20.0);
        assert_eq!(again.metrics.outcome, Outcome::Exact);
    }

    /// Every miss path answers with its columnar form's document when it
    /// has one, and every inserted entry is charged its result's XML
    /// size: byte serving must equal serializing the row answer of an
    /// identical twin handle, case by case.
    #[test]
    fn miss_bodies_and_charged_sizes_match_the_row_answer() {
        let manager = || {
            let mut m = TemplateManager::with_sky_defaults();
            let top = fp_sqlmini::QueryTemplate::parse(
                "radial_top",
                "SELECT TOP 5 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
                 FROM fGetNearbyObjEq($ra, $dec, $radius) n \
                 JOIN PhotoPrimary p ON n.objID = p.objID",
            )
            .unwrap();
            m.register_query(
                crate::template::RegisteredQueryTemplate::new(
                    top,
                    vec!["cx".into(), "cy".into(), "cz".into()],
                    "p",
                    "objID",
                )
                .unwrap(),
            )
            .unwrap();
            m
        };
        let twin = || {
            let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
            ProxyHandle::with_shards(
                manager(),
                Arc::new(SiteOrigin::new(site)),
                ProxyConfig::default()
                    .with_scheme(Scheme::FullSemantic)
                    .with_cost(CostModel::free()),
                1,
            )
        };
        let (bytes, rows) = (twin(), twin());
        let form = |ra: f64, dec: f64, radius: f64| {
            [("ra", ra), ("dec", dec), ("radius", radius)]
                .map(|(k, v)| (k.to_string(), v.to_string()))
        };
        let top_sql = "SELECT TOP 5 p.objID, p.ra, p.dec, p.cx, p.cy, p.cz \
                       FROM fGetNearbyObjEq(185.0, 0.0, 30.0) n \
                       JOIN PhotoPrimary p ON n.objID = p.objID";
        let raw_sql = "SELECT p.objID, p.r FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
                       JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 19.0";
        enum Req {
            Form(f64, f64, f64),
            Sql(&'static str),
        }
        let cases = [
            (Req::Form(185.0, 0.0, 20.0), Outcome::Forwarded),
            (Req::Sql(top_sql), Outcome::Forwarded),
            (Req::Form(185.0 + 25.0 / 60.0, 0.0, 15.0), Outcome::Overlap),
            (Req::Form(186.0 - 10.0 / 60.0, 0.0, 8.0), Outcome::Forwarded),
            (Req::Form(186.0 + 10.0 / 60.0, 0.0, 8.0), Outcome::Forwarded),
            (Req::Form(186.0, 0.0, 40.0), Outcome::RegionContainment),
            (Req::Sql(raw_sql), Outcome::Forwarded),
        ];
        for (req, outcome) in &cases {
            let (body, answer) = match *req {
                Req::Form(ra, dec, radius) => (
                    bytes
                        .handle_form_xml("/search/radial", &form(ra, dec, radius))
                        .unwrap(),
                    rows.handle_form("/search/radial", &form(ra, dec, radius))
                        .unwrap(),
                ),
                Req::Sql(sql) => (
                    bytes.handle_sql_xml(sql).unwrap(),
                    rows.handle_sql(sql).unwrap(),
                ),
            };
            assert_eq!(body.metrics.outcome, *outcome);
            assert_eq!(answer.metrics.outcome, *outcome);
            assert_eq!(body.body, answer.result.to_xml_string().into_bytes());
        }
        assert_eq!(bytes.cache_stats().compactions, 2);
        assert_eq!(
            bytes.handle_sql(top_sql).unwrap().result.len(),
            5,
            "the TOP entry is cached, clipped"
        );

        // A coalesced exact follower adopts the leader's response, form
        // included, and answers with the leader's document.
        let leader = bytes
            .handle_form("/search/radial", &form(190.0, 1.0, 12.0))
            .unwrap();
        assert_eq!(leader.metrics.outcome, Outcome::Forwarded);
        assert!(leader.columnar.is_some());
        let follower = bytes.adopt(leader.clone(), &Timing::begin());
        assert!(follower.metrics.coalesced);
        assert!(follower.columnar.is_some(), "adopt keeps the form");
        assert_eq!(
            bytes.xml_from_rows(follower).body,
            leader.result.to_xml_string().into_bytes()
        );

        let store = bytes.inner.store.lock_shard(0);
        assert_eq!(store.iter_entries().count(), 5);
        for entry in store.iter_entries() {
            assert_eq!(entry.bytes, entry.result.xml_bytes(), "{}", entry.exact_sql);
        }
    }

    #[test]
    fn raw_sql_paths_match_the_proxy() {
        let h = handle(Scheme::FullSemantic);
        let sql = "SELECT p.objID, p.ra, p.dec, p.cx, p.cy, p.cz, p.u, p.g, p.r, p.i, p.z \
                   FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
                   JOIN PhotoPrimary p ON n.objID = p.objID";
        assert_eq!(
            h.handle_sql(sql).unwrap().metrics.outcome,
            Outcome::Forwarded
        );
        assert_eq!(h.handle_sql(sql).unwrap().metrics.outcome, Outcome::Exact);

        // Non-template SQL is forwarded uncached.
        let raw = "SELECT TOP 3 p.objID FROM fGetNearbyObjEq(185.0, 0.0, 20.0) n \
                   JOIN PhotoPrimary p ON n.objID = p.objID WHERE p.r < 19.0";
        assert_eq!(
            h.handle_sql(raw).unwrap().metrics.outcome,
            Outcome::Forwarded
        );
        assert_eq!(
            h.cache_stats().entries,
            1,
            "only the template query is cached"
        );
        assert_eq!(
            h.handle_sql(raw).unwrap().metrics.outcome,
            Outcome::Forwarded
        );
    }
}
