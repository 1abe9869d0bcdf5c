//! The size-bounded result store with LRU replacement.

use crate::cache::description::{CacheDescription, DescriptionKind};
use crate::cache::entry::{charged_bytes, prebuild, CacheEntry};
use crate::cache::persist::{entry_from_xml, entry_to_xml};
use crate::cache::replace::{policy_key, select_victim, EntryCost, Replacement};
use crate::cache::tier::{
    encode_payload, DemotedEntry, EvictionManager, SegRef, SlabSlice, TierConfig,
};
use crate::lifecycle::snapshot::{read_snapshot_file, write_snapshot_file};
use crate::lifecycle::{freshness_at, Freshness, LifecycleConfig, LifecycleStamp};
use crate::resilience::Clock;
use fp_geometry::Region;
use fp_skyserver::{ColumnarRows, ResultSet};
use fp_xmlite::Element;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Aggregate statistics of the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries currently cached in RAM (the hot tier).
    pub entries: usize,
    /// Bytes currently charged (XML size plus columnar heap).
    pub bytes: usize,
    /// Entries evicted so far (replacement policy victims).
    pub evictions: usize,
    /// Entries removed by region-containment compaction.
    pub compactions: usize,
    /// Entries retired because they aged past every staleness window.
    pub expired: usize,
    /// Entries retired by data-release epoch bumps.
    pub epoch_invalidations: usize,
    /// Entries currently resident only on the disk tier.
    pub disk_entries: usize,
    /// Total size of the disk tier's slab file(s).
    pub slab_bytes: usize,
    /// Entries moved RAM → disk by the budget enforcer.
    pub demotions: usize,
    /// Entries moved disk → RAM after a disk-tier hit.
    pub promotions: usize,
    /// Slab compaction passes (dead-byte reclamation rewrites).
    pub slab_compactions: usize,
    /// Slab segments found damaged (bad CRC, torn tail) — counted and
    /// skipped, never fatal.
    pub slab_corrupt_segments: usize,
    /// Times the tier entered eviction-only degraded mode (persistent
    /// slab I/O errors or ENOSPC; demotion suspended, never
    /// client-visible).
    pub tier_degraded: usize,
    /// Times a degraded tier's re-probe append succeeded and demotion
    /// resumed.
    pub tier_recoveries: usize,
    /// Slab I/O errors observed (failed appends and compactions).
    pub slab_io_errors: usize,
}

/// What classification needs to know about an entry, resident or
/// demoted: its region, truncation flag, and row count. Relationship
/// checking runs entirely on this view, so it never touches disk.
#[derive(Debug)]
pub struct ClassifyView<'a> {
    /// The entry's spatial region.
    pub region: &'a Region,
    /// Whether the result may have been clipped by a `TOP` limit.
    pub truncated: bool,
    /// Result row count (smallest-containing-entry preference).
    pub rows: usize,
}

/// Outcome of a disk-tier warm restart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierRecovery {
    /// Entries restored (demoted or, when they have no columnar form,
    /// resident).
    pub recovered: usize,
    /// Damaged slab/metadata segments skipped along the way.
    pub corrupt: usize,
}

/// The proxy's cache: entries, the exact-match map, and one cache
/// description per residual group (regions of different templates have
/// different dimensionality, so each group gets its own index).
pub struct CacheStore {
    kind: DescriptionKind,
    capacity: Option<usize>,
    replacement: Replacement,
    entries: HashMap<u64, CacheEntry>,
    /// Replacement bookkeeping per id: monotone `created`/`used`
    /// sequence stamps plus the decayed-reuse and refetch-cost signals
    /// the cost-aware policy ranks by.
    last_used: HashMap<u64, EntryCost>,
    /// `(policy_key, id)` pairs ordered so the first element is the next
    /// victim — maintained on insert/remove/touch, making victim
    /// selection O(log n) instead of a full-entry scan per eviction.
    victim_order: BTreeSet<(u64, u64)>,
    clock: u64,
    groups: HashMap<Arc<str>, Box<dyn CacheDescription>>,
    exact: HashMap<Arc<str>, u64>,
    total_bytes: usize,
    next_id: u64,
    evictions: usize,
    compactions: usize,
    /// Lifecycle policy (TTLs, staleness windows). Inert by default.
    lifecycle: Arc<LifecycleConfig>,
    /// Injectable clock for TTL stamping; `None` = entries never age.
    time: Option<Arc<dyn Clock>>,
    /// Current data-release epoch; entries stamped lower are retired on
    /// the next [`Self::bump_epoch`].
    epoch: u64,
    expired: usize,
    epoch_invalidations: usize,
    /// Mutation counter (inserts/removes), letting the snapshot writer
    /// skip shards that have not changed since the last pass.
    generation: u64,
    /// The disk tier, when configured: slab file, demoted entries, and
    /// promotion/demotion bookkeeping. `None` = RAM-only store.
    tier: Option<EvictionManager>,
}

impl CacheStore {
    /// A store with the given description kind and byte capacity
    /// (`None` = unbounded, the paper's "unlimited cache size").
    pub fn new(kind: DescriptionKind, capacity: Option<usize>) -> Self {
        Self::with_replacement(kind, capacity, Replacement::Lru)
    }

    /// A store with an explicit replacement policy.
    pub fn with_replacement(
        kind: DescriptionKind,
        capacity: Option<usize>,
        replacement: Replacement,
    ) -> Self {
        CacheStore {
            kind,
            capacity,
            replacement,
            entries: HashMap::new(),
            last_used: HashMap::new(),
            victim_order: BTreeSet::new(),
            clock: 0,
            groups: HashMap::new(),
            exact: HashMap::new(),
            total_bytes: 0,
            next_id: 1,
            evictions: 0,
            compactions: 0,
            lifecycle: Arc::new(LifecycleConfig::default()),
            time: None,
            epoch: 0,
            expired: 0,
            epoch_invalidations: 0,
            generation: 0,
            tier: None,
        }
    }

    /// A store whose entries age on `clock` under `lifecycle`: inserts
    /// are stamped with the current epoch and a TTL deadline, and the
    /// freshness accessors start returning non-`Fresh` states.
    pub fn with_lifecycle(
        kind: DescriptionKind,
        capacity: Option<usize>,
        replacement: Replacement,
        lifecycle: Arc<LifecycleConfig>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let mut store = Self::with_replacement(kind, capacity, replacement);
        store.epoch = lifecycle.epoch;
        store.lifecycle = lifecycle;
        store.time = Some(clock);
        store
    }

    /// The configured description kind.
    pub fn description_kind(&self) -> DescriptionKind {
        self.kind
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            entries: self.entries.len(),
            bytes: self.total_bytes,
            evictions: self.evictions,
            compactions: self.compactions,
            expired: self.expired,
            epoch_invalidations: self.epoch_invalidations,
            ..CacheStats::default()
        };
        if let Some(tier) = &self.tier {
            stats.disk_entries = tier.demoted.len();
            stats.slab_bytes = tier.slab.bytes() as usize;
            stats.demotions = tier.demotions;
            stats.promotions = tier.promotions;
            stats.slab_compactions = tier.compactions;
            stats.slab_corrupt_segments = tier.slab.corrupt_segments();
            stats.tier_degraded = tier.degrade_events;
            stats.tier_recoveries = tier.recoveries;
            stats.slab_io_errors = tier.io_errors;
        }
        stats
    }

    /// Attaches the disk tier (shard `i`'s slab under the tier
    /// directory), turning this store into the hot tier of a two-level
    /// cache. Call before inserting; does not recover — the runtime
    /// calls `recover_tier` separately at build time.
    pub fn attach_tier(&mut self, config: &TierConfig, shard: usize) -> std::io::Result<()> {
        self.tier = Some(EvictionManager::open(config, shard)?);
        Ok(())
    }

    /// Whether a disk tier is attached.
    pub fn has_tier(&self) -> bool {
        self.tier.is_some()
    }

    /// The store's current data-release epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mutation counter: bumps on every insert or remove.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The store's clock reading, when lifecycle timing is configured.
    pub fn now(&self) -> Option<std::time::Instant> {
        self.time.as_ref().map(|c| c.now())
    }

    /// Where `id` sits in its lifecycle. `None` when the entry is gone;
    /// entries without a deadline (or in a clock-free store) are
    /// perpetually [`Freshness::Fresh`].
    pub fn freshness(&self, id: u64) -> Option<Freshness> {
        let expires_at = match self.entries.get(&id) {
            Some(entry) => entry.expires_at,
            None => self.tier.as_ref()?.demoted.get(&id)?.expires_at,
        };
        let (Some(expires_at), Some(clock)) = (expires_at, &self.time) else {
            return Some(Freshness::Fresh);
        };
        Some(freshness_at(
            expires_at,
            clock.now(),
            self.lifecycle.stale_while_revalidate,
            self.lifecycle.stale_if_error,
        ))
    }

    /// Entry age in milliseconds on the store's clock; `0` when unknown.
    pub fn entry_age_ms(&self, id: u64) -> f64 {
        let inserted_at = match self.entries.get(&id) {
            Some(entry) => entry.inserted_at,
            None => self
                .tier
                .as_ref()
                .and_then(|t| t.demoted.get(&id))
                .and_then(|d| d.inserted_at),
        };
        match (inserted_at, &self.time) {
            (Some(at), Some(clock)) => {
                clock.now().saturating_duration_since(at).as_secs_f64() * 1000.0
            }
            _ => 0.0,
        }
    }

    /// Advances the store to a new data-release epoch, eagerly retiring
    /// every entry stamped with an older one. Returns how many were
    /// retired; a non-advancing epoch is a no-op.
    pub fn bump_epoch(&mut self, epoch: u64) -> usize {
        if epoch <= self.epoch {
            return 0;
        }
        self.epoch = epoch;
        let mut outdated: Vec<u64> = self
            .entries
            .values()
            .filter(|e| e.epoch < epoch)
            .map(|e| e.id)
            .collect();
        if let Some(tier) = &self.tier {
            outdated.extend(
                tier.demoted
                    .values()
                    .filter(|d| d.epoch < epoch)
                    .map(|d| d.id),
            );
        }
        let n = outdated.len();
        for id in outdated {
            self.remove(id);
        }
        self.epoch_invalidations += n;
        n
    }

    /// Retires [`Freshness::Dead`] entries among the probe region's
    /// candidates (expiry is lazy: entries die when next probed, not on
    /// a timer). Returns how many were retired.
    pub(crate) fn sweep_dead(&mut self, residual_key: &str, region: &Region) -> usize {
        if self.time.is_none() {
            return 0;
        }
        let dead: Vec<u64> = self
            .candidates(residual_key, region)
            .into_iter()
            .filter(|&id| self.freshness(id) == Some(Freshness::Dead))
            .collect();
        let n = dead.len();
        for id in dead {
            self.remove(id);
        }
        self.expired += n;
        n
    }

    /// Inserts a result; returns the new entry's id, or `None` when the
    /// entry alone exceeds the capacity (too large to ever cache).
    ///
    /// `coord_columns` names the result's coordinate attributes in region
    /// dimension order; when they resolve and every coordinate cell is
    /// numeric, the entry gets its columnar hot-path form (SoA columns,
    /// micro-index, row slab) built here, once, off the serve path.
    ///
    /// Replaces any previous entry with the same canonical SQL. Evicts
    /// policy victims until the new entry fits. The key strings are
    /// allocated once and shared (`Arc<str>`) between the entry and the
    /// group/exact maps; the region's bounding box is computed once and
    /// cached on the entry for index insert and removal.
    pub fn insert(
        &mut self,
        residual_key: &str,
        region: Region,
        result: impl Into<Arc<ResultSet>>,
        truncated: bool,
        exact_sql: &str,
        coord_columns: &[String],
    ) -> Option<u64> {
        let result: Arc<ResultSet> = result.into();
        let coord_idx: Option<Vec<usize>> = coord_columns
            .iter()
            .map(|c| result.column_index(c))
            .collect();
        self.insert_indexed(
            residual_key,
            region,
            result,
            truncated,
            exact_sql,
            coord_idx.as_deref().unwrap_or(&[]),
        )
    }

    /// [`Self::insert`] with pre-resolved coordinate column indexes
    /// (snapshot reload stores indexes, not names). An empty `coord_idx`
    /// means "no columnar form".
    pub(crate) fn insert_indexed(
        &mut self,
        residual_key: &str,
        region: Region,
        result: impl Into<Arc<ResultSet>>,
        truncated: bool,
        exact_sql: &str,
        coord_idx: &[usize],
    ) -> Option<u64> {
        let result: Arc<ResultSet> = result.into();
        let (bytes, columnar) = prebuild(&result, coord_idx);
        self.insert_prebuilt(
            residual_key,
            region,
            result,
            truncated,
            exact_sql,
            bytes,
            columnar,
        )
    }

    /// [`Self::insert_indexed`] with the serialized size and columnar
    /// form already computed. The runtime prebuilds both *outside* the
    /// shard lock (serialization and index construction are the
    /// expensive parts of an insert), so the locked window here is just
    /// map updates — this is what keeps concurrent hit latency flat
    /// while misses land.
    #[allow(clippy::too_many_arguments)] // insert_indexed minus the build work
    pub(crate) fn insert_prebuilt(
        &mut self,
        residual_key: &str,
        region: Region,
        result: Arc<ResultSet>,
        truncated: bool,
        exact_sql: &str,
        bytes: usize,
        columnar: Option<Arc<ColumnarRows>>,
    ) -> Option<u64> {
        let footprint = charged_bytes(bytes, columnar.as_deref());
        if let Some(cap) = self.capacity {
            // Without a disk tier an entry bigger than the whole budget
            // can never be cached; with one, it inserts and the budget
            // enforcer demotes it to the slab.
            if footprint > cap && self.tier.is_none() {
                return None;
            }
        }
        if let Some(&old) = self.exact.get(exact_sql) {
            self.remove(old);
        }
        if let Some(cap) = self.capacity {
            while self.total_bytes + footprint > cap {
                let Some(victim) = self.lru_victim() else {
                    break;
                };
                self.demote_or_evict(victim);
            }
        }

        let id = self.next_id;
        self.next_id += 1;
        let (inserted_at, expires_at) = match &self.time {
            Some(clock) => {
                let now = clock.now();
                (
                    Some(now),
                    self.lifecycle.ttl_for(residual_key).map(|ttl| now + ttl),
                )
            }
            None => (None, None),
        };
        let residual_key: Arc<str> = Arc::from(residual_key);
        let exact_sql: Arc<str> = Arc::from(exact_sql);
        let bbox = region.bounding_rect();
        let entry = CacheEntry {
            id,
            residual_key: Arc::clone(&residual_key),
            region,
            bbox: bbox.clone(),
            result,
            columnar,
            bytes,
            truncated,
            exact_sql: Arc::clone(&exact_sql),
            epoch: self.epoch,
            inserted_at,
            expires_at,
        };
        self.groups
            .entry(residual_key)
            .or_insert_with(|| self.kind.make(bbox.dims()))
            .insert(id, bbox);
        self.exact.insert(exact_sql, id);
        self.total_bytes += footprint;
        self.clock += 1;
        let cost = EntryCost::new(self.clock, EntryCost::default_refetch_us(footprint));
        self.victim_order
            .insert((self.entry_key(&cost, footprint), id));
        self.last_used.insert(id, cost);
        self.entries.insert(id, entry);
        self.generation += 1;
        // A tiered entry larger than the whole RAM budget lands here
        // still over cap (the loop above ran out of victims): spill it.
        if let Some(cap) = self.capacity {
            if self.total_bytes > cap && self.tier.is_some() {
                self.demote_or_evict(id);
            }
        }
        Some(id)
    }

    /// Inserts an entry recovered from a snapshot, re-anchoring its
    /// persisted lifecycle stamp (epoch, age, remaining TTL) onto the
    /// store's clock. Returns `None` — without counting a recovery —
    /// when the entry belongs to an older epoch or has already aged past
    /// every serve window.
    #[allow(clippy::too_many_arguments)] // mirrors insert_indexed + the stamp
    pub(crate) fn insert_restored(
        &mut self,
        residual_key: &str,
        region: Region,
        result: impl Into<Arc<ResultSet>>,
        truncated: bool,
        exact_sql: &str,
        coord_idx: &[usize],
        stamp: &LifecycleStamp,
    ) -> Option<u64> {
        if stamp.epoch < self.epoch {
            self.epoch_invalidations += 1;
            return None;
        }
        let id = self.insert_indexed(
            residual_key,
            region,
            result,
            truncated,
            exact_sql,
            coord_idx,
        )?;
        let entry = self.entries.get_mut(&id).expect("just inserted");
        entry.epoch = stamp.epoch;
        if let Some(clock) = &self.time {
            let now = clock.now();
            if let Some(age) = stamp.age_ms {
                entry.inserted_at = now
                    .checked_sub(Duration::from_millis(age))
                    .or(entry.inserted_at);
            }
            if let Some(remaining) = stamp.remaining_ms {
                entry.expires_at = if remaining >= 0 {
                    Some(now + Duration::from_millis(remaining.unsigned_abs()))
                } else {
                    now.checked_sub(Duration::from_millis(remaining.unsigned_abs()))
                };
            }
            if self.freshness(id) == Some(Freshness::Dead) {
                self.remove(id);
                self.expired += 1;
                return None;
            }
        }
        Some(id)
    }

    fn entry_key(&self, cost: &EntryCost, footprint: usize) -> u64 {
        policy_key(self.replacement, cost, footprint)
    }

    /// Records the measured origin cost of (re)building entry `id`, in
    /// microseconds — the runtime calls this right after an insert,
    /// with the simulated origin-fetch time it just charged. Replaces
    /// the size-proportional estimate the entry was inserted with and
    /// re-keys the victim set (the refetch cost is part of the
    /// cost-aware policy key).
    pub fn note_refetch_cost(&mut self, id: u64, refetch_us: u64) {
        let Some(footprint) = self.entries.get(&id).map(|e| e.footprint()) else {
            return;
        };
        if let Some(cost) = self.last_used.get_mut(&id) {
            let old_key = policy_key(self.replacement, cost, footprint);
            cost.refetch_us = refetch_us;
            let new_key = policy_key(self.replacement, cost, footprint);
            if new_key != old_key {
                self.victim_order.remove(&(old_key, id));
                self.victim_order.insert((new_key, id));
            }
        }
    }

    /// The next victim under the configured replacement policy, if any:
    /// the head of the incrementally-maintained order, O(log n).
    fn lru_victim(&self) -> Option<u64> {
        let victim = self.victim_order.first().map(|&(_, id)| id);
        debug_assert_eq!(
            victim,
            select_victim(
                self.replacement,
                self.last_used.iter().map(|(id, cost)| {
                    let fp = self.entries.get(id).map_or(0, |e| e.footprint());
                    (*id, *cost, fp)
                }),
            ),
            "incremental victim order diverged from reference scan"
        );
        victim
    }

    /// Removes an entry by id, from whichever tier holds it. Returns
    /// the entry when it was RAM-resident (demoted entries have no
    /// `CacheEntry` to give back — their payload lives in the slab).
    pub fn remove(&mut self, id: u64) -> Option<CacheEntry> {
        if let Some(entry) = self.remove_resident(id) {
            return Some(entry);
        }
        self.remove_demoted(id);
        None
    }

    fn remove_resident(&mut self, id: u64) -> Option<CacheEntry> {
        let entry = self.entries.remove(&id)?;
        self.total_bytes -= entry.footprint();
        if let Some(cost) = self.last_used.remove(&id) {
            self.victim_order
                .remove(&(self.entry_key(&cost, entry.footprint()), id));
        }
        // Guarded: a same-SQL replacement may already point the exact
        // map at a newer id.
        if self.exact.get(&*entry.exact_sql) == Some(&id) {
            self.exact.remove(&*entry.exact_sql);
        }
        if let Some(g) = self.groups.get_mut(&*entry.residual_key) {
            g.remove(id, &entry.bbox);
        }
        self.drop_segment(id);
        self.generation += 1;
        Some(entry)
    }

    fn remove_demoted(&mut self, id: u64) -> bool {
        let Some(d) = self.tier.as_mut().and_then(|t| t.demoted.remove(&id)) else {
            return false;
        };
        if self.exact.get(&*d.exact_sql) == Some(&id) {
            self.exact.remove(&*d.exact_sql);
        }
        if let Some(g) = self.groups.get_mut(&*d.residual_key) {
            g.remove(id, &d.bbox);
        }
        self.drop_segment(id);
        self.generation += 1;
        true
    }

    /// Releases `id`'s slab segment (if any) and compacts the slab when
    /// the dead-byte trigger fires.
    fn drop_segment(&mut self, id: u64) {
        let Some(tier) = self.tier.as_mut() else {
            return;
        };
        if let Some(seg) = tier.refs.remove(&id) {
            tier.slab.mark_dead(seg);
        }
        let lost = tier.maybe_compact();
        // Segments that turned out unreadable during the rewrite take
        // their (necessarily demoted) entries with them; recursion is
        // safe because the fresh slab has zero dead bytes.
        for id in lost {
            self.remove(id);
        }
    }

    /// Ensures `id` (RAM-resident) has a slab segment, appending one if
    /// needed. Entries are immutable, so a segment written once stays
    /// valid across any number of promote/demote cycles.
    fn ensure_segment(&mut self, id: u64) -> bool {
        let Some(tier) = self.tier.as_ref() else {
            return false;
        };
        if tier.refs.contains_key(&id) {
            return true;
        }
        let Some(entry) = self.entries.get(&id) else {
            return false;
        };
        let xml = entry_to_xml(entry, self.now()).to_xml().into_bytes();
        let row_slab = entry.columnar.as_ref().map_or(&[][..], |c| c.slab());
        let payload = encode_payload(&xml, row_slab);
        let tier = self.tier.as_mut().expect("checked above");
        // Eviction-only degraded mode: skip the append (the caller
        // evicts instead) until the periodic re-probe goes through.
        if !tier.admit_append() {
            return false;
        }
        match tier.slab.append(&payload) {
            Ok(seg) => {
                tier.note_append_ok();
                tier.refs.insert(id, seg);
                true
            }
            Err(_) => {
                tier.note_append_err();
                false
            }
        }
    }

    /// Moves a RAM-resident entry to the disk tier: its payload goes to
    /// the slab (if not already there), its skeleton (columns, spans,
    /// header, micro-index) stays resident, and its group/exact-map
    /// registrations are untouched so classification keeps seeing it.
    /// Returns `false` when the entry can't be demoted (no tier, no
    /// columnar form, or the slab append failed) — the caller evicts
    /// instead.
    fn demote(&mut self, id: u64) -> bool {
        if self.tier.is_none() {
            return false;
        }
        let Some(entry) = self.entries.get(&id) else {
            return false;
        };
        // No columnar form means no skeleton to select rows with; such
        // entries stay RAM-or-nothing.
        let Some(col) = entry.columnar.as_ref() else {
            return false;
        };
        let skeleton = Arc::new(col.skeleton());
        if !self.ensure_segment(id) {
            return false;
        }
        let entry = self.entries.remove(&id).expect("present above");
        self.total_bytes -= entry.footprint();
        if let Some(cost) = self.last_used.remove(&id) {
            self.victim_order
                .remove(&(self.entry_key(&cost, entry.footprint()), id));
        }
        let demoted = DemotedEntry {
            id,
            residual_key: entry.residual_key,
            region: entry.region,
            bbox: entry.bbox,
            skeleton,
            rows: entry.result.len(),
            bytes: entry.bytes,
            truncated: entry.truncated,
            exact_sql: entry.exact_sql,
            epoch: entry.epoch,
            inserted_at: entry.inserted_at,
            expires_at: entry.expires_at,
        };
        let tier = self.tier.as_mut().expect("checked above");
        tier.demoted.insert(id, demoted);
        tier.demotions += 1;
        self.generation += 1;
        true
    }

    /// Budget enforcement on one victim: spill to the disk tier when
    /// possible, evict otherwise.
    fn demote_or_evict(&mut self, id: u64) {
        if !self.demote(id) && self.remove_resident(id).is_some() {
            self.evictions += 1;
        }
    }

    /// Brings a demoted entry back to RAM with its rebuilt result and
    /// columnar form (both parsed from the slab *outside* the shard
    /// lock by the promotion worker). The entry keeps its id, lifecycle
    /// stamps, and slab segment; the budget enforcer may demote other
    /// entries to make room. Returns `false` when `id` is no longer
    /// demoted (raced with a remove or another promotion).
    pub(crate) fn promote(
        &mut self,
        id: u64,
        result: Arc<ResultSet>,
        columnar: Option<Arc<ColumnarRows>>,
    ) -> bool {
        let Some(d) = self.tier.as_mut().and_then(|t| t.demoted.remove(&id)) else {
            return false;
        };
        // The demoted entry kept its charged size; the promoted result is
        // the same document parsed back, so no re-serialization is needed.
        let bytes = d.bytes;
        debug_assert_eq!(bytes, result.xml_bytes());
        let footprint = charged_bytes(bytes, columnar.as_deref());
        let entry = CacheEntry {
            id,
            residual_key: d.residual_key,
            region: d.region,
            bbox: d.bbox,
            result,
            columnar,
            bytes,
            truncated: d.truncated,
            exact_sql: d.exact_sql,
            epoch: d.epoch,
            inserted_at: d.inserted_at,
            expires_at: d.expires_at,
        };
        self.total_bytes += footprint;
        self.clock += 1;
        let cost = EntryCost::new(self.clock, EntryCost::default_refetch_us(footprint));
        self.victim_order
            .insert((self.entry_key(&cost, footprint), id));
        self.last_used.insert(id, cost);
        self.entries.insert(id, entry);
        self.tier.as_mut().expect("tier present").promotions += 1;
        self.generation += 1;
        if let Some(cap) = self.capacity {
            while self.total_bytes > cap {
                let Some(victim) = self.lru_victim() else {
                    break;
                };
                self.demote_or_evict(victim);
                if victim == id {
                    break; // the promoted entry itself went straight back
                }
            }
        }
        true
    }

    /// Drops a demoted entry whose slab payload failed to parse on
    /// promotion, counting the damage.
    pub(crate) fn drop_corrupt_demoted(&mut self, id: u64) {
        if self.remove_demoted(id) {
            if let Some(tier) = self.tier.as_mut() {
                tier.slab.note_corrupt();
            }
        }
    }

    /// Quarantines a demoted entry whose slab segment failed its CRC
    /// or parse: the entry is removed, its segment marked dead and
    /// counted corrupt, and its exact SQL handed back so the runtime
    /// can read-repair — re-fetch from origin through the resilient
    /// path and rewrite — instead of losing the entry silently.
    pub(crate) fn quarantine_corrupt_demoted(&mut self, id: u64) -> Option<Arc<str>> {
        let sql = self
            .tier
            .as_ref()
            .and_then(|t| t.demoted.get(&id))
            .map(|d| Arc::clone(&d.exact_sql));
        self.drop_corrupt_demoted(id);
        sql
    }

    /// Removes entries subsumed by a region-containment merge, counting
    /// them as compactions rather than evictions.
    pub fn compact(&mut self, ids: &[u64]) {
        for &id in ids {
            if self.remove(id).is_some() {
                self.compactions += 1;
            }
        }
    }

    /// Reads an entry and marks it used.
    pub fn get(&mut self, id: u64) -> Option<&CacheEntry> {
        if let Some(footprint) = self.entries.get(&id).map(|e| e.footprint()) {
            self.clock += 1;
            let clock = self.clock;
            if let Some(cost) = self.last_used.get_mut(&id) {
                self.victim_order
                    .remove(&(policy_key(self.replacement, cost, footprint), id));
                cost.touch(clock);
                self.victim_order
                    .insert((policy_key(self.replacement, cost, footprint), id));
            }
        }
        self.entries.get(&id)
    }

    /// Reads an entry without touching the LRU clock (relationship
    /// checking peeks at many entries; only actual hits count as use).
    pub fn peek(&self, id: u64) -> Option<&CacheEntry> {
        self.entries.get(&id)
    }

    /// What classification needs about `id`, whichever tier holds it.
    /// Demoted entries answer from their resident metadata — this never
    /// touches disk.
    pub fn classify_view(&self, id: u64) -> Option<ClassifyView<'_>> {
        if let Some(e) = self.entries.get(&id) {
            return Some(ClassifyView {
                region: &e.region,
                truncated: e.truncated,
                rows: e.result.len(),
            });
        }
        let d = self.tier.as_ref()?.demoted.get(&id)?;
        Some(ClassifyView {
            region: &d.region,
            truncated: d.truncated,
            rows: d.rows,
        })
    }

    /// The demoted entry for `id`, when it lives on the disk tier.
    pub fn disk_entry(&self, id: u64) -> Option<&DemotedEntry> {
        self.tier.as_ref()?.demoted.get(&id)
    }

    /// A zero-copy view of a demoted entry's slab payload, safe to
    /// carry outside the shard lock (it pins the mmap, not the store).
    /// `None` when `id` is not demoted or its segment is unreachable.
    pub fn disk_slice(&mut self, id: u64) -> Option<SlabSlice> {
        let tier = self.tier.as_mut()?;
        if !tier.demoted.contains_key(&id) {
            return None;
        }
        let seg = *tier.refs.get(&id)?;
        tier.slab.slice(seg)
    }

    /// The exact normalized SQL of `id`, whichever tier holds it (the
    /// revalidation path needs it for demoted entries too).
    pub fn exact_sql_of(&self, id: u64) -> Option<Arc<str>> {
        if let Some(e) = self.entries.get(&id) {
            return Some(Arc::clone(&e.exact_sql));
        }
        self.tier
            .as_ref()?
            .demoted
            .get(&id)
            .map(|d| Arc::clone(&d.exact_sql))
    }

    /// Exact-match lookup by canonical SQL text.
    pub fn lookup_exact(&self, sql: &str) -> Option<u64> {
        self.exact.get(sql).copied()
    }

    /// Ids in `residual_key`'s group whose bounding box intersects the
    /// probe region's bounding box.
    pub fn candidates(&self, residual_key: &str, region: &Region) -> Vec<u64> {
        let mut out = Vec::new();
        if let Some(g) = self.groups.get(residual_key) {
            g.candidates(&region.bounding_rect(), &mut out);
        }
        out
    }

    /// Iterates all live entries in unspecified order.
    pub fn iter_entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.values()
    }

    /// Number of indexed entries in a residual group (description size).
    pub fn group_len(&self, residual_key: &str) -> usize {
        self.groups.get(residual_key).map_or(0, |g| g.len())
    }

    fn seg_dead(&mut self, seg: SegRef, corrupt: bool) {
        if let Some(tier) = self.tier.as_mut() {
            tier.slab.mark_dead(seg);
            if corrupt {
                tier.slab.note_corrupt();
            }
        }
    }

    /// Writes this shard's warm-restart metadata snapshot: one tiny
    /// record per live entry (slab segment location + lifecycle stamp)
    /// instead of re-serializing payloads — snapshot cost becomes
    /// proportional to entry *count*, not cached *bytes*. RAM-resident
    /// entries get a slab segment appended first if they never spilled.
    pub(crate) fn write_tier_meta(&mut self) -> std::io::Result<usize> {
        if self.tier.is_none() {
            return Ok(0);
        }
        // Spill in id (= insertion) order, not map order, so the slab's
        // later-segments-win replay semantics line up with recency.
        let mut resident: Vec<u64> = self.entries.keys().copied().collect();
        resident.sort_unstable();
        for id in resident {
            self.ensure_segment(id);
        }
        let now = self.now();
        let tier = self.tier.as_ref().expect("checked above");
        // Records in id order: recovery renumbers entries in record
        // order, so the restarted store is the same whatever the map's
        // iteration order.
        let mut refs: Vec<(u64, SegRef)> = tier.refs.iter().map(|(&id, &seg)| (id, seg)).collect();
        refs.sort_unstable_by_key(|&(id, _)| id);
        let mut segments = Vec::new();
        for (id, seg) in refs {
            let stamp = if let Some(e) = self.entries.get(&id) {
                (e.epoch, e.inserted_at, e.expires_at)
            } else if let Some(d) = tier.demoted.get(&id) {
                (d.epoch, d.inserted_at, d.expires_at)
            } else {
                continue; // ref without a live entry: dead weight
            };
            let (epoch, inserted_at, expires_at) = stamp;
            let mut rec = Element::new("SlabEntry")
                .with_attr("off", seg.off.to_string())
                .with_attr("len", seg.len.to_string())
                .with_attr("epoch", epoch.to_string());
            if let (Some(now), Some(at)) = (now, inserted_at) {
                rec = rec.with_attr(
                    "age_ms",
                    now.saturating_duration_since(at).as_millis().to_string(),
                );
            }
            if let (Some(now), Some(deadline)) = (now, expires_at) {
                let remaining_ms = if deadline >= now {
                    i128::from(
                        u64::try_from(deadline.duration_since(now).as_millis()).unwrap_or(u64::MAX),
                    )
                } else {
                    -i128::from(
                        u64::try_from(now.duration_since(deadline).as_millis()).unwrap_or(u64::MAX),
                    )
                };
                rec = rec.with_attr("remaining_ms", remaining_ms.to_string());
            }
            segments.push(rec.to_xml().into_bytes());
        }
        let count = segments.len();
        tier.io.meta_write_check()?;
        write_snapshot_file(&tier.meta_path, self.epoch, &segments)?;
        Ok(count)
    }

    /// Warm-restarts this shard from its slab: one sequential
    /// CRC-verifying scan of the file, then either the metadata
    /// snapshot (precise lifecycle stamps, dead entries pre-filtered)
    /// or — when no snapshot survived — a front-recoverable replay
    /// where later segments win SQL collisions. Restored entries come
    /// up *demoted* (RAM fills back up on access), except entries with
    /// no columnar form, which restore resident.
    pub(crate) fn recover_tier(&mut self) -> TierRecovery {
        let mut outcome = TierRecovery::default();
        let Some(tier) = self.tier.as_mut() else {
            return outcome;
        };
        let corrupt_before = tier.slab.corrupt_segments();
        let meta_path = tier.meta_path.clone();
        let kept = tier.slab.replay();
        let mut restored_offs: Vec<u64> = Vec::new();
        match read_snapshot_file(&meta_path) {
            Ok(meta) => {
                outcome.corrupt += meta.corrupt_segments;
                let by_off: HashMap<u64, &(SegRef, Vec<u8>)> =
                    kept.iter().map(|pair| (pair.0.off, pair)).collect();
                for record in &meta.segments {
                    let parsed = std::str::from_utf8(record)
                        .ok()
                        .and_then(|text| Element::parse(text).ok());
                    let Some(el) = parsed else {
                        outcome.corrupt += 1;
                        continue;
                    };
                    let loc = (
                        el.attr("off").and_then(|v| v.parse::<u64>().ok()),
                        el.attr("len").and_then(|v| v.parse::<u32>().ok()),
                    );
                    let (Some(off), Some(len)) = loc else {
                        outcome.corrupt += 1;
                        continue;
                    };
                    let Some((seg, payload)) = by_off.get(&off).filter(|(s, _)| s.len == len)
                    else {
                        // The segment the record points at did not
                        // survive the scan (damaged or torn).
                        outcome.corrupt += 1;
                        continue;
                    };
                    let stamp = LifecycleStamp {
                        epoch: el.attr("epoch").and_then(|v| v.parse().ok()).unwrap_or(0),
                        age_ms: el.attr("age_ms").and_then(|v| v.parse().ok()),
                        remaining_ms: el.attr("remaining_ms").and_then(|v| v.parse().ok()),
                    };
                    if self.restore_segment(*seg, payload, Some(&stamp)) {
                        outcome.recovered += 1;
                    }
                    restored_offs.push(off);
                }
            }
            Err(_) => {
                // No metadata snapshot (first tier boot, or it was
                // lost): replay everything, later segments winning.
                for (seg, payload) in &kept {
                    if self.restore_segment(*seg, payload, None) {
                        outcome.recovered += 1;
                    }
                    restored_offs.push(seg.off);
                }
            }
        }
        // Segments nothing restored from are dead bytes now.
        let restored: std::collections::HashSet<u64> = restored_offs.into_iter().collect();
        for (seg, _) in &kept {
            if !restored.contains(&seg.off) {
                self.seg_dead(*seg, false);
            }
        }
        let tier = self.tier.as_mut().expect("checked above");
        outcome.corrupt += tier.slab.corrupt_segments() - corrupt_before;
        let lost = tier.maybe_compact();
        for id in lost {
            self.remove(id);
        }
        outcome
    }

    /// Restores one slab segment into the store (demoted when it has a
    /// columnar skeleton, resident otherwise). Returns `false` — after
    /// marking the segment dead — when the entry is damaged, from an
    /// older epoch, or already aged out.
    fn restore_segment(
        &mut self,
        seg: SegRef,
        payload: &[u8],
        stamp_override: Option<&LifecycleStamp>,
    ) -> bool {
        // Payload framing: xml_len u32 LE · entry XML · row slab.
        if payload.len() < 4 {
            self.seg_dead(seg, true);
            return false;
        }
        let xml_len = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
        if 4 + xml_len > payload.len() {
            self.seg_dead(seg, true);
            return false;
        }
        let parsed = std::str::from_utf8(&payload[4..4 + xml_len])
            .ok()
            .and_then(|text| Element::parse(text).ok())
            .and_then(|doc| entry_from_xml(&doc));
        let Some(((residual_key, region, result, truncated, sql, coord_idx), embedded)) = parsed
        else {
            self.seg_dead(seg, true);
            return false;
        };
        let stamp = stamp_override.unwrap_or(&embedded);
        if stamp.epoch < self.epoch {
            self.epoch_invalidations += 1;
            self.seg_dead(seg, false);
            return false;
        }
        let result: Arc<ResultSet> = Arc::new(result);
        let (bytes, columnar) = prebuild(&result, &coord_idx);
        let Some(col) = columnar else {
            // No skeleton to serve rows from disk with: restore the
            // entry RAM-resident through the stamped insert path.
            match self.insert_restored(
                &residual_key,
                region,
                result,
                truncated,
                &sql,
                &coord_idx,
                stamp,
            ) {
                Some(id) => {
                    if let Some(tier) = self.tier.as_mut() {
                        tier.refs.insert(id, seg);
                    }
                    return true;
                }
                None => {
                    self.seg_dead(seg, false);
                    return false;
                }
            }
        };
        // Re-anchor the persisted stamp on the store's clock, exactly
        // like `insert_restored` does for resident entries.
        let (inserted_at, expires_at) = match &self.time {
            Some(clock) => {
                let now = clock.now();
                let inserted_at = match stamp.age_ms {
                    Some(age) => now.checked_sub(Duration::from_millis(age)).or(Some(now)),
                    None => Some(now),
                };
                let expires_at = match stamp.remaining_ms {
                    Some(remaining) if remaining >= 0 => {
                        Some(now + Duration::from_millis(remaining.unsigned_abs()))
                    }
                    Some(remaining) => {
                        now.checked_sub(Duration::from_millis(remaining.unsigned_abs()))
                    }
                    None => self.lifecycle.ttl_for(&residual_key).map(|ttl| now + ttl),
                };
                (inserted_at, expires_at)
            }
            None => (None, None),
        };
        if let (Some(deadline), Some(clock)) = (expires_at, &self.time) {
            let state = freshness_at(
                deadline,
                clock.now(),
                self.lifecycle.stale_while_revalidate,
                self.lifecycle.stale_if_error,
            );
            if state == Freshness::Dead {
                self.expired += 1;
                self.seg_dead(seg, false);
                return false;
            }
        }
        if let Some(&old) = self.exact.get(sql.as_str()) {
            self.remove(old); // later segments win SQL collisions
        }
        let id = self.next_id;
        self.next_id += 1;
        let residual_key: Arc<str> = Arc::from(residual_key.as_str());
        let exact_sql: Arc<str> = Arc::from(sql.as_str());
        let bbox = region.bounding_rect();
        let demoted = DemotedEntry {
            id,
            residual_key: Arc::clone(&residual_key),
            region,
            bbox: bbox.clone(),
            skeleton: Arc::new(Arc::unwrap_or_clone(col).into_skeleton()),
            rows: result.len(),
            bytes,
            truncated,
            exact_sql: Arc::clone(&exact_sql),
            epoch: stamp.epoch,
            inserted_at,
            expires_at,
        };
        self.groups
            .entry(residual_key)
            .or_insert_with(|| self.kind.make(bbox.dims()))
            .insert(id, bbox);
        self.exact.insert(exact_sql, id);
        let tier = self.tier.as_mut().expect("tier present");
        tier.demoted.insert(id, demoted);
        tier.refs.insert(id, seg);
        self.generation += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geometry::HyperRect;
    use fp_sqlmini::Value;

    fn rs(n: usize) -> ResultSet {
        ResultSet {
            columns: vec!["objID".into()],
            rows: (0..n).map(|i| vec![Value::Int(i as i64)]).collect(),
        }
    }

    /// A result with 2-D coordinate columns, for columnar-form tests.
    fn rs_coords(n: usize) -> ResultSet {
        ResultSet {
            columns: vec!["objID".into(), "cx".into(), "cy".into()],
            rows: (0..n)
                .map(|i| {
                    vec![
                        Value::Int(i as i64),
                        Value::Float(i as f64),
                        Value::Float(-(i as f64)),
                    ]
                })
                .collect(),
        }
    }

    fn region(lo: f64, hi: f64) -> Region {
        Region::Rect(HyperRect::new(vec![lo, lo], vec![hi, hi]).unwrap())
    }

    const NO_COORDS: &[String] = &[];

    #[test]
    fn insert_lookup_remove() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let id = s
            .insert("k", region(0.0, 1.0), rs(3), false, "SQL A", NO_COORDS)
            .unwrap();
        assert_eq!(s.lookup_exact("SQL A"), Some(id));
        assert_eq!(s.get(id).unwrap().result.len(), 3);
        assert_eq!(s.candidates("k", &region(0.5, 0.6)), vec![id]);
        assert!(s.candidates("other", &region(0.5, 0.6)).is_empty());
        let removed = s.remove(id).unwrap();
        assert_eq!(removed.id, id);
        assert_eq!(s.lookup_exact("SQL A"), None);
        assert!(s.candidates("k", &region(0.5, 0.6)).is_empty());
        assert_eq!(s.stats().entries, 0);
        assert_eq!(s.stats().bytes, 0);
    }

    #[test]
    fn same_sql_replaces() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let a = s
            .insert("k", region(0.0, 1.0), rs(3), false, "SQL", NO_COORDS)
            .unwrap();
        let b = s
            .insert("k", region(0.0, 1.0), rs(5), false, "SQL", NO_COORDS)
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(s.stats().entries, 1);
        assert_eq!(s.lookup_exact("SQL"), Some(b));
    }

    #[test]
    fn capacity_evicts_lru() {
        let one_bytes = rs(10).xml_bytes();
        let mut s = CacheStore::new(DescriptionKind::Array, Some(one_bytes * 3));
        let a = s
            .insert("k", region(0.0, 1.0), rs(10), false, "A", NO_COORDS)
            .unwrap();
        let b = s
            .insert("k", region(2.0, 3.0), rs(10), false, "B", NO_COORDS)
            .unwrap();
        let c = s
            .insert("k", region(4.0, 5.0), rs(10), false, "C", NO_COORDS)
            .unwrap();
        // Touch A so B is the LRU.
        s.get(a);
        let d = s
            .insert("k", region(6.0, 7.0), rs(10), false, "D", NO_COORDS)
            .unwrap();
        assert!(s.peek(b).is_none(), "B should have been evicted");
        for id in [a, c, d] {
            assert!(s.peek(id).is_some());
        }
        assert_eq!(s.stats().evictions, 1);
        assert!(s.stats().bytes <= one_bytes * 3);
    }

    #[test]
    fn replacement_policies_choose_different_victims() {
        // Three entries of different sizes; capacity forces one eviction.
        let sizes = [30usize, 5, 60];
        let make = |policy| {
            let bytes: usize = sizes.iter().map(|n| rs(*n).xml_bytes()).sum();
            let mut s = CacheStore::with_replacement(DescriptionKind::Array, Some(bytes), policy);
            let ids: Vec<u64> = sizes
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    s.insert(
                        "k",
                        region(i as f64 * 10.0, i as f64 * 10.0 + 1.0),
                        rs(*n),
                        false,
                        &format!("Q{i}"),
                        NO_COORDS,
                    )
                    .unwrap()
                })
                .collect();
            // Touch entry 0 so FIFO and LRU would differ if sizes allowed.
            s.get(ids[0]);
            // Force an eviction with a fourth entry.
            s.insert("k", region(100.0, 101.0), rs(3), false, "Q3", NO_COORDS)
                .unwrap();
            let survivors: Vec<bool> = ids.iter().map(|id| s.peek(*id).is_some()).collect();
            (survivors, s.stats().evictions)
        };

        let (lru, _) = make(crate::cache::Replacement::Lru);
        assert_eq!(lru, [true, false, true], "LRU evicts the untouched oldest");
        let (fifo, _) = make(crate::cache::Replacement::Fifo);
        assert_eq!(fifo, [false, true, true], "FIFO evicts the first inserted");
        let (largest, _) = make(crate::cache::Replacement::LargestFirst);
        assert_eq!(
            largest,
            [true, true, false],
            "largest-first evicts the big one"
        );
        let (smallest, ev) = make(crate::cache::Replacement::SmallestFirst);
        // Smallest-first may need several evictions to fit the newcomer.
        assert!(!smallest[1], "smallest-first evicts the small one first");
        assert!(ev >= 1);
    }

    #[test]
    fn eviction_storm_keeps_victim_order_consistent() {
        // Heavy churn across policies: the debug_assert in lru_victim
        // cross-checks the incremental order against the O(n) scan on
        // every eviction.
        for &policy in Replacement::all() {
            let cap = rs(8).xml_bytes() * 4;
            let mut s = CacheStore::with_replacement(DescriptionKind::Array, Some(cap), policy);
            for i in 0..100u64 {
                let n = 4 + (i % 7) as usize;
                let id = s.insert(
                    "k",
                    region(i as f64, i as f64 + 0.5),
                    rs(n),
                    false,
                    &format!("Q{i}"),
                    NO_COORDS,
                );
                assert!(id.is_some(), "{policy}: insert {i} rejected");
                // Touch a surviving entry now and then to churn LRU order.
                if i % 3 == 0 {
                    let live: Vec<u64> = s.iter_entries().map(|e| e.id).take(2).collect();
                    for id in live {
                        s.get(id);
                    }
                }
            }
            assert!(s.stats().evictions > 0, "{policy}: no evictions");
            assert!(s.stats().bytes <= cap, "{policy}: over capacity");
        }
    }

    /// Regression: equal-size entries under the size policies used to
    /// make the debug cross-check in `lru_victim` fire spuriously — the
    /// reference scan broke ties by HashMap iteration order while the
    /// incremental set breaks them by `(policy_key, id)`. With keys all
    /// tied, the victim must now deterministically be the smallest id.
    #[test]
    fn equal_size_ties_evict_smallest_id() {
        for &policy in &[Replacement::LargestFirst, Replacement::SmallestFirst] {
            let bytes = rs(6).xml_bytes();
            let mut s =
                CacheStore::with_replacement(DescriptionKind::Array, Some(bytes * 4), policy);
            let ids: Vec<u64> = (0..4)
                .map(|i| {
                    s.insert(
                        "k",
                        region(i as f64 * 10.0, i as f64 * 10.0 + 1.0),
                        rs(6),
                        false,
                        &format!("Q{i}"),
                        NO_COORDS,
                    )
                    .unwrap()
                })
                .collect();
            // Touch the candidates in reverse so recency disagrees with
            // id order (the tie-break must not depend on either use
            // order or map iteration order).
            for id in ids.iter().rev() {
                s.get(*id);
            }
            s.insert("k", region(100.0, 101.0), rs(6), false, "Q-last", NO_COORDS)
                .unwrap();
            assert!(
                s.peek(ids[0]).is_none(),
                "{policy}: smallest id loses the all-tied round"
            );
            for id in &ids[1..] {
                assert!(s.peek(*id).is_some(), "{policy}: larger ids survive");
            }
        }
    }

    #[test]
    fn cost_aware_keeps_expensive_entries() {
        let bytes = rs(6).xml_bytes();
        let mut s = CacheStore::with_replacement(
            DescriptionKind::Array,
            Some(bytes * 2),
            Replacement::CostAware,
        );
        let a = s
            .insert("k", region(0.0, 1.0), rs(6), false, "A", NO_COORDS)
            .unwrap();
        let b = s
            .insert("k", region(10.0, 11.0), rs(6), false, "B", NO_COORDS)
            .unwrap();
        // A is expensive to refetch, B nearly free; equal size & reuse.
        s.note_refetch_cost(a, 5_000_000);
        s.note_refetch_cost(b, 10);
        s.insert("k", region(20.0, 21.0), rs(6), false, "C", NO_COORDS)
            .unwrap();
        assert!(s.peek(a).is_some(), "expensive entry survives");
        assert!(s.peek(b).is_none(), "cheap-to-refetch entry is the victim");

        // Reuse outranks idle age: touch the survivor repeatedly, then
        // insert two more — the newest untouched entries go first.
        for _ in 0..5 {
            s.get(a);
        }
        let d = s
            .insert("k", region(30.0, 31.0), rs(6), false, "D", NO_COORDS)
            .unwrap();
        s.note_refetch_cost(d, 5_000_000);
        s.insert("k", region(40.0, 41.0), rs(6), false, "E", NO_COORDS)
            .unwrap();
        assert!(
            s.peek(a).is_some(),
            "hot expensive entry outlives equal-cost cold one"
        );
        assert!(s.peek(d).is_none(), "cold equal-cost entry is the victim");
    }

    #[test]
    fn coord_columns_build_columnar_form() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let coords = ["cx".to_string(), "cy".to_string()];
        let id = s
            .insert("k", region(0.0, 10.0), rs_coords(20), false, "A", &coords)
            .unwrap();
        let e = s.peek(id).unwrap();
        let col = e.columnar.as_ref().expect("columnar form built");
        assert_eq!(col.len(), 20);
        assert_eq!(col.coord_idx(), &[1, 2]);
        assert!(e.footprint() > e.bytes, "columnar heap is charged");
        assert_eq!(s.stats().bytes, e.footprint());

        // Unknown coordinate column: entry still stored, no columnar.
        let missing = ["nope".to_string()];
        let id2 = s
            .insert("k", region(20.0, 30.0), rs_coords(5), false, "B", &missing)
            .unwrap();
        assert!(s.peek(id2).unwrap().columnar.is_none());

        // Non-numeric coordinate cell: row-major fallback, no columnar.
        let mut bad = rs_coords(5);
        bad.rows[3][1] = Value::Str("corrupt".into());
        let id3 = s
            .insert("k", region(40.0, 50.0), bad, false, "C", &coords)
            .unwrap();
        assert!(s.peek(id3).unwrap().columnar.is_none());
    }

    #[test]
    fn key_strings_are_shared_not_cloned() {
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        let id = s
            .insert("k", region(0.0, 1.0), rs(3), false, "SQL A", NO_COORDS)
            .unwrap();
        let e = s.peek(id).unwrap();
        // Entry and maps hold the same allocation: 1 entry ref + 1 map
        // key ref each.
        assert_eq!(Arc::strong_count(&e.residual_key), 2);
        assert_eq!(Arc::strong_count(&e.exact_sql), 2);
    }

    #[test]
    fn oversized_entry_is_rejected() {
        let mut s = CacheStore::new(DescriptionKind::Array, Some(10));
        assert!(s
            .insert("k", region(0.0, 1.0), rs(100), false, "A", NO_COORDS)
            .is_none());
        assert_eq!(s.stats().entries, 0);
    }

    #[test]
    fn compaction_counts_separately() {
        let mut s = CacheStore::new(DescriptionKind::RTree, None);
        let a = s
            .insert("k", region(0.0, 1.0), rs(1), false, "A", NO_COORDS)
            .unwrap();
        let b = s
            .insert("k", region(2.0, 3.0), rs(1), false, "B", NO_COORDS)
            .unwrap();
        s.compact(&[a, b, 999]);
        let st = s.stats();
        assert_eq!(st.compactions, 2);
        assert_eq!(st.evictions, 0);
        assert_eq!(st.entries, 0);
    }

    #[test]
    fn groups_are_isolated_and_dimension_safe() {
        let mut s = CacheStore::new(DescriptionKind::RTree, None);
        // 2-D group and 3-D group coexist.
        s.insert("g2", region(0.0, 1.0), rs(1), false, "A", NO_COORDS)
            .unwrap();
        let r3 = Region::Rect(HyperRect::new(vec![0.0; 3], vec![1.0; 3]).unwrap());
        s.insert("g3", r3.clone(), rs(1), false, "B", NO_COORDS)
            .unwrap();
        assert_eq!(s.group_len("g2"), 1);
        assert_eq!(s.group_len("g3"), 1);
        assert_eq!(s.candidates("g3", &r3).len(), 1);
    }

    // ---- disk-tier tests -------------------------------------------

    fn tier_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fp_store_tier_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn coords() -> [String; 2] {
        ["cx".to_string(), "cy".to_string()]
    }

    /// A tiered store sized to hold ~1.5 entries: the second insert
    /// demotes the first. Returns `(store, id_a, id_b)` with A demoted
    /// and B resident.
    fn tiered_pair(dir: &std::path::Path) -> (CacheStore, u64, u64) {
        let footprint = {
            let mut probe = CacheStore::new(DescriptionKind::Array, None);
            let id = probe
                .insert("k", region(0.0, 10.0), rs_coords(10), false, "A", &coords())
                .unwrap();
            probe.peek(id).unwrap().footprint()
        };
        let mut s = CacheStore::new(DescriptionKind::Array, Some(footprint * 3 / 2));
        s.attach_tier(&TierConfig::new(dir), 0).unwrap();
        let a = s
            .insert("k", region(0.0, 10.0), rs_coords(10), false, "A", &coords())
            .unwrap();
        let b = s
            .insert(
                "k",
                region(20.0, 30.0),
                rs_coords(10),
                false,
                "B",
                &coords(),
            )
            .unwrap();
        assert!(s.peek(a).is_none(), "A should be demoted, not resident");
        assert!(s.peek(b).is_some(), "B stays resident");
        (s, a, b)
    }

    /// Parses a demoted entry's slab payload back into its result and
    /// columnar form, exactly like the promotion worker does off-lock.
    fn parse_slice(slice: &SlabSlice) -> (Arc<ResultSet>, Option<Arc<ColumnarRows>>) {
        let text = std::str::from_utf8(slice.xml()).unwrap();
        let doc = Element::parse(text).unwrap();
        let ((_, _, result, _, _, coord_idx), _) = entry_from_xml(&doc).unwrap();
        let columnar = ColumnarRows::build(&result, &coord_idx).map(Arc::new);
        (Arc::new(result), columnar)
    }

    #[test]
    fn tier_demotes_over_budget_and_keeps_classification_resident() {
        let dir = tier_dir("demote");
        let (s, a, _b) = tiered_pair(&dir);
        let st = s.stats();
        assert_eq!(st.entries, 1);
        assert_eq!(st.disk_entries, 1);
        assert_eq!(st.demotions, 1);
        assert_eq!(st.evictions, 0, "tiered store spills instead of evicting");
        assert!(st.slab_bytes > 0);
        // Classification metadata never left RAM.
        let view = s
            .classify_view(a)
            .expect("demoted entry still classifiable");
        assert_eq!(view.rows, 10);
        assert!(!view.truncated);
        assert_eq!(s.lookup_exact("A"), Some(a));
        assert_eq!(s.candidates("k", &region(1.0, 2.0)), vec![a]);
        assert!(s.disk_entry(a).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_slab_round_trip_and_promote() {
        let dir = tier_dir("promote");
        let (mut s, a, _b) = tiered_pair(&dir);
        let slice = s.disk_slice(a).expect("demoted entry has a slab segment");
        let (result, columnar) = parse_slice(&slice);
        // The slab payload reproduces the original result exactly.
        assert_eq!(*result, rs_coords(10));
        assert_eq!(columnar.as_ref().unwrap().coord_idx(), &[1, 2]);
        // And the demoted skeleton + mapped row slab rebuild the exact
        // XML document the resident entry would have served.
        let d = s.disk_entry(a).unwrap();
        let doc = d.skeleton.full_document_with(slice.row_slab());
        assert_eq!(doc, result.to_xml_string().into_bytes());

        assert!(s.promote(a, result, columnar));
        assert!(s.peek(a).is_some(), "promoted entry is resident again");
        let st = s.stats();
        assert_eq!(st.promotions, 1);
        // Promotion re-applied the budget: something else got demoted.
        assert_eq!(st.demotions, 2);
        assert_eq!(st.entries + st.disk_entries, 2, "no entry lost");
        // Promoting an id that is not demoted is a no-op.
        assert!(!s.promote(a, Arc::new(rs_coords(1)), None));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_remove_and_epoch_bump_cover_demoted_entries() {
        let dir = tier_dir("remove");
        let (mut s, a, _b) = tiered_pair(&dir);
        assert!(s.remove(a).is_none(), "demoted remove yields no entry");
        assert_eq!(s.lookup_exact("A"), None);
        assert!(s.candidates("k", &region(1.0, 2.0)).is_empty());
        assert_eq!(s.stats().disk_entries, 0);
        drop(s);

        let dir2 = tier_dir("epoch");
        let (mut s, _a, _b) = tiered_pair(&dir2);
        assert_eq!(s.bump_epoch(1), 2, "bump retires demoted + resident");
        let st = s.stats();
        assert_eq!(st.entries, 0);
        assert_eq!(st.disk_entries, 0);
        assert_eq!(st.epoch_invalidations, 2);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn tier_same_sql_replaces_demoted_entry() {
        let dir = tier_dir("replace");
        let (mut s, a, _b) = tiered_pair(&dir);
        let a2 = s
            .insert("k", region(0.0, 10.0), rs_coords(12), false, "A", &coords())
            .unwrap();
        assert_ne!(a, a2);
        assert_eq!(s.lookup_exact("A"), Some(a2));
        assert_eq!(s.classify_view(a2).unwrap().rows, 12);
        assert!(s.classify_view(a).is_none(), "old demoted entry retired");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_recovers_from_meta_snapshot_and_from_bare_replay() {
        let dir = tier_dir("recover");
        let config = TierConfig::new(&dir);
        {
            let mut s = CacheStore::new(DescriptionKind::Array, None);
            s.attach_tier(&config, 0).unwrap();
            s.insert("k", region(0.0, 10.0), rs_coords(10), false, "A", &coords())
                .unwrap();
            s.insert("k", region(20.0, 30.0), rs_coords(7), false, "B", &coords())
                .unwrap();
            // No coordinate columns: no columnar form, restores resident.
            s.insert("k", region(40.0, 50.0), rs(3), false, "C", NO_COORDS)
                .unwrap();
            assert_eq!(s.write_tier_meta().unwrap(), 3);
        }

        // Meta-snapshot mode: precise recovery, entries come up demoted
        // (except C, which has no skeleton to serve from disk).
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        s.attach_tier(&config, 0).unwrap();
        let outcome = s.recover_tier();
        assert_eq!(
            outcome,
            TierRecovery {
                recovered: 3,
                corrupt: 0
            }
        );
        let st = s.stats();
        assert_eq!(st.disk_entries, 2);
        assert_eq!(st.entries, 1);
        for sql in ["A", "B", "C"] {
            assert!(s.lookup_exact(sql).is_some(), "{sql} survived restart");
        }
        let a = s.lookup_exact("A").unwrap();
        let slice = s.disk_slice(a).expect("recovered demoted entry readable");
        let (result, columnar) = parse_slice(&slice);
        assert_eq!(*result, rs_coords(10));
        assert!(s.promote(a, result, columnar));
        drop(s);

        // Replay mode: lose the metadata snapshot, scan the slab alone.
        std::fs::remove_file(config.meta_path(0)).unwrap();
        let mut s = CacheStore::new(DescriptionKind::Array, None);
        s.attach_tier(&config, 0).unwrap();
        let outcome = s.recover_tier();
        assert_eq!(outcome.recovered, 3);
        for sql in ["A", "B", "C"] {
            assert!(s.lookup_exact(sql).is_some(), "{sql} survived bare replay");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Drives one tiered store per description kind through the same
    /// seeded sequence: inserts past the RAM budget (demotions), entries
    /// without a columnar form (evicted, not demoted), same-SQL
    /// replacements, removes of resident and demoted entries,
    /// promotions, slab compactions, and warm restarts from the
    /// metadata snapshot and from a bare slab replay. After every step
    /// both stores must return the same candidates for a fixed probe
    /// set, every candidate must be a live entry, and each description
    /// must index exactly the live entries.
    #[test]
    fn descriptions_agree_through_tier_churn_and_restarts() {
        const KINDS: [DescriptionKind; 2] = [DescriptionKind::Array, DescriptionKind::RTree];
        let footprint = {
            let mut probe = CacheStore::new(DescriptionKind::Array, None);
            let id = probe
                .insert("k", region(0.0, 10.0), rs_coords(10), false, "A", &coords())
                .unwrap();
            probe.peek(id).unwrap().footprint()
        };
        let configs: Vec<TierConfig> = KINDS
            .iter()
            .map(|kind| {
                TierConfig::new(tier_dir(&format!("differential_{kind}"))).with_compact_ratio(0.3)
            })
            .collect();
        let open = |kind: DescriptionKind, config: &TierConfig| {
            let mut s = CacheStore::new(kind, Some(footprint * 4));
            s.attach_tier(config, 0).unwrap();
            s
        };
        let restart = |stores: &mut Vec<CacheStore>, keep_meta: bool| {
            for (s, config) in stores.iter_mut().zip(&configs) {
                s.write_tier_meta().unwrap();
                if !keep_meta {
                    std::fs::remove_file(config.meta_path(0)).unwrap();
                }
            }
            stores.clear();
            for (kind, config) in KINDS.iter().zip(&configs) {
                let mut s = open(*kind, config);
                assert_eq!(s.recover_tier().corrupt, 0);
                stores.push(s);
            }
        };
        let probes: Vec<Region> = (0..24)
            .map(|i| region(i as f64 * 5.0, i as f64 * 5.0 + 3.0))
            .collect();
        let check = |stores: &[CacheStore], step: &str| {
            let views: Vec<_> = stores
                .iter()
                .map(|s| {
                    let st = s.stats();
                    assert_eq!(
                        s.group_len("k"),
                        st.entries + st.disk_entries,
                        "{step} ({}): description indexes exactly the live entries",
                        s.description_kind()
                    );
                    let per_probe: Vec<Vec<u64>> = probes
                        .iter()
                        .map(|p| {
                            let mut ids = s.candidates("k", p);
                            ids.sort_unstable();
                            for id in &ids {
                                assert!(
                                    s.exact_sql_of(*id).is_some(),
                                    "{step}: stale candidate {id}"
                                );
                            }
                            ids
                        })
                        .collect();
                    (per_probe, s.group_len("k"), st)
                })
                .collect();
            assert_eq!(views[0], views[1], "{step}: array and R-tree disagree");
        };

        let mut stores: Vec<CacheStore> = KINDS
            .iter()
            .zip(&configs)
            .map(|(k, c)| open(*k, c))
            .collect();
        let mut state = 20_240_613u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let mut sqls: Vec<String> = Vec::new();
        let mut phases = Vec::new();
        for step in 0..240 {
            if step == 90 {
                phases.push(stores[0].stats());
                restart(&mut stores, true);
                check(&stores, "meta restart");
            }
            if step == 170 {
                phases.push(stores[0].stats());
                restart(&mut stores, false);
                check(&stores, "bare replay");
            }
            let op = next(10);
            let pick = (!sqls.is_empty()).then(|| sqls[next(sqls.len() as u64) as usize].clone());
            match (op, pick) {
                (0..=4, _) | (_, None) => {
                    // Mostly fresh SQL; now and then a same-SQL replacement.
                    let sql = match next(5) {
                        0 if !sqls.is_empty() => sqls[next(sqls.len() as u64) as usize].clone(),
                        _ => format!("Q{step}"),
                    };
                    let lo = next(110) as f64;
                    let hi = lo + 1.0 + next(8) as f64;
                    let rows = 5 + next(10) as usize;
                    for s in stores.iter_mut() {
                        s.insert("k", region(lo, hi), rs_coords(rows), false, &sql, &coords())
                            .unwrap();
                    }
                    sqls.push(sql);
                }
                (5, _) => {
                    // No columnar form: RAM-or-nothing, evicted when it is the victim.
                    let lo = next(110) as f64;
                    let sql = format!("R{step}");
                    for s in stores.iter_mut() {
                        s.insert("k", region(lo, lo + 2.0), rs(4), false, &sql, NO_COORDS)
                            .unwrap();
                    }
                    sqls.push(sql);
                }
                (6 | 7, Some(sql)) => {
                    for s in stores.iter_mut() {
                        if let Some(id) = s.lookup_exact(&sql) {
                            s.remove(id);
                        }
                    }
                }
                (8, Some(sql)) => {
                    for s in stores.iter_mut() {
                        let Some(id) = s.lookup_exact(&sql) else {
                            continue;
                        };
                        if let Some(slice) = s.disk_slice(id) {
                            let (result, columnar) = parse_slice(&slice);
                            assert!(s.promote(id, result, columnar));
                        }
                    }
                }
                (_, Some(sql)) => {
                    for s in stores.iter_mut() {
                        if let Some(id) = s.lookup_exact(&sql) {
                            s.get(id);
                        }
                    }
                }
            }
            check(&stores, &format!("step {step}"));
        }
        // Every phase between restarts moved entries through the tier.
        phases.push(stores[0].stats());
        for st in &phases {
            assert!(st.demotions > 0 && st.promotions > 0 && st.evictions > 0);
        }
        assert!(
            phases.iter().any(|st| st.slab_compactions > 0),
            "churn reached the compaction trigger"
        );
        drop(stores);
        for config in &configs {
            std::fs::remove_dir_all(&config.dir).unwrap();
        }
    }

    #[test]
    fn tier_corrupt_slab_tail_is_counted_not_fatal() {
        let dir = tier_dir("corrupt");
        let config = TierConfig::new(&dir);
        {
            let mut s = CacheStore::new(DescriptionKind::Array, None);
            s.attach_tier(&config, 0).unwrap();
            s.insert("k", region(0.0, 10.0), rs_coords(10), false, "A", &coords())
                .unwrap();
            s.insert("k", region(20.0, 30.0), rs_coords(7), false, "B", &coords())
                .unwrap();
            assert_eq!(s.write_tier_meta().unwrap(), 2);
        }
        // Tear the last segment: truncate mid-payload, as a crash would.
        let slab_path = config.slab_path(0);
        let len = std::fs::metadata(&slab_path).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&slab_path)
            .unwrap();
        file.set_len(len - 10).unwrap();
        drop(file);

        let mut s = CacheStore::new(DescriptionKind::Array, None);
        s.attach_tier(&config, 0).unwrap();
        let outcome = s.recover_tier();
        assert_eq!(outcome.recovered, 1, "front segment survives the torn tail");
        assert!(outcome.corrupt >= 1, "damage is counted, not fatal");
        assert!(s.lookup_exact("A").is_some());
        assert_eq!(s.lookup_exact("B"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
