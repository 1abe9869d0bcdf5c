//! Hit-rate-vs-RAM-budget sweep: RAM-only vs tiered caching at equal RAM.
//!
//! The disk tier's pitch is that a RAM budget stops being a hit-rate
//! ceiling: entries the budget would have evicted demote to the mmap'd
//! slab instead and keep answering exact/contained hits from the page
//! cache. This harness measures that claim directly — for each cache
//! budget it replays the calibrated Radial trace twice through the
//! concurrent runtime, once RAM-only (over-budget entries are evicted)
//! and once tiered (they demote), and compares hit rates at *equal RAM*.
//! Disk-tier hit latency is reported next to RAM-tier hit latency so the
//! "within ~10× of a RAM hit" expectation is checkable run over run, and
//! each pair of runs cross-checks per-query row counts: the tier must
//! never change an answer, only where it is served from.

use crate::{Experiment, THROUGHPUT_SHARDS};
use fp_trace::Rbe;
use funcproxy::metrics::{Outcome, QueryMetrics};
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use serde::Serialize;
use std::sync::Arc;

/// RAM-budget fractions swept (of the trace's total result size). The
/// interesting regime is a budget well under the working set; at 1×
/// nothing demotes and the two configurations coincide.
pub const BUDGET_FRACTIONS: [(f64, &str); 3] =
    [(1.0 / 6.0, "1/6"), (1.0 / 3.0, "1/3"), (0.5, "1/2")];

/// One budget point: RAM-only vs tiered at the same RAM budget.
#[derive(Debug, Clone, Serialize)]
pub struct BudgetSweepRow {
    /// Budget label ("1/6" … "1/2" of total result size).
    pub budget: &'static str,
    /// The RAM budget in bytes (identical for both runs).
    pub budget_bytes: usize,
    /// Fraction of queries answered wholly from cache, RAM-only run.
    pub ram_only_hit_rate: f64,
    /// Fraction of queries answered wholly from cache, tiered run
    /// (RAM hits + disk-tier hits).
    pub tiered_hit_rate: f64,
    /// Median latency of RAM-resident hits in the tiered run, ms.
    pub ram_hit_p50_ms: f64,
    /// 99th-percentile latency of RAM-resident hits in the tiered run, ms.
    pub ram_hit_p99_ms: f64,
    /// Queries served from the disk tier (mmap'd slab) in the tiered run.
    pub disk_hits: usize,
    /// Median latency of those disk-tier hits, ms.
    pub disk_hit_p50_ms: f64,
    /// 99th-percentile latency of those disk-tier hits, ms.
    pub disk_hit_p99_ms: f64,
    /// Entries demoted RAM → slab during the tiered run.
    pub demotions: usize,
    /// Entries promoted slab → RAM after disk hits.
    pub promotions: usize,
    /// Entries living only on the disk tier at end of trace.
    pub disk_entries: usize,
    /// Slab file bytes at end of trace.
    pub slab_bytes: usize,
    /// Slab compaction passes triggered by dead bytes.
    pub slab_compactions: usize,
    /// Whether every query returned the same row count in both runs —
    /// the tier changes where answers come from, never the answers.
    pub rows_agree: bool,
}

/// The `hit-rate vs budget` experiment: one row per RAM budget.
#[derive(Debug, Clone, Serialize)]
pub struct BudgetSweep {
    /// Concurrent client threads used for every replay.
    pub threads: usize,
    /// Rows, ordered by ascending budget.
    pub rows: Vec<BudgetSweepRow>,
}

impl Experiment {
    /// Replays the trace at each budget fraction twice — RAM-only and
    /// tiered — through a fresh shared handle with `threads` concurrent
    /// clients, and pairs the results at equal RAM.
    pub fn budget_sweep(&self, threads: usize) -> BudgetSweep {
        let rows = BUDGET_FRACTIONS
            .iter()
            .map(|&(fraction, label)| {
                let budget = self.capacity_for(fraction);
                let (ram_metrics, _) = self.replay_budget(budget, None, threads);
                let slab_dir = sweep_dir(label);
                let (tier_metrics, tier_stats) =
                    self.replay_budget(budget, Some(&slab_dir), threads);
                let _ = std::fs::remove_dir_all(&slab_dir);

                let total = ram_metrics.len().max(1) as f64;
                let ram_hits: Vec<f64> = hit_latencies(&tier_metrics, false);
                let disk_hits: Vec<f64> = hit_latencies(&tier_metrics, true);
                let rows_agree = ram_metrics
                    .iter()
                    .zip(&tier_metrics)
                    .all(|(a, b)| a.rows_total == b.rows_total);
                BudgetSweepRow {
                    budget: label,
                    budget_bytes: budget,
                    ram_only_hit_rate: count_hits(&ram_metrics) as f64 / total,
                    tiered_hit_rate: count_hits(&tier_metrics) as f64 / total,
                    ram_hit_p50_ms: crate::throughput::percentile(&ram_hits, 0.50),
                    ram_hit_p99_ms: crate::throughput::percentile(&ram_hits, 0.99),
                    disk_hits: disk_hits.len(),
                    disk_hit_p50_ms: crate::throughput::percentile(&disk_hits, 0.50),
                    disk_hit_p99_ms: crate::throughput::percentile(&disk_hits, 0.99),
                    demotions: tier_stats.demotions,
                    promotions: tier_stats.promotions,
                    disk_entries: tier_stats.disk_entries,
                    slab_bytes: tier_stats.slab_bytes,
                    slab_compactions: tier_stats.slab_compactions,
                    rows_agree,
                }
            })
            .collect();
        BudgetSweep { threads, rows }
    }

    /// One replay at a fixed RAM budget, optionally with the disk tier
    /// attached. Returns per-query metrics (trace order) and the final
    /// cache statistics, after quiescing background promotions.
    fn replay_budget(
        &self,
        budget: usize,
        slab_dir: Option<&std::path::Path>,
        threads: usize,
    ) -> (Vec<QueryMetrics>, funcproxy::cache::CacheStats) {
        let mut config = ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_capacity(Some(budget))
            .with_cost(CostModel::free());
        if let Some(dir) = slab_dir {
            config = config.with_tier(dir.to_path_buf());
        }
        let handle = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(self.site.clone())),
            config,
            THROUGHPUT_SHARDS,
        );
        // The bytes path (`handle_form_xml`) is what the HTTP front ends
        // serve through — RAM hits splice pre-serialized XML, disk hits
        // splice it straight out of the mmap — so the sweep measures the
        // zero-copy serve latencies, not the tuple-materializing row path.
        let metrics = Rbe::default()
            .replay(&handle, &self.trace, threads, true)
            .expect("trace replays");
        handle.quiesce_revalidations();
        let stats = handle.cache_stats();
        (metrics, stats)
    }
}

/// Queries answered wholly from cache (exact + contained, either tier).
fn count_hits(metrics: &[QueryMetrics]) -> usize {
    metrics
        .iter()
        .filter(|m| matches!(m.outcome, Outcome::Exact | Outcome::Contained))
        .count()
}

/// Ascending-sorted proxy latencies of cache hits, split by serving tier.
fn hit_latencies(metrics: &[QueryMetrics], disk: bool) -> Vec<f64> {
    let mut out: Vec<f64> = metrics
        .iter()
        .filter(|m| matches!(m.outcome, Outcome::Exact | Outcome::Contained))
        .filter(|m| m.disk_hit == disk)
        .map(|m| m.proxy_ms)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// A fresh per-process slab directory for one sweep point.
fn sweep_dir(label: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    let tag: String = label.chars().filter(char::is_ascii_alphanumeric).collect();
    dir.push(format!("fp_bench_tier_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

impl std::fmt::Display for BudgetSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Hit rate vs RAM budget ({} cache shards, {} clients; tiered = same RAM + mmap'd slab)",
            THROUGHPUT_SHARDS, self.threads
        )?;
        writeln!(
            f,
            "  budget | ram-only hit% | tiered hit% | ram p50 | ram p99 | disk hits | disk p50 | disk p99 | demoted | promoted | slab KB | rows agree"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>6} | {:>13.1} | {:>11.1} | {:>7.3} | {:>7.3} | {:>9} | {:>8.3} | {:>8.3} | {:>7} | {:>8} | {:>7.1} | {}",
                r.budget,
                r.ram_only_hit_rate * 100.0,
                r.tiered_hit_rate * 100.0,
                r.ram_hit_p50_ms,
                r.ram_hit_p99_ms,
                r.disk_hits,
                r.disk_hit_p50_ms,
                r.disk_hit_p99_ms,
                r.demotions,
                r.promotions,
                r.slab_bytes as f64 / 1024.0,
                r.rows_agree,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// The tier's acceptance bar at bench level: under a tight budget
    /// the tiered configuration must demote instead of evict, serve
    /// disk hits, sustain at least the RAM-only hit rate, and agree on
    /// every answer's row count.
    #[test]
    fn tiered_sustains_hit_rate_at_equal_ram() {
        let exp = Experiment::prepare(Scale {
            objects: 20_000,
            queries: 200,
            seed: 33,
        });
        let sweep = BudgetSweep {
            threads: 4,
            rows: vec![{
                let budget = exp.capacity_for(1.0 / 6.0);
                let (ram, _) = exp.replay_budget(budget, None, 4);
                let dir = sweep_dir("test16");
                let (tier, stats) = exp.replay_budget(budget, Some(&dir), 4);
                let _ = std::fs::remove_dir_all(&dir);
                assert!(stats.demotions > 0, "tight budget must demote");
                assert!(
                    tier.iter().any(|m| m.disk_hit),
                    "some hits must be served from the slab"
                );
                assert!(
                    count_hits(&tier) >= count_hits(&ram),
                    "tiered hits {} must sustain RAM-only hits {}",
                    count_hits(&tier),
                    count_hits(&ram)
                );
                for (i, (a, b)) in ram.iter().zip(&tier).enumerate() {
                    assert_eq!(a.rows_total, b.rows_total, "query {i} row count");
                }
                BudgetSweepRow {
                    budget: "1/6",
                    budget_bytes: budget,
                    ram_only_hit_rate: count_hits(&ram) as f64 / ram.len() as f64,
                    tiered_hit_rate: count_hits(&tier) as f64 / tier.len() as f64,
                    ram_hit_p50_ms: 0.0,
                    ram_hit_p99_ms: 0.0,
                    disk_hits: tier.iter().filter(|m| m.disk_hit).count(),
                    disk_hit_p50_ms: 0.0,
                    disk_hit_p99_ms: 0.0,
                    demotions: stats.demotions,
                    promotions: stats.promotions,
                    disk_entries: stats.disk_entries,
                    slab_bytes: stats.slab_bytes,
                    slab_compactions: stats.slab_compactions,
                    rows_agree: true,
                }
            }],
        };
        // The Display table renders without panicking.
        assert!(!format!("{sweep}").is_empty());
    }
}
