//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures (see `src/bin/repro.rs` and EXPERIMENTS.md).
//!
//! One [`Experiment`] = one synthetic SkyServer + one calibrated Radial
//! trace. The functions below run the paper's configurations over it:
//!
//! * [`Experiment::trace_stats`] — §4.1 trace census (17 % / 34 % / 9 %).
//! * [`Experiment::table1`] — cache efficiency of AC vs PC across cache
//!   sizes 1/6, 1/3, 1/2, 1 × total result size.
//! * [`Experiment::figure5`] — response time of ACR / ACNR / PC / NC
//!   across the same cache sizes.
//! * [`Experiment::figure6`] — response time of the three active schemes
//!   with an unlimited cache and the array description.
//! * [`Experiment::compaction`] — region-containment compaction ablation.
//! * [`Experiment::throughput`] — extension: multi-client throughput over
//!   the concurrent runtime (see [`throughput`]).
//! * [`Experiment::edge_concurrency`] — extension: qps and tail latency of
//!   the nonblocking edge server under 64–1024 concurrent keep-alive
//!   connections (see [`edge`]).
//! * [`Experiment::chaos`] — extension: availability under a mid-trace
//!   origin outage with the resilience layer engaged (see [`chaos`]).
//! * [`Experiment::budget_sweep`] — extension: hit rate vs RAM budget,
//!   RAM-only vs the disk-backed tier at equal RAM (see [`tiered`]).
//! * [`Experiment::cluster`] — extension: fleet-size sweep and mid-trace
//!   peer kill over the slot-sharded proxy cluster (see [`cluster`]).
//! * [`Experiment::torture`] — extension: seeded whole-stack torture runs
//!   injecting origin, network, storage, and process faults at once while
//!   invariant oracles watch every answer (see [`torture`]).
//! * [`Experiment::adaptive`] — extension: adaptive scheme selection vs
//!   every static scheme under cost-aware replacement, on the standard
//!   and a Zipf-skewed trace, each answer checked against a no-cache
//!   oracle (see [`adaptive`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod chaos;
pub mod cluster;
pub mod edge;
pub mod throughput;
pub mod tiered;
pub mod torture;

pub use adaptive::{
    AdaptiveBench, AdaptiveRow, AdaptiveSection, ADAPTIVE_CACHE_FRACTION, ADAPTIVE_HIT_TOLERANCE,
    ADAPTIVE_ORIGIN_TOLERANCE,
};
pub use chaos::ChaosReport;
pub use cluster::{fleet_sweep, ClusterBench, ClusterRow, KillReport, FLEET_SIZES};
pub use edge::{conn_sweep, EdgeConcurrency, EdgeConcurrencyRow, EDGE_WORKERS};
pub use throughput::{
    thread_sweep, HitLatencyReport, HitLatencyRow, Throughput, ThroughputRow, THROUGHPUT_SHARDS,
};
pub use tiered::{BudgetSweep, BudgetSweepRow, BUDGET_FRACTIONS};
pub use torture::{TortureBench, TortureRow, TortureRun, AVAILABILITY_FLOOR, SEED_CORPUS};

use fp_skyserver::{Catalog, CatalogSpec, SkySite};
use fp_trace::{classify_trace, Rbe, Trace, TraceMix, TraceSpec};
use funcproxy::cache::{DescriptionKind, Replacement};
use funcproxy::metrics::TraceReport;
use funcproxy::template::TemplateManager;
use funcproxy::{CostModel, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use serde::Serialize;
use std::sync::Arc;

/// The cache-size fractions of Table 1 / Figure 5.
pub const CACHE_FRACTIONS: [(f64, &str); 4] = [
    (1.0 / 6.0, "1/6"),
    (1.0 / 3.0, "1/3"),
    (0.5, "1/2"),
    (1.0, "1"),
];

/// Experiment scale parameters.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Catalog object count (paper: terabytes of SDSS; here synthetic).
    pub objects: usize,
    /// Trace length (paper: 11,323 logged queries, 10,000 replayed).
    pub queries: usize,
    /// Seed for catalog and trace.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            objects: 150_000,
            queries: 2_000,
            seed: 0x5D55,
        }
    }
}

impl Scale {
    /// A quick scale for smoke tests and CI.
    pub fn small() -> Self {
        Scale {
            objects: 30_000,
            queries: 300,
            seed: 11,
        }
    }
}

/// A prepared experiment: site, trace, and the trace's total result size.
pub struct Experiment {
    /// The origin site.
    pub site: SkySite,
    /// The replayed trace.
    pub trace: Trace,
    /// Total serialized size of the distinct query results — the "total
    /// result size of the query trace" the cache fractions are taken of.
    pub total_result_bytes: usize,
    /// Cost model used in all runs.
    pub cost: CostModel,
}

impl Experiment {
    /// Builds the experiment: generate catalog + trace, then measure the
    /// total result size by running each *distinct* query once.
    pub fn prepare(scale: Scale) -> Experiment {
        let catalog = Catalog::generate(&CatalogSpec {
            seed: scale.seed,
            objects: scale.objects,
            ..CatalogSpec::default()
        });
        let site = SkySite::new(catalog);
        let trace = TraceSpec {
            seed: scale.seed ^ 0x7ACE,
            queries: scale.queries,
            ..TraceSpec::default()
        }
        .generate();

        // Distinct results only: repeated (exact-match) queries share one
        // cached file, mirroring "nearly 300MB XML files" for 11k queries.
        let mut seen = std::collections::HashSet::new();
        let mut total = 0usize;
        let proxy = make_proxy(
            &site,
            Scheme::NoCache,
            DescriptionKind::Array,
            None,
            CostModel::free(),
        );
        let rbe = Rbe::default();
        for q in &trace.queries {
            if seen.insert(q.query_string()) {
                let response = proxy
                    .handle_form(&rbe.form_path, &q.form_fields())
                    .expect("trace queries execute");
                total += response.result.xml_bytes();
            }
        }
        site.reset_load();

        Experiment {
            site,
            trace,
            total_result_bytes: total,
            cost: CostModel::default(),
        }
    }

    /// §4.1: the trace relationship census.
    pub fn trace_stats(&self) -> TraceMix {
        classify_trace(&self.trace)
    }

    /// Runs one (scheme, description, capacity) configuration.
    pub fn run(
        &self,
        scheme: Scheme,
        description: DescriptionKind,
        capacity: Option<usize>,
    ) -> TraceReport {
        let proxy = make_proxy(&self.site, scheme, description, capacity, self.cost);
        Rbe::default()
            .run(&proxy, &self.trace)
            .expect("trace replays")
    }

    /// Capacity in bytes for a cache-size fraction.
    pub fn capacity_for(&self, fraction: f64) -> usize {
        (self.total_result_bytes as f64 * fraction).ceil() as usize
    }

    /// **Table 1**: average cache efficiency of active (full semantic) and
    /// passive caching across the four cache sizes.
    pub fn table1(&self) -> Table1 {
        let mut rows = Vec::new();
        for (fraction, label) in CACHE_FRACTIONS {
            let cap = Some(self.capacity_for(fraction));
            let ac = self.run(Scheme::FullSemantic, DescriptionKind::Array, cap);
            let pc = self.run(Scheme::Passive, DescriptionKind::Array, cap);
            rows.push(Table1Row {
                cache_size: label,
                ac: ac.avg_cache_efficiency,
                pc: pc.avg_cache_efficiency,
            });
        }
        Table1 { rows }
    }

    /// **Figure 5**: average response time of ACR, ACNR, PC, NC across the
    /// four cache sizes (the paper replays the first 10,000 queries; we
    /// replay the whole scaled-down trace).
    pub fn figure5(&self) -> Figure5 {
        let mut rows = Vec::new();
        for (fraction, label) in CACHE_FRACTIONS {
            let cap = Some(self.capacity_for(fraction));
            rows.push(Figure5Row {
                cache_size: label,
                acr_ms: self
                    .run(Scheme::FullSemantic, DescriptionKind::RTree, cap)
                    .avg_response_ms,
                acnr_ms: self
                    .run(Scheme::FullSemantic, DescriptionKind::Array, cap)
                    .avg_response_ms,
                pc_ms: self
                    .run(Scheme::Passive, DescriptionKind::Array, cap)
                    .avg_response_ms,
                nc_ms: self
                    .run(Scheme::NoCache, DescriptionKind::Array, cap)
                    .avg_response_ms,
            });
        }
        Figure5 { rows }
    }

    /// **Figure 6**: average response time of the three active schemes,
    /// unlimited cache, array description — plus their efficiencies (the
    /// paper quotes 0.593 / 0.544 / 0.511).
    pub fn figure6(&self) -> Figure6 {
        let schemes = [
            ("First", Scheme::FullSemantic),
            ("Second", Scheme::RegionContainment),
            ("Third", Scheme::ContainmentOnly),
        ];
        let rows = schemes
            .map(|(label, scheme)| {
                let r = self.run(scheme, DescriptionKind::Array, None);
                Figure6Row {
                    scheme: label,
                    response_ms: r.avg_response_ms,
                    efficiency: r.avg_cache_efficiency,
                }
            })
            .to_vec();
        Figure6 { rows }
    }

    /// Ablation (extension): cache-efficiency impact of the replacement
    /// policy under a tight (1/6) cache budget, where victim selection
    /// actually matters.
    pub fn replacement(&self) -> ReplacementAblation {
        let cap = Some(self.capacity_for(1.0 / 6.0));
        let rows = Replacement::all()
            .iter()
            .map(|&policy| {
                let proxy = experiment_proxy(
                    &self.site,
                    ProxyConfig::default()
                        .with_scheme(Scheme::FullSemantic)
                        .with_description(DescriptionKind::Array)
                        .with_capacity(cap)
                        .with_cost(self.cost)
                        .with_replacement(policy),
                );
                let report = Rbe::default()
                    .run(&proxy, &self.trace)
                    .expect("trace replays");
                let stats = proxy.cache_stats();
                ReplacementRow {
                    policy: policy.to_string(),
                    efficiency: report.avg_cache_efficiency,
                    response_ms: report.avg_response_ms,
                    evictions: stats.evictions,
                }
            })
            .collect();
        ReplacementAblation { rows }
    }

    /// §4.2's "cache checking time with or without the R-tree index is
    /// always under 100 milliseconds": measured mean relationship-check
    /// time per query for both description implementations.
    pub fn checktime(&self) -> CheckTime {
        let acnr = self.run(Scheme::FullSemantic, DescriptionKind::Array, None);
        let acr = self.run(Scheme::FullSemantic, DescriptionKind::RTree, None);
        CheckTime {
            acnr_check_ms: acnr.avg_check_ms,
            acr_check_ms: acr.avg_check_ms,
        }
    }

    /// Ablation (extension): sweep of the overlap coverage threshold —
    /// the §3.2 remainder-query tradeoff made tunable.
    pub fn coverage(&self) -> CoverageAblation {
        let rows = [0.0, 0.25, 0.5, 0.75, 1.01]
            .map(|threshold| {
                let proxy = experiment_proxy(
                    &self.site,
                    ProxyConfig::default()
                        .with_scheme(Scheme::FullSemantic)
                        .with_description(DescriptionKind::Array)
                        .with_cost(self.cost)
                        .with_min_overlap_coverage(threshold),
                );
                let report = Rbe::default()
                    .run(&proxy, &self.trace)
                    .expect("trace replays");
                CoverageRow {
                    threshold,
                    efficiency: report.avg_cache_efficiency,
                    response_ms: report.avg_response_ms,
                    overlap_answers: report.counts[3],
                }
            })
            .to_vec();
        CoverageAblation { rows }
    }

    /// Ablation: cache entry counts with and without region-containment
    /// compaction (Second vs Third), supporting the paper's §3.2 claim
    /// that region containment "reduces the number of cached queries".
    pub fn compaction(&self) -> Compaction {
        let run = |scheme| {
            let proxy = make_proxy(&self.site, scheme, DescriptionKind::Array, None, self.cost);
            Rbe::default()
                .run(&proxy, &self.trace)
                .expect("trace replays");
            proxy.cache_stats()
        };
        let with = run(Scheme::RegionContainment);
        let without = run(Scheme::ContainmentOnly);
        Compaction {
            entries_with: with.entries,
            compactions: with.compactions,
            entries_without: without.entries,
        }
    }
}

/// Builds one configured proxy over a (shared) site.
pub fn make_proxy(
    site: &SkySite,
    scheme: Scheme,
    description: DescriptionKind,
    capacity: Option<usize>,
    cost: CostModel,
) -> ProxyHandle {
    experiment_proxy(
        site,
        ProxyConfig::default()
            .with_scheme(scheme)
            .with_description(description)
            .with_capacity(capacity)
            .with_cost(cost),
    )
}

/// The proxy every paper experiment runs on: one cache shard, so the
/// configured capacity is a single budget and one cache description
/// sees every entry, exactly as in the paper's single-servlet proxy.
fn experiment_proxy(site: &SkySite, config: ProxyConfig) -> ProxyHandle {
    ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        config,
        1,
    )
}

/// One Table 1 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Cache-size label ("1/6" … "1").
    pub cache_size: &'static str,
    /// Active-caching average cache efficiency.
    pub ac: f64,
    /// Passive-caching average cache efficiency.
    pub pc: f64,
}

/// Table 1 of the paper.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// Rows per cache size.
    pub rows: Vec<Table1Row>,
}

impl std::fmt::Display for Table1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 1. Average cache efficiency of AC and PC")?;
        write!(f, "  Cache Size |")?;
        for r in &self.rows {
            write!(f, " {:>6}", r.cache_size)?;
        }
        writeln!(f)?;
        write!(f, "  AC         |")?;
        for r in &self.rows {
            write!(f, " {:>6.3}", r.ac)?;
        }
        writeln!(f)?;
        write!(f, "  PC         |")?;
        for r in &self.rows {
            write!(f, " {:>6.3}", r.pc)?;
        }
        writeln!(f)
    }
}

/// One Figure 5 series point.
#[derive(Debug, Clone, Serialize)]
pub struct Figure5Row {
    /// Cache-size label.
    pub cache_size: &'static str,
    /// Active caching with R-tree description.
    pub acr_ms: f64,
    /// Active caching with array description.
    pub acnr_ms: f64,
    /// Passive caching.
    pub pc_ms: f64,
    /// No cache (tunneling proxy).
    pub nc_ms: f64,
}

/// Figure 5 of the paper.
#[derive(Debug, Clone, Serialize)]
pub struct Figure5 {
    /// Rows per cache size.
    pub rows: Vec<Figure5Row>,
}

impl std::fmt::Display for Figure5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 5. Average response time (ms)")?;
        writeln!(f, "  Cache Size |    ACR |   ACNR |     PC |     NC")?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>10} | {:>6.0} | {:>6.0} | {:>6.0} | {:>6.0}",
                r.cache_size, r.acr_ms, r.acnr_ms, r.pc_ms, r.nc_ms
            )?;
        }
        Ok(())
    }
}

/// One Figure 6 bar.
#[derive(Debug, Clone, Serialize)]
pub struct Figure6Row {
    /// Scheme label (First / Second / Third).
    pub scheme: &'static str,
    /// Average response time, ms.
    pub response_ms: f64,
    /// Average cache efficiency.
    pub efficiency: f64,
}

/// Figure 6 of the paper.
#[derive(Debug, Clone, Serialize)]
pub struct Figure6 {
    /// One row per active scheme.
    pub rows: Vec<Figure6Row>,
}

impl std::fmt::Display for Figure6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 6. Average response time of active caching schemes (unlimited cache, array description)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>6}: {:>6.0} ms (cache efficiency {:.3})",
                r.scheme, r.response_ms, r.efficiency
            )?;
        }
        Ok(())
    }
}

/// One replacement-ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct ReplacementRow {
    /// Policy name.
    pub policy: String,
    /// Average cache efficiency over the trace.
    pub efficiency: f64,
    /// Average response time, ms.
    pub response_ms: f64,
    /// Evictions performed.
    pub evictions: usize,
}

/// Replacement-policy ablation (extension experiment).
#[derive(Debug, Clone, Serialize)]
pub struct ReplacementAblation {
    /// One row per policy.
    pub rows: Vec<ReplacementRow>,
}

impl std::fmt::Display for ReplacementAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Replacement-policy ablation (full semantic caching, 1/6 cache size)"
        )?;
        writeln!(
            f,
            "  policy          | efficiency | avg resp ms | evictions"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<15} | {:>10.3} | {:>11.0} | {:>9}",
                r.policy, r.efficiency, r.response_ms, r.evictions
            )?;
        }
        Ok(())
    }
}

/// Cache-check timing comparison (the paper's <100 ms claim).
#[derive(Debug, Clone, Serialize)]
pub struct CheckTime {
    /// Mean check time with the array description, ms.
    pub acnr_check_ms: f64,
    /// Mean check time with the R-tree description, ms.
    pub acr_check_ms: f64,
}

impl std::fmt::Display for CheckTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Cache relationship-checking time (paper: always < 100 ms)"
        )?;
        writeln!(
            f,
            "  ACNR (array):  {:.4} ms mean per query",
            self.acnr_check_ms
        )?;
        writeln!(
            f,
            "  ACR  (R-tree): {:.4} ms mean per query",
            self.acr_check_ms
        )
    }
}

/// One coverage-threshold ablation row.
#[derive(Debug, Clone, Serialize)]
pub struct CoverageRow {
    /// Minimum coverage required to take the overlap path.
    pub threshold: f64,
    /// Average cache efficiency.
    pub efficiency: f64,
    /// Average response time, ms.
    pub response_ms: f64,
    /// Queries answered via probe + remainder.
    pub overlap_answers: usize,
}

/// Coverage-threshold ablation (extension experiment).
#[derive(Debug, Clone, Serialize)]
pub struct CoverageAblation {
    /// One row per threshold.
    pub rows: Vec<CoverageRow>,
}

impl std::fmt::Display for CoverageAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Overlap coverage-threshold ablation (full semantic caching, unlimited cache)"
        )?;
        writeln!(
            f,
            "  threshold | efficiency | avg resp ms | overlap answers"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:>9.2} | {:>10.3} | {:>11.0} | {:>15}",
                r.threshold, r.efficiency, r.response_ms, r.overlap_answers
            )?;
        }
        Ok(())
    }
}

/// Compaction ablation output.
#[derive(Debug, Clone, Serialize)]
pub struct Compaction {
    /// Cache entries at end of trace with region containment (Second).
    pub entries_with: usize,
    /// Compactions performed by Second.
    pub compactions: usize,
    /// Cache entries at end of trace without (Third).
    pub entries_without: usize,
}

impl std::fmt::Display for Compaction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Region-containment compaction (unlimited cache)")?;
        writeln!(
            f,
            "  Second (with compaction):    {} entries at end of trace, {} entries compacted away",
            self.entries_with, self.compactions
        )?;
        writeln!(
            f,
            "  Third  (without compaction): {} entries at end of trace",
            self.entries_without
        )
    }
}

/// Where and at what scale a committed bench row was produced.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// Git commit of the tree that ran, or `"unknown"` outside a checkout.
    pub sha: String,
    /// Catalog object count.
    pub objects: usize,
    /// Trace length.
    pub queries: usize,
    /// Catalog and trace seed.
    pub seed: u64,
}

impl Provenance {
    /// Provenance of a run at `scale` from the current checkout.
    pub fn of(scale: Scale) -> Provenance {
        let sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Provenance {
            sha,
            objects: scale.objects,
            queries: scale.queries,
            seed: scale.seed,
        }
    }
}

/// The deterministic columns of the paper's tables and their ablations —
/// everything but response times, which carry measured wall time. Written
/// as `BENCH_paper.json`; a rerun at the same scale must reproduce it
/// exactly.
#[derive(Debug, Clone, Serialize)]
pub struct PaperBench {
    /// Commit and scale of the run.
    pub provenance: Provenance,
    /// Table 1: `[cache size, AC, PC]` per cache size.
    pub table1: Vec<(&'static str, f64, f64)>,
    /// Figure 6: `[scheme, efficiency]` per active scheme.
    pub figure6: Vec<(&'static str, f64)>,
    /// Compaction ablation entry counts.
    pub compaction: Compaction,
    /// Replacement ablation: `[policy, efficiency, evictions]`.
    pub replacement: Vec<(String, f64, usize)>,
    /// Coverage ablation: `[threshold, efficiency, overlap answers]`.
    pub coverage: Vec<(f64, f64, usize)>,
}

impl PaperBench {
    /// Collects the pinned columns from the five experiments' outputs.
    pub fn new(
        provenance: Provenance,
        table1: &Table1,
        figure6: &Figure6,
        compaction: &Compaction,
        replacement: &ReplacementAblation,
        coverage: &CoverageAblation,
    ) -> PaperBench {
        PaperBench {
            provenance,
            table1: table1
                .rows
                .iter()
                .map(|r| (r.cache_size, r.ac, r.pc))
                .collect(),
            figure6: figure6
                .rows
                .iter()
                .map(|r| (r.scheme, r.efficiency))
                .collect(),
            compaction: compaction.clone(),
            replacement: replacement
                .rows
                .iter()
                .map(|r| (r.policy.clone(), r.efficiency, r.evictions))
                .collect(),
            coverage: coverage
                .rows
                .iter()
                .map(|r| (r.threshold, r.efficiency, r.overlap_answers))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_experiment_produces_the_paper_shapes() {
        let exp = Experiment::prepare(Scale::small());
        assert!(exp.total_result_bytes > 0);

        // Census: close to the calibration targets.
        let mix = exp.trace_stats();
        let [e, c, o, _] = mix.fractions();
        assert!((e - 0.17).abs() < 0.08, "exact {e}");
        assert!((c - 0.34).abs() < 0.10, "contained {c}");
        assert!(o < 0.2, "overlap {o}");

        // Table 1 shape: AC efficiency > PC efficiency at full size, and
        // both non-decreasing from smallest to largest cache (allowing
        // small noise at this scale).
        let t1 = exp.table1();
        let last = t1.rows.last().unwrap();
        assert!(last.ac > last.pc, "AC {} vs PC {}", last.ac, last.pc);
        assert!(last.ac > 0.3);

        // Figure 5 shape: NC slowest, AC fastest at full cache size.
        let f5 = exp.figure5();
        let last = f5.rows.last().unwrap();
        assert!(
            last.nc_ms > last.pc_ms,
            "NC {} vs PC {}",
            last.nc_ms,
            last.pc_ms
        );
        assert!(
            last.pc_ms > last.acnr_ms,
            "PC {} vs ACNR {}",
            last.pc_ms,
            last.acnr_ms
        );

        // Figure 6 shape: Third and Second have slightly lower efficiency
        // than First.
        let f6 = exp.figure6();
        assert_eq!(f6.rows.len(), 3);
        assert!(f6.rows[0].efficiency >= f6.rows[2].efficiency);

        // Compaction reduces entry counts.
        let comp = exp.compaction();
        assert!(comp.entries_with <= comp.entries_without);
    }
}
