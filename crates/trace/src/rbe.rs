//! The Remote Browser Emulator: replays traces through a proxy.

use crate::trace::Trace;
use funcproxy::metrics::{QueryMetrics, TraceReport};
use funcproxy::{ProxyError, ProxyHandle};

/// The paper's RBE ("the program we write for emulating a web browser
/// client"): issues each trace query as a Radial form request and records
/// the per-query metrics.
pub struct Rbe {
    /// Path of the Radial form on the proxy.
    pub form_path: String,
}

impl Default for Rbe {
    fn default() -> Self {
        Rbe {
            form_path: "/search/radial".to_string(),
        }
    }
}

impl Rbe {
    /// Replays `trace` through `handle` from `threads` concurrent client
    /// threads, returning per-query metrics in trace order. Queries are
    /// dealt round-robin: client `t` issues queries `t, t+threads,
    /// t+2*threads, ...` in order, so each query runs exactly once and
    /// every client sees an in-order subsequence of the trace. One
    /// thread replays the trace strictly in order.
    ///
    /// `bytes` picks the response path: `false` serves rows
    /// ([`ProxyHandle::handle_form`]); `true` serves pre-serialized XML
    /// ([`ProxyHandle::handle_form_xml`]), the path the HTTP front ends
    /// use, so hits — RAM and disk tier — are timed without
    /// materializing tuples.
    ///
    /// # Errors
    /// Returns the first proxy error any client hit (misconfigured
    /// templates or a dead origin make the whole run meaningless).
    pub fn replay(
        &self,
        handle: &ProxyHandle,
        trace: &Trace,
        threads: usize,
        bytes: bool,
    ) -> Result<Vec<QueryMetrics>, ProxyError> {
        let threads = threads.clamp(1, trace.len().max(1));
        let form_path = &self.form_path;
        let per_thread: Vec<Result<Vec<(usize, QueryMetrics)>, ProxyError>> =
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for (i, q) in trace.queries.iter().enumerate().skip(t).step_by(threads)
                            {
                                let fields = q.form_fields();
                                let metrics = if bytes {
                                    handle.handle_form_xml(form_path, &fields)?.metrics
                                } else {
                                    handle.handle_form(form_path, &fields)?.metrics
                                };
                                out.push((i, metrics));
                            }
                            Ok(out)
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|c| c.join().expect("client thread panicked"))
                    .collect()
            });

        let mut metrics: Vec<Option<QueryMetrics>> = vec![None; trace.len()];
        for client in per_thread {
            for (i, m) in client? {
                metrics[i] = Some(m);
            }
        }
        Ok(metrics
            .into_iter()
            .map(|m| m.expect("round-robin deal covers every query"))
            .collect())
    }

    /// Replays `trace` in order from one client over the row path and
    /// aggregates — how the paper's experiments run.
    ///
    /// # Errors
    /// See [`Rbe::replay`].
    pub fn run(&self, handle: &ProxyHandle, trace: &Trace) -> Result<TraceReport, ProxyError> {
        Ok(TraceReport::from_metrics(
            &self.replay(handle, trace, 1, false)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceSpec;
    use fp_skyserver::{Catalog, CatalogSpec, SkySite};
    use funcproxy::cache::DescriptionKind;
    use funcproxy::template::TemplateManager;
    use funcproxy::{CostModel, ProxyConfig, Scheme, SiteOrigin};
    use std::sync::Arc;

    fn proxy(scheme: Scheme) -> ProxyHandle {
        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default().with_scheme(scheme),
            1,
        )
    }

    #[test]
    fn replay_produces_one_metric_per_query() {
        let trace = TraceSpec {
            queries: 60,
            ..TraceSpec::small_test()
        }
        .generate();
        let p = proxy(Scheme::FullSemantic);
        let metrics = Rbe::default().replay(&p, &trace, 1, false).unwrap();
        assert_eq!(metrics.len(), trace.len());
        let report = TraceReport::from_metrics(&metrics);
        assert_eq!(report.queries, 60);
        assert!(report.avg_response_ms > 0.0);
    }

    #[test]
    fn active_beats_passive_beats_nothing_on_efficiency() {
        let trace = TraceSpec {
            queries: 250,
            seed: 3,
            ..TraceSpec::small_test()
        }
        .generate();
        let rbe = Rbe::default();

        let r_nc = rbe.run(&proxy(Scheme::NoCache), &trace).unwrap();
        let r_pc = rbe.run(&proxy(Scheme::Passive), &trace).unwrap();
        let r_ac = rbe.run(&proxy(Scheme::FullSemantic), &trace).unwrap();

        assert_eq!(r_nc.avg_cache_efficiency, 0.0);
        assert!(
            r_ac.avg_cache_efficiency > r_pc.avg_cache_efficiency,
            "active {} should beat passive {}",
            r_ac.avg_cache_efficiency,
            r_pc.avg_cache_efficiency
        );
        assert!(
            r_ac.avg_response_ms < r_nc.avg_response_ms,
            "active {} should beat no-cache {}",
            r_ac.avg_response_ms,
            r_nc.avg_response_ms
        );
    }

    #[test]
    fn shared_replay_covers_the_trace_and_agrees_with_the_oracle() {
        let trace = TraceSpec {
            queries: 80,
            seed: 9,
            ..TraceSpec::small_test()
        }
        .generate();
        let rbe = Rbe::default();

        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let handle = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site.clone())),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_cost(CostModel::free()),
            4,
        );
        let metrics = rbe.replay(&handle, &trace, 8, false).unwrap();
        assert_eq!(metrics.len(), trace.len());

        // Row counts per query must match a no-cache oracle replay.
        let oracle = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::NoCache)
                .with_cost(CostModel::free()),
            1,
        );
        let truth = rbe.replay(&oracle, &trace, 1, false).unwrap();
        for (i, (m, t)) in metrics.iter().zip(&truth).enumerate() {
            assert_eq!(m.rows_total, t.rows_total, "query {i} row count");
        }
    }

    #[test]
    fn description_kinds_agree_on_results() {
        let trace = TraceSpec {
            queries: 120,
            seed: 5,
            ..TraceSpec::small_test()
        }
        .generate();
        let rbe = Rbe::default();

        let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));
        let with_array = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site.clone())),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_description(DescriptionKind::Array)
                .with_cost(CostModel::free()),
            1,
        );
        let with_rtree = ProxyHandle::with_shards(
            TemplateManager::with_sky_defaults(),
            Arc::new(SiteOrigin::new(site)),
            ProxyConfig::default()
                .with_scheme(Scheme::FullSemantic)
                .with_description(DescriptionKind::RTree)
                .with_cost(CostModel::free()),
            1,
        );
        let a = rbe.replay(&with_array, &trace, 1, false).unwrap();
        let b = rbe.replay(&with_rtree, &trace, 1, false).unwrap();
        // Identical outcomes and identical tuple counts, query by query.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.outcome, y.outcome);
            assert_eq!(x.rows_total, y.rows_total);
            assert_eq!(x.rows_from_cache, y.rows_from_cache);
        }
    }
}
