//! Warm restart: a proxy snapshots its cache (each entry one XML result
//! document — the paper's Figure 4 "Query Result Files"), a fresh proxy
//! rebuilt over the same directory recovers it, and previously cached
//! knowledge keeps answering queries with zero origin traffic.

use fp_suite::proxy::template::TemplateManager;
use fp_suite::proxy::{CostModel, LifecycleConfig, ProxyConfig, ProxyHandle, Scheme, SiteOrigin};
use fp_suite::skyserver::{Catalog, CatalogSpec, SkySite};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// One cache shard snapshotting to `dir` only when asked (the schedule's
/// hour-long interval never comes due during the test).
fn proxy(site: &SkySite, dir: &Path) -> ProxyHandle {
    ProxyHandle::with_shards(
        TemplateManager::with_sky_defaults(),
        Arc::new(SiteOrigin::new(site.clone())),
        ProxyConfig::default()
            .with_scheme(Scheme::FullSemantic)
            .with_cost(CostModel::free())
            .with_lifecycle(
                LifecycleConfig::default().with_snapshot(dir, Duration::from_secs(3600)),
            ),
        1,
    )
}

fn radial_fields(ra: f64, dec: f64, radius: f64) -> Vec<(String, String)> {
    vec![
        ("ra".to_string(), ra.to_string()),
        ("dec".to_string(), dec.to_string()),
        ("radius".to_string(), radius.to_string()),
    ]
}

#[test]
fn warm_restart_preserves_active_caching() {
    let dir = std::env::temp_dir().join(format!("fp_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let site = SkySite::new(Catalog::generate(&CatalogSpec::small_test()));

    // Session 1: populate and persist.
    let (big_ids, written) = {
        let p = proxy(&site, &dir);
        let big = p
            .handle_form("/search/radial", &radial_fields(185.0, 0.5, 25.0))
            .expect("first query");
        // A rect query too, so the snapshot holds two templates.
        p.handle_form(
            "/search/rect",
            &[
                ("min_ra".to_string(), "184.0".to_string()),
                ("max_ra".to_string(), "186.0".to_string()),
                ("min_dec".to_string(), "0.0".to_string()),
                ("max_dec".to_string(), "1.0".to_string()),
            ],
        )
        .expect("rect query");
        assert_eq!(p.cache_stats().entries, 2);
        let written = p.snapshot_now().expect("snapshot saves");
        let k = big.result.column_index("objID").unwrap();
        let ids: Vec<i64> = big
            .result
            .rows
            .iter()
            .map(|r| r[k].as_i64().unwrap())
            .collect();
        (ids, written)
    };
    assert_eq!(written, 1, "one shard file");

    // Session 2: fresh proxy over the same directory, warm cache.
    site.reset_load();
    let p2 = proxy(&site, &dir);
    assert_eq!(p2.runtime_stats().recovered_entries, 2);
    assert_eq!(p2.cache_stats().entries, 2);

    // Exact repeat: served from the restored entry, zero origin queries.
    let repeat = p2
        .handle_form("/search/radial", &radial_fields(185.0, 0.5, 25.0))
        .expect("repeat");
    assert_eq!(repeat.metrics.outcome.label(), "exact");
    let k = repeat.result.column_index("objID").unwrap();
    let ids: Vec<i64> = repeat
        .result
        .rows
        .iter()
        .map(|r| r[k].as_i64().unwrap())
        .collect();
    assert_eq!(ids, big_ids);

    // Subsumed query: answered locally from the restored entry.
    let contained = p2
        .handle_form("/search/radial", &radial_fields(185.0, 0.5, 10.0))
        .expect("contained");
    assert_eq!(contained.metrics.outcome.label(), "contained");
    assert_eq!(
        site.load().queries,
        0,
        "warm cache answered everything locally"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
