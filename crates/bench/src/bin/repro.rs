//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--objects N] [--queries N] [--seed S] [--threads K] [--json] <experiment>...
//!
//! experiments:
//!   trace-stats   §4.1 relationship census of the Radial trace
//!   table1        Table 1: cache efficiency of AC vs PC across cache sizes
//!   figure5       Figure 5: response time of ACR/ACNR/PC/NC across cache sizes
//!   figure6       Figure 6: response time of the three active schemes
//!   compaction    §3.2 region-containment compaction ablation
//!   replacement   extension: replacement-policy ablation at 1/6 cache size
//!   coverage      extension: overlap coverage-threshold ablation
//!                 (whenever table1, figure6, compaction, replacement and
//!                 coverage all run, their deterministic columns — no
//!                 response times — are written to BENCH_paper.json)
//!   checktime     §4.2 cache-checking time, array vs R-tree
//!   throughput    extension: multi-client qps/latency over the concurrent
//!                 runtime, sweeping client counts up to --threads (default 8),
//!                 then the tiered and edge sweeps below
//!   tiered        extension: hit rate vs RAM budget — RAM-only vs the
//!                 disk-backed tier at equal RAM, with disk-tier hit latency
//!   edge          extension: qps and tail latency of the nonblocking edge
//!                 server over real sockets, sweeping keep-alive connection
//!                 counts 64, 128, … up to --edge-conns (default 256)
//!   chaos         extension: availability under a mid-trace origin outage
//!                 with deadlines, retries and the circuit breaker engaged
//!                 (`--chaos` is an alias)
//!   cluster       extension: proxy-fleet sweep over 1, 2, 4, … up to
//!                 --nodes (default 8) slot-sharded peers with gossip
//!                 membership, plus a mid-trace peer kill on a 3-node fleet
//!   torture       extension: seeded whole-stack torture runs — origin
//!                 outage, packet loss/delay, an asymmetric partition,
//!                 slab I/O faults and corruption, and a mid-trace
//!                 kill/revive, with soundness/staleness/availability/
//!                 durability oracles. Replays the committed seed corpus;
//!                 with an explicit --seed N, replays exactly that seed
//!                 (byte-deterministically) and prints its event log
//!   adaptive      extension: adaptive scheme selection vs every static
//!                 scheme under cost-aware replacement, on the standard
//!                 and a Zipf-skewed trace, every answer checked against
//!                 a no-cache oracle (`--adaptive` is an alias)
//!   all           everything above
//! ```

use fp_bench::{
    conn_sweep, fleet_sweep, thread_sweep, Experiment, PaperBench, Provenance, Scale, SEED_CORPUS,
};
use std::time::Duration;

fn main() {
    let mut scale = Scale::default();
    let mut seed_set = false;
    let mut json = false;
    let mut threads = 8usize;
    let mut edge_conns = 256usize;
    let mut nodes = 8usize;
    let mut experiments: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--objects" => scale.objects = parse_num(args.next(), "--objects"),
            "--queries" => scale.queries = parse_num(args.next(), "--queries"),
            "--seed" => {
                scale.seed = parse_num(args.next(), "--seed") as u64;
                seed_set = true;
            }
            "--threads" => threads = parse_num(args.next(), "--threads"),
            "--edge-conns" => edge_conns = parse_num(args.next(), "--edge-conns"),
            "--nodes" => nodes = parse_num(args.next(), "--nodes"),
            "--json" => json = true,
            "--chaos" => experiments.push("chaos".to_string()),
            "--adaptive" => experiments.push("adaptive".to_string()),
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                print_usage();
                std::process::exit(2);
            }
            exp => experiments.push(exp.to_string()),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    let all = experiments.iter().any(|e| e == "all");

    eprintln!(
        "# preparing experiment: {} catalog objects, {} trace queries, seed {}",
        scale.objects, scale.queries, scale.seed
    );
    let exp = Experiment::prepare(scale);
    eprintln!(
        "# total result size of the trace: {:.1} MB ({} bytes)",
        exp.total_result_bytes as f64 / 1e6,
        exp.total_result_bytes
    );

    let want = |name: &str| all || experiments.iter().any(|e| e == name);

    if want("trace-stats") {
        let mix = exp.trace_stats();
        if json {
            println!("{}", serde_json::to_string(&mix).expect("serializes"));
        } else {
            println!("\nSection 4.1 trace census (paper: 17% exact, 34% contained, ~9% overlap)");
            println!("  {mix}");
            println!(
                "  completely answerable from cache: {:.1}% (paper: ~51%)",
                mix.fully_answerable() * 100.0
            );
        }
    }
    // The paper's deterministic columns are pinned in BENCH_paper.json;
    // it is written when the five experiments it covers all ran.
    let mut table1 = None;
    let mut figure6 = None;
    let mut compaction = None;
    let mut replacement = None;
    let mut coverage = None;
    if want("table1") {
        let t = exp.table1();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        table1 = Some(t);
    }
    if want("figure5") {
        let t = exp.figure5();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    if want("figure6") {
        let t = exp.figure6();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        figure6 = Some(t);
    }
    if want("compaction") {
        let t = exp.compaction();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        compaction = Some(t);
    }
    if want("replacement") {
        let t = exp.replacement();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        replacement = Some(t);
    }
    if want("coverage") {
        let t = exp.coverage();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        coverage = Some(t);
    }
    if let (Some(t1), Some(f6), Some(comp), Some(rep), Some(cov)) =
        (&table1, &figure6, &compaction, &replacement, &coverage)
    {
        let bench = PaperBench::new(Provenance::of(scale), t1, f6, comp, rep, cov);
        let path = "BENCH_paper.json";
        match std::fs::write(path, serde_json::to_string(&bench).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
    if want("checktime") {
        let t = exp.checktime();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
    }
    // The budget sweep rides along with `throughput` (its rows are a
    // section of the hit-latency artifact) and runs alone as `tiered`.
    if want("throughput") || want("tiered") {
        let sweep = exp.budget_sweep(threads);
        print_block(
            json,
            &sweep,
            &serde_json::to_string(&sweep).expect("serializes"),
        );
        let t = exp.throughput(&thread_sweep(threads), Duration::from_millis(5));
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        // Persist the hit-path trajectory (plus the budget sweep) so
        // successive changes to the columnar and disk-tier serve paths
        // can be compared on fixed axes.
        let report = t.hit_latency(&sweep);
        let path = "BENCH_hit_latency.json";
        match std::fs::write(path, serde_json::to_string(&report).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
        // Persist the per-phase/per-outcome latency quantiles from the
        // runtime's histograms — the same distributions `/metrics`
        // exposes, on fixed axes for run-over-run comparison.
        let percentiles = t.latency_percentiles();
        let path = "BENCH_latency_percentiles.json";
        match std::fs::write(
            path,
            serde_json::to_string(&percentiles).expect("serializes"),
        ) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
    // The edge sweep rides along with `throughput` (both answer "what
    // does concurrency cost"), and runs alone as `edge`.
    if want("edge") || want("throughput") {
        let t = exp.edge_concurrency(&conn_sweep(edge_conns), Duration::from_millis(5));
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        // Persist qps + tail latency vs connection count so edge changes
        // can be compared run over run.
        let path = "BENCH_edge_concurrency.json";
        match std::fs::write(path, serde_json::to_string(&t).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
    if want("chaos") {
        let t = exp.chaos();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        // Persist the availability axes so lifecycle/resilience changes
        // can be compared run over run.
        let bench = t.availability_bench();
        let path = "BENCH_availability.json";
        match std::fs::write(path, serde_json::to_string(&bench).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
    if want("torture") {
        // An explicit --seed narrows the run to exactly that seed (the
        // byte-deterministic replay path); otherwise the committed
        // regression corpus runs.
        let t = if seed_set {
            let run = exp.torture(scale.seed);
            if !json {
                println!("\n# torture event log, seed {}", scale.seed);
                for line in &run.events {
                    println!("{line}");
                }
            }
            fp_bench::TortureBench {
                rows: vec![run.row],
            }
        } else {
            exp.torture_corpus(&SEED_CORPUS)
        };
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        // Persist availability, soundness, repair, and recovery axes
        // per seed for run-over-run comparison.
        let path = "BENCH_torture.json";
        match std::fs::write(path, serde_json::to_string(&t).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
    if want("adaptive") {
        let t = exp.adaptive();
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        // Persist the adaptive-vs-static axes (hit rate, origin time,
        // soundness verdicts) for run-over-run comparison.
        let path = "BENCH_adaptive.json";
        match std::fs::write(path, serde_json::to_string(&t).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
    if want("cluster") {
        let t = exp.cluster(&fleet_sweep(nodes));
        print_block(json, &t, &serde_json::to_string(&t).expect("serializes"));
        // Persist the fleet axes (origin fetches vs fleet size, kill-run
        // availability and failover time) for run-over-run comparison.
        let path = "BENCH_cluster.json";
        match std::fs::write(path, serde_json::to_string(&t).expect("serializes")) {
            Ok(()) => eprintln!("# wrote {path}"),
            Err(e) => eprintln!("# could not write {path}: {e}"),
        }
    }
}

fn print_block(json: bool, table: &dyn std::fmt::Display, json_text: &str) {
    if json {
        println!("{json_text}");
    } else {
        println!("\n{table}");
    }
}

fn parse_num(v: Option<String>, flag: &str) -> usize {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires a number");
        std::process::exit(2);
    })
}

fn print_usage() {
    eprintln!(
        "usage: repro [--objects N] [--queries N] [--seed S] [--threads K] [--edge-conns N] \
         [--nodes N] [--json] [--chaos] [--adaptive] \
         [trace-stats|table1|figure5|figure6|compaction|replacement|coverage|checktime|throughput|tiered|edge|chaos|cluster|torture|adaptive|all]..."
    );
}
