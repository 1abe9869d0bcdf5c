//! Self-tests of the measuring instrument, run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`:
//! coordinated omission in the generator, failure accounting, and the
//! accounting identities of every workload at smoke scale.

use crate::loadgen::{request_bytes, Generator, PhaseResult, Plan};
use crate::run::{failures, run_untraced, RunConfig};
use crate::workload::{Scale, WORKLOADS};
use fp_edge::{EdgeConfig, EdgeServer, EdgeService};
use fp_httpd::{Request, Response};
use std::sync::Arc;
use std::time::Duration;

/// Answers every request inline, except that request `stall_at` blocks
/// the reactor for `stall` first — a scripted server stall.
struct StallingService {
    stall_at: u64,
    stall: Duration,
}

impl EdgeService for StallingService {
    fn handle(&self, _request: &Request) -> Response {
        Response::ok("text/plain", "offloaded")
    }

    fn try_fast(&self, request: &Request) -> Option<Response> {
        let id: u64 = request.headers.get("X-Bench-Req")?.parse().ok()?;
        if id == self.stall_at {
            std::thread::sleep(self.stall);
        }
        Some(Response::ok("text/plain", "ok"))
    }
}

const RATE: f64 = 1000.0;

/// A fresh directory under the benchmark's own `out/`.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("selftest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}
const STALL: Duration = Duration::from_millis(100);

/// The timing assertions need the CPU to themselves, and the smoke runs
/// load both cores: the tests in this file run one at a time.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn drive_stub(
    service: StallingService,
    n: usize,
    pause: Option<(usize, Duration)>,
    drain: Duration,
) -> PhaseResult {
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::new(service) as Arc<dyn EdgeService>,
        EdgeConfig::default().with_workers(1),
    )
    .expect("stub server binds");
    let requests: Vec<Vec<u8>> = (0..n as u64).map(|i| request_bytes("/stub", i)).collect();
    let mut gen = Generator::connect(server.addr(), 2).expect("generator connects");
    let result = gen
        .run(&Plan {
            rate: RATE,
            requests: &requests,
            drain,
            pause,
        })
        .expect("phase runs");
    server.shutdown();
    result
}

/// A 100 ms server stall is charged to every request that fell due
/// during it, from its intended send time — not hidden by the
/// generator waiting for answers.
#[test]
fn server_stall_is_charged_from_the_intended_send_time() {
    let _serial = serial();
    let at = 100;
    let r = drive_stub(
        StallingService {
            stall_at: at as u64,
            stall: STALL,
        },
        400,
        None,
        Duration::from_secs(2),
    );
    assert!(r.samples.iter().all(|s| s.ok()), "every request answered");
    let stall_ms = STALL.as_secs_f64() * 1e3;
    let step_ms = 1e3 / RATE;
    // Request `at + k` fell due k ms into the stall; it cannot complete
    // before the stall ends.
    for k in 1..80 {
        let lat = r.samples[at + k].latency_ms().expect("answered");
        let floor = stall_ms - k as f64 * step_ms - 2.0;
        assert!(
            lat >= floor,
            "request {} latency {lat:.2} ms < {floor:.2} ms",
            at + k
        );
    }
    // The generator itself ran on time.
    let lag_p99 = crate::stats::percentile(
        &r.samples
            .iter()
            .map(|s| s.lag_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
        0.99,
    );
    assert!(lag_p99 < 20.0, "generator lag p99 {lag_p99:.2} ms");
}

/// When the generator itself stalls, the requests it sends late report
/// that lateness as lag, and their latency still counts from the due
/// time.
#[test]
fn generator_stall_shows_as_lag_and_latency() {
    let _serial = serial();
    let at = 100;
    let r = drive_stub(
        StallingService {
            stall_at: u64::MAX,
            stall: STALL,
        },
        400,
        Some((at, STALL)),
        Duration::from_secs(2),
    );
    let stall_ms = STALL.as_secs_f64() * 1e3;
    let lag_ms = r.samples[at].lag_ns as f64 / 1e6;
    assert!(
        lag_ms >= stall_ms - 1.0,
        "lag {lag_ms:.2} ms hides the stall"
    );
    let lat = r.samples[at].latency_ms().expect("answered");
    assert!(
        lat >= lag_ms,
        "latency {lat:.2} ms counts from the due time"
    );
    let late = r.samples[at..at + 50]
        .iter()
        .filter(|s| s.lag_ns as f64 / 1e6 > stall_ms / 2.0 - 2.0)
        .count();
    assert!(
        late >= 45,
        "requests due during the stall were sent late: {late}"
    );
}

/// Requests still unanswered when the phase ends count as failed.
#[test]
fn unanswered_requests_count_as_failed() {
    let _serial = serial();
    let r = drive_stub(
        StallingService {
            stall_at: 50,
            stall: Duration::from_millis(600),
        },
        100,
        None,
        Duration::from_millis(50),
    );
    let unanswered = r.samples.iter().filter(|s| s.done_ns.is_none()).count() as u64;
    assert!(unanswered > 0, "the stalled tail must be unanswered");
    assert_eq!(failures(&r.samples), unanswered);
}

/// The names in `BENCHMARK.json` are the ones the benchmark prints.
#[test]
fn benchmark_json_declares_what_the_runs_print() {
    let _serial = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let section = |key: &str| -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let end = text[start..].find(']').map_or(text.len(), |e| start + e);
        text[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closed name")].to_string())
            .collect()
    };
    assert_eq!(section("end_to_end"), crate::END_TO_END.to_vec());
    let scale = Scale {
        objects: 20_000,
        warm_div: 10,
    };
    let w = &WORKLOADS[1];
    let out = scratch_dir("names");
    let cfg = RunConfig {
        seed: 3,
        seconds: 2.0,
        scale,
        conns: 2,
        out_dir: out.clone(),
        rate: w.rate / 2.0,
    };
    let traced = crate::run::run_traced(w, &cfg, &scale.site());
    let mut printed: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
    let mut declared = section("per_layer");
    printed.sort();
    declared.sort();
    assert_eq!(declared, printed);
    for name in section("workloads") {
        assert!(
            WORKLOADS.iter().any(|w| w.name == name),
            "{name} is a workload"
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// Smoke scale: every workload runs end to end, its accounting
/// identities hold, and its hit rate and origin bytes lie near the
/// census of the trace it was generated for.
#[test]
fn workloads_account_for_every_request_at_smoke_scale() {
    let _serial = serial();
    let out = scratch_dir("smoke");
    for w in &WORKLOADS {
        let cfg = RunConfig {
            seed: 7,
            seconds: 2.0,
            scale: Scale {
                objects: 20_000,
                warm_div: 10,
            },
            conns: 2,
            out_dir: out.clone(),
            rate: w.rate / 2.0,
        };
        let r = run_untraced(w, &cfg, &cfg.scale.site());
        let c = r.checks.as_ref().expect("untraced runs account");
        assert!(
            c.edge_identity,
            "{}: fast + offloaded + shed = edge requests",
            w.name
        );
        assert!(c.outcome_identity, "{}: hits + misses = completed", w.name);
        let slack = 0.06;
        if w.budget_share.is_none() {
            assert!(
                (c.hit_rate - c.census.hit_share).abs() <= slack,
                "{}: hit rate {} vs census {}",
                w.name,
                c.hit_rate,
                c.census.hit_share
            );
        } else {
            assert!(
                c.hit_rate <= c.census.hit_share + slack,
                "{}: hit rate above census",
                w.name
            );
        }
        assert!(
            c.origin_kb_per_req <= c.census.forward_kb_per_req * 1.05,
            "{}: origin fetched more than forwarding everything",
            w.name
        );
        if w.budget_share.is_none() {
            assert!(
                c.origin_kb_per_req <= c.census.new_target_kb_per_req * 1.05,
                "{}: an unlimited cache refetched a seen target",
                w.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}
