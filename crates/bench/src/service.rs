//! Client-storm benchmark of the `dipe-serve` job server, written to the
//! machine-readable `BENCH_service.json`.
//!
//! The storm starts an in-process server, then `clients` concurrent client
//! threads each submit `jobs_per_client` estimation jobs and block for their
//! results, one at a time. Seeds repeat across clients, so later jobs on the
//! same (circuit, input model, seed) stream hit the server's warm-checkpoint
//! cache: the report splits latency by which cache tier served each job
//! (`cold` / `compiled` / `warm`), which is how the cache's effect shows up
//! as a number rather than an anecdote. Throughput (`jobs_per_sec`) is
//! wall-clock over the whole storm.
//!
//! Alongside the job storm, a dashboard poller thread issues `metrics`
//! RPCs against the same server for the storm's whole duration — the
//! round-trip latency of the Prometheus-exposition path *under job load*,
//! reported as the `dashboard` section of the JSON document.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dipe_serve::{CachePath, Client, JobSpec, Server, ServerConfig};
use telemetry::Json;

/// Storm shape.
#[derive(Debug, Clone)]
pub struct ServiceBenchOptions {
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs each client submits (serially, waiting for each result).
    pub jobs_per_client: usize,
    /// Benchmark circuits cycled through by consecutive jobs.
    pub circuits: Vec<String>,
    /// Base RNG seed; job `k` of every client uses `seed + k % streams`, so
    /// the storm revisits `streams` distinct sampling streams.
    pub seed: u64,
    /// Distinct (circuit, seed) streams before jobs start repeating.
    pub streams: usize,
    /// Worker permits of the server under test.
    pub workers: usize,
    /// Cycles per scheduling slice of the server under test.
    pub slice_cycles: u64,
    /// Convergence target of every job.
    pub relative_error: f64,
    /// Confidence of every job.
    pub confidence: f64,
}

impl Default for ServiceBenchOptions {
    fn default() -> Self {
        ServiceBenchOptions {
            clients: 4,
            jobs_per_client: 8,
            circuits: vec!["s27".into(), "s298".into()],
            seed: 1997,
            streams: 4,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            slice_cycles: 5_000,
            relative_error: 0.10,
            confidence: 0.95,
        }
    }
}

/// One completed job's measurement.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// Circuit the job estimated.
    pub circuit: String,
    /// Which cache tier served the job.
    pub cache: CachePath,
    /// Client-observed latency (submit to result event), seconds.
    pub latency_seconds: f64,
    /// Cycles the server actually simulated for this job.
    pub executed_cycles: u64,
}

/// Latency summary of one cache tier.
#[derive(Debug, Clone)]
pub struct TierSummary {
    /// Tier label (`cold`, `compiled`, `warm`).
    pub tier: String,
    /// Jobs served by this tier.
    pub count: usize,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub p95_ms: f64,
    /// Mean cycles actually executed per job on this tier.
    pub mean_executed_cycles: f64,
}

/// Round-trip latency of the `metrics` RPC polled concurrently with the
/// storm (the live-dashboard path).
#[derive(Debug, Clone)]
pub struct DashboardSummary {
    /// `metrics` RPC round trips completed while the storm ran.
    pub polls: usize,
    /// Mean round-trip latency, milliseconds.
    pub mean_ms: f64,
    /// Median round-trip latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile round-trip latency, milliseconds.
    pub p95_ms: f64,
}

/// The storm's aggregate report.
#[derive(Debug, Clone)]
pub struct ServiceBenchReport {
    /// Storm shape, echoed for reproducibility.
    pub options: ServiceBenchOptions,
    /// Total jobs completed (= clients × jobs_per_client).
    pub total_jobs: usize,
    /// Wall-clock seconds of the whole storm.
    pub elapsed_seconds: f64,
    /// Completed jobs per wall-clock second.
    pub jobs_per_sec: f64,
    /// Overall p50 latency, milliseconds.
    pub p50_ms: f64,
    /// Overall p95 latency, milliseconds.
    pub p95_ms: f64,
    /// Per-tier latency split.
    pub tiers: Vec<TierSummary>,
    /// `metrics`-RPC latency under load.
    pub dashboard: DashboardSummary,
    /// Every job measurement (for the JSON document's raw section).
    pub samples: Vec<JobSample>,
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

fn summarise(tier: &str, samples: &[&JobSample]) -> TierSummary {
    let mut ms: Vec<f64> = samples.iter().map(|s| s.latency_seconds * 1e3).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    TierSummary {
        tier: tier.to_string(),
        count: samples.len(),
        mean_ms: mean(&ms),
        p50_ms: percentile(&ms, 0.50),
        p95_ms: percentile(&ms, 0.95),
        mean_executed_cycles: mean(
            &samples
                .iter()
                .map(|s| s.executed_cycles as f64)
                .collect::<Vec<f64>>(),
        ),
    }
}

/// Runs the storm against a fresh in-process server and aggregates the
/// report.
///
/// # Panics
///
/// Panics if the server cannot bind or any job fails: the storm is a
/// benchmark of the happy path, and a failure means the service is broken.
pub fn run_service_storm(options: &ServiceBenchOptions) -> ServiceBenchReport {
    let server = Server::bind(
        ("127.0.0.1", 0),
        ServerConfig {
            workers: options.workers,
            slice_cycles: options.slice_cycles,
            checkpoint_dir: std::env::temp_dir().join("dipe-serve-bench"),
            idle_timeout_seconds: 0.0,
            quiet: true,
        },
    )
    .expect("bind benchmark server");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Dashboard poller: hammer the metrics RPC for the storm's duration so
    // the exposition path is measured while workers and the job table are
    // actually busy.
    let stop_polling = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop_polling);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect dashboard poller");
            let mut polls_ms = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let poll_started = Instant::now();
                let text = client.metrics().expect("metrics poll");
                assert!(
                    text.contains("dipe_serve_jobs_submitted_total"),
                    "metrics exposition missing its counters"
                );
                polls_ms.push(poll_started.elapsed().as_secs_f64() * 1e3);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            polls_ms
        })
    };

    let streams = options.streams.max(1);
    let next_stream = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..options.clients.max(1) {
        let options = options.clone();
        let next_stream = Arc::clone(&next_stream);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect storm client");
            let mut samples = Vec::with_capacity(options.jobs_per_client);
            for _ in 0..options.jobs_per_client {
                // A global ticket makes the stream sequence deterministic in
                // aggregate while clients interleave freely.
                let ticket = next_stream.fetch_add(1, Ordering::Relaxed) % streams as u64;
                let circuit = &options.circuits[ticket as usize % options.circuits.len()];
                let spec = JobSpec::named(circuit)
                    .with_seed(options.seed + ticket)
                    .with_accuracy(options.relative_error, options.confidence);
                let submitted = Instant::now();
                let job_id = client.submit(&spec).expect("submit storm job");
                let result = client.wait_result(job_id).expect("storm job result");
                samples.push(JobSample {
                    circuit: circuit.clone(),
                    cache: result.cache,
                    latency_seconds: submitted.elapsed().as_secs_f64(),
                    executed_cycles: result.executed_cycles,
                });
            }
            samples
        }));
    }
    let mut samples: Vec<JobSample> = Vec::new();
    for thread in threads {
        samples.extend(thread.join().expect("storm client thread"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    stop_polling.store(true, Ordering::Relaxed);
    let mut polls_ms = poller.join().expect("dashboard poller thread");

    let mut shutdown_client = Client::connect(addr).expect("connect for shutdown");
    shutdown_client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread");

    let mut all_ms: Vec<f64> = samples.iter().map(|s| s.latency_seconds * 1e3).collect();
    all_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let tiers = [CachePath::Cold, CachePath::Compiled, CachePath::Warm]
        .iter()
        .map(|&tier| {
            summarise(
                tier.label(),
                &samples
                    .iter()
                    .filter(|s| s.cache == tier)
                    .collect::<Vec<_>>(),
            )
        })
        .filter(|summary| summary.count > 0)
        .collect();
    let dashboard = {
        let polls = polls_ms.len();
        let mean = if polls == 0 {
            0.0
        } else {
            polls_ms.iter().sum::<f64>() / polls as f64
        };
        polls_ms.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        DashboardSummary {
            polls,
            mean_ms: mean,
            p50_ms: percentile(&polls_ms, 0.50),
            p95_ms: percentile(&polls_ms, 0.95),
        }
    };
    ServiceBenchReport {
        options: options.clone(),
        total_jobs: samples.len(),
        elapsed_seconds: elapsed,
        jobs_per_sec: samples.len() as f64 / elapsed.max(1e-12),
        p50_ms: percentile(&all_ms, 0.50),
        p95_ms: percentile(&all_ms, 0.95),
        tiers,
        dashboard,
        samples,
    }
}

const WORKLOAD: &str = "dipe-serve client storm: concurrent clients submitting total-power \
                        jobs over TCP, latency split by which cache tier served each job";

const NOTES: &str = "latency is client-observed (submit to result event) over a loopback \
     socket; warm-tier jobs skip parse+compile and warm-up+interval selection, visible in \
     mean_executed_cycles. Throughput is bounded by host_cpus and the server's worker permits. \
     The dashboard section is the round-trip latency of the metrics RPC (Prometheus \
     exposition) polled concurrently with the storm.";

/// Serialises the report as the `BENCH_service.json` document.
pub fn to_json(report: &ServiceBenchReport) -> String {
    let options = &report.options;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dashboard = &report.dashboard;
    let tiers = report
        .tiers
        .iter()
        .map(|tier| {
            Json::obj(vec![
                ("tier", Json::str(tier.tier.as_str())),
                ("jobs", Json::usize(tier.count)),
                ("mean_ms", Json::f64(tier.mean_ms)),
                ("p50_ms", Json::f64(tier.p50_ms)),
                ("p95_ms", Json::f64(tier.p95_ms)),
                ("mean_executed_cycles", Json::f64(tier.mean_executed_cycles)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("benchmark", Json::str("service")),
        ("workload", Json::str(WORKLOAD)),
        ("host_cpus", Json::usize(host_cpus)),
        ("clients", Json::usize(options.clients)),
        ("jobs_per_client", Json::usize(options.jobs_per_client)),
        ("streams", Json::usize(options.streams)),
        ("workers", Json::usize(options.workers)),
        ("slice_cycles", Json::u64(options.slice_cycles)),
        ("seed", Json::u64(options.seed)),
        ("relative_error", Json::f64(options.relative_error)),
        ("confidence", Json::f64(options.confidence)),
        ("total_jobs", Json::usize(report.total_jobs)),
        ("elapsed_seconds", Json::f64(report.elapsed_seconds)),
        ("jobs_per_sec", Json::f64(report.jobs_per_sec)),
        ("p50_ms", Json::f64(report.p50_ms)),
        ("p95_ms", Json::f64(report.p95_ms)),
        (
            "dashboard",
            Json::obj(vec![
                ("rpc", Json::str("metrics")),
                ("polls", Json::usize(dashboard.polls)),
                ("mean_ms", Json::f64(dashboard.mean_ms)),
                ("p50_ms", Json::f64(dashboard.p50_ms)),
                ("p95_ms", Json::f64(dashboard.p95_ms)),
            ]),
        ),
        ("cache_tiers", Json::Arr(tiers)),
        ("notes", Json::str(NOTES)),
    ])
    .to_pretty()
}

/// Formats the report for the binary's stdout.
pub fn format_report(report: &ServiceBenchReport) -> dipe::report::TextTable {
    let mut table = dipe::report::TextTable::new(&[
        "Tier",
        "Jobs",
        "Mean (ms)",
        "p50 (ms)",
        "p95 (ms)",
        "Exec cycles",
    ]);
    for tier in &report.tiers {
        table.add_row(&[
            tier.tier.clone(),
            tier.count.to_string(),
            format!("{:.2}", tier.mean_ms),
            format!("{:.2}", tier.p50_ms),
            format!("{:.2}", tier.p95_ms),
            format!("{:.0}", tier.mean_executed_cycles),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_storm_completes_and_hits_the_warm_tier() {
        let options = ServiceBenchOptions {
            clients: 2,
            jobs_per_client: 4,
            circuits: vec!["s27".into()],
            streams: 2,
            workers: 2,
            slice_cycles: 2_000,
            relative_error: 0.15,
            confidence: 0.90,
            seed: 7,
        };
        let report = run_service_storm(&options);
        assert_eq!(report.total_jobs, 8);
        assert!(report.jobs_per_sec > 0.0);
        assert!(report.p95_ms >= report.p50_ms);
        // 2 streams × 8 jobs: at most the first job of each stream is cold;
        // repeats must land on a cache tier.
        let warm_jobs: usize = report
            .tiers
            .iter()
            .filter(|t| t.tier == "warm")
            .map(|t| t.count)
            .sum();
        assert!(
            warm_jobs >= 4,
            "expected warm hits, tiers: {:?}",
            report.tiers
        );
        // The dashboard poller runs for the storm's whole duration, so it
        // must land at least one metrics round trip.
        assert!(report.dashboard.polls > 0);
        assert!(report.dashboard.p95_ms >= report.dashboard.p50_ms);
        let json = to_json(&report);
        assert!(json.contains("\"benchmark\": \"service\""));
        assert!(json.contains("\"cache_tiers\""));
        assert!(json.contains("\"tier\": \"warm\""));
        let document = Json::parse(&json).expect("the report parses");
        let dashboard = document.get("dashboard").expect("dashboard object");
        assert_eq!(dashboard.get("rpc").and_then(Json::as_str), Some("metrics"));
        assert!(format_report(&report).render().contains("p95"));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let ms = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&ms, 0.50), 3.0);
        assert_eq!(percentile(&ms, 0.95), 100.0);
        assert_eq!(percentile(&[], 0.95), 0.0);
    }
}
