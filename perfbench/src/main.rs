//! End-to-end pipeline benchmark with outside-in per-layer attribution.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload s298-tight --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload` names one of the four workloads (or `all`). Each job is one
//! estimate from netlist load to the returned `Estimate`, run in a fresh
//! child process of this binary so its peak resident memory is its own.
//! Jobs cycle over seeds derived from `--seed` until `--seconds` is spent.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` pairs untraced
//! jobs with traced ones (spans plus the replay harness) and reports the
//! per-layer metrics. The last line of standard output is one JSON object; a
//! human-readable table goes to standard error. See `README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod jobs;
mod replay;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use dipe_serve::Json;

use jobs::{JobReport, Workload};

/// Working files (generated netlists, span dumps), relative to the current
/// directory.
const WORK_DIR: &str = ".perfbench";
/// Set-up-only processes after each untraced job. A set-up of a catalogue
/// circuit takes ~0.1 ms and comes out fast or ~1.7x slower depending on the
/// process, and processes started back to back tend to agree, so `setup_s`
/// averages over processes spread across the run, between the jobs.
const SETUP_PROCESSES_PER_JOB: usize = 2;

const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("measured_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The unit of a per-layer metric, from its name.
fn layer_unit(name: &str) -> &'static str {
    match name {
        "trace_overhead" | "pipeline_efficiency" | "remote.wait_share" => "ratio",
        "dipe.interval" => "cycles",
        n if n.ends_with("_per_s") => "1/s",
        n if n.ends_with("_ms") => "ms",
        n if n.ends_with("_s") => "s",
        _ => "count",
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: run one job and print its report.
    job: Option<u32>,
    traced: bool,
    /// Child mode: time the job's set-up alone, repeatedly.
    setup_only: bool,
    input: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        job: None,
        traced: false,
        setup_only: false,
        input: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            "--job" => args.job = Some(value()?.parse().map_err(|e| format!("--job: {e}"))?),
            "--traced" => args.traced = true,
            "--setup-only" => args.setup_only = true,
            "--input" => args.input = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "usage: perfbench --workload <{}|all> --seed N --seconds S --trace 0|1",
            Workload::ALL.map(Workload::name).join("|")
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or(format!("unknown workload `{name}`"))
}

/// Child mode: one job's report, or its repeated set-up times, as the last
/// stdout line.
fn child(args: &Args, job: u32) -> Result<(), String> {
    let workload = workload(&args.workload)?;
    let input = args.input.as_deref();
    let value = if args.setup_only {
        let times = jobs::repeat_setup(workload, args.seed, input)?;
        Json::Arr(times.into_iter().map(Json::f64).collect())
    } else {
        let spans = Path::new(WORK_DIR)
            .join("spans")
            .join(format!("{}.tsv", workload.name()));
        let traced = args.traced.then_some((job, spans.as_path()));
        jobs::run_job(workload, args.seed, input, traced)?.to_json()
    };
    println!("{}", value.to_line());
    Ok(())
}

/// Runs a child process of this binary for one job of `workload` and waits
/// for it; returns the JSON value it printed last.
fn spawn_child(
    workload: Workload,
    seed: u64,
    job: u32,
    mode: Option<&str>,
    input: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
        "--job",
        &job.to_string(),
    ]);
    command.args(mode);
    if let Some(input) = input {
        command.arg("--input").arg(input);
    }
    let output = command.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("job {job} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("job {job} printed nothing"))?;
    Json::parse(line).map_err(|e| format!("job {job}: {e}"))
}

fn spawn_job(
    workload: Workload,
    seed: u64,
    job: u32,
    traced: bool,
    input: Option<&Path>,
) -> Result<JobReport, String> {
    let mode = traced.then_some("--traced");
    let value = spawn_child(workload, seed, job, mode, input)?;
    JobReport::from_json(&value).map_err(|key| format!("job {job}: bad report field {key}"))
}

/// The median set-up time of a fresh process that does nothing else, so it
/// does not depend on what a job left behind in the allocator.
fn spawn_setup(workload: Workload, seed: u64, input: Option<&Path>) -> Result<f64, String> {
    let value = spawn_child(workload, seed, 0, Some("--setup-only"), input)?;
    let mut times: Vec<f64> = value
        .as_arr()
        .and_then(|times| times.iter().map(Json::as_f64).collect())
        .ok_or("set-up child printed no times".to_string())?;
    Ok(median(&mut times))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

/// One finished job: which of the run's seeds it ran (by index), whether it
/// was traced, and its report.
struct Job {
    seed_index: usize,
    traced: bool,
    result: Result<JobReport, String>,
}

/// Median of `f` over jobs.
fn median_of(jobs: &[&JobReport], f: impl Fn(&JobReport) -> f64) -> f64 {
    median(&mut jobs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Runs jobs of one workload for `seconds`, checks them, and aggregates.
///
/// The run's seeds are derived from `seed` and visited round-robin, every
/// seed at least once and one of them twice, so repeats can be compared; a
/// traced run pairs every traced job with an untraced one of the same seed.
fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let work = Path::new(WORK_DIR);
    for sub in ["inputs", "spans"] {
        std::fs::create_dir_all(work.join(sub)).map_err(|e| e.to_string())?;
    }
    let seeds = workload.run_seeds(seed);
    let mut inputs = Vec::with_capacity(seeds.len());
    let mut references = Vec::with_capacity(seeds.len());
    for &s in &seeds {
        inputs.push(workload.prepare_input(s, &work.join("inputs"))?);
        references.push(workload.reference_bits(s)?);
    }

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut longest = Duration::ZERO;
    let mut jobs: Vec<Job> = Vec::new();
    let mut setups = Vec::new();
    loop {
        let index = jobs.len();
        let (k, traced) = if trace {
            ((index / 2) % seeds.len(), index % 2 == 1)
        } else {
            (index % seeds.len(), false)
        };
        let job_started = Instant::now();
        let result = spawn_job(
            workload,
            seeds[k],
            index as u32,
            traced,
            inputs[k].as_deref(),
        );
        longest = longest.max(job_started.elapsed());
        if !traced {
            for _ in 0..SETUP_PROCESSES_PER_JOB {
                setups.push(spawn_setup(workload, seeds[k], inputs[k].as_deref())?);
            }
        }
        jobs.push(Job {
            seed_index: k,
            traced,
            result,
        });
        let enough = if trace {
            jobs.len().is_multiple_of(2)
        } else {
            jobs.len() > seeds.len()
        };
        if enough && started.elapsed() + longest > budget {
            break;
        }
    }
    for path in inputs.iter().flatten() {
        std::fs::remove_file(path).map_err(|e| e.to_string())?;
    }

    // Repeats of one (workload, seed) must agree bit for bit, traced or not,
    // and with the independent reference where there is one.
    let key = |r: &JobReport| {
        (
            r.mean_power_w_bits,
            r.samples,
            r.zero_delay_cycles,
            r.measured_cycles,
        )
    };
    let firsts: Vec<Option<_>> = (0..seeds.len())
        .map(|k| {
            jobs.iter()
                .filter(|job| job.seed_index == k)
                .find_map(|job| job.result.as_ref().ok().map(key))
        })
        .collect();
    let mut failed = 0;
    let mut good: Vec<(usize, bool, JobReport)> = Vec::new();
    for (index, job) in jobs.into_iter().enumerate() {
        let mut errors = match &job.result {
            Ok(report) => report.errors.clone(),
            Err(message) => vec![message.clone()],
        };
        if let Ok(report) = &job.result {
            if firsts[job.seed_index] != Some(key(report)) {
                errors.push("differs from the first job of its seed".to_string());
            }
            if references[job.seed_index].is_some_and(|bits| bits != report.mean_power_w_bits) {
                errors.push("differs from the in-process sharded reference".to_string());
            }
        }
        if errors.is_empty() {
            good.extend(
                job.result
                    .ok()
                    .map(|report| (job.seed_index, job.traced, report)),
            );
        } else {
            failed += 1;
            for error in errors {
                eprintln!("{} job {index}: {error}", workload.name());
            }
        }
    }
    let attempted = failed + good.len();
    let walls: Vec<String> = good
        .iter()
        .map(|(k, traced, r)| format!("{k}:{:.3}{}", r.wall_s, if *traced { "t" } else { "" }))
        .collect();
    eprintln!(
        "{} job wall_s (seed:wall): {}",
        workload.name(),
        walls.join(" ")
    );
    let by_seed = |traced: bool| -> Vec<Vec<&JobReport>> {
        (0..seeds.len())
            .map(|k| {
                good.iter()
                    .filter(|(s, t, _)| *s == k && *t == traced)
                    .map(|(_, _, r)| r)
                    .collect()
            })
            .collect()
    };
    let (untraced, traced) = (by_seed(false), by_seed(true));
    let mut metrics = Vec::new();
    if trace {
        let traced_jobs: Vec<&JobReport> = traced.iter().flatten().copied().collect();
        if let Some(first) = traced_jobs.first() {
            for (name, _) in &first.layers {
                let mut values: Vec<f64> = traced_jobs
                    .iter()
                    .filter_map(|r| r.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                    .collect();
                metrics.push((name.clone(), median(&mut values), layer_unit(name)));
            }
            let mut ratios: Vec<f64> = traced
                .iter()
                .zip(&untraced)
                .filter(|(t, u)| !t.is_empty() && !u.is_empty())
                .map(|(t, u)| median_of(t, |r| r.wall_s) / median_of(u, |r| r.wall_s))
                .collect();
            metrics.push(("trace_overhead".to_string(), median(&mut ratios), "ratio"));
        }
    } else if untraced.iter().any(|jobs| !jobs.is_empty()) {
        let untraced: Vec<&JobReport> = untraced.iter().flatten().copied().collect();
        let values = [
            median_of(&untraced, |r| r.wall_s),
            setups.iter().sum::<f64>() / setups.len() as f64,
            median_of(&untraced, |r| {
                r.measured_cycles as f64 / (r.wall_s - r.setup_s)
            }),
            median_of(&untraced, |r| r.peak_rss_mb),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj(vec![
                        ("value", Json::f64(*value)),
                        ("unit", Json::str(*unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_table(workload: Workload, outcome: &Outcome) {
    eprintln!(
        "{} ({} jobs, {} failed)",
        workload.name(),
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<42} {value:>16.6} {unit}");
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    eprintln!("  {:<42} {fail_ratio:>16.6} ratio", "fail_ratio");
}

fn orchestrate(args: &Args) -> Result<(), String> {
    let workloads = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![workload(&args.workload)?]
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for &workload in &workloads {
        let outcome = run_workload(workload, args.seed, args.seconds, args.trace)?;
        print_table(workload, &outcome);
        if outcome.metrics.is_empty() {
            return Err(format!("{}: no job succeeded", workload.name()));
        }
        attempted += outcome.attempted;
        failed += outcome.failed;
        let prefix = if workloads.len() > 1 {
            format!("{}.", workload.name())
        } else {
            String::new()
        };
        metrics.extend(
            outcome
                .metrics
                .into_iter()
                .map(|(name, value, unit)| (format!("{prefix}{name}"), value, unit)),
        );
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::usize(attempted)),
        ("failed", Json::usize(failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", result.to_line());
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.job {
        Some(job) => child(&args, job),
        None => orchestrate(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
