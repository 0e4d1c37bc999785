//! The four workloads and one job of each: an untraced run that yields the
//! end-to-end numbers, or a traced run with outside-in spans followed by the
//! replay harness that yields the per-layer numbers.

use std::hint::black_box;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use activity::{BreakdownEstimator, ConvergenceTarget};
use dipe::input::InputModel;
use dipe::remote::FaultPlan;
use dipe::{
    run_to_completion, CycleBudget, Diagnostics, DipeConfig, DipeEstimator, Estimate,
    EstimationSession, IndependenceSelection, PowerEstimator, Progress, SessionPhase,
    ShardedDipeEstimator,
};
use dipe_serve::coordinator::run_remote_total;
use dipe_serve::{CircuitRef, CoordinatorConfig, JobSpec, Json, RemoteOutcome};
use netlist::generator::{generate_tiled, TiledConfig};
use netlist::{iscas89, Circuit, DelayModel, FileSource, NetlistSource};
use seqstats::NodeStoppingPolicy;

use crate::replay::{self, RunRecord, STEP_CYCLES};
use crate::trace::Recorder;

/// Seed streams of the sharded and remote workloads (the CLI default on a
/// 2-CPU host, fixed so the work does not depend on the host).
const STREAMS: usize = 2;
/// Gate count of the generated tile circuit.
const TILE_GATES: usize = 100_000;
/// Relative tolerance between a breakdown's capacitance-weighted total and
/// the session estimate (they differ only by floating-point association).
const BREAKDOWN_TOLERANCE: f64 = 1e-12;
/// Most set-up repetitions in one set-up-only process, and their time budget.
const SETUP_REPEATS: usize = 5;
const SETUP_REPEAT_BUDGET: Duration = Duration::from_millis(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    S298Tight,
    S1494Breakdown,
    Tile100k,
    S298Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::S298Tight,
        Workload::S1494Breakdown,
        Workload::Tile100k,
        Workload::S298Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::S298Tight => "s298-tight",
            Workload::S1494Breakdown => "s1494-breakdown",
            Workload::Tile100k => "tile-100k",
            Workload::S298Fleet => "s298-fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seeds one run of the benchmark estimates with, derived from its
    /// `--seed`. The selected interval and the sample size vary from seed to
    /// seed, and with them the work of a job (by up to ~20 %), so a run takes
    /// its medians over several seeds. `tile-100k` jobs take 6–20 s, so it
    /// runs one.
    pub fn run_seeds(self, seed: u64) -> Vec<u64> {
        let count: u64 = if self == Workload::Tile100k { 1 } else { 6 };
        (0..count)
            .map(|k| seed.wrapping_mul(count).wrapping_add(k))
            .collect()
    }

    fn config(self, seed: u64) -> DipeConfig {
        let (delay_model, relative_error) = match self {
            Workload::S298Tight => (DelayModel::Zero, 0.003),
            // The per-node policy decides; the total-power target stays at
            // the CLI default.
            Workload::S1494Breakdown => (DelayModel::default(), 0.05),
            Workload::Tile100k => (DelayModel::Unit(100), 0.05),
            Workload::S298Fleet => return fleet_spec(seed).config(),
        };
        DipeConfig::default()
            .with_seed(seed)
            .with_accuracy(relative_error, 0.99)
            .with_delay_model(delay_model)
    }

    fn estimator(self, config: &DipeConfig) -> Box<dyn PowerEstimator> {
        match self {
            Workload::S298Tight | Workload::Tile100k => Box::new(DipeEstimator::new()),
            Workload::S1494Breakdown => Box::new(
                BreakdownEstimator::new(node_policy(config), ConvergenceTarget::NodeBreakdown)
                    .sharded(STREAMS),
            ),
            Workload::S298Fleet => Box::new(ShardedDipeEstimator::new(STREAMS)),
        }
    }

    /// Writes the inputs a job reads (the tile netlist) and returns its path.
    pub fn prepare_input(self, seed: u64, dir: &Path) -> Result<Option<PathBuf>, String> {
        if self != Workload::Tile100k {
            return Ok(None);
        }
        let circuit = generate_tiled(&TiledConfig::new("tile100k", TILE_GATES).with_seed(seed))
            .map_err(|e| e.to_string())?;
        let path = dir.join(format!("tile-100k-{seed}.blif"));
        netlist::blif::write_file(&circuit, &path).map_err(|e| e.to_string())?;
        Ok(Some(path))
    }

    /// The `mean_power_w_bits` every job must reproduce, where an independent
    /// reference exists: the fleet's in-process `ShardedDipeEstimator` twin.
    pub fn reference_bits(self, seed: u64) -> Result<Option<u64>, String> {
        if self != Workload::S298Fleet {
            return Ok(None);
        }
        let spec = fleet_spec(seed);
        let circuit = spec.circuit.load().map_err(|e| e.to_string())?;
        let session = self
            .estimator(&spec.config())
            .start(&circuit, &spec.config(), &InputModel::uniform(), 0)
            .map_err(|e| e.to_string())?;
        let estimate = run_to_completion(session).map_err(|e| e.to_string())?;
        Ok(Some(estimate.mean_power_w.to_bits()))
    }

    fn load(self, input: Option<&Path>) -> Result<Circuit, String> {
        match self {
            Workload::S298Tight | Workload::S298Fleet => iscas89::load("s298"),
            Workload::S1494Breakdown => iscas89::load("s1494"),
            Workload::Tile100k => {
                let path = input.ok_or("tile-100k needs its generated netlist")?;
                FileSource::new(path).and_then(|source| source.load())
            }
        }
        .map_err(|e| e.to_string())
    }
}

fn node_policy(config: &DipeConfig) -> NodeStoppingPolicy {
    let spec = NodeStoppingPolicy::default_spec();
    NodeStoppingPolicy::new(
        spec.relative_error(),
        spec.confidence(),
        spec.top_k(),
        0.005,
        config.min_samples,
    )
}

fn fleet_spec(seed: u64) -> JobSpec {
    JobSpec {
        circuit: CircuitRef::Named("s298".to_string()),
        input_model: "uniform".to_string(),
        delay_model: DelayModel::Zero,
        measure_mode: dipe::MeasureMode::Auto,
        relative_error: 0.02,
        confidence: 0.99,
        seed,
    }
}

/// The span a traced step is attributed to, by the phase it started in.
pub fn phase_span(phase: SessionPhase) -> &'static str {
    match phase {
        SessionPhase::Warmup => "dipe.warmup",
        SessionPhase::IntervalSelection => "dipe.select",
        _ => "dipe.sampling",
    }
}

/// What one job reports to the orchestrating process.
#[derive(Debug)]
pub struct JobReport {
    pub wall_s: f64,
    pub setup_s: f64,
    pub samples: u64,
    pub zero_delay_cycles: u64,
    pub measured_cycles: u64,
    pub mean_power_w_bits: u64,
    pub peak_rss_mb: f64,
    /// Failed correctness checks; empty for a good job.
    pub errors: Vec<String>,
    /// Per-layer metrics (traced jobs only), by name.
    pub layers: Vec<(String, f64)>,
}

impl JobReport {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("wall_s", Json::f64(self.wall_s)),
            ("setup_s", Json::f64(self.setup_s)),
            ("samples", Json::u64(self.samples)),
            ("zero_delay_cycles", Json::u64(self.zero_delay_cycles)),
            ("measured_cycles", Json::u64(self.measured_cycles)),
            ("mean_power_w_bits", Json::u64(self.mean_power_w_bits)),
            ("peak_rss_mb", Json::f64(self.peak_rss_mb)),
            (
                "errors",
                Json::Arr(self.errors.iter().cloned().map(Json::str).collect()),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::f64(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(value: &Json) -> Result<JobReport, String> {
        let num = |key: &str| value.get(key).and_then(Json::as_f64).ok_or(key.to_string());
        let int = |key: &str| value.get(key).and_then(Json::as_u64).ok_or(key.to_string());
        let errors = value
            .get("errors")
            .and_then(Json::as_arr)
            .ok_or("errors")?
            .iter()
            .map(|e| e.as_str().unwrap_or("?").to_string())
            .collect();
        let layers = match value.get("layers") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect(),
            _ => return Err("layers".to_string()),
        };
        Ok(JobReport {
            wall_s: num("wall_s")?,
            setup_s: num("setup_s")?,
            samples: int("samples")?,
            zero_delay_cycles: int("zero_delay_cycles")?,
            measured_cycles: int("measured_cycles")?,
            mean_power_w_bits: int("mean_power_w_bits")?,
            peak_rss_mb: num("peak_rss_mb")?,
            errors,
            layers,
        })
    }

    fn from_estimate(estimate: &Estimate, wall_s: f64, setup_s: f64) -> JobReport {
        JobReport {
            wall_s,
            setup_s,
            samples: estimate.sample_size as u64,
            zero_delay_cycles: estimate.cycle_counts.zero_delay_cycles,
            measured_cycles: estimate.cycle_counts.measured_cycles,
            mean_power_w_bits: estimate.mean_power_w.to_bits(),
            peak_rss_mb: 0.0,
            errors: Vec::new(),
            layers: Vec::new(),
        }
    }
}

/// The high-water resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The per-job correctness checks that need only the job's own estimate.
fn check_estimate(workload: Workload, config: &DipeConfig, estimate: &Estimate) -> Vec<String> {
    let mut errors = Vec::new();
    if workload == Workload::S1494Breakdown {
        let Some(node) = estimate.node_diagnostics() else {
            return vec!["breakdown job produced no breakdown".to_string()];
        };
        if !node.node_decision.satisfied {
            errors.push("breakdown finished without a satisfied node verdict".to_string());
        }
        let total = node.breakdown.total_power_w();
        let gap = (total - estimate.mean_power_w).abs() / estimate.mean_power_w;
        if gap.is_nan() || gap > BREAKDOWN_TOLERANCE {
            errors.push(format!("breakdown total is {gap:e} away from the estimate"));
        }
    } else {
        let rhw = estimate.relative_half_width.unwrap_or(f64::INFINITY);
        if rhw.is_nan() || rhw > config.relative_error {
            errors.push(format!(
                "rhw {rhw} above the target {}",
                config.relative_error
            ));
        }
        if estimate.sample_size < config.min_samples {
            errors.push(format!("only {} samples", estimate.sample_size));
        }
    }
    errors
}

fn selection_and_sample(estimate: &Estimate) -> Result<(&IndependenceSelection, &[f64]), String> {
    match &estimate.diagnostics {
        Diagnostics::Dipe {
            selection, sample, ..
        } => Ok((selection, sample)),
        Diagnostics::NodeBreakdown(node) => Ok((&node.selection, &node.sample)),
        _ => Err("the estimate carries no sample".to_string()),
    }
}

/// Runs one job of `workload` and reports it.
pub fn run_job(
    workload: Workload,
    seed: u64,
    input: Option<&Path>,
    traced: Option<(u32, &Path)>,
) -> Result<JobReport, String> {
    let config = workload.config(seed);
    let mut report = match (workload, traced) {
        (Workload::S298Fleet, None) => fleet_job(seed)?,
        (Workload::S298Fleet, Some((job, spans))) => traced_fleet_job(seed, job, spans)?,
        (_, None) => {
            let estimator = workload.estimator(&config);
            let started = Instant::now();
            let circuit = workload.load(input)?;
            let session = estimator
                .start(&circuit, &config, &InputModel::uniform(), 0)
                .map_err(|e| e.to_string())?;
            let setup_s = started.elapsed().as_secs_f64();
            let estimate = run_to_completion(session).map_err(|e| e.to_string())?;
            let wall_s = started.elapsed().as_secs_f64();
            let mut report = JobReport::from_estimate(&estimate, wall_s, setup_s);
            report.errors = check_estimate(workload, &config, &estimate);
            report
        }
        (_, Some((job, spans))) => traced_session_job(workload, &config, input, job, spans)?,
    };
    report.peak_rss_mb = peak_rss_mb();
    Ok(report)
}

/// The set-up calls of a job once more, timed the same way: netlist load and
/// `PowerEstimator::start`, or for the fleet the coordinator-side spec build
/// and load.
fn setup_once(
    workload: Workload,
    config: &DipeConfig,
    input: Option<&Path>,
) -> Result<f64, String> {
    let started = Instant::now();
    if workload == Workload::S298Fleet {
        black_box(fleet_setup(config.seed)?);
        return Ok(started.elapsed().as_secs_f64());
    }
    let circuit = workload.load(input)?;
    let session = workload
        .estimator(config)
        .start(&circuit, config, &InputModel::uniform(), 0)
        .map_err(|e| e.to_string())?;
    let setup_s = started.elapsed().as_secs_f64();
    drop(black_box(session));
    Ok(setup_s)
}

/// A job's set-up alone, repeated up to `SETUP_REPEATS` times within
/// `SETUP_REPEAT_BUDGET` (the first one in a process is the cold one).
pub fn repeat_setup(
    workload: Workload,
    seed: u64,
    input: Option<&Path>,
) -> Result<Vec<f64>, String> {
    let config = &workload.config(seed);
    let started = Instant::now();
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    while times.len() < SETUP_REPEATS && started.elapsed() < SETUP_REPEAT_BUDGET {
        times.push(setup_once(workload, config, input)?);
    }
    Ok(times)
}

/// Drives a session in `STEP_CYCLES` slices, one span per slice, named by
/// the phase the slice started in. The slice that finishes the session is
/// sampling: sharded sessions run their whole fan-out inside it.
fn step_traced(
    rec: &mut Recorder,
    session: &mut dyn EstimationSession,
) -> Result<Estimate, String> {
    let mut phase = SessionPhase::Warmup;
    loop {
        let start = rec.now();
        let progress = session
            .step(CycleBudget::cycles(STEP_CYCLES))
            .map_err(|e| e.to_string())?;
        let end = rec.now();
        match progress {
            Progress::Running { phase: next, .. } => {
                rec.record(phase_span(phase), start, end);
                phase = next;
            }
            Progress::Done(estimate) => {
                rec.record("dipe.sampling", start, end);
                return Ok(estimate);
            }
        }
    }
}

fn traced_session_job(
    workload: Workload,
    config: &DipeConfig,
    input: Option<&Path>,
    job: u32,
    spans: &Path,
) -> Result<JobReport, String> {
    let estimator = workload.estimator(config);
    let mut rec = Recorder::new(job);
    let root = rec.enter("job");
    let circuit = rec.time("netlist.load", || workload.load(input))?;
    let mut session = rec
        .time("dipe.start", || {
            estimator.start(&circuit, config, &InputModel::uniform(), 0)
        })
        .map_err(|e| e.to_string())?;
    let estimate = step_traced(&mut rec, session.as_mut())?;
    rec.exit(root);
    let wall_s = rec.seconds(root);
    let setup_s = rec.total("netlist.load") + rec.total("dipe.start");
    let mut report = JobReport::from_estimate(&estimate, wall_s, setup_s);
    report.errors = check_estimate(workload, config, &estimate);

    let breakdown = workload == Workload::S1494Breakdown;
    let (selection, sample) = selection_and_sample(&estimate)?;
    let run = RunRecord {
        circuit: &circuit,
        config,
        selection,
        warm: session
            .warm_checkpoint()
            .map(|checkpoint| checkpoint.sampler),
        sample,
        streams: if breakdown { STREAMS } else { 1 },
        node_policy: breakdown.then(|| node_policy(config)),
    };
    let replayed = replay::replay(&mut rec, &run)?;
    check_replay(&mut report, &replayed, &estimate, run.streams);
    let profile = estimate.sim_profile.unwrap_or(replayed.sim_profile);
    report.layers = layer_metrics(&rec, &circuit, &estimate, &replayed, profile, None);
    rec.write_tsv(spans).map_err(|e| e.to_string())?;
    Ok(report)
}

/// Records a replay that did not reproduce the run. A single-stream replay
/// covers the whole run, so its cycle counts must match the estimate's too.
fn check_replay(
    report: &mut JobReport,
    replayed: &replay::Replayed,
    estimate: &Estimate,
    streams: usize,
) {
    if replayed.mismatches > 0 {
        report.errors.push(format!(
            "replay differs from the run in {} values",
            replayed.mismatches
        ));
    }
    let counts = estimate.cycle_counts;
    if streams == 1
        && (replayed.zero_delay_cycles, replayed.measured_cycles)
            != (counts.zero_delay_cycles, counts.measured_cycles)
    {
        report
            .errors
            .push("replay simulated other cycle counts than the run".to_string());
    }
}

/// Starts the loopback worker the fleet jobs talk to. It serves for the rest
/// of the process's life: `run_worker` only returns on an injected kill, so
/// the thread ends when the one-job process exits.
fn start_worker() -> Result<String, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let endpoint = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    std::thread::spawn(move || run_worker_quietly(listener));
    Ok(endpoint)
}

fn run_worker_quietly(listener: TcpListener) {
    if let Err(message) = dipe_serve::run_worker(listener, &FaultPlan::default(), true) {
        eprintln!("loopback worker stopped: {message}");
    }
}

fn coordinator(endpoint: String) -> CoordinatorConfig {
    let mut config = CoordinatorConfig::new(vec![endpoint], STREAMS);
    config.quiet = true;
    config
}

fn fleet_checks(config: &DipeConfig, outcome: &RemoteOutcome) -> Vec<String> {
    let mut errors = check_estimate(Workload::S298Fleet, config, &outcome.estimate);
    let stats = &outcome.stats;
    if stats.fell_back_local || stats.workers_lost > 0 {
        errors.push("the loopback worker was lost".to_string());
    }
    errors
}

/// The coordinator-side set-up of a fleet job: spec build, validation and
/// netlist load.
fn fleet_setup(seed: u64) -> Result<(DipeConfig, Circuit), String> {
    let spec = fleet_spec(seed);
    spec.validate()?;
    let circuit = spec.circuit.load().map_err(|e| e.to_string())?;
    Ok((spec.config(), circuit))
}

fn fleet_job(seed: u64) -> Result<JobReport, String> {
    let endpoint = start_worker()?;
    // The coordinator loads and validates internally; its set-up is timed by
    // issuing the same calls just before the run.
    let started = Instant::now();
    let (config, _) = fleet_setup(seed)?;
    let setup_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let outcome = run_remote_total(
        &fleet_spec(seed),
        &coordinator(endpoint),
        &telemetry::Tracer::disabled(),
    )?;
    let wall_s = started.elapsed().as_secs_f64();
    let mut report = JobReport::from_estimate(&outcome.estimate, wall_s, setup_s);
    report.errors = fleet_checks(&config, &outcome);
    Ok(report)
}

fn traced_fleet_job(seed: u64, job: u32, spans: &Path) -> Result<JobReport, String> {
    let endpoint = start_worker()?;
    let mut rec = Recorder::new(job);
    let root = rec.enter("job");
    // `run_remote_total` cannot be stepped, so its set-up and serial front
    // are mirrored in spans first; `remote.run` then covers the whole call.
    let spec = fleet_spec(seed);
    let config = rec.time("dipe.start", || spec.validate().map(|()| spec.config()))?;
    let circuit = rec
        .time("netlist.load", || spec.circuit.load())
        .map_err(|e| e.to_string())?;
    let front_interval = replay::serial_front(&mut rec, &circuit, &config)?;
    let outcome = rec.time("remote.run", || {
        run_remote_total(
            &spec,
            &coordinator(endpoint),
            &telemetry::Tracer::disabled(),
        )
    })?;
    rec.exit(root);
    let wall_s = rec.seconds(root);
    let setup_s = rec.total("netlist.load") + rec.total("dipe.start");
    let estimate = &outcome.estimate;
    let mut report = JobReport::from_estimate(estimate, wall_s, setup_s);
    report.errors = fleet_checks(&config, &outcome);

    let (selection, sample) = selection_and_sample(estimate)?;
    if front_interval != selection.interval {
        report
            .errors
            .push("mirrored front selected another interval".to_string());
    }
    let run = RunRecord {
        circuit: &circuit,
        config: &config,
        selection,
        warm: None,
        sample,
        streams: STREAMS,
        node_policy: None,
    };
    let replayed = replay::replay(&mut rec, &run)?;
    check_replay(&mut report, &replayed, estimate, run.streams);
    let rounds = sample.len() / (config.block_size * STREAMS);
    let produced = replay::produce_blocks(
        &mut rec,
        &circuit,
        &config,
        replayed.stream0.clone(),
        selection.interval,
        STREAMS,
        rounds,
    )?;
    if produced
        .iter()
        .map(|p| p.to_bits())
        .ne(sample.iter().map(|p| p.to_bits()))
    {
        report
            .errors
            .push("in-process blocks differ from the remote sample".to_string());
    }
    report.layers = layer_metrics(
        &rec,
        &circuit,
        estimate,
        &replayed,
        replayed.sim_profile,
        Some(&outcome),
    );
    rec.write_tsv(spans).map_err(|e| e.to_string())?;
    Ok(report)
}

fn rate(count: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count / seconds
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced job (`trace_overhead` is added by the
/// orchestrator, which also has the untraced runs).
fn layer_metrics(
    rec: &Recorder,
    circuit: &Circuit,
    estimate: &Estimate,
    replayed: &replay::Replayed,
    profile: dipe::SimProfile,
    remote: Option<&RemoteOutcome>,
) -> Vec<(String, f64)> {
    let self_times = rec.self_times();
    let own = |name: &str| self_times.get(name).copied().unwrap_or(0.0);
    let wall_s = rec.total("job");
    let setup_s = rec.total("netlist.load") + rec.total("dipe.start");
    let eq1_s = rec.total("power.eq1");
    let decorrelate_s = rec.total("logicsim.decorrelate");
    // The sampler makes its own Eq. 1 call on the record the observer saw;
    // that call is the same work `power.eq1` times, so it is taken out too.
    let measure_s = (own("logicsim.measure") - eq1_s).max(0.0);
    let interval = estimate.independence_interval().unwrap_or(0);
    let mut metrics: Vec<(&str, f64)> = vec![
        ("netlist.load_s", rec.total("netlist.load")),
        ("netlist.gates", circuit.num_gates() as f64),
        ("netlist.nets", circuit.num_nets() as f64),
        ("dipe.start_s", rec.total("dipe.start")),
        ("dipe.warmup_s", rec.total("dipe.warmup")),
        ("dipe.select_s", rec.total("dipe.select")),
        (
            "dipe.sampling_s",
            rec.total("dipe.sampling") + rec.total("remote.run"),
        ),
        ("dipe.interval", interval as f64),
        ("dipe.samples", estimate.sample_size as f64),
        (
            "dipe.zero_delay_cycles",
            estimate.cycle_counts.zero_delay_cycles as f64,
        ),
        (
            "dipe.measured_cycles",
            estimate.cycle_counts.measured_cycles as f64,
        ),
        (
            "seqstats.runs_test_trials",
            rec.count("seqstats.runs_test") as f64,
        ),
        ("seqstats.runs_test_s", rec.total("seqstats.runs_test")),
        ("logicsim.decorrelate_s", decorrelate_s),
        (
            "logicsim.decorrelate_cycles_per_s",
            rate(replayed.zero_delay_cycles as f64, decorrelate_s),
        ),
        ("logicsim.measure_s", measure_s),
        (
            "logicsim.measure_cycles_per_s",
            rate(replayed.measured_cycles as f64, measure_s),
        ),
        ("logicsim.events_scheduled", profile.events_scheduled as f64),
        ("logicsim.events_cancelled", profile.events_cancelled as f64),
        (
            "logicsim.wheel_revolutions",
            profile.wheel_revolutions as f64,
        ),
        ("logicsim.inline_evals", profile.inline_evals as f64),
        ("logicsim.gather_evals", profile.gather_evals as f64),
        ("logicsim.levelized_cycles", profile.levelized_cycles as f64),
        ("logicsim.wheel_cycles", profile.wheel_cycles as f64),
        ("logicsim.tiles_settled", profile.tiles_settled as f64),
        (
            "logicsim.time_sliced_cycles",
            profile.time_sliced_cycles as f64,
        ),
        (
            "logicsim.time_sliced_word_evals",
            profile.time_sliced_word_evals as f64,
        ),
        (
            "logicsim.time_sliced_lane_events",
            profile.time_sliced_lane_events as f64,
        ),
        (
            "logicsim.time_sliced_lane_cancellations",
            profile.time_sliced_lane_cancellations as f64,
        ),
        ("power.eq1_s", eq1_s),
        ("seqstats.stop_eval_s", rec.total("seqstats.stop_eval")),
        (
            "seqstats.stop_evals",
            rec.count("seqstats.stop_eval") as f64,
        ),
        ("activity.accumulate_s", rec.total("activity.accumulate")),
        ("activity.node_eval_s", rec.total("activity.node_eval")),
        (
            "pipeline_efficiency",
            rate(decorrelate_s + measure_s, wall_s - setup_s),
        ),
        ("unattributed_s", own("job")),
    ];
    let mut produce_ms: Vec<f64> = rec.durations("remote.produce").map(|s| s * 1e3).collect();
    produce_ms.sort_by(f64::total_cmp);
    let compute_ms = if produce_ms.is_empty() {
        0.0
    } else {
        produce_ms.iter().sum::<f64>() / produce_ms.len() as f64
    };
    let (p50_ms, mean_ms) =
        remote
            .and_then(|outcome| outcome.workers.first())
            .map_or((0.0, 0.0), |worker| {
                (
                    worker.p50_block_ms.unwrap_or(0.0),
                    worker.mean_block_ms.unwrap_or(0.0),
                )
            });
    let stats = remote.map(|outcome| outcome.stats).unwrap_or_default();
    metrics.extend([
        ("remote.block_p50_ms", p50_ms),
        ("remote.block_mean_ms", mean_ms),
        ("remote.block_compute_ms", compute_ms),
        (
            "remote.wait_share",
            if mean_ms > 0.0 {
                1.0 - compute_ms / mean_ms
            } else {
                0.0
            },
        ),
        ("remote.blocks_consumed", stats.blocks_consumed as f64),
        ("remote.retries", stats.retries as f64),
        ("remote.timeouts", stats.timeouts as f64),
        ("remote.reassignments", stats.reassignments as f64),
        ("remote.duplicate_blocks", stats.duplicate_blocks as f64),
    ]);
    metrics
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}
