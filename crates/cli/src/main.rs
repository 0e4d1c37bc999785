//! `dipe` — command-line average-power estimation for sequential circuits.
//!
//! Loads an ISCAS'89 benchmark by name (or any `.bench`, `.blif`, `.aag` or
//! `.aig` netlist by path, dispatching on the extension) and runs the paper's
//! estimator:
//!
//! ```text
//! dipe s1494                         # total average power (DIPE)
//! dipe s1494 --lanes 16              # 16 replicated runs on the 64-lane backend
//! dipe s1494 --breakdown             # per-net activity + power, per-node stopping
//! dipe s1494 --breakdown --delay-model unit --json report.json
//! dipe path/to/custom.bench --breakdown --top 20 --delay-model random:7
//! dipe design.blif                   # BLIF by extension
//! dipe design.aig                    # binary AIGER
//! dipe exported.net --format aag     # extension override
//! ```
//!
//! `--delay-model` selects the gate delays of the measurement backend
//! (`zero`, `unit[:<ps>]`, `fanout` — the default — or `random:<seed>`).
//! The simulators follow from the input: decorrelation cycles run on the
//! partitioned zero-delay kernel for fanin-≤ 2 netlists of 64 or more gates
//! (AIGER input, generated tiles) and on the compiled one otherwise; a
//! single run measures each sample on the scalar event wheel; `--lanes`
//! replication measures on the 64-lane time-sliced word backend whenever
//! the annotation is slot-representable and on the event wheel per sampling
//! lane otherwise, and its summary names the backend that ran. The backends
//! of each pair are bit-identical, so no choice moves an estimate. Glitch
//! power (transitions that exist only because of unequal path delays) is
//! decomposed per net and reported in the breakdown tables, the
//! replicated-lane summary and the JSON export.
//!
//! `--breakdown` produces the spatial report: per-net switching activity with
//! confidence intervals, mapped through the load capacitances to per-net and
//! per-driver-class power, with the ranked hot spots printed and the full
//! per-net table exported as JSON via `--json`. Per-node convergence follows
//! the two-tier rule: maximum relative error over the top-K (power-ranked)
//! nets, an absolute activity floor for everything else.

use std::io::IsTerminal;
use std::process::ExitCode;
use std::sync::Arc;

use activity::{BreakdownEstimator, ConvergenceTarget};
use dipe::input::InputModel;
use dipe::report::TextTable;
use dipe::{
    run_replicated_dipe_with_glitch, CycleBudget, DipeConfig, DipeEstimator, Estimate,
    PowerEstimator, Progress, ShardedDipeEstimator,
};
use dipe_cli::breakdown::breakdown_json;
use dipe_serve::coordinator::run_remote_total;
use dipe_serve::{CircuitRef, CoordinatorConfig, JobSpec, RemoteOutcome};
use netlist::{iscas89, Circuit, DelayModel, FileSource, NetlistFormat, NetlistSource};
use seqstats::NodeStoppingPolicy;
use telemetry::{FileSink, Json, Tracer};

struct Options {
    circuit: String,
    format: Option<NetlistFormat>,
    /// Resolved in `parse_options`: `Some` when `circuit` is a file path,
    /// `None` when it names a catalogue benchmark.
    source: Option<FileSource>,
    breakdown: bool,
    target: ConvergenceTarget,
    delay_model: DelayModel,
    lanes: usize,
    /// `None` until `--shards` is given; resolved to the available
    /// parallelism at run time.
    shards: Option<usize>,
    /// `--workers host:port,...`: fan the sampling phase out to remote
    /// worker processes instead of local threads. Empty = local run.
    workers: Vec<String>,
    top: usize,
    seed: u64,
    relative_error: f64,
    confidence: f64,
    node_relative_error: f64,
    node_confidence: f64,
    top_k: usize,
    activity_floor: f64,
    json: Option<String>,
    /// `--trace FILE`: stream the estimation trace (JSON lines) to a file.
    trace: Option<String>,
    /// `--progress`: a single refreshing progress line on stderr. Only
    /// active when stderr is a terminal.
    progress: bool,
    quiet: bool,
}

impl Default for Options {
    fn default() -> Self {
        let node_default = NodeStoppingPolicy::default_spec();
        Options {
            circuit: String::new(),
            format: None,
            source: None,
            breakdown: false,
            target: ConvergenceTarget::NodeBreakdown,
            delay_model: DelayModel::default(),
            lanes: 1,
            shards: None,
            workers: Vec::new(),
            top: 10,
            seed: 1997,
            relative_error: 0.05,
            confidence: 0.99,
            node_relative_error: node_default.relative_error(),
            node_confidence: node_default.confidence(),
            top_k: node_default.top_k(),
            activity_floor: node_default.activity_floor(),
            json: None,
            trace: None,
            progress: false,
            quiet: false,
        }
    }
}

fn usage() -> String {
    "\
usage: dipe <circuit-name | netlist.{bench,blif,aag,aig}> [options]

input:
  a bare name loads the built-in ISCAS'89 catalogue; anything with a path
  separator or extension is read as a netlist file, dispatching on the
  extension (.bench, .blif, .aag, .aig)
  --format F              parse the file as F (bench|blif|aag|aig),
                          ignoring its extension

modes:
  (default)               total average power (the paper's DIPE estimator)
  --lanes N               N replicated total-power runs on the 64-lane backend
                          (measured time-sliced when the delay annotation is
                          slot-representable, else on the event-driven wheel)
  --breakdown             per-net activity + power breakdown
  --target node|total     breakdown convergence target (default: node)

simulation:
  --delay-model M         gate delays of the measurement backend:
                          zero         no delays: functional counts, no glitches
                          unit[:PS]    every gate PS picoseconds (default 100)
                          fanout       200 ps + 80 ps per fanout (the default)
                          random:SEED  per-gate uniform 60-340 ps from SEED
  --shards N              worker shards the sampling phase fans out to
                          (default: the available parallelism; 1 disables)
  --workers HOSTS         comma-separated `host:port` list of dipe-serve
                          --worker processes; the sampling phase fans out to
                          them over TCP (seed-stream count = --shards).
                          Bit-identical to the local run — worker loss,
                          reconnects and reassignment never change the
                          estimate. Falls back to local execution (with a
                          warning) when no worker is reachable

accuracy:
  --error E               total-power max relative error (default 0.05)
  --confidence C          total-power confidence (default 0.99)
  --node-error E          per-node max relative error over the top-K nets
  --node-confidence C     per-node confidence (default 0.95)
  --top-k K               nets held to the relative criterion (default 20)
  --activity-floor F      absolute half-width bound for quiet nets (default 0.05)

output:
  --top N                 hot spots to print (default 10)
  --json FILE             write the full machine-readable report
  --trace FILE            write the estimation trace (JSON lines: warm-up,
                          runs-test trials, per-block stopping evaluations,
                          shard merges) to FILE
  --progress              single refreshing progress line on stderr
                          (auto-disabled when stderr is not a terminal)
  --seed N                RNG seed (default 1997)
  --quiet                 suppress progress lines"
        .to_string()
}

fn parse_delay_model(value: &str) -> Result<DelayModel, String> {
    // The accepted vocabulary (and the per-gate delay cap) lives with the
    // model itself so the CLI and the `dipe-serve` job protocol stay in sync.
    DelayModel::parse(value).map_err(|e| format!("--delay-model: {e}"))
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut take_value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        let parse_f64 =
            |name: &str, v: String| v.parse::<f64>().map_err(|e| format!("{name}: {e}"));
        match arg.as_str() {
            "--breakdown" => options.breakdown = true,
            "--target" => {
                options.target = match take_value("--target")?.as_str() {
                    "node" => ConvergenceTarget::NodeBreakdown,
                    "total" => ConvergenceTarget::TotalPower,
                    other => return Err(format!("--target must be node|total, got `{other}`")),
                }
            }
            "--delay-model" => {
                options.delay_model = parse_delay_model(&take_value("--delay-model")?)?;
            }
            "--format" => {
                let value = take_value("--format")?;
                options.format = Some(NetlistFormat::from_extension(&value).ok_or_else(|| {
                    format!("--format must be bench|blif|aag|aig, got `{value}`")
                })?);
            }
            "--lanes" => {
                options.lanes = take_value("--lanes")?
                    .parse()
                    .map_err(|e| format!("--lanes: {e}"))?;
            }
            "--shards" => {
                options.shards = Some(
                    take_value("--shards")?
                        .parse()
                        .map_err(|e| format!("--shards: {e}"))?,
                );
            }
            "--workers" => {
                let value = take_value("--workers")?;
                options.workers = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if options.workers.is_empty() {
                    return Err("--workers requires at least one host:port".to_string());
                }
            }
            "--top" => {
                options.top = take_value("--top")?
                    .parse()
                    .map_err(|e| format!("--top: {e}"))?;
            }
            "--seed" => {
                options.seed = take_value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--error" => options.relative_error = parse_f64("--error", take_value("--error")?)?,
            "--confidence" => {
                options.confidence = parse_f64("--confidence", take_value("--confidence")?)?;
            }
            "--node-error" => {
                options.node_relative_error =
                    parse_f64("--node-error", take_value("--node-error")?)?;
            }
            "--node-confidence" => {
                options.node_confidence =
                    parse_f64("--node-confidence", take_value("--node-confidence")?)?;
            }
            "--top-k" => {
                options.top_k = take_value("--top-k")?
                    .parse()
                    .map_err(|e| format!("--top-k: {e}"))?;
            }
            "--activity-floor" => {
                options.activity_floor =
                    parse_f64("--activity-floor", take_value("--activity-floor")?)?;
            }
            "--json" => options.json = Some(take_value("--json")?),
            "--trace" => options.trace = Some(take_value("--trace")?),
            "--progress" => options.progress = true,
            "--quiet" => options.quiet = true,
            "--help" | "-h" => {
                // Requested help is not an error: usage on stdout, exit 0.
                println!("{}", usage());
                std::process::exit(0);
            }
            other if options.circuit.is_empty() && !other.starts_with('-') => {
                options.circuit = other.to_string();
            }
            other => return Err(format!("unknown argument `{other}` (see `dipe --help`)")),
        }
    }
    if options.circuit.is_empty() {
        return Err(usage());
    }
    // Resolve what the positional argument means. An explicit `--format`
    // always reads it as a file; a path separator or extension auto-detects
    // the format from the extension (an unknown one is a usage error, kept
    // to a single line); a bare name loads the built-in catalogue.
    options.source = if let Some(format) = options.format {
        Some(FileSource::with_format(&options.circuit, format))
    } else if options.circuit.contains('/') || options.circuit.contains('.') {
        Some(FileSource::new(&options.circuit).map_err(|e| e.to_string())?)
    } else {
        None
    };
    if options.lanes < 1 || options.lanes > 64 {
        return Err("--lanes must be in 1..=64".to_string());
    }
    if options.lanes > 1 && options.breakdown {
        return Err("--lanes applies to total-power mode only".to_string());
    }
    if options.lanes > 1 && options.json.is_some() {
        return Err("--json is not implemented for replicated (--lanes) runs".to_string());
    }
    if options.lanes > 1 && options.trace.is_some() {
        return Err("--trace is not implemented for replicated (--lanes) runs".to_string());
    }
    if let Some(shards) = options.shards {
        if !(1..=256).contains(&shards) {
            return Err("--shards must be in 1..=256".to_string());
        }
        if options.lanes > 1 {
            return Err(
                "--shards applies to single-run modes, not --lanes replication".to_string(),
            );
        }
    }
    if !options.workers.is_empty() {
        if options.breakdown {
            return Err("--workers applies to total-power mode, not --breakdown".to_string());
        }
        if options.lanes > 1 {
            return Err(
                "--workers applies to single-run modes, not --lanes replication".to_string(),
            );
        }
    }
    // Validate the accuracy specs here so a bad flag yields a clean usage
    // error instead of a configuration error (total power) or the policy
    // constructor's panic (per node).
    if !(options.relative_error > 0.0 && options.relative_error < 1.0) {
        return Err(format!(
            "--error must be in (0, 1), got {}",
            options.relative_error
        ));
    }
    if !(options.confidence > 0.0 && options.confidence < 1.0) {
        return Err(format!(
            "--confidence must be in (0, 1), got {}",
            options.confidence
        ));
    }
    if !(options.node_relative_error > 0.0 && options.node_relative_error < 1.0) {
        return Err(format!(
            "--node-error must be in (0, 1), got {}",
            options.node_relative_error
        ));
    }
    if !(options.node_confidence > 0.0 && options.node_confidence < 1.0) {
        return Err(format!(
            "--node-confidence must be in (0, 1), got {}",
            options.node_confidence
        ));
    }
    if options.top_k < 1 {
        return Err("--top-k must be at least 1".to_string());
    }
    if options.activity_floor.is_nan() || options.activity_floor <= 0.0 {
        return Err(format!(
            "--activity-floor must be positive, got {}",
            options.activity_floor
        ));
    }
    Ok(options)
}

/// Resolves `--shards`: an explicit value wins, otherwise one shard per
/// available CPU.
fn resolve_shards(options: &Options) -> usize {
    options
        .shards
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

fn load_circuit(options: &Options) -> Result<Circuit, netlist::NetlistError> {
    match &options.source {
        Some(file) => file.load(),
        None => iscas89::load(&options.circuit),
    }
}

/// Drives a session to completion, printing progress lines between steps.
///
/// `--trace` attaches a [`FileSink`] before the first step; attaching a
/// tracer never changes the estimate (the sessions' bit-exact determinism
/// contract), so traced and untraced runs report identical numbers.
fn run_session(
    estimator: &dyn PowerEstimator,
    circuit: &Circuit,
    config: &DipeConfig,
    options: &Options,
) -> Result<Estimate, String> {
    let mut session = estimator
        .start(circuit, config, &InputModel::uniform(), 0)
        .map_err(|e| e.to_string())?;
    let trace_sink = match &options.trace {
        Some(path) => {
            let sink =
                Arc::new(FileSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?);
            session.set_tracer(Tracer::to_sink(sink.clone()));
            Some((path.clone(), sink))
        }
        None => None,
    };
    // The refreshing one-liner only makes sense on an interactive stderr;
    // redirected runs fall back to the plain per-slice lines.
    let refresh = options.progress && std::io::stderr().is_terminal();
    let estimate = loop {
        match session.step(CycleBudget::cycles(250_000)).map_err(|e| {
            if refresh {
                eprintln!();
            }
            e.to_string()
        })? {
            Progress::Running {
                cycles_done,
                samples,
                current_rhw,
                phase,
            } => {
                let rhw = current_rhw
                    .map(|r| format!("{:.1} %", r * 100.0))
                    .unwrap_or_else(|| "-".to_string());
                if refresh {
                    eprint!(
                        "\r\x1b[2K  [{phase:?}] {cycles_done} cycles, {samples} samples, \
                         worst rhw {rhw}"
                    );
                    use std::io::Write as _;
                    let _ = std::io::stderr().flush();
                } else if !options.quiet {
                    eprintln!(
                        "  [{phase:?}] {cycles_done} cycles, {samples} samples, worst rhw {rhw}"
                    );
                }
            }
            Progress::Done(estimate) => break estimate,
        }
    };
    if refresh {
        eprintln!();
    }
    if let Some((path, sink)) = trace_sink {
        sink.flush().map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok(estimate)
}

fn print_estimate_summary(circuit: &Circuit, estimate: &Estimate, model: DelayModel) {
    println!("circuit {}: {}", circuit.name(), circuit.stats());
    println!("estimator: {}", estimate.estimator);
    println!("delay model: {}", delay_model_label(model));
    println!(
        "average power: {:.4} mW (relative CI half-width {})",
        estimate.mean_power_mw(),
        estimate
            .relative_half_width
            .map(|r| format!("{:.2} %", r * 100.0))
            .unwrap_or_else(|| "n/a".to_string())
    );
    if let Some(interval) = estimate.independence_interval() {
        println!("independence interval: {interval} cycles");
    }
    println!(
        "samples: {} ({} zero-delay + {} measured cycles, {:.2} s)",
        estimate.sample_size,
        estimate.cycle_counts.zero_delay_cycles,
        estimate.cycle_counts.measured_cycles,
        estimate.elapsed_seconds
    );
}

/// The members every `--json` report starts with, in report order. Numbers
/// follow the codec's one rule, so each decimal parses back to the bits its
/// `_bits` twin carries.
fn report_members(
    circuit: &Circuit,
    estimate: &Estimate,
    options: &Options,
) -> Vec<(&'static str, Json)> {
    let rhw = estimate.relative_half_width;
    let bits = |value: f64| Json::u64(value.to_bits());
    let interval = estimate
        .independence_interval()
        .map_or(Json::Null, Json::usize);
    let cycles = &estimate.cycle_counts;
    vec![
        ("circuit", Json::str(circuit.name())),
        ("estimator", Json::str(estimate.estimator.as_str())),
        ("delay_model", Json::str(options.delay_model.id())),
        ("seed", Json::u64(options.seed)),
        ("mean_power_w", Json::f64(estimate.mean_power_w)),
        ("mean_power_w_bits", bits(estimate.mean_power_w)),
        ("relative_half_width", rhw.map_or(Json::Null, Json::f64)),
        ("relative_half_width_bits", rhw.map_or(Json::Null, bits)),
        ("sample_size", Json::usize(estimate.sample_size)),
        ("independence_interval", interval),
        ("zero_delay_cycles", Json::u64(cycles.zero_delay_cycles)),
        ("measured_cycles", Json::u64(cycles.measured_cycles)),
        ("elapsed_seconds", Json::f64(estimate.elapsed_seconds)),
        ("sim_profile", sim_profile_json(estimate)),
    ]
}

/// The simulator's per-run dispatch/eval counters as a JSON object (`null`
/// when the session did not surface a profile). Wall-clock facts only: they
/// never feed back into the estimate.
fn sim_profile_json(estimate: &Estimate) -> Json {
    let Some(p) = &estimate.sim_profile else {
        return Json::Null;
    };
    let counters = [
        ("events_scheduled", p.events_scheduled),
        ("events_cancelled", p.events_cancelled),
        ("wheel_revolutions", p.wheel_revolutions),
        ("inline_evals", p.inline_evals),
        ("gather_evals", p.gather_evals),
        ("levelized_cycles", p.levelized_cycles),
        ("wheel_cycles", p.wheel_cycles),
        ("tiles_settled", p.tiles_settled),
        ("time_sliced_cycles", p.time_sliced_cycles),
        ("time_sliced_word_evals", p.time_sliced_word_evals),
        ("time_sliced_lane_events", p.time_sliced_lane_events),
        (
            "time_sliced_lane_cancellations",
            p.time_sliced_lane_cancellations,
        ),
    ];
    let members = counters.map(|(key, count)| (key, Json::u64(count)));
    Json::obj(members.to_vec())
}

/// Writes a `--json` report: one object of `members`, laid out for reading.
fn write_report(path: &str, members: Vec<(&str, Json)>) -> Result<(), String> {
    std::fs::write(path, Json::obj(members).to_pretty())
        .map_err(|e| format!("failed to write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn run_total(options: &Options, circuit: &Circuit, config: &DipeConfig) -> Result<(), String> {
    if options.lanes > 1 {
        return run_replicated(options, circuit, config);
    }
    if !options.workers.is_empty() {
        return run_distributed(options, circuit);
    }
    let shards = resolve_shards(options);
    let estimate = if shards > 1 {
        run_session(&ShardedDipeEstimator::new(shards), circuit, config, options)
    } else {
        run_session(&DipeEstimator::new(), circuit, config, options)
    }?;
    print_estimate_summary(circuit, &estimate, options.delay_model);
    if let Some(path) = &options.json {
        write_report(path, report_members(circuit, &estimate, options))?;
    }
    Ok(())
}

/// `--workers`: fan the sampling phase out to remote worker processes.
///
/// The coordinator owns warm-up, interval selection and the pooled stopping
/// rule; workers own the simulators. Sampling is keyed by *seed-stream
/// index* (one stream per `--shards` shard), never by worker identity, so
/// worker loss, reconnects and stream reassignment cannot change a single
/// bit of the estimate — it stays identical to the local `--shards` run.
fn run_distributed(options: &Options, circuit: &Circuit) -> Result<(), String> {
    let circuit_ref = match &options.source {
        None => CircuitRef::Named(options.circuit.clone()),
        Some(file) => {
            // Workers load the netlist themselves, so file-based circuits
            // ship inline as source text — which only the text formats can.
            if !file.format().is_text() {
                return Err(format!(
                    "--workers ships the netlist to the workers as inline text; \
                     the binary `{}` format cannot — convert to .aag or .bench first",
                    file.format().id()
                ));
            }
            let source = std::fs::read_to_string(file.path())
                .map_err(|e| format!("failed to read {}: {e}", file.path().display()))?;
            CircuitRef::Inline {
                name: circuit.name().to_string(),
                source,
                format: file.format(),
            }
        }
    };
    let spec = JobSpec {
        circuit: circuit_ref,
        delay_model: options.delay_model,
        ..JobSpec::named("")
    }
    .with_accuracy(options.relative_error, options.confidence)
    .with_seed(options.seed);
    let streams = resolve_shards(options);
    let mut remote = CoordinatorConfig::new(options.workers.clone(), streams);
    remote.quiet = options.quiet;
    let trace_sink = match &options.trace {
        Some(path) => Some((
            path.clone(),
            Arc::new(FileSink::create(path).map_err(|e| format!("--trace {path}: {e}"))?),
        )),
        None => None,
    };
    let tracer = match &trace_sink {
        Some((_, sink)) => Tracer::to_sink(sink.clone()),
        None => Tracer::disabled(),
    };
    let outcome = run_remote_total(&spec, &remote, &tracer)?;
    if let Some((path, sink)) = &trace_sink {
        sink.flush().map_err(|e| format!("--trace {path}: {e}"))?;
    }
    print_estimate_summary(circuit, &outcome.estimate, options.delay_model);
    print_remote_summary(options, streams, &outcome);
    if let Some(path) = &options.json {
        let mut members = report_members(circuit, &outcome.estimate, options);
        members.push(("remote", remote_json(&outcome)));
        write_report(path, members)?;
    }
    Ok(())
}

fn print_remote_summary(options: &Options, streams: usize, outcome: &RemoteOutcome) {
    let stats = &outcome.stats;
    println!(
        "distributed run: {} workers, {} seed streams",
        options.workers.len(),
        streams
    );
    println!(
        "  blocks consumed: {}, assignments: {}, reassignments: {}, retries: {}, timeouts: {}",
        stats.blocks_consumed,
        stats.assignments,
        stats.reassignments,
        stats.retries,
        stats.timeouts
    );
    println!(
        "  duplicates dropped: {}, corrupt blocks rejected: {}, workers lost: {}/{}",
        stats.duplicate_blocks, stats.corrupt_blocks, stats.workers_lost, stats.workers_connected
    );
    if stats.fell_back_local {
        println!("  degraded to local in-process execution (result unchanged)");
    }
    for worker in &outcome.workers {
        println!(
            "  worker {}: {} blocks{}{}",
            worker.endpoint,
            worker.blocks,
            match (worker.p50_block_ms, worker.mean_block_ms) {
                (Some(p50), Some(mean)) =>
                    format!(", block latency p50 {p50:.1} ms / mean {mean:.1} ms"),
                _ => String::new(),
            },
            if worker.lost { " (lost)" } else { "" }
        );
    }
}

fn remote_json(outcome: &RemoteOutcome) -> Json {
    let stats = &outcome.stats;
    let workers = outcome
        .workers
        .iter()
        .map(|w| {
            Json::obj(vec![
                ("endpoint", Json::str(w.endpoint.as_str())),
                ("blocks", Json::u64(w.blocks)),
                ("p50_block_ms", w.p50_block_ms.map_or(Json::Null, Json::f64)),
                (
                    "mean_block_ms",
                    w.mean_block_ms.map_or(Json::Null, Json::f64),
                ),
                ("lost", Json::Bool(w.lost)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("workers_connected", Json::u64(stats.workers_connected)),
        ("workers_lost", Json::u64(stats.workers_lost)),
        ("assignments", Json::u64(stats.assignments)),
        ("reassignments", Json::u64(stats.reassignments)),
        ("retries", Json::u64(stats.retries)),
        ("timeouts", Json::u64(stats.timeouts)),
        ("duplicate_blocks", Json::u64(stats.duplicate_blocks)),
        ("corrupt_blocks", Json::u64(stats.corrupt_blocks)),
        ("blocks_consumed", Json::u64(stats.blocks_consumed)),
        ("fell_back_local", Json::Bool(stats.fell_back_local)),
        ("workers", Json::Arr(workers)),
    ])
}

fn run_replicated(options: &Options, circuit: &Circuit, config: &DipeConfig) -> Result<(), String> {
    let offsets: Vec<u64> = (0..options.lanes as u64).collect();
    let (results, glitch) =
        run_replicated_dipe_with_glitch(circuit, config, &InputModel::uniform(), &offsets)
            .map_err(|e| e.to_string())?;
    let mut table = TextTable::new(&["Lane", "p̄ (mW)", "RHW (%)", "Samples", "I.I."]);
    let mut pooled = 0.0;
    let mut finished = 0usize;
    for (lane, result) in results.iter().enumerate() {
        match result {
            Ok(estimate) => {
                pooled += estimate.mean_power_w;
                finished += 1;
                table.add_row(&[
                    lane.to_string(),
                    format!("{:.4}", estimate.mean_power_mw()),
                    estimate
                        .relative_half_width
                        .map(|r| format!("{:.2}", r * 100.0))
                        .unwrap_or_default(),
                    estimate.sample_size.to_string(),
                    estimate
                        .independence_interval()
                        .map(|i| i.to_string())
                        .unwrap_or_default(),
                ]);
            }
            Err(error) => {
                table.add_row(&[
                    lane.to_string(),
                    format!("failed: {error}"),
                    String::new(),
                    String::new(),
                    String::new(),
                ]);
            }
        }
    }
    println!("circuit {}: {}", circuit.name(), circuit.stats());
    println!("delay model: {}", delay_model_label(options.delay_model));
    match glitch.slot_rejection {
        Some(rejection) => println!(
            "measurement backend: {}; not time-sliced: {rejection}",
            glitch.backend
        ),
        None => println!("measurement backend: {}", glitch.backend),
    }
    println!(
        "{} replicated DIPE runs on the 64-lane bit-parallel backend:",
        options.lanes
    );
    println!("{table}");
    if finished > 0 {
        println!(
            "pooled mean over {} finished lanes: {:.4} mW",
            finished,
            pooled / finished as f64 * 1e3
        );
    }
    // The glitch decomposition the measured cycles produced, pooled over the
    // whole lane group (bit-identical across backends).
    let mut decomposition = TextTable::new(&[
        "Measured cycles",
        "Total tr.",
        "Settled tr.",
        "Glitch tr.",
        "Glitch p̄ (mW)",
    ]);
    decomposition.add_row(&[
        glitch.measured_cycles.to_string(),
        glitch.total_transitions.to_string(),
        glitch.settled_transitions.to_string(),
        glitch.glitch_transitions().to_string(),
        format!("{:.4}", glitch.mean_glitch_power_w * 1e3),
    ]);
    println!("glitch decomposition over the pooled measured cycles:");
    println!("{decomposition}");
    Ok(())
}

fn delay_model_label(model: DelayModel) -> String {
    match model {
        DelayModel::Zero => "zero".to_string(),
        DelayModel::Unit(ps) => format!("unit ({ps} ps/gate)"),
        DelayModel::FanoutLoaded {
            base_ps,
            per_fanout_ps,
        } => format!("fanout-loaded ({base_ps} ps + {per_fanout_ps} ps/fanout)"),
        DelayModel::Random {
            seed,
            min_ps,
            max_ps,
        } => format!("random (seed {seed}, {min_ps}-{max_ps} ps/gate)"),
    }
}

fn run_breakdown(options: &Options, circuit: &Circuit, config: &DipeConfig) -> Result<(), String> {
    let policy = NodeStoppingPolicy::new(
        options.node_relative_error,
        options.node_confidence,
        options.top_k,
        options.activity_floor,
        config.min_samples,
    );
    let estimator = BreakdownEstimator::new(policy, options.target);
    let shards = resolve_shards(options);
    let estimate = if shards > 1 {
        run_session(&estimator.sharded(shards), circuit, config, options)
    } else {
        run_session(&estimator, circuit, config, options)
    }?;
    print_estimate_summary(circuit, &estimate, options.delay_model);

    let node = estimate
        .node_diagnostics()
        .ok_or_else(|| "breakdown session produced non-breakdown diagnostics".to_string())?;
    let (breakdown, node_decision, criterion) =
        (&node.breakdown, &node.node_decision, &node.criterion);
    println!("stopping rule: {criterion}");
    println!(
        "per-node verdict: satisfied={}, {} relative-tier nets, worst rhw {:.2} % (net {}), worst floor half-width {:.4}",
        node_decision.satisfied,
        node_decision.relative_nets,
        node_decision.worst_relative_half_width * 100.0,
        node_decision
            .worst_net
            .map(|n| breakdown.per_net()[n].name.clone())
            .unwrap_or_else(|| "-".to_string()),
        node_decision.worst_absolute_half_width,
    );

    // Consistency: the capacitance-weighted activity total *is* the scalar
    // power estimate (Eq. 1 over the same measured cycles).
    let total = breakdown.total_power_w();
    let gap = if estimate.mean_power_w > 0.0 {
        (total - estimate.mean_power_w).abs() / estimate.mean_power_w
    } else {
        0.0
    };
    println!(
        "breakdown total: {:.4} mW (vs session estimate: {:.4} mW, gap {:.3e})",
        total * 1e3,
        estimate.mean_power_mw(),
        gap
    );
    println!(
        "glitch power: {:.4} mW ({:.1} % of total)",
        breakdown.total_glitch_power_w() * 1e3,
        100.0 * breakdown.glitch_fraction(),
    );

    println!("\npower by driver class:");
    let mut groups = TextTable::new(&[
        "Class",
        "Nets",
        "Power (mW)",
        "Glitch (mW)",
        "Glitch (%)",
        "Share (%)",
    ]);
    for group in breakdown.group_totals() {
        groups.add_row(&[
            group.class.label().to_string(),
            group.nets.to_string(),
            format!("{:.4}", group.power_w * 1e3),
            format!("{:.4}", group.glitch_power_w * 1e3),
            format!("{:.1}", 100.0 * group.glitch_fraction()),
            format!(
                "{:.1}",
                100.0 * group.power_w / total.max(f64::MIN_POSITIVE)
            ),
        ]);
    }
    println!("{groups}");

    println!("top {} hot nets:", options.top);
    let mut hot = TextTable::new(&[
        "#",
        "Net",
        "Driver",
        "Activity (tr/cyc)",
        "±SE",
        "Glitch (tr/cyc)",
        "C (fF)",
        "Power (µW)",
        "Glitch (µW)",
        "Share (%)",
    ]);
    for (rank, net) in breakdown.hot_spots(options.top).iter().enumerate() {
        hot.add_row(&[
            (rank + 1).to_string(),
            net.name.clone(),
            net.driver.label().to_string(),
            format!("{:.4}", net.activity),
            format!("{:.4}", net.activity_std_error),
            format!("{:.4}", net.glitch_activity),
            format!("{:.1}", net.capacitance_f * 1e15),
            format!("{:.3}", net.power_w * 1e6),
            format!("{:.3}", net.glitch_power_w * 1e6),
            format!("{:.1}", 100.0 * net.power_w / total.max(f64::MIN_POSITIVE)),
        ]);
    }
    println!("{hot}");

    if breakdown.total_glitch_power_w() > 0.0 {
        println!("top {} glitch nets (ranked by glitch power):", options.top);
        let mut glitchy = TextTable::new(&[
            "#",
            "Net",
            "Driver",
            "Glitch (tr/cyc)",
            "Glitch (µW)",
            "Glitch share of net (%)",
        ]);
        for (rank, net) in breakdown.glitch_hot_spots(options.top).iter().enumerate() {
            glitchy.add_row(&[
                (rank + 1).to_string(),
                net.name.clone(),
                net.driver.label().to_string(),
                format!("{:.4}", net.glitch_activity),
                format!("{:.3}", net.glitch_power_w * 1e6),
                format!("{:.1}", 100.0 * net.glitch_fraction()),
            ]);
        }
        println!("{glitchy}");
    }

    if let Some(path) = &options.json {
        let mut members = report_members(circuit, &estimate, options);
        members.push(("breakdown_total_power_w", Json::f64(total)));
        members.push(("breakdown", breakdown_json(breakdown)));
        write_report(path, members)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let circuit = match load_circuit(&options) {
        Ok(circuit) => circuit,
        Err(error) => {
            eprintln!("failed to load `{}`: {error}", options.circuit);
            return ExitCode::from(1);
        }
    };
    let config = DipeConfig::default()
        .with_seed(options.seed)
        .with_accuracy(options.relative_error, options.confidence)
        .with_delay_model(options.delay_model);
    let outcome = if options.breakdown {
        run_breakdown(&options, &circuit, &config)
    } else {
        run_total(&options, &circuit, &config)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(1)
        }
    }
}
