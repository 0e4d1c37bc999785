//! The coordinator of a distributed estimation run.
//!
//! The coordinator is the TCP block source of the estimation core
//! ([`dipe::session`]) and owns every decision that shapes the estimate: it
//! runs warm-up and runs-test interval selection locally (they are serial
//! and cheap), then fans block sampling out to remote workers over the
//! NDJSON protocol, merging returned blocks through the core's
//! [`StreamMerger`], [`StoppingRule`] and estimate assembly — the same ones
//! the local `--shards` runtime uses — so the resulting [`Estimate`] is
//! bit-identical to a local sharded run of the same `(seed, stream count)`.
//!
//! Robustness model (see ARCHITECTURE.md for the failure-mode table):
//!
//! * **liveness** — workers heartbeat while idle; a worker that has neither
//!   delivered a block nor heartbeat within the block deadline is declared
//!   lost;
//! * **recovery** — a lost worker is first retried (reconnect with capped,
//!   endpoint-jittered exponential backoff); if that fails its seed streams
//!   are reassigned to healthy workers from the merger's exact per-stream
//!   frontier (block index + sampler state), so the replacement continues
//!   the same deterministic tape;
//! * **dedup** — blocks are keyed by `(stream, block index)`: a straggler
//!   that comes back to life and re-delivers work is harmless;
//! * **integrity** — every block is checksummed; a corrupt payload marks the
//!   sender compromised and triggers the same recovery as a loss;
//! * **degradation** — if no worker is reachable (at fan-out or mid-run),
//!   the coordinator finishes the run on local in-process streams from the
//!   exact same frontier, with a loud warning — never a changed result.

use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dipe::remote::{
    endpoint_hash, retry_backoff, Assignment, BlockOutcome, RemoteStats, StreamMerger,
    StreamWorker, DEFAULT_LEAD_BLOCKS,
};
use dipe::session::{
    assemble, consume_rounds, emit_sampling_start, Decision, FinishedRun, NoFold, RoundVerdict,
    StoppingRule,
};
use dipe::shards::{pooled_cycle_counts, FrontStep, SerialFront};
use dipe::{Estimate, PowerEstimator, PowerSampler, ShardedDipeEstimator};
use telemetry::{Json, LatencyRing};

use crate::lines::{Connection, Pumped};
use crate::spec::JobSpec;
use crate::worker::{assign_msg, block_from_json, consumed_msg, stop_msg, work_msg};

/// Tuning of a coordinated run. Everything here is operational — none of it
/// can change a bit of the estimate.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Worker endpoints (`host:port`).
    pub endpoints: Vec<String>,
    /// Seed-stream count — the distributed equivalent of `--shards N`.
    pub streams: usize,
    /// Base RNG seed offset of the run (stream 0 continues it).
    pub base_seed_offset: u64,
    /// A worker silent for longer than this is declared lost.
    pub block_deadline: Duration,
    /// Connection attempts per endpoint (initial connect and reconnect).
    pub connect_attempts: u32,
    /// First backoff step between attempts.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Suppress recovery chatter on stderr (the no-worker degradation
    /// warning always prints).
    pub quiet: bool,
}

impl CoordinatorConfig {
    /// Defaults for a set of endpoints and a stream count.
    pub fn new(endpoints: Vec<String>, streams: usize) -> CoordinatorConfig {
        CoordinatorConfig {
            endpoints,
            streams,
            base_seed_offset: 0,
            block_deadline: Duration::from_secs(15),
            connect_attempts: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(2),
            quiet: false,
        }
    }
}

/// Per-worker operational report of a finished run.
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// The worker's endpoint.
    pub endpoint: String,
    /// Blocks accepted from this worker.
    pub blocks: u64,
    /// Median inter-block latency in milliseconds (`None` below 2 blocks).
    pub p50_block_ms: Option<f64>,
    /// Mean inter-block latency in milliseconds — stragglers move this while
    /// the median stays put, so a p50/mean gap flags a slow or faulty link.
    pub mean_block_ms: Option<f64>,
    /// Whether the worker was declared lost at any point.
    pub lost: bool,
}

/// A finished coordinated run: the estimate plus robustness diagnostics.
#[derive(Debug)]
pub struct RemoteOutcome {
    /// The estimate — bit-identical to a local `--shards streams` run.
    pub estimate: Estimate,
    /// Robustness counters.
    pub stats: RemoteStats,
    /// Per-worker operational reports, in endpoint order.
    pub workers: Vec<WorkerReport>,
}

enum WorkerEvent {
    Line(Json),
    Down(String),
}

/// One pump message: worker index, connection generation, event. The
/// generation guards against a stale `Down` from an old connection's pump
/// killing a freshly reconnected link.
type TaggedEvent = (usize, u64, WorkerEvent);

struct WorkerLink {
    endpoint: String,
    /// The live connection; dropping it closes the socket and joins its pump.
    conn: Option<Connection>,
    generation: u64,
    assigned: Vec<u32>,
    last_heard: Instant,
    blocks: u64,
    last_block_at: Option<Instant>,
    latency: LatencyRing,
    lost: bool,
}

impl WorkerLink {
    fn new(endpoint: String) -> WorkerLink {
        WorkerLink {
            endpoint,
            conn: None,
            generation: 0,
            assigned: Vec::new(),
            last_heard: Instant::now(),
            blocks: 0,
            last_block_at: None,
            latency: LatencyRing::new(4096),
            lost: false,
        }
    }

    fn alive(&self) -> bool {
        self.conn.is_some()
    }

    fn send(&mut self, value: &Json) -> Result<(), String> {
        let Some(conn) = self.conn.as_mut() else {
            return Err("worker is down".to_string());
        };
        conn.send(value)
            .map_err(|e| format!("send to {}: {e}", self.endpoint))
    }
}

/// Connects, retrying with capped exponential backoff jittered per endpoint.
fn connect_with_retry(
    endpoint: &str,
    attempts: u32,
    config: &CoordinatorConfig,
    stats: &mut RemoteStats,
) -> Result<TcpStream, String> {
    let mut last_error = String::new();
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            stats.retries += 1;
            std::thread::sleep(retry_backoff(
                attempt - 1,
                endpoint_hash(endpoint),
                config.backoff_base,
                config.backoff_cap,
            ));
        }
        match TcpStream::connect(endpoint) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return Ok(stream);
            }
            Err(e) => last_error = e.to_string(),
        }
    }
    Err(format!(
        "{endpoint}: {last_error} (after {} attempts)",
        attempts.max(1)
    ))
}

/// Opens the connection of one worker link. Its pump forwards each parsed
/// line, then the link's end, tagged with the link's index and generation.
fn open_link(
    index: usize,
    generation: u64,
    socket: TcpStream,
    events: mpsc::Sender<TaggedEvent>,
) -> std::io::Result<Connection> {
    Connection::open(socket, move |item| {
        let (event, more) = match item {
            Pumped::Line(line) => match Json::parse(line.trim()) {
                Ok(value) => (WorkerEvent::Line(value), true),
                Err(e) => (WorkerEvent::Down(format!("unparseable line: {e}")), false),
            },
            Pumped::Closed => (WorkerEvent::Down("connection closed".to_string()), false),
            Pumped::Failed(message) => (WorkerEvent::Down(message), false),
        };
        // A failed send means the run is over.
        events.send((index, generation, event)).is_ok() && more
    })
}

/// Immutable run parameters shared by the recovery paths.
struct RunCtx<'a> {
    spec: &'a JobSpec,
    config: &'a CoordinatorConfig,
    interval: usize,
    events: mpsc::Sender<TaggedEvent>,
}

impl RunCtx<'_> {
    fn work_order(&self) -> Json {
        work_msg(
            self.spec,
            self.interval,
            self.config.base_seed_offset,
            self.config.streams,
            DEFAULT_LEAD_BLOCKS,
        )
    }
}

/// Declares a worker lost: retry the connection with backoff; on success
/// re-issue the work order and its streams from the merger frontier; on
/// failure reassign its streams round-robin over the remaining live workers.
fn declare_down(
    ctx: &RunCtx<'_>,
    links: &mut [WorkerLink],
    index: usize,
    message: &str,
    merger: &mut StreamMerger,
) {
    // Dropping the connection shuts the socket down for *all* its clones:
    // the worker's serving loop gets a clean EOF and frees up to accept the
    // reconnect below, and the old pump is joined instead of lingering.
    let was_alive = links[index].conn.take().is_some();
    if !was_alive && links[index].assigned.is_empty() {
        return; // stale Down event for a worker already routed around
    }
    links[index].lost = true;
    merger.stats_mut().workers_lost += 1;
    if !ctx.config.quiet {
        eprintln!(
            "warning: worker {} lost ({message}); recovering",
            links[index].endpoint
        );
    }

    // First recovery attempt: reconnect to the same endpoint (covers the
    // drop-connection fault and transient network failures). A reconnected
    // worker gets a fresh work order and resumes its streams from the exact
    // per-stream frontier, so nothing it lost in flight matters.
    let endpoint = links[index].endpoint.clone();
    merger.stats_mut().retries += 1;
    if let Ok(socket) = connect_with_retry(&endpoint, 2, ctx.config, merger.stats_mut()) {
        links[index].generation += 1;
        if let Ok(conn) = open_link(index, links[index].generation, socket, ctx.events.clone()) {
            links[index].conn = Some(conn);
            links[index].last_heard = Instant::now();
            let streams = links[index].assigned.clone();
            let mut ok = links[index].send(&ctx.work_order()).is_ok();
            if ok {
                for stream in &streams {
                    let Assignment { from_block, state } = merger.assignment(*stream as usize);
                    if links[index]
                        .send(&assign_msg(*stream, from_block, state.as_ref()))
                        .is_err()
                    {
                        ok = false;
                        break;
                    }
                }
                let rounds = merger.rounds();
                ok = ok && links[index].send(&consumed_msg(rounds)).is_ok();
            }
            if ok {
                if !ctx.config.quiet {
                    eprintln!("warning: worker {endpoint} reconnected; resuming its streams");
                }
                return;
            }
            links[index].conn = None;
        }
    }

    // Reassign the lost worker's streams over the remaining live workers.
    let orphaned = std::mem::take(&mut links[index].assigned);
    let live: Vec<usize> = links
        .iter()
        .enumerate()
        .filter(|(_, l)| l.alive())
        .map(|(i, _)| i)
        .collect();
    if live.is_empty() {
        // Reattach so the main loop's all-dead check falls back locally with
        // the streams still accounted for.
        links[index].assigned = orphaned;
        return;
    }
    for (slot, stream) in orphaned.into_iter().enumerate() {
        let target = live[slot % live.len()];
        let Assignment { from_block, state } = merger.assignment(stream as usize);
        // Attach the stream to the target either way: if the send fails the
        // target's own Down event follows and moves it again.
        links[target].assigned.push(stream);
        if links[target]
            .send(&assign_msg(stream, from_block, state.as_ref()))
            .is_ok()
        {
            merger.stats_mut().reassignments += 1;
            if !ctx.config.quiet {
                eprintln!(
                    "warning: stream {stream} reassigned to {} from block {from_block}",
                    links[target].endpoint
                );
            }
        }
    }
}

/// Finishes the run on local in-process streams from the merger's exact
/// frontier — the graceful-degradation path. Appends to the same merger and
/// stopping rule, so the estimate cannot differ from the distributed path.
fn drain_locally(
    circuit: &netlist::Circuit,
    spec: &JobSpec,
    interval: usize,
    base_seed_offset: u64,
    merger: &mut StreamMerger,
    rule: &StoppingRule,
    tracer: &telemetry::Tracer,
) -> Result<Decision, String> {
    let input_model = spec.parsed_input_model()?;
    let mut local = StreamWorker::new(
        circuit,
        spec.config(),
        input_model,
        base_seed_offset,
        interval,
        DEFAULT_LEAD_BLOCKS,
    );
    for stream in 0..merger.streams() {
        let Assignment { from_block, state } = merger.assignment(stream);
        local
            .assign(stream as u32, from_block, state.as_ref())
            .map_err(|e| format!("local fallback, stream {stream}: {e}"))?;
    }
    loop {
        while !merger.round_ready() {
            let stream = local
                .next_ready()
                .expect("a local worker holding every stream always has credit");
            let block = local.produce(stream);
            merger.offer(block);
        }
        let set_consumed = |rounds| local.set_consumed(rounds);
        if let Some(decision) = consume_rounds(merger, &NoFold, &mut (), rule, tracer, set_consumed)
        {
            return Ok(decision);
        }
    }
}

/// Runs one total-power estimation with the sampling phase distributed over
/// `config.endpoints`, falling back to local execution when no worker is
/// reachable. See the module docs for the recovery model.
///
/// # Errors
///
/// Returns a human-readable message for spec/circuit failures, interval
/// selection failures, or an exhausted sample budget. Worker failures are
/// *not* errors — they are recovered or degraded around.
pub fn run_remote_total(
    spec: &JobSpec,
    config: &CoordinatorConfig,
    tracer: &telemetry::Tracer,
) -> Result<RemoteOutcome, String> {
    if config.streams < 1 {
        return Err("at least one stream is required".to_string());
    }
    spec.validate()?;
    let started = Instant::now();
    let circuit = spec.circuit.load().map_err(|e| e.to_string())?;
    let input_model = spec.parsed_input_model()?;
    let dipe_config = spec.config();

    // Serial front: warm-up + interval selection, locally.
    let sampler = PowerSampler::new(
        &circuit,
        &dipe_config,
        &input_model,
        config.base_seed_offset,
    )
    .map_err(|e| e.to_string())?;
    let mut front = SerialFront::new(sampler, &dipe_config);
    let (sampler, selection) = match front
        .advance(&dipe_config, u64::MAX, tracer)
        .map_err(|e| e.to_string())?
    {
        FrontStep::Selected(sampler, selection) => (sampler, selection),
        FrontStep::OutOfBudget => unreachable!("the budget was unbounded"),
    };
    let counts_at_fanout = sampler.cycle_counts();
    let interval = selection.interval;
    let mut merger = StreamMerger::new(config.streams, sampler.snapshot());
    drop(sampler);
    let rule = StoppingRule::new(&dipe_config);
    emit_sampling_start(
        tracer,
        &dipe_config,
        &selection,
        rule.criterion_name(),
        config.streams,
    );

    // Connect the fleet.
    let (event_tx, event_rx) = mpsc::channel::<TaggedEvent>();
    let ctx = RunCtx {
        spec,
        config,
        interval,
        events: event_tx.clone(),
    };
    let mut links: Vec<WorkerLink> = Vec::new();
    for endpoint in &config.endpoints {
        let mut link = WorkerLink::new(endpoint.clone());
        match connect_with_retry(
            endpoint,
            config.connect_attempts,
            config,
            merger.stats_mut(),
        ) {
            Ok(socket) => match open_link(links.len(), 0, socket, event_tx.clone()) {
                Ok(conn) => {
                    link.conn = Some(conn);
                    merger.stats_mut().workers_connected += 1;
                }
                Err(e) => eprintln!("warning: worker {endpoint}: start its reader: {e}"),
            },
            Err(message) => {
                eprintln!("warning: worker unreachable: {message}");
            }
        }
        links.push(link);
    }

    // Hand out the work orders and the initial stream assignments,
    // round-robin over the live workers.
    let mut failed: Vec<(usize, String)> = Vec::new();
    for (index, link) in links.iter_mut().enumerate() {
        if !link.alive() {
            continue;
        }
        if let Err(message) = link.send(&ctx.work_order()) {
            failed.push((index, message));
        }
    }
    for (index, message) in failed.drain(..) {
        declare_down(&ctx, &mut links, index, &message, &mut merger);
    }
    {
        let live: Vec<usize> = links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.alive())
            .map(|(i, _)| i)
            .collect();
        for (slot, stream) in (0..config.streams as u32).enumerate() {
            if live.is_empty() {
                break; // the all-dead check below falls back locally
            }
            let index = live[slot % live.len()];
            let Assignment { from_block, state } = merger.assignment(stream as usize);
            links[index].assigned.push(stream);
            if let Err(message) = links[index].send(&assign_msg(stream, from_block, state.as_ref()))
            {
                failed.push((index, message));
            } else {
                merger.stats_mut().assignments += 1;
            }
        }
        for (index, message) in failed {
            declare_down(&ctx, &mut links, index, &message, &mut merger);
        }
    }

    // The merge loop.
    let decision: Result<Decision, String> = 'run: loop {
        // Deadlines first: a worker silent past the block deadline is lost.
        let overdue: Vec<usize> = links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.alive() && l.last_heard.elapsed() > config.block_deadline)
            .map(|(i, _)| i)
            .collect();
        for index in overdue {
            merger.stats_mut().timeouts += 1;
            let message = format!("no block or heartbeat within {:?}", config.block_deadline);
            declare_down(&ctx, &mut links, index, &message, &mut merger);
        }
        if links.iter().all(|l| !l.alive()) {
            if merger.stats().workers_connected == 0 {
                eprintln!(
                    "warning: no worker reachable (tried {}); falling back to local in-process \
                     execution — results are identical, only slower",
                    config.endpoints.join(", ")
                );
            } else {
                eprintln!(
                    "warning: every worker was lost mid-run; finishing locally from the exact \
                     stream frontier — results are identical, only slower"
                );
            }
            merger.stats_mut().fell_back_local = true;
            break 'run drain_locally(
                &circuit,
                spec,
                interval,
                config.base_seed_offset,
                &mut merger,
                &rule,
                tracer,
            );
        }

        let (index, generation, event) = match event_rx.recv_timeout(Duration::from_millis(50)) {
            Ok(pair) => pair,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("the coordinator holds a sender")
            }
        };
        let current = generation == links[index].generation;
        match event {
            WorkerEvent::Down(message) => {
                if current {
                    declare_down(&ctx, &mut links, index, &message, &mut merger);
                }
            }
            // Lines are processed regardless of generation — a straggler's
            // late blocks are still valid work, and the dedup keyed on
            // (stream, block index) protects the fold — but only the current
            // connection refreshes the liveness clock.
            WorkerEvent::Line(value) => {
                if current {
                    links[index].last_heard = Instant::now();
                }
                match value.get("type").and_then(Json::as_str).unwrap_or("") {
                    "heartbeat" | "working" | "pong" | "stopped" => {}
                    "worker_error" => {
                        let message = value
                            .get("message")
                            .and_then(Json::as_str)
                            .unwrap_or("unspecified")
                            .to_string();
                        declare_down(&ctx, &mut links, index, &message, &mut merger);
                    }
                    "block" => match block_from_json(&value) {
                        Err(message) => {
                            declare_down(&ctx, &mut links, index, &message, &mut merger);
                        }
                        Ok(block) => match merger.offer(block) {
                            BlockOutcome::Corrupt | BlockOutcome::UnknownStream => {
                                let message = "delivered a corrupt block".to_string();
                                declare_down(&ctx, &mut links, index, &message, &mut merger);
                            }
                            BlockOutcome::Duplicate => {
                                tracer.emit("remote_duplicate_block", |e| {
                                    e.field_u64("worker", index as u64);
                                });
                            }
                            BlockOutcome::Accepted => {
                                let link = &mut links[index];
                                link.blocks += 1;
                                let now = Instant::now();
                                if let Some(previous) = link.last_block_at {
                                    link.latency.record((now - previous).as_secs_f64() * 1000.0);
                                }
                                link.last_block_at = Some(now);
                                let report = |rounds| {
                                    for link in links.iter_mut().filter(|l| l.alive()) {
                                        // A failed send surfaces as the
                                        // reader's own Down event.
                                        let _ = link.send(&consumed_msg(rounds));
                                    }
                                };
                                let consumed = consume_rounds(
                                    &mut merger,
                                    &NoFold,
                                    &mut (),
                                    &rule,
                                    tracer,
                                    report,
                                );
                                if let Some(decision) = consumed {
                                    break 'run Ok(decision);
                                }
                            }
                        },
                    },
                    other => {
                        let message = format!("unexpected message type {other:?}");
                        declare_down(&ctx, &mut links, index, &message, &mut merger);
                    }
                }
            }
        }
    };

    // Wind the fleet down (best effort — a dead link is already dead):
    // `stop`, then drop the connection, which shuts it down and joins its
    // pump. Every other return drops `links`, which does the same.
    for link in &mut links {
        if let Some(mut conn) = link.conn.take() {
            let _ = conn.send(&stop_msg());
        }
    }
    let decision = decision?;
    if decision.verdict == RoundVerdict::Exhausted {
        return Err(decision.exhausted(tracer).to_string());
    }
    // The assembly of a local `--shards streams` run, under its estimator
    // name: the estimate is bit-identical to it everywhere except wall-clock
    // diagnostics (and `sim_profile`, which stays `None` — the simulators ran
    // on other machines).
    let stats = *merger.stats();
    let run = FinishedRun {
        estimator: ShardedDipeEstimator::new(config.streams).name(),
        cycle_counts: pooled_cycle_counts(
            counts_at_fanout,
            &dipe_config,
            config.streams,
            interval,
            merger.sample().len(),
        ),
        selection,
        sample: merger.into_sample(),
        decision,
        elapsed_seconds: started.elapsed().as_secs_f64(),
        sim_profile: None,
    };
    let estimate = assemble(&NoFold, &(), run, tracer);
    let workers = links
        .into_iter()
        .map(|link| WorkerReport {
            endpoint: link.endpoint,
            blocks: link.blocks,
            p50_block_ms: link.latency.quantile(0.5),
            mean_block_ms: link.latency.mean(),
            lost: link.lost,
        })
        .collect();
    Ok(RemoteOutcome {
        estimate,
        stats,
        workers,
    })
}
