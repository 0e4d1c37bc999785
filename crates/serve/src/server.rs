//! The `dipe-serve` job server.
//!
//! One [`Server`] owns a TCP listener, the two-tier [`CircuitCache`], and a
//! registry of in-flight jobs. Concurrency model:
//!
//! * one **connection thread** per client pumps NDJSON requests and writes
//!   responses (one per request, in order) through a mutexed writer;
//! * one **job thread** per accepted job drives its re-entrant
//!   [`dipe::EstimationSession`] in bounded [`dipe::CycleBudget`] slices.
//!   Between slices the thread handles cancellation and checkpoint requests
//!   and emits a `progress` event;
//! * a `Gate` of `workers` execution permits bounds how many slices run
//!   simultaneously — that is the bounded worker pool. Any number of jobs
//!   can be in flight (each is a mostly-parked thread); at most `workers` of
//!   them consume a core at any instant, and the permit hand-off between
//!   slices is what multiplexes them fairly.
//!
//! Sessions borrow the cached circuit for their whole life, so each job
//! thread keeps its `Arc<Circuit>` on its own stack and everything stays
//! safe Rust — no self-referential state, no lifetime transmutes.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dipe::{CycleBudget, DipeEstimator, Estimate, Progress, SessionCheckpoint};
use telemetry::{
    BufferSink, Counter, Histogram, Json, LatencyRing, MetricsRegistry, TraceSink, Tracer,
};

use crate::cache::CircuitCache;
use crate::checkpoint_io::CheckpointFile;
use crate::lines::BoundedLines;
use crate::protocol::{CachePath, Event, JobResult, Request};
use crate::spec::JobSpec;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Execution permits: how many job slices may run simultaneously.
    pub workers: usize,
    /// Cycles per scheduling slice. Smaller slices mean finer-grained
    /// multiplexing and more frequent progress events, at more scheduling
    /// overhead.
    pub slice_cycles: u64,
    /// Where `checkpoint` RPCs write their files.
    pub checkpoint_dir: PathBuf,
    /// Disconnect a connection after this long without receiving a line,
    /// unless one of its jobs is still running (results must be deliverable).
    /// A `ping` is enough to stay alive; `0` disables the reaper. Disconnects
    /// are counted in `dipe_serve_idle_disconnects_total`.
    pub idle_timeout_seconds: f64,
    /// Suppress per-connection log lines on stderr.
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            slice_cycles: 25_000,
            checkpoint_dir: std::env::temp_dir().join("dipe-serve"),
            idle_timeout_seconds: 300.0,
            quiet: false,
        }
    }
}

/// Counting semaphore built on `Mutex` + `Condvar` (std has none): the
/// bounded worker pool. Instrumented: it tracks how many permits are in
/// use, how many acquirers are parked waiting (the queue depth), and the
/// high-water mark of simultaneous permit use over the server's life.
struct Gate {
    permits: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    available: usize,
    waiters: usize,
    high_water: usize,
}

impl Gate {
    fn new(permits: usize) -> Gate {
        let permits = permits.max(1);
        Gate {
            permits,
            state: Mutex::new(GateState {
                available: permits,
                waiters: 0,
                high_water: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut state = self.state.lock().unwrap();
        while state.available == 0 {
            state.waiters += 1;
            state = self.cv.wait(state).unwrap();
            state.waiters -= 1;
        }
        state.available -= 1;
        let in_use = self.permits - state.available;
        state.high_water = state.high_water.max(in_use);
    }

    fn release(&self) {
        self.state.lock().unwrap().available += 1;
        self.cv.notify_one();
    }

    /// `(permits_in_use, waiters, high_water)` at this instant.
    fn snapshot(&self) -> (usize, usize, usize) {
        let state = self.state.lock().unwrap();
        (
            self.permits - state.available,
            state.waiters,
            state.high_water,
        )
    }
}

/// Where a job currently is in its lifecycle (the `status` RPC's view).
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobStateKind {
    Running,
    Done,
    Failed,
    Cancelled,
}

impl JobStateKind {
    fn label(&self) -> &'static str {
        match self {
            JobStateKind::Running => "running",
            JobStateKind::Done => "done",
            JobStateKind::Failed => "failed",
            JobStateKind::Cancelled => "cancelled",
        }
    }
}

#[derive(Debug, Clone)]
struct JobStatus {
    state: JobStateKind,
    phase: String,
    cycles_done: u64,
    samples: u64,
    message: String,
}

/// Fulfilment cell of a `checkpoint` RPC: the connection thread blocks on it
/// while the job thread writes the file at the next eligible slice boundary.
struct CheckpointReply {
    done: Mutex<Option<Result<String, String>>>,
    cv: Condvar,
}

impl CheckpointReply {
    fn new() -> Arc<CheckpointReply> {
        Arc::new(CheckpointReply {
            done: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fulfill(&self, outcome: Result<String, String>) {
        *self.done.lock().unwrap() = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<String, String> {
        let mut done = self.done.lock().unwrap();
        while done.is_none() {
            done = self.cv.wait(done).unwrap();
        }
        done.clone().unwrap()
    }
}

struct CheckpointRequest {
    path: PathBuf,
    stop: bool,
    reply: Arc<CheckpointReply>,
}

/// Lines retained per job in its bounded trace buffer (the `trace` RPC's
/// window). Oldest lines drop first; the RPC reports how many were lost.
const JOB_TRACE_CAPACITY: usize = 8192;

/// Shared control block of one job.
struct JobHandle {
    id: u64,
    cancel: AtomicBool,
    checkpoint: Mutex<Option<CheckpointRequest>>,
    status: Mutex<JobStatus>,
    /// The job's estimation-trace ring, served by the `trace` RPC. The job
    /// thread writes it through a [`Tracer`]; it stays readable after the
    /// job ends, for as long as the job is registered.
    trace: Arc<BufferSink>,
}

impl JobHandle {
    fn new(id: u64) -> Arc<JobHandle> {
        Arc::new(JobHandle {
            id,
            cancel: AtomicBool::new(false),
            checkpoint: Mutex::new(None),
            status: Mutex::new(JobStatus {
                state: JobStateKind::Running,
                phase: "Queued".to_string(),
                cycles_done: 0,
                samples: 0,
                message: String::new(),
            }),
            trace: Arc::new(BufferSink::bounded(JOB_TRACE_CAPACITY)),
        })
    }

    fn set_state(&self, state: JobStateKind, message: &str) {
        let mut status = self.status.lock().unwrap();
        status.state = state;
        status.message = message.to_string();
    }

    /// Rejects any still-pending checkpoint request (job ended first).
    fn flush_checkpoint_request(&self, why: &str) {
        if let Some(req) = self.checkpoint.lock().unwrap().take() {
            req.reply.fulfill(Err(why.to_string()));
        }
    }
}

/// Server-lifetime counters (the `stats` RPC, next to the cache's own).
///
/// The counters live in the server's [`MetricsRegistry`], so the `stats`
/// response and the `metrics` exposition read the *same* atomics — the two
/// views cannot disagree about a count.
struct ServerStats {
    jobs_submitted: Arc<Counter>,
    jobs_completed: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_cancelled: Arc<Counter>,
    /// Sum of per-job executed cycles (accounting total minus cache skips).
    executed_cycles_total: Arc<Counter>,
    /// Connections dropped by the idle reaper (no line within the timeout
    /// and no running job to keep the connection alive for).
    idle_disconnects: Arc<Counter>,
    /// Distribution of executed cycles per completed job.
    job_executed_cycles: Arc<Histogram>,
}

impl ServerStats {
    fn new(registry: &MetricsRegistry) -> ServerStats {
        ServerStats {
            jobs_submitted: registry.counter("dipe_serve_jobs_submitted_total"),
            jobs_completed: registry.counter("dipe_serve_jobs_completed_total"),
            jobs_failed: registry.counter("dipe_serve_jobs_failed_total"),
            jobs_cancelled: registry.counter("dipe_serve_jobs_cancelled_total"),
            executed_cycles_total: registry.counter("dipe_serve_executed_cycles_total"),
            idle_disconnects: registry.counter("dipe_serve_idle_disconnects_total"),
            job_executed_cycles: registry.histogram("dipe_serve_job_executed_cycles"),
        }
    }
}

/// Window of recent job wall-clock latencies behind the p50/p95 gauges.
const LATENCY_WINDOW: usize = 256;

struct Shared {
    config: ServerConfig,
    addr: SocketAddr,
    gate: Gate,
    cache: CircuitCache,
    registry: Arc<MetricsRegistry>,
    stats: ServerStats,
    latency: Mutex<LatencyRing>,
    started: Instant,
    jobs: Mutex<HashMap<u64, Arc<JobHandle>>>,
    job_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_job_id: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn active_jobs(&self) -> u64 {
        self.jobs
            .lock()
            .unwrap()
            .values()
            .filter(|j| j.status.lock().unwrap().state == JobStateKind::Running)
            .count() as u64
    }

    fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }
}

/// A write half shared between the connection thread (responses) and the
/// job threads it spawned (events). Write failures latch the writer dead —
/// jobs keep running, their events just stop going anywhere.
#[derive(Clone)]
struct SharedWriter {
    stream: Arc<Mutex<TcpStream>>,
    dead: Arc<AtomicBool>,
}

impl SharedWriter {
    fn new(stream: TcpStream) -> SharedWriter {
        SharedWriter {
            stream: Arc::new(Mutex::new(stream)),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    fn send(&self, message: &Json) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut line = message.to_line();
        line.push('\n');
        let mut stream = self.stream.lock().unwrap();
        if stream.write_all(line.as_bytes()).is_err() || stream.flush().is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
    }
}

/// The estimation-as-a-service job server. See the module docs for the
/// concurrency model and [`crate::protocol`] for the wire protocol.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port, then
    /// [`local_addr`](Self::local_addr)).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(MetricsRegistry::new());
        let stats = ServerStats::new(&registry);
        // Pre-register the point-in-time gauges so the exposition has a
        // stable layout from the first scrape (registration order is
        // render order).
        for gauge in [
            "dipe_serve_jobs_active",
            "dipe_serve_workers",
            "dipe_serve_workers_in_use",
            "dipe_serve_worker_high_water",
            "dipe_serve_queue_depth",
            "dipe_serve_uptime_seconds",
            "dipe_serve_cache_compiled_hits",
            "dipe_serve_cache_compiled_misses",
            "dipe_serve_cache_warm_hits",
            "dipe_serve_cache_warm_misses",
            "dipe_serve_job_wall_ms_p50",
            "dipe_serve_job_wall_ms_p95",
            "dipe_serve_job_wall_window",
        ] {
            registry.gauge(gauge);
        }
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                gate: Gate::new(config.workers),
                config,
                addr,
                cache: CircuitCache::new(),
                registry,
                stats,
                latency: Mutex::new(LatencyRing::new(LATENCY_WINDOW)),
                started: Instant::now(),
                jobs: Mutex::new(HashMap::new()),
                job_threads: Mutex::new(Vec::new()),
                next_job_id: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serves until a `shutdown` request arrives: accepts connections,
    /// spawning one connection thread each. On shutdown, running jobs are
    /// cancelled and their threads joined before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors.
    pub fn run(self) -> std::io::Result<()> {
        for connection in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match connection {
                Ok(stream) => stream,
                Err(error) => {
                    if !self.shared.config.quiet {
                        eprintln!("dipe-serve: accept failed: {error}");
                    }
                    continue;
                }
            };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, shared));
        }
        // Cancel whatever is still running and wait for the job threads so
        // no thread outlives the server (checkpoint files mid-write finish).
        for job in self.shared.jobs.lock().unwrap().values() {
            job.cancel.store(true, Ordering::SeqCst);
        }
        let threads = std::mem::take(&mut *self.shared.job_threads.lock().unwrap());
        for thread in threads {
            let _ = thread.join();
        }
        Ok(())
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let writer = match stream.try_clone() {
        Ok(w) => SharedWriter::new(w),
        Err(_) => return,
    };
    // The idle reaper: a blocking read that times out after the configured
    // quiet period. Any received line (a `ping` suffices) restarts the
    // clock; a connection whose jobs are still running is never reaped, so
    // results stay deliverable.
    if shared.config.idle_timeout_seconds > 0.0 {
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs_f64(
            shared.config.idle_timeout_seconds,
        )));
    }
    let mut lines = BoundedLines::new(&stream);
    // Jobs submitted on this connection, for the reaper's grace check.
    let mut own_jobs: Vec<u64> = Vec::new();
    loop {
        let line = loop {
            match lines.next_line() {
                Ok(Some(line)) => break line,
                Ok(None) => return, // client hung up
                Err(error)
                    if matches!(
                        error.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    // Partial content (if any) stays in `lines`; a torn line
                    // just keeps accumulating across timeouts.
                    let running = {
                        let jobs = shared.jobs.lock().unwrap();
                        own_jobs.iter().any(|id| {
                            jobs.get(id).is_some_and(|job| {
                                job.status.lock().unwrap().state == JobStateKind::Running
                            })
                        })
                    };
                    if running {
                        continue;
                    }
                    shared.stats.idle_disconnects.inc();
                    if !shared.config.quiet {
                        eprintln!(
                            "dipe-serve: dropping idle connection (quiet for {}s, no running jobs)",
                            shared.config.idle_timeout_seconds
                        );
                    }
                    return;
                }
                Err(error) if error.kind() == std::io::ErrorKind::InvalidData => {
                    // An over-long or non-UTF-8 line: answer, then close the
                    // connection rather than guess where the next line starts.
                    writer.send(&error_response(&error.to_string()));
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
                Err(_) => return,
            }
        };
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let request = Json::parse(text)
            .map_err(|e| e.to_string())
            .and_then(|v| Request::from_json(&v));
        let request = match request {
            Ok(request) => request,
            Err(message) => {
                writer.send(&error_response(&message));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) && !matches!(request, Request::Shutdown { .. }) {
            writer.send(&error_response("server is shutting down"));
            continue;
        }
        match request {
            Request::Submit { job } => {
                own_jobs.push(submit_job(&shared, &writer, job, None, CachePath::Cold));
            }
            Request::Resume { path } => match CheckpointFile::load(std::path::Path::new(&path)) {
                Ok(file) => own_jobs.push(submit_job(
                    &shared,
                    &writer,
                    file.job,
                    Some(file.checkpoint),
                    CachePath::Resumed,
                )),
                Err(message) => writer.send(&error_response(&message)),
            },
            Request::Status { job_id } => {
                let job = shared.jobs.lock().unwrap().get(&job_id).cloned();
                match job {
                    None => writer.send(&error_response(&format!("no such job {job_id}"))),
                    Some(job) => {
                        let status = job.status.lock().unwrap().clone();
                        writer.send(&Json::obj(vec![
                            ("type", Json::str("status")),
                            ("job_id", Json::u64(job_id)),
                            ("state", Json::str(status.state.label())),
                            ("phase", Json::str(status.phase)),
                            ("cycles_done", Json::u64(status.cycles_done)),
                            ("samples", Json::u64(status.samples)),
                            ("message", Json::str(status.message)),
                        ]));
                    }
                }
            }
            Request::Cancel { job_id } => {
                let job = shared.jobs.lock().unwrap().get(&job_id).cloned();
                match job {
                    None => writer.send(&error_response(&format!("no such job {job_id}"))),
                    Some(job) => {
                        job.cancel.store(true, Ordering::SeqCst);
                        writer.send(&Json::obj(vec![
                            ("type", Json::str("ok")),
                            ("job_id", Json::u64(job_id)),
                        ]));
                    }
                }
            }
            Request::Checkpoint { job_id, stop } => {
                checkpoint_request(&shared, &writer, job_id, stop);
            }
            Request::Stats => writer.send(&stats_response(&shared)),
            Request::Metrics => writer.send(&metrics_response(&shared)),
            Request::Trace { job_id } => {
                let job = shared.jobs.lock().unwrap().get(&job_id).cloned();
                match job {
                    None => writer.send(&error_response(&format!("no such job {job_id}"))),
                    Some(job) => {
                        let lines = job.trace.lines();
                        writer.send(&Json::obj(vec![
                            ("type", Json::str("trace")),
                            ("job_id", Json::u64(job_id)),
                            ("dropped", Json::u64(job.trace.dropped())),
                            (
                                "lines",
                                Json::Arr(lines.into_iter().map(Json::Str).collect()),
                            ),
                        ]));
                    }
                }
            }
            Request::Ping => writer.send(&Json::obj(vec![("type", Json::str("pong"))])),
            Request::Shutdown { drain_seconds } => {
                shared.shutdown.store(true, Ordering::SeqCst);
                // Drain: give in-flight jobs until the deadline to finish
                // on their own. New submissions are already rejected (the
                // shutdown flag is set), so the job count only goes down.
                if let Some(seconds) = drain_seconds {
                    let deadline =
                        Instant::now() + std::time::Duration::from_secs_f64(seconds.max(0.0));
                    while shared.active_jobs() > 0 && Instant::now() < deadline {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                }
                // Whatever is still running missed the deadline: cancel it
                // and report the count, so callers can tell a clean drain
                // (`cancelled: 0`) from a forced one.
                let mut cancelled = 0u64;
                for job in shared.jobs.lock().unwrap().values() {
                    if job.status.lock().unwrap().state == JobStateKind::Running {
                        job.cancel.store(true, Ordering::SeqCst);
                        cancelled += 1;
                    }
                }
                writer.send(&Json::obj(vec![
                    ("type", Json::str("bye")),
                    ("cancelled", Json::u64(cancelled)),
                ]));
                // Wake the acceptor so `run` can observe the flag and drain.
                let _ = TcpStream::connect(shared.addr);
                return;
            }
        }
    }
}

fn error_response(message: &str) -> Json {
    Json::obj(vec![
        ("type", Json::str("error")),
        ("message", Json::str(message)),
    ])
}

fn stats_response(shared: &Shared) -> Json {
    let (compiled_hits, compiled_misses, warm_hits, warm_misses) = shared.cache.stats.snapshot();
    let (compiled_entries, warm_entries) = shared.cache.sizes();
    let (workers_in_use, queue_depth, worker_high_water) = shared.gate.snapshot();
    Json::obj(vec![
        ("type", Json::str("stats")),
        (
            "jobs_submitted",
            Json::u64(shared.stats.jobs_submitted.get()),
        ),
        (
            "jobs_completed",
            Json::u64(shared.stats.jobs_completed.get()),
        ),
        ("jobs_failed", Json::u64(shared.stats.jobs_failed.get())),
        (
            "jobs_cancelled",
            Json::u64(shared.stats.jobs_cancelled.get()),
        ),
        ("active_jobs", Json::u64(shared.active_jobs())),
        ("workers", Json::usize(shared.config.workers)),
        ("workers_in_use", Json::usize(workers_in_use)),
        ("worker_high_water", Json::usize(worker_high_water)),
        ("queue_depth", Json::usize(queue_depth)),
        ("uptime_seconds", Json::u64(shared.uptime_seconds())),
        (
            "executed_cycles_total",
            Json::u64(shared.stats.executed_cycles_total.get()),
        ),
        (
            "idle_disconnects",
            Json::u64(shared.stats.idle_disconnects.get()),
        ),
        ("compiled_hits", Json::u64(compiled_hits)),
        ("compiled_misses", Json::u64(compiled_misses)),
        ("warm_hits", Json::u64(warm_hits)),
        ("warm_misses", Json::u64(warm_misses)),
        ("compiled_entries", Json::usize(compiled_entries)),
        ("warm_entries", Json::usize(warm_entries)),
    ])
}

/// Renders the Prometheus-style exposition. The counters are read from the
/// same registry atomics `stats` reports; the gauges are refreshed here from
/// the same live sources (gate, job table, cache, latency ring) immediately
/// before rendering, so a scrape and a `stats` call see one coherent world.
fn metrics_response(shared: &Shared) -> Json {
    let registry = &shared.registry;
    let (workers_in_use, queue_depth, worker_high_water) = shared.gate.snapshot();
    registry
        .gauge("dipe_serve_jobs_active")
        .set(shared.active_jobs() as i64);
    registry
        .gauge("dipe_serve_workers")
        .set(shared.config.workers as i64);
    registry
        .gauge("dipe_serve_workers_in_use")
        .set(workers_in_use as i64);
    registry
        .gauge("dipe_serve_worker_high_water")
        .set(worker_high_water as i64);
    registry
        .gauge("dipe_serve_queue_depth")
        .set(queue_depth as i64);
    registry
        .gauge("dipe_serve_uptime_seconds")
        .set(shared.uptime_seconds() as i64);
    let (compiled_hits, compiled_misses, warm_hits, warm_misses) = shared.cache.stats.snapshot();
    registry
        .gauge("dipe_serve_cache_compiled_hits")
        .set(compiled_hits as i64);
    registry
        .gauge("dipe_serve_cache_compiled_misses")
        .set(compiled_misses as i64);
    registry
        .gauge("dipe_serve_cache_warm_hits")
        .set(warm_hits as i64);
    registry
        .gauge("dipe_serve_cache_warm_misses")
        .set(warm_misses as i64);
    {
        let ring = shared.latency.lock().unwrap();
        let ms = |q: f64| ring.quantile(q).map_or(0, |s| (s * 1e3).round() as i64);
        registry.gauge("dipe_serve_job_wall_ms_p50").set(ms(0.50));
        registry.gauge("dipe_serve_job_wall_ms_p95").set(ms(0.95));
        registry
            .gauge("dipe_serve_job_wall_window")
            .set(ring.len() as i64);
    }
    Json::obj(vec![
        ("type", Json::str("metrics")),
        ("text", Json::str(registry.render_prometheus())),
    ])
}

fn checkpoint_request(shared: &Arc<Shared>, writer: &SharedWriter, job_id: u64, stop: bool) {
    let job = shared.jobs.lock().unwrap().get(&job_id).cloned();
    let Some(job) = job else {
        writer.send(&error_response(&format!("no such job {job_id}")));
        return;
    };
    if job.status.lock().unwrap().state != JobStateKind::Running {
        writer.send(&error_response(&format!("job {job_id} is not running")));
        return;
    }
    if std::fs::create_dir_all(&shared.config.checkpoint_dir).is_err() {
        writer.send(&error_response(&format!(
            "cannot create checkpoint directory {}",
            shared.config.checkpoint_dir.display()
        )));
        return;
    }
    let path = shared
        .config
        .checkpoint_dir
        .join(format!("job-{job_id}.ckpt.json"));
    let reply = CheckpointReply::new();
    {
        let mut slot = job.checkpoint.lock().unwrap();
        if slot.is_some() {
            writer.send(&error_response(&format!(
                "job {job_id} already has a checkpoint request pending"
            )));
            return;
        }
        *slot = Some(CheckpointRequest {
            path,
            stop,
            reply: Arc::clone(&reply),
        });
    }
    // Block this connection thread until the job thread writes the file (or
    // the job ends first). Events from other jobs keep flowing — they are
    // written by the job threads, not by us.
    match reply.wait() {
        Ok(path) => writer.send(&Json::obj(vec![
            ("type", Json::str("checkpointed")),
            ("job_id", Json::u64(job_id)),
            ("path", Json::str(path)),
            ("stopped", Json::Bool(stop)),
        ])),
        Err(message) => writer.send(&error_response(&message)),
    }
}

fn submit_job(
    shared: &Arc<Shared>,
    writer: &SharedWriter,
    spec: JobSpec,
    resume_from: Option<SessionCheckpoint>,
    origin: CachePath,
) -> u64 {
    let job_id = shared.next_job_id.fetch_add(1, Ordering::SeqCst);
    let handle = JobHandle::new(job_id);
    shared
        .jobs
        .lock()
        .unwrap()
        .insert(job_id, Arc::clone(&handle));
    shared.stats.jobs_submitted.inc();
    // The response goes out before the job thread exists, so `accepted`
    // always precedes the job's first event on this connection.
    writer.send(&Json::obj(vec![
        ("type", Json::str("accepted")),
        ("job_id", Json::u64(job_id)),
        ("circuit", Json::str(spec.circuit.name())),
    ]));
    let thread_shared = Arc::clone(shared);
    let thread_writer = writer.clone();
    let thread = std::thread::spawn(move || {
        run_job(
            &thread_shared,
            &handle,
            spec,
            resume_from,
            origin,
            &thread_writer,
        );
    });
    shared.job_threads.lock().unwrap().push(thread);
    job_id
}

/// The job thread body: build (or restore) the session, then alternate
/// permit-gated slices with control-flag handling until done.
fn run_job(
    shared: &Arc<Shared>,
    handle: &Arc<JobHandle>,
    spec: JobSpec,
    resume_from: Option<SessionCheckpoint>,
    origin: CachePath,
    writer: &SharedWriter,
) {
    let started = Instant::now();
    let outcome = drive_job(shared, handle, &spec, resume_from, origin, writer);
    match outcome {
        Ok((estimate, cache, executed_cycles)) => {
            handle.set_state(JobStateKind::Done, "");
            shared.stats.jobs_completed.inc();
            shared.stats.executed_cycles_total.add(executed_cycles);
            shared.stats.job_executed_cycles.record(executed_cycles);
            shared
                .latency
                .lock()
                .unwrap()
                .record(started.elapsed().as_secs_f64());
            writer.send(
                &Event::Result(JobResult {
                    job_id: handle.id,
                    estimator: estimate.estimator.clone(),
                    mean_power_w: estimate.mean_power_w,
                    relative_half_width: estimate.relative_half_width,
                    sample_size: estimate.sample_size as u64,
                    independence_interval: estimate.independence_interval().map(|i| i as u64),
                    zero_delay_cycles: estimate.cycle_counts.zero_delay_cycles,
                    measured_cycles: estimate.cycle_counts.measured_cycles,
                    executed_cycles,
                    wall_seconds: started.elapsed().as_secs_f64(),
                    cache,
                })
                .to_json(),
            );
        }
        Err(JobEnd::Cancelled(message)) => {
            handle.flush_checkpoint_request(&message);
            handle.set_state(JobStateKind::Cancelled, &message);
            shared.stats.jobs_cancelled.inc();
            writer.send(
                &Event::Failed {
                    job_id: handle.id,
                    message,
                }
                .to_json(),
            );
        }
        Err(JobEnd::Failed(message)) => {
            handle.flush_checkpoint_request(&message);
            handle.set_state(JobStateKind::Failed, &message);
            shared.stats.jobs_failed.inc();
            writer.send(
                &Event::Failed {
                    job_id: handle.id,
                    message,
                }
                .to_json(),
            );
        }
    }
}

enum JobEnd {
    Failed(String),
    Cancelled(String),
}

fn drive_job(
    shared: &Arc<Shared>,
    handle: &Arc<JobHandle>,
    spec: &JobSpec,
    resume_from: Option<SessionCheckpoint>,
    origin: CachePath,
    writer: &SharedWriter,
) -> Result<(Estimate, CachePath, u64), JobEnd> {
    let fail = |m: String| JobEnd::Failed(m);
    let (entry, compiled_hit) = shared
        .cache
        .compiled(spec)
        .map_err(|e| fail(e.to_string()))?;
    let input_model = spec.parsed_input_model().map_err(fail)?;
    let config = spec.config();
    let estimator = DipeEstimator::new();
    // Pick the cheapest valid starting point: explicit resume file, warm
    // cache, compiled cache, cold — in that order.
    let (mut session, cache) = if let Some(checkpoint) = resume_from {
        let session = estimator
            .resume_compiled(
                &entry.circuit,
                &config,
                &input_model,
                &checkpoint,
                entry.program.clone(),
                &entry.delays,
            )
            .map_err(|e| fail(e.to_string()))?;
        (session, origin)
    } else if let Some(warm) = shared.cache.warm(spec) {
        let session = estimator
            .resume_compiled(
                &entry.circuit,
                &config,
                &input_model,
                &warm,
                entry.program.clone(),
                &entry.delays,
            )
            .map_err(|e| fail(e.to_string()))?;
        (session, CachePath::Warm)
    } else {
        let session = estimator
            .start_compiled(
                &entry.circuit,
                &config,
                &input_model,
                0,
                entry.program.clone(),
                &entry.delays,
            )
            .map_err(|e| fail(e.to_string()))?;
        (
            session,
            if compiled_hit {
                CachePath::Compiled
            } else {
                CachePath::Cold
            },
        )
    };
    // Attach the job's trace ring. The first line records which cache tier
    // seeded the session, so a trace consumer knows whether the warm-up and
    // interval-selection events that follow (or their absence) came from
    // real simulation or from restored state.
    let tracer = Tracer::to_sink(Arc::clone(&handle.trace) as Arc<dyn TraceSink>);
    tracer.emit("job_start", |e| {
        e.field_u64("job_id", handle.id)
            .field_str("circuit", spec.circuit.name())
            .field_str("cache_path", cache.label())
            .field_bool("compiled_hit", compiled_hit);
    });
    session.set_tracer(tracer);
    // Cycles inherited from a checkpoint are accounted but not executed
    // here; the difference is the work the cache (or resume) skipped.
    let inherited_cycles = session.cycles_done();
    let budget = CycleBudget::cycles(shared.config.slice_cycles.max(1));
    loop {
        if handle.cancel.load(Ordering::SeqCst) {
            return Err(JobEnd::Cancelled("job cancelled".to_string()));
        }
        handle_checkpoint_request(handle, spec, session.as_ref())?;
        shared.gate.acquire();
        let progress = session.step(budget);
        shared.gate.release();
        match progress {
            Err(error) => return Err(JobEnd::Failed(error.to_string())),
            Ok(Progress::Running {
                cycles_done,
                samples,
                current_rhw,
                phase,
            }) => {
                {
                    let mut status = handle.status.lock().unwrap();
                    status.phase = format!("{phase:?}");
                    status.cycles_done = cycles_done;
                    status.samples = samples as u64;
                }
                // One progress event per slice: the protocol's streaming
                // granularity equals the scheduling granularity.
                writer.send(
                    &Event::Progress {
                        job_id: handle.id,
                        phase: format!("{phase:?}"),
                        cycles_done,
                        samples: samples as u64,
                        rhw: current_rhw,
                    }
                    .to_json(),
                );
            }
            Ok(Progress::Done(estimate)) => {
                // Harvest the warm checkpoint so the NEXT job on this stream
                // can skip warm-up + interval selection. (After a warm hit
                // the entry already exists; store_warm keeps the first.)
                if let Some(warm) = session.warm_checkpoint() {
                    shared.cache.store_warm(spec, warm);
                }
                handle.flush_checkpoint_request("job finished before the checkpoint was taken");
                let executed = session.cycles_done().saturating_sub(inherited_cycles);
                return Ok((estimate, cache, executed));
            }
        }
    }
}

/// Services a pending checkpoint request if the session is currently
/// checkpointable; leaves it pending otherwise (warm-up and interval
/// selection carry no checkpointable state — the request is fulfilled at the
/// first sampling-phase slice boundary).
fn handle_checkpoint_request(
    handle: &Arc<JobHandle>,
    spec: &JobSpec,
    session: &(dyn dipe::EstimationSession + '_),
) -> Result<(), JobEnd> {
    let mut stop_after = false;
    {
        let mut slot = handle.checkpoint.lock().unwrap();
        let Some(request) = slot.as_ref() else {
            return Ok(());
        };
        let Some(checkpoint) = session.checkpoint() else {
            return Ok(()); // not checkpointable yet; try next slice
        };
        let file = CheckpointFile {
            job: spec.clone(),
            checkpoint,
        };
        let outcome = file
            .save(&request.path)
            .map(|()| request.path.display().to_string());
        let ok = outcome.is_ok();
        request.reply.fulfill(outcome);
        if ok && request.stop {
            stop_after = true;
        }
        *slot = None;
    }
    if stop_after {
        return Err(JobEnd::Cancelled(
            "job stopped after checkpoint (resume it with the `resume` RPC)".to_string(),
        ));
    }
    Ok(())
}
