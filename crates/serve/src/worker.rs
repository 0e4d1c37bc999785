//! The worker half of the distributed shard runtime: wire forms for
//! seed-stream blocks and the `dipe-worker` serving loop.
//!
//! A worker is deliberately dumb: it listens for a coordinator, accepts a
//! `work` order (a full [`JobSpec`] plus the coordinator-selected
//! independence interval), and from then on produces sealed sample blocks
//! for whatever seed streams it is assigned, streaming them back as NDJSON
//! `block` lines and `heartbeat` lines while idle. All policy — warm-up,
//! interval selection, the pooled stopping rule, retries, reassignment —
//! lives in the [coordinator](crate::coordinator). The worker's only
//! obligations are determinism (a stream assignment names a block index and
//! an exact sampler state, so any worker produces the identical tape) and
//! honesty (blocks are checksummed end to end by [`RemoteBlock`]).
//!
//! One thread, the connection's pump (see `crate::lines`), reads the
//! coordinator's commands. The serving loop applies every command already
//! received, produces while any stream has production credit, and only when
//! none has does it wait for the next command — or until a heartbeat is due.
//!
//! The loop also hosts the deterministic fault-injection harness: a
//! [`FaultPlan`] makes the worker kill itself, drop its coordinator
//! connection, delay sends, or corrupt a sealed payload after a planned
//! number of produced blocks — real faults through the real transport, which
//! is what the recovery paths are tested against.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use dipe::remote::{
    corrupt_block_payload, FaultPlan, PostBlockFault, RemoteBlock, StreamWorker,
    DEFAULT_LEAD_BLOCKS,
};
use dipe::SamplerState;
use seqstats::PooledSampleState;

use crate::checkpoint_io::{sampler_from_json, sampler_to_json};
use crate::json::Json;
use crate::lines::{Connection, Pumped};
use crate::spec::JobSpec;

/// How often an idle worker emits a `heartbeat` line.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

// ---------------------------------------------------------------------------
// Wire forms
// ---------------------------------------------------------------------------

/// Serialises a sealed block to its NDJSON `block` line payload. Power
/// samples travel as raw IEEE-754 bits and the checksum travels with the
/// block, so the receiving merger re-verifies content end to end.
pub fn block_to_json(block: &RemoteBlock) -> Json {
    let mut pairs = vec![
        ("type", Json::str("block")),
        ("stream", Json::u64(u64::from(block.stream))),
        ("block_index", Json::u64(block.block_index)),
        (
            "power_bits",
            Json::Arr(block.powers.bits.iter().copied().map(Json::u64).collect()),
        ),
        ("end_state", sampler_to_json(&block.end_state)),
        ("checksum", Json::u64(block.checksum)),
    ];
    if let Some(acc) = &block.accumulator {
        let nums = |v: &[u64]| Json::Arr(v.iter().copied().map(Json::u64).collect());
        pairs.push((
            "accumulator",
            Json::obj(vec![
                ("observations", Json::u64(acc.observations)),
                ("totals", nums(&acc.totals)),
                ("totals_sq", nums(&acc.totals_sq)),
                ("glitch_totals", nums(&acc.glitch_totals)),
            ]),
        ));
    }
    Json::obj(pairs)
}

/// Parses a `block` line back into a [`RemoteBlock`]. The checksum is
/// carried, not recomputed — verification stays with the merger so a
/// corrupted payload is *detected* there, not silently re-sealed here.
///
/// # Errors
///
/// Returns a human-readable message for missing or mistyped fields.
pub fn block_from_json(value: &Json) -> Result<RemoteBlock, String> {
    let stream = value
        .get("stream")
        .and_then(Json::as_u64)
        .ok_or("block has no stream")?;
    let stream = u32::try_from(stream).map_err(|_| "block stream out of range")?;
    let block_index = value
        .get("block_index")
        .and_then(Json::as_u64)
        .ok_or("block has no block_index")?;
    let bits = value
        .get("power_bits")
        .and_then(Json::as_arr)
        .ok_or("block has no power_bits")?
        .iter()
        .map(|v| v.as_u64().ok_or("power_bits must be u64".to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let end_state = sampler_from_json(value.get("end_state").ok_or("block has no end_state")?)?;
    let checksum = value
        .get("checksum")
        .and_then(Json::as_u64)
        .ok_or("block has no checksum")?;
    let accumulator = match value.get("accumulator") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let nums = |key: &str| -> Result<Vec<u64>, String> {
                v.get(key)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("accumulator has no {key}"))?
                    .iter()
                    .map(|n| n.as_u64().ok_or_else(|| format!("{key} must be u64")))
                    .collect()
            };
            Some(seqstats::MomentAccumulatorState {
                observations: v
                    .get("observations")
                    .and_then(Json::as_u64)
                    .ok_or("accumulator has no observations")?,
                totals: nums("totals")?,
                totals_sq: nums("totals_sq")?,
                glitch_totals: nums("glitch_totals")?,
            })
        }
    };
    Ok(RemoteBlock {
        stream,
        block_index,
        powers: PooledSampleState { bits },
        accumulator,
        end_state,
        checksum,
    })
}

/// The `work` order opening a coordinator connection: the full job plus the
/// coordinator-selected sampling parameters.
pub(crate) fn work_msg(
    spec: &JobSpec,
    interval: usize,
    base_seed_offset: u64,
    streams: usize,
    lead: u64,
) -> Json {
    Json::obj(vec![
        ("type", Json::str("work")),
        ("job", spec.to_json()),
        ("interval", Json::usize(interval)),
        ("base_seed_offset", Json::u64(base_seed_offset)),
        ("streams", Json::usize(streams)),
        ("lead", Json::u64(lead)),
    ])
}

/// A stream (re)assignment: produce `stream` from `from_block`, restoring
/// `state` first (absent only for a fresh secondary stream at block 0).
pub(crate) fn assign_msg(stream: u32, from_block: u64, state: Option<&SamplerState>) -> Json {
    Json::obj(vec![
        ("type", Json::str("assign")),
        ("stream", Json::u64(u64::from(stream))),
        ("from_block", Json::u64(from_block)),
        ("state", state.map_or(Json::Null, sampler_to_json)),
    ])
}

pub(crate) fn consumed_msg(rounds: u64) -> Json {
    Json::obj(vec![
        ("type", Json::str("consumed")),
        ("rounds", Json::u64(rounds)),
    ])
}

pub(crate) fn stop_msg() -> Json {
    Json::obj(vec![("type", Json::str("stop"))])
}

// ---------------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------------

enum ConnExit {
    /// The connection ended (peer gone, `stop` received, or a drop fault);
    /// go back to accepting.
    BackToAccept,
    /// A kill fault fired: shut the whole worker down, abruptly.
    Kill,
}

/// Serves one worker process: accepts coordinator connections in sequence
/// and produces assigned stream blocks until killed.
///
/// Returns when a `kill-after-blocks` fault fires (the caller — the
/// `dipe-serve --worker` binary — exits, dropping the listener mid-protocol,
/// which is exactly the failure the coordinator must survive) or when the
/// listener dies. The produced-block fault counters persist across
/// connections, so a coordinator that reconnects after a drop fault
/// continues toward the same planned kill point.
pub fn run_worker(listener: TcpListener, fault: &FaultPlan, quiet: bool) -> Result<(), String> {
    let mut produced_total = 0u64;
    loop {
        let (conn, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) => return Err(format!("worker accept failed: {e}")),
        };
        if !quiet {
            eprintln!("dipe-worker: coordinator connected from {peer}");
        }
        match serve_coordinator(conn, fault, &mut produced_total, quiet) {
            Ok(ConnExit::BackToAccept) => continue,
            Ok(ConnExit::Kill) => {
                if !quiet {
                    eprintln!(
                        "dipe-worker: fault injection: killing worker after {produced_total} blocks"
                    );
                }
                return Ok(());
            }
            Err(message) => {
                if !quiet {
                    eprintln!("dipe-worker: connection error: {message}");
                }
                continue;
            }
        }
    }
}

fn serve_coordinator(
    socket: TcpStream,
    fault: &FaultPlan,
    produced_total: &mut u64,
    quiet: bool,
) -> Result<ConnExit, String> {
    socket.set_nodelay(true).ok();
    let (pumped, commands) = mpsc::channel();
    let mut conn = Connection::open(socket, move |item| pumped.send(item).is_ok())
        .map_err(|e| format!("start the connection reader: {e}"))?;

    // The first line must be the work order.
    let order = match commands.recv() {
        Ok(Pumped::Line(line)) => line,
        Ok(Pumped::Failed(message)) => return Err(message),
        Ok(Pumped::Closed) | Err(_) => return Ok(ConnExit::BackToAccept),
    };
    let order = Json::parse(order.trim()).map_err(|e| format!("work order: {e}"))?;
    if order.get("type").and_then(Json::as_str) != Some("work") {
        let _ = conn.send(&Json::obj(vec![
            ("type", Json::str("worker_error")),
            ("message", Json::str("expected a `work` order first")),
        ]));
        return Ok(ConnExit::BackToAccept);
    }
    let spec = match order
        .get("job")
        .ok_or("work order has no job".to_string())
        .and_then(|j| JobSpec::from_json(j).map_err(|e| format!("work order job: {e}")))
    {
        Ok(spec) => spec,
        Err(message) => {
            let _ = conn.send(&Json::obj(vec![
                ("type", Json::str("worker_error")),
                ("message", Json::str(message)),
            ]));
            return Ok(ConnExit::BackToAccept);
        }
    };
    let interval = order
        .get("interval")
        .and_then(Json::as_usize)
        .ok_or("work order has no interval")?;
    let base_seed_offset = order
        .get("base_seed_offset")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let lead = order
        .get("lead")
        .and_then(Json::as_u64)
        .unwrap_or(DEFAULT_LEAD_BLOCKS);
    let circuit = spec
        .circuit
        .load()
        .map_err(|e| format!("work order circuit: {e}"))?;
    let input_model = spec.parsed_input_model()?;
    let mut worker = StreamWorker::new(
        &circuit,
        spec.config(),
        input_model,
        base_seed_offset,
        interval,
        lead,
    );
    conn.send(&Json::obj(vec![("type", Json::str("working"))]))
        .map_err(|e| format!("ack: {e}"))?;
    if !quiet {
        eprintln!(
            "dipe-worker: working on {} (interval {interval})",
            spec.circuit.name()
        );
    }

    let mut last_sent = Instant::now();
    loop {
        // Apply every command already received before producing.
        loop {
            match commands.try_recv() {
                Ok(item) => {
                    if let Some(exit) = apply(item, &mut worker, &mut conn)? {
                        return Ok(exit);
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return Ok(ConnExit::BackToAccept),
            }
        }

        // Produce while any stream has credit.
        if let Some(stream) = worker.next_ready() {
            let mut block = worker.produce(stream);
            *produced_total += 1;
            let (corrupt, delay) = fault.on_block(*produced_total);
            if corrupt {
                if !quiet {
                    eprintln!(
                        "dipe-worker: fault injection: corrupting block {} of stream {stream}",
                        block.block_index
                    );
                }
                corrupt_block_payload(&mut block);
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            conn.send(&block_to_json(&block))
                .map_err(|e| format!("send block: {e}"))?;
            last_sent = Instant::now();
            match fault.after_block(*produced_total) {
                PostBlockFault::None => {}
                PostBlockFault::Kill => return Ok(ConnExit::Kill),
                PostBlockFault::DropConnection => {
                    if !quiet {
                        eprintln!(
                            "dipe-worker: fault injection: dropping connection after \
                             {produced_total} blocks"
                        );
                    }
                    return Ok(ConnExit::BackToAccept);
                }
            }
            continue;
        }

        // No stream has credit: wait for a command until a heartbeat is due.
        match commands.recv_timeout(HEARTBEAT_EVERY.saturating_sub(last_sent.elapsed())) {
            Ok(item) => {
                if let Some(exit) = apply(item, &mut worker, &mut conn)? {
                    return Ok(exit);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                conn.send(&Json::obj(vec![("type", Json::str("heartbeat"))]))
                    .map_err(|e| format!("heartbeat: {e}"))?;
                last_sent = Instant::now();
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(ConnExit::BackToAccept),
        }
    }
}

/// Applies one item from the connection's pump; `Some` ends the connection.
fn apply(
    item: Pumped,
    worker: &mut StreamWorker<'_>,
    conn: &mut Connection,
) -> Result<Option<ConnExit>, String> {
    let line = match item {
        Pumped::Line(line) => line,
        Pumped::Closed => return Ok(Some(ConnExit::BackToAccept)),
        Pumped::Failed(message) => return Err(message),
    };
    let msg = Json::parse(line.trim()).map_err(|e| format!("command: {e}"))?;
    match msg.get("type").and_then(Json::as_str).unwrap_or("") {
        "assign" => {
            let stream = msg
                .get("stream")
                .and_then(Json::as_u64)
                .ok_or("assign has no stream")?;
            let stream = u32::try_from(stream).map_err(|_| "assign stream out of range")?;
            let from_block = msg.get("from_block").and_then(Json::as_u64).unwrap_or(0);
            let state = match msg.get("state") {
                None | Some(Json::Null) => None,
                Some(v) => Some(sampler_from_json(v)?),
            };
            worker
                .assign(stream, from_block, state.as_ref())
                .map_err(|e| format!("assign stream {stream}: {e}"))?;
        }
        "revoke" => {
            let stream = msg
                .get("stream")
                .and_then(Json::as_u64)
                .ok_or("revoke has no stream")?;
            worker.revoke(u32::try_from(stream).map_err(|_| "revoke stream out of range")?);
        }
        "consumed" => {
            worker.set_consumed(
                msg.get("rounds")
                    .and_then(Json::as_u64)
                    .ok_or("consumed has no rounds")?,
            );
        }
        "stop" => return Ok(Some(ConnExit::BackToAccept)),
        "ping" => {
            conn.send(&Json::obj(vec![("type", Json::str("pong"))]))
                .map_err(|e| format!("pong: {e}"))?;
        }
        other => return Err(format!("unknown worker command {other:?}")),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CircuitRef;
    use dipe::input::InputModel;
    use dipe::shards::{FrontStep, SerialFront};
    use dipe::{DipeConfig, PowerSampler};
    use netlist::{iscas89, NetlistFormat};
    use std::io::{BufRead, BufReader, Write};

    fn produce_one_block() -> RemoteBlock {
        let circuit = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(2027);
        let sampler = PowerSampler::new(&circuit, &config, &InputModel::uniform(), 0).unwrap();
        let mut front = SerialFront::new(sampler, &config);
        let (sampler, selection) = match front
            .advance(&config, u64::MAX, &telemetry::Tracer::disabled())
            .unwrap()
        {
            FrontStep::Selected(sampler, selection) => (sampler, selection),
            FrontStep::OutOfBudget => unreachable!(),
        };
        let mut worker = StreamWorker::new(
            &circuit,
            config,
            InputModel::uniform(),
            0,
            selection.interval,
            4,
        );
        worker.assign(0, 0, Some(&sampler.snapshot())).unwrap();
        worker.produce(0)
    }

    #[test]
    fn block_wire_form_round_trips_bit_for_bit() {
        let block = produce_one_block();
        let line = block_to_json(&block).to_line();
        let back = block_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, block);
        assert!(back.verify());
    }

    #[test]
    fn corrupted_wire_payload_fails_verification_after_parse() {
        let mut block = produce_one_block();
        corrupt_block_payload(&mut block);
        let line = block_to_json(&block).to_line();
        let back = block_from_json(&Json::parse(&line).unwrap()).unwrap();
        assert!(!back.verify(), "the carried checksum must expose the flip");
    }

    #[test]
    fn malformed_blocks_are_rejected_with_field_names() {
        let block = produce_one_block();
        let mut doc = block_to_json(&block);
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "checksum");
        }
        let err = block_from_json(&doc).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert!(block_from_json(&Json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn a_work_order_split_inside_a_multibyte_character_is_served() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = listener.local_addr().unwrap();
        std::thread::spawn(move || run_worker(listener, &FaultPlan::default(), true));

        // `Json` writes non-ASCII unescaped, so the name's `é` travels as the
        // two bytes C3 A9; the order is sent in two writes split between them.
        let spec = JobSpec {
            circuit: CircuitRef::Inline {
                name: "café".to_string(),
                source: "INPUT(a)\nOUTPUT(y)\nq = DFF(d)\nd = XOR(a, q)\ny = NOT(q)\n".to_string(),
                format: NetlistFormat::Bench,
            },
            ..JobSpec::named("x")
        };
        let mut order = work_msg(&spec, 1, 0, 1, DEFAULT_LEAD_BLOCKS).to_line();
        order.push('\n');
        let split = order.find('é').unwrap() + 1;
        let mut conn = TcpStream::connect(endpoint).unwrap();
        // Read the reply on a thread, so a worker that never answers fails
        // the test at the timeout below instead of hanging it.
        let reader = conn.try_clone().unwrap();
        let (reply_tx, replies) = std::sync::mpsc::channel();
        let reading = std::thread::spawn(move || {
            let mut reply = String::new();
            let _ = BufReader::new(reader).read_line(&mut reply);
            let _ = reply_tx.send(reply);
        });
        conn.write_all(&order.as_bytes()[..split]).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        conn.write_all(&order.as_bytes()[split..]).unwrap();

        let reply = replies
            .recv_timeout(Duration::from_secs(5))
            .expect("the worker answers within 5 s");
        reading.join().unwrap();
        let reply = Json::parse(reply.trim()).expect("a JSON reply line");
        assert_eq!(reply.get("type").and_then(Json::as_str), Some("working"));
        conn.write_all(b"{\"type\":\"stop\"}\n").unwrap();
    }
}
