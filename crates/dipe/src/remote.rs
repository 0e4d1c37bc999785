//! Fault-tolerant distributed sharding: seed-stream blocks, dedup/reassignment,
//! and a deterministic fault-injection harness.
//!
//! The estimation core ([`crate::session`]) is a pure fold over round-robin
//! rounds of sample blocks, which makes it distributable with a strong
//! contract: the estimate is a function of `(circuit, config, input model,
//! seed, stream count)` and of *nothing else*. This module supplies the
//! transport-agnostic half of that distribution:
//!
//! * sampling work is keyed by **seed-stream index**, never by worker
//!   identity. Stream 0 continues the session's own RNG stream (carrying the
//!   post-selection sampler state), streams `1..N` are seeded via
//!   [`shard_seed_offset`] exactly like local shards. Any worker may produce
//!   any stream's blocks — a stream is a deterministic tape, a worker is just
//!   a playhead;
//! * each produced block ([`RemoteBlock`]) carries its power sample as raw
//!   IEEE-754 bits, the exact sampler state *after* the block (the
//!   reassignment handle), and an FNV-1a checksum over every
//!   contract-relevant bit, so a corrupted payload is detected rather than
//!   silently folded into the estimate;
//! * the [`StreamMerger`] — the one merger of every multi-stream run, local
//!   shard threads included — deduplicates blocks by `(stream, block
//!   index)` — a resurrected straggler re-sending work it already delivered
//!   is harmless — and consumes strict round-robin rounds in stream order;
//! * when a worker dies, [`StreamMerger::assignment`] hands out the exact
//!   frontier of each orphaned stream: the next block index still needed and
//!   the sampler state to restore before producing it. The replacement
//!   worker continues the tape bit-for-bit, so killing k of N workers
//!   mid-run cannot change the estimate;
//! * [`FaultPlan`] describes deterministic fault injection (kill / delay /
//!   connection drop / payload corruption after N produced blocks) that both
//!   the real worker process and in-process proxy transports honour, so the
//!   recovery paths are tested with real faults, not mocks.
//!
//! The module is deliberately free of sockets, threads and clocks: the
//! worker side ([`StreamWorker`]) and merger are sans-IO state machines the
//! `dipe-serve` crate drives over its NDJSON transport, and tests drive
//! directly. Determinism is therefore testable in-process: the tests below
//! run the full produce/offer/consume pipeline with injected kills,
//! duplicates and corruption and assert the result is bit-identical to
//! [`ShardedDipeEstimator`](crate::ShardedDipeEstimator).

use std::collections::BTreeMap;
use std::time::Duration;

use netlist::Circuit;
use seqstats::{MomentAccumulatorState, PooledSampleState};

use crate::checkpoint::SamplerState;
use crate::config::DipeConfig;
use crate::error::DipeError;
use crate::input::InputModel;
use crate::sampler::PowerSampler;
use crate::shards::{shard_seed_offset, splitmix64};

/// Default per-stream production lead, matching the shard threads'
/// [`MAX_LEAD_ROUNDS`](crate::shards::MAX_LEAD_ROUNDS): a worker may run a
/// stream at most this many blocks past the last consumed round.
pub const DEFAULT_LEAD_BLOCKS: u64 = crate::shards::MAX_LEAD_ROUNDS;

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a, word-fed. The wire layer (dipe-serve) has its own FNV for
/// compiled-circuit cache keys; blocks are checksummed here, below the
/// transport, so an in-process proxy transport exercises the same rejection
/// path as the NDJSON one.
#[derive(Debug, Clone)]
struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    fn new() -> Self {
        Fnv64 {
            state: Self::OFFSET_BASIS,
        }
    }

    fn update_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    fn update_bool(&mut self, value: bool) {
        self.update_u64(u64::from(value));
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

fn checksum_sampler_state(hash: &mut Fnv64, state: &SamplerState) {
    for word in state.input_stream.rng_state {
        hash.update_u64(word);
    }
    hash.update_u64(state.input_stream.previous.len() as u64);
    for &bit in &state.input_stream.previous {
        hash.update_bool(bit);
    }
    hash.update_bool(state.input_stream.has_previous);
    hash.update_u64(state.input_stream.trace_cursor);
    hash.update_u64(state.latch_state.len() as u64);
    for &bit in &state.latch_state {
        hash.update_bool(bit);
    }
    hash.update_u64(state.input_pattern.len() as u64);
    for &bit in &state.input_pattern {
        hash.update_bool(bit);
    }
    hash.update_u64(state.cycle_counts.zero_delay_cycles);
    hash.update_u64(state.cycle_counts.measured_cycles);
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

/// One serialized sample block of one seed stream.
///
/// Everything that feeds the estimate travels as exact integers (IEEE-754
/// bits for the powers, integer moment sums for breakdown payloads), and the
/// checksum seals all of it plus the end-of-block sampler state, so a
/// payload bit flipped in transit is rejected by [`RemoteBlock::verify`]
/// instead of perturbing the pooled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteBlock {
    /// Seed-stream index (`0..streams`), *not* a worker identity.
    pub stream: u32,
    /// Position of this block on its stream's tape, starting at 0.
    pub block_index: u64,
    /// The block's `block_size` power samples as raw IEEE-754 bits.
    pub powers: PooledSampleState,
    /// Per-net integer moment deltas for breakdown runs (`None` for the
    /// scalar total-power estimator).
    pub accumulator: Option<MomentAccumulatorState>,
    /// Exact sampler state *after* the block — the handle a replacement
    /// worker restores from when this stream is reassigned past this block.
    pub end_state: SamplerState,
    /// FNV-1a over every field above.
    pub checksum: u64,
}

impl RemoteBlock {
    /// Builds a block and seals it with its checksum.
    pub fn sealed(
        stream: u32,
        block_index: u64,
        powers: PooledSampleState,
        accumulator: Option<MomentAccumulatorState>,
        end_state: SamplerState,
    ) -> Self {
        let mut block = RemoteBlock {
            stream,
            block_index,
            powers,
            accumulator,
            end_state,
            checksum: 0,
        };
        block.checksum = block.compute_checksum();
        block
    }

    fn compute_checksum(&self) -> u64 {
        let mut hash = Fnv64::new();
        hash.update_u64(u64::from(self.stream));
        hash.update_u64(self.block_index);
        hash.update_u64(self.powers.bits.len() as u64);
        for &bits in &self.powers.bits {
            hash.update_u64(bits);
        }
        match &self.accumulator {
            None => hash.update_u64(0),
            Some(acc) => {
                hash.update_u64(1);
                hash.update_u64(acc.observations);
                hash.update_u64(acc.totals.len() as u64);
                for &v in &acc.totals {
                    hash.update_u64(v);
                }
                for &v in &acc.totals_sq {
                    hash.update_u64(v);
                }
                for &v in &acc.glitch_totals {
                    hash.update_u64(v);
                }
            }
        }
        checksum_sampler_state(&mut hash, &self.end_state);
        hash.finish()
    }

    /// Whether the stored checksum matches the content.
    pub fn verify(&self) -> bool {
        self.checksum == self.compute_checksum()
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A delayed-send fault: every block after the first `after_blocks` produced
/// is held back `millis` before sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayFault {
    /// Blocks to produce normally before delaying kicks in.
    pub after_blocks: u64,
    /// Milliseconds each subsequent block send is delayed.
    pub millis: u64,
}

/// What a faulty worker does after sending a given block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostBlockFault {
    /// Carry on.
    None,
    /// Terminate the worker process (no goodbye).
    Kill,
    /// Drop the coordinator connection once (the worker keeps listening, so
    /// a reconnect succeeds — this exercises the retry-success path).
    DropConnection,
}

/// A deterministic fault-injection plan for one worker.
///
/// Counters are in *blocks produced by this worker* (across all its
/// streams), so the injected fault lands at a reproducible point in the run
/// regardless of transport timing. Parsed from the CLI syntax
/// `kill-after-blocks:N`, `delay:N:MS`, `drop-after-blocks:N`,
/// `corrupt-block:N` (comma-separated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Kill the worker after it has sent this many blocks.
    pub kill_after_blocks: Option<u64>,
    /// Delay block sends after a threshold.
    pub delay: Option<DelayFault>,
    /// Drop the coordinator connection (once) after this many blocks.
    pub drop_after_blocks: Option<u64>,
    /// Corrupt the payload of the Nth produced block (1-based): a power bit
    /// is flipped *after* sealing, so the block parses but fails
    /// [`RemoteBlock::verify`].
    pub corrupt_block: Option<u64>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Parses the comma-separated CLI syntax.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in text.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut parts = clause.split(':');
            let kind = parts.next().unwrap_or("");
            let parse_u64 = |what: &str, v: Option<&str>| -> Result<u64, String> {
                v.ok_or_else(|| format!("fault clause {clause:?} is missing its {what}"))?
                    .parse::<u64>()
                    .map_err(|_| format!("fault clause {clause:?} has a non-numeric {what}"))
            };
            match kind {
                "kill-after-blocks" => {
                    plan.kill_after_blocks = Some(parse_u64("block count", parts.next())?);
                }
                "drop-after-blocks" => {
                    plan.drop_after_blocks = Some(parse_u64("block count", parts.next())?);
                }
                "corrupt-block" => {
                    let n = parse_u64("block index", parts.next())?;
                    if n == 0 {
                        return Err("corrupt-block indices are 1-based".to_string());
                    }
                    plan.corrupt_block = Some(n);
                }
                "delay" => {
                    plan.delay = Some(DelayFault {
                        after_blocks: parse_u64("block count", parts.next())?,
                        millis: parse_u64("delay in ms", parts.next())?,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (expected kill-after-blocks, \
                         drop-after-blocks, corrupt-block or delay)"
                    ));
                }
            }
            if parts.next().is_some() {
                return Err(format!("fault clause {clause:?} has trailing fields"));
            }
        }
        Ok(plan)
    }

    /// Faults applied *to* the `index`-th produced block (1-based): whether
    /// its payload is corrupted and how long its send is delayed.
    pub fn on_block(&self, index: u64) -> (bool, Duration) {
        let corrupt = self.corrupt_block == Some(index);
        let delay = match self.delay {
            Some(DelayFault {
                after_blocks,
                millis,
            }) if index > after_blocks => Duration::from_millis(millis),
            _ => Duration::ZERO,
        };
        (corrupt, delay)
    }

    /// Fault applied *after* sending `produced` blocks in total. Kill wins
    /// over a connection drop scheduled at the same point.
    pub fn after_block(&self, produced: u64) -> PostBlockFault {
        if self.kill_after_blocks == Some(produced) {
            PostBlockFault::Kill
        } else if self.drop_after_blocks == Some(produced) {
            PostBlockFault::DropConnection
        } else {
            PostBlockFault::None
        }
    }
}

/// Flips one payload bit of a sealed block (the corrupt-payload fault). The
/// checksum is left intact, so the block parses everywhere but fails
/// [`RemoteBlock::verify`] at the merger.
pub fn corrupt_block_payload(block: &mut RemoteBlock) {
    if let Some(bits) = block.powers.bits.first_mut() {
        *bits ^= 1;
    } else {
        block.block_index ^= 1;
    }
}

// ---------------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------------

/// Capped exponential backoff with deterministic jitter.
///
/// Attempt 0 waits `base`, attempt k waits `base << k`, capped at `cap`;
/// up to 25 % jitter is added from a splitmix64 hash of
/// `(endpoint_hash, attempt)` so retry storms from many clients against one
/// endpoint de-synchronise without any global randomness (runs stay
/// reproducible).
pub fn retry_backoff(attempt: u32, endpoint_hash: u64, base: Duration, cap: Duration) -> Duration {
    let base_ms = base.as_millis().min(u128::from(u64::MAX)) as u64;
    let cap_ms = cap.as_millis().min(u128::from(u64::MAX)) as u64;
    let scaled = base_ms
        .saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX))
        .min(cap_ms);
    let jitter_span = scaled / 4;
    let jitter = if jitter_span == 0 {
        0
    } else {
        splitmix64(endpoint_hash ^ u64::from(attempt).wrapping_mul(0x9E37_79B9)) % (jitter_span + 1)
    };
    Duration::from_millis(scaled.saturating_add(jitter).min(cap_ms))
}

/// A stable hash of an endpoint string for [`retry_backoff`] jitter.
pub fn endpoint_hash(endpoint: &str) -> u64 {
    let mut hash = Fnv64::new();
    for byte in endpoint.bytes() {
        hash.update_u64(u64::from(byte));
    }
    hash.finish()
}

// ---------------------------------------------------------------------------
// Run statistics
// ---------------------------------------------------------------------------

/// Robustness counters of one distributed run. Diagnostic only — nothing in
/// here feeds the estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Workers that accepted the job at fan-out.
    pub workers_connected: u64,
    /// Workers declared dead during the run (timeout, connection loss, or a
    /// corrupt payload).
    pub workers_lost: u64,
    /// Initial stream assignments handed out.
    pub assignments: u64,
    /// Streams reassigned to a different worker after a failure.
    pub reassignments: u64,
    /// Reconnect/request retries performed.
    pub retries: u64,
    /// Block deadlines that expired.
    pub timeouts: u64,
    /// Blocks rejected as duplicates of already-buffered or consumed work.
    pub duplicate_blocks: u64,
    /// Blocks rejected by checksum verification.
    pub corrupt_blocks: u64,
    /// Blocks folded into the pooled sample.
    pub blocks_consumed: u64,
    /// Whether the run finished on local in-process shards because no
    /// worker was reachable (graceful degradation).
    pub fell_back_local: bool,
}

// ---------------------------------------------------------------------------
// The coordinator-side merger
// ---------------------------------------------------------------------------

/// Why [`StreamMerger::offer`] did not buffer a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOutcome {
    /// Buffered; it will be consumed in round order.
    Accepted,
    /// Already consumed or already buffered — a resurrected straggler
    /// re-sent delivered work. Harmless; dropped.
    Duplicate,
    /// Checksum verification failed; the sender must be treated as
    /// compromised and its streams reassigned.
    Corrupt,
    /// The stream index is out of range for this run.
    UnknownStream,
}

/// Where a (re)assigned worker must pick a stream up.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The next block index the merger still needs from this stream.
    pub from_block: u64,
    /// Sampler state to restore before producing `from_block`. `None` only
    /// for a fresh secondary stream (`from_block == 0`): the worker
    /// constructs and warms the sampler itself from the seed.
    pub state: Option<SamplerState>,
}

/// A delivered block as the merger buffers it.
struct Delivered<P> {
    powers: Vec<f64>,
    payload: P,
    /// Sampler state after the block (remote blocks only).
    end_state: Option<SamplerState>,
}

struct MergeStream<P> {
    /// Delivered-but-not-consumed blocks, keyed by block index.
    buffered: BTreeMap<u64, Delivered<P>>,
    /// Blocks consumed into the pooled sample so far.
    consumed: u64,
    /// End state of the last consumed block (or the initial state for
    /// stream 0 before any block).
    last_state: Option<SamplerState>,
}

/// The deterministic fold of every multi-stream run: buffers per-stream
/// blocks, deduplicates by `(stream, block index)`, and consumes strict
/// round-robin rounds in stream order into the pooled sample.
///
/// One merger serves both transports. Remote blocks ([`RemoteBlock`],
/// offered through [`offer`](Self::offer)) are checksum-verified and keep
/// their end state so a lost stream can be reassigned from its exact
/// frontier; in-process shard blocks (`offer_local`)
/// carry a fold payload of type `P` instead and are never serialized,
/// checksummed or snapshotted. Either way the pooled sample of the same
/// seed streams is bit-identical.
pub struct StreamMerger<P = ()> {
    streams: Vec<MergeStream<P>>,
    sample: Vec<f64>,
    rounds: u64,
    stats: RemoteStats,
}

impl StreamMerger {
    /// Creates the merger of a remote run over `streams` seed streams.
    /// `stream0_state` is the post-selection state of the session's own
    /// sampler — the state a worker restores to continue stream 0
    /// bit-for-bit.
    pub fn new(streams: usize, stream0_state: SamplerState) -> Self {
        let mut merger = StreamMerger::local(streams);
        merger.streams[0].last_state = Some(stream0_state);
        merger
    }

    /// Offers a delivered remote block. Verifies the checksum, rejects
    /// duplicates by `(stream, block index)`, buffers the rest.
    pub fn offer(&mut self, block: RemoteBlock) -> BlockOutcome {
        if !block.verify() {
            self.stats.corrupt_blocks += 1;
            return BlockOutcome::Corrupt;
        }
        if block.stream as usize >= self.streams.len() {
            self.stats.corrupt_blocks += 1;
            return BlockOutcome::UnknownStream;
        }
        let delivered = Delivered {
            powers: block.powers.to_values(),
            payload: (),
            end_state: Some(block.end_state),
        };
        self.accept(block.stream as usize, block.block_index, delivered)
    }

    /// The exact frontier a worker taking over `stream` must resume from:
    /// the first block index not yet delivered (consumed or buffered
    /// contiguously), and the sampler state just before it.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub fn assignment(&self, stream: usize) -> Assignment {
        let s = &self.streams[stream];
        let mut from_block = s.consumed;
        while s.buffered.contains_key(&from_block) {
            from_block += 1;
        }
        let state = if from_block == s.consumed {
            s.last_state.clone()
        } else {
            s.buffered[&(from_block - 1)].end_state.clone()
        };
        Assignment { from_block, state }
    }
}

impl<P> StreamMerger<P> {
    /// Creates the merger of an in-process run over `streams` seed streams.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is zero.
    pub(crate) fn local(streams: usize) -> Self {
        assert!(streams >= 1, "at least one stream is required");
        StreamMerger {
            streams: (0..streams)
                .map(|_| MergeStream {
                    buffered: BTreeMap::new(),
                    consumed: 0,
                    last_state: None,
                })
                .collect(),
            sample: Vec::new(),
            rounds: 0,
            stats: RemoteStats::default(),
        }
    }

    /// The number of seed streams.
    pub fn streams(&self) -> usize {
        self.streams.len()
    }

    /// The pooled sample consumed so far, in deterministic merge order.
    pub fn sample(&self) -> &[f64] {
        &self.sample
    }

    /// Takes the pooled sample out of a finished merger.
    pub fn into_sample(self) -> Vec<f64> {
        self.sample
    }

    /// Complete rounds consumed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The robustness counters (shared with the transport layer, which
    /// records its own connection-level events here).
    pub fn stats(&self) -> &RemoteStats {
        &self.stats
    }

    /// Mutable access for the transport layer's counters.
    pub fn stats_mut(&mut self) -> &mut RemoteStats {
        &mut self.stats
    }

    /// Offers an in-process block of `stream` with its fold payload.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range.
    pub(crate) fn offer_local(
        &mut self,
        stream: usize,
        block_index: u64,
        powers: Vec<f64>,
        payload: P,
    ) -> BlockOutcome {
        let delivered = Delivered {
            powers,
            payload,
            end_state: None,
        };
        self.accept(stream, block_index, delivered)
    }

    fn accept(&mut self, stream: usize, block_index: u64, block: Delivered<P>) -> BlockOutcome {
        let stream = &mut self.streams[stream];
        if block_index < stream.consumed || stream.buffered.contains_key(&block_index) {
            self.stats.duplicate_blocks += 1;
            return BlockOutcome::Duplicate;
        }
        stream.buffered.insert(block_index, block);
        BlockOutcome::Accepted
    }

    /// Whether every stream has its next block buffered.
    pub fn round_ready(&self) -> bool {
        self.streams
            .iter()
            .all(|s| s.buffered.contains_key(&s.consumed))
    }

    /// Consumes one complete round (one block per stream, stream order) into
    /// the pooled sample. Returns `false` if the round is not ready.
    pub fn consume_round(&mut self) -> bool {
        self.consume_round_with(drop)
    }

    /// [`consume_round`](Self::consume_round), handing each block's payload
    /// to `absorb` in stream order.
    pub(crate) fn consume_round_with(&mut self, mut absorb: impl FnMut(P)) -> bool {
        if !self.round_ready() {
            return false;
        }
        for stream in self.streams.iter_mut() {
            let block = stream
                .buffered
                .remove(&stream.consumed)
                .expect("round_ready checked the block is buffered");
            self.sample.extend_from_slice(&block.powers);
            absorb(block.payload);
            stream.last_state = block.end_state;
            stream.consumed += 1;
            self.stats.blocks_consumed += 1;
        }
        self.rounds += 1;
        true
    }
}

// ---------------------------------------------------------------------------
// The worker-side producer
// ---------------------------------------------------------------------------

struct WorkerStream<'c> {
    sampler: PowerSampler<'c>,
    next_block: u64,
}

/// The worker-side stream producer: owns the samplers of its assigned seed
/// streams and produces sealed blocks in credit order.
///
/// Production credit mirrors the local flow control: a stream may run at
/// most `lead` blocks past the last round the coordinator reported consumed.
/// Among streams with credit, the one furthest behind produces next, so a
/// worker holding several streams advances them evenly.
pub struct StreamWorker<'c> {
    circuit: &'c Circuit,
    config: DipeConfig,
    input_model: InputModel,
    base_seed_offset: u64,
    interval: usize,
    lead: u64,
    consumed_rounds: u64,
    streams: BTreeMap<u32, WorkerStream<'c>>,
}

impl<'c> StreamWorker<'c> {
    /// Creates an idle producer for a run fanning out at `interval`.
    pub fn new(
        circuit: &'c Circuit,
        config: DipeConfig,
        input_model: InputModel,
        base_seed_offset: u64,
        interval: usize,
        lead: u64,
    ) -> Self {
        StreamWorker {
            circuit,
            config,
            input_model,
            base_seed_offset,
            interval,
            lead: lead.max(1),
            consumed_rounds: 0,
            streams: BTreeMap::new(),
        }
    }

    /// Takes ownership of a seed stream from block `from_block` onward.
    ///
    /// With a state the sampler is restored exactly (the reassignment path);
    /// without one the stream must be a fresh secondary stream starting at
    /// block 0 — the worker seeds it via [`shard_seed_offset`] and warms it
    /// up, exactly like a local shard. Stream 0 always requires a state (it
    /// continues the session's own RNG stream).
    ///
    /// # Errors
    ///
    /// Returns [`DipeError::InvalidCheckpoint`] for a stateless assignment
    /// that cannot be reconstructed from the seed alone, and propagates
    /// sampler construction/restore failures.
    pub fn assign(
        &mut self,
        stream: u32,
        from_block: u64,
        state: Option<&SamplerState>,
    ) -> Result<(), DipeError> {
        let mut sampler = PowerSampler::new(
            self.circuit,
            &self.config,
            &self.input_model,
            shard_seed_offset(self.base_seed_offset, stream as usize),
        )?;
        match state {
            Some(state) => sampler.restore(state)?,
            None => {
                if stream == 0 {
                    return Err(DipeError::InvalidCheckpoint {
                        message: "stream 0 continues the session's own stream and cannot be \
                                  assigned without its sampler state"
                            .to_string(),
                    });
                }
                if from_block != 0 {
                    return Err(DipeError::InvalidCheckpoint {
                        message: format!(
                            "stream {stream} assigned from block {from_block} without a sampler \
                             state; only block 0 can start fresh"
                        ),
                    });
                }
                sampler.advance(self.config.warmup_cycles);
            }
        }
        self.streams.insert(
            stream,
            WorkerStream {
                sampler,
                next_block: from_block,
            },
        );
        Ok(())
    }

    /// Releases a stream (it has been reassigned elsewhere).
    pub fn revoke(&mut self, stream: u32) {
        self.streams.remove(&stream);
    }

    /// Updates the consumed-round watermark (production credit).
    pub fn set_consumed(&mut self, rounds: u64) {
        self.consumed_rounds = self.consumed_rounds.max(rounds);
    }

    /// The assigned stream indices, ascending.
    pub fn assigned(&self) -> Vec<u32> {
        self.streams.keys().copied().collect()
    }

    /// The stream that should produce next — the furthest-behind stream
    /// still within its credit window — or `None` if every stream is at its
    /// lead limit (or none is assigned).
    pub fn next_ready(&self) -> Option<u32> {
        self.streams
            .iter()
            .filter(|(_, s)| s.next_block < self.consumed_rounds + self.lead)
            .min_by_key(|(id, s)| (s.next_block, **id))
            .map(|(id, _)| *id)
    }

    /// Produces and seals the next block of `stream`.
    ///
    /// # Panics
    ///
    /// Panics if the stream is not assigned to this worker.
    pub fn produce(&mut self, stream: u32) -> RemoteBlock {
        let entry = self
            .streams
            .get_mut(&stream)
            .expect("produce() requires an assigned stream");
        let block_size = self.config.block_size;
        let mut powers = Vec::with_capacity(block_size);
        for _ in 0..block_size {
            powers.push(
                entry
                    .sampler
                    .sample_power_w_observing(self.interval, |_| {}),
            );
        }
        let block_index = entry.next_block;
        entry.next_block += 1;
        RemoteBlock::sealed(
            stream,
            block_index,
            PooledSampleState::from_values(&powers),
            None,
            entry.sampler.snapshot(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{run_to_completion, Estimate, PowerEstimator};
    use crate::independence::IndependenceSelection;
    use crate::session::{assemble, FinishedRun, NoFold, RoundVerdict, StoppingRule};
    use crate::shards::{pooled_cycle_counts, FrontStep, SerialFront, ShardedDipeEstimator};
    use netlist::iscas89;

    fn config() -> DipeConfig {
        DipeConfig::default().with_seed(2027)
    }

    fn sharded_reference(circuit: &Circuit, shards: usize, seed_offset: u64) -> Estimate {
        run_to_completion(
            ShardedDipeEstimator::new(shards)
                .start(circuit, &config(), &InputModel::uniform(), seed_offset)
                .unwrap(),
        )
        .unwrap()
    }

    /// Runs warm-up + interval selection and returns the post-selection
    /// sampler plus the accepted interval — the coordinator's serial front.
    fn front(
        circuit: &Circuit,
        seed_offset: u64,
    ) -> (Box<PowerSampler<'_>>, IndependenceSelection) {
        let sampler =
            PowerSampler::new(circuit, &config(), &InputModel::uniform(), seed_offset).unwrap();
        let mut front = SerialFront::new(sampler, &config());
        match front
            .advance(&config(), u64::MAX, &telemetry::Tracer::disabled())
            .unwrap()
        {
            FrontStep::Selected(sampler, selection) => (sampler, selection),
            FrontStep::OutOfBudget => unreachable!("unbounded budget"),
        }
    }

    /// Drives workers/merger/stopping-rule to completion, with a per-round
    /// hook that may inject faults. Returns the assembled estimate.
    fn run_remote<'c, F>(
        circuit: &'c Circuit,
        shards: usize,
        seed_offset: u64,
        mut before_round: F,
    ) -> (Estimate, RemoteStats)
    where
        F: FnMut(u64, &mut Vec<StreamWorker<'c>>, &mut StreamMerger),
    {
        let (sampler, selection) = front(circuit, seed_offset);
        let counts_at_fanout = sampler.cycle_counts();
        let mut merger = StreamMerger::new(shards, sampler.snapshot());
        let mut workers = Vec::new();
        let mut first = StreamWorker::new(
            circuit,
            config(),
            InputModel::uniform(),
            seed_offset,
            selection.interval,
            DEFAULT_LEAD_BLOCKS,
        );
        for stream in 0..shards {
            let a = merger.assignment(stream);
            first
                .assign(stream as u32, a.from_block, a.state.as_ref())
                .unwrap();
        }
        workers.push(first);
        let rule = StoppingRule::new(&config());
        let tracer = telemetry::Tracer::disabled();
        let decision = loop {
            before_round(merger.rounds(), &mut workers, &mut merger);
            while !merger.round_ready() {
                let mut produced_any = false;
                for worker in workers.iter_mut() {
                    if let Some(stream) = worker.next_ready() {
                        let block = worker.produce(stream);
                        merger.offer(block);
                        produced_any = true;
                    }
                }
                assert!(produced_any, "no worker can produce the pending round");
            }
            assert!(merger.consume_round());
            let rounds = merger.rounds();
            for worker in workers.iter_mut() {
                worker.set_consumed(rounds);
            }
            let decision = rule.decide(merger.sample(), &NoFold, &(), &tracer);
            match decision.verdict {
                RoundVerdict::Continue => continue,
                RoundVerdict::Satisfied => break decision,
                RoundVerdict::Exhausted => panic!("test circuits converge"),
            }
        };
        let stats = *merger.stats();
        let run = FinishedRun {
            estimator: ShardedDipeEstimator::new(shards).name(),
            cycle_counts: pooled_cycle_counts(
                counts_at_fanout,
                &config(),
                shards,
                selection.interval,
                merger.sample().len(),
            ),
            selection,
            sample: merger.into_sample(),
            decision,
            elapsed_seconds: 0.0,
            sim_profile: None,
        };
        (assemble(&NoFold, &(), run, &tracer), stats)
    }

    fn assert_bit_identical(remote: &Estimate, local: &Estimate) {
        assert_eq!(remote.estimator, local.estimator);
        assert_eq!(remote.mean_power_w.to_bits(), local.mean_power_w.to_bits());
        assert_eq!(remote.relative_half_width, local.relative_half_width);
        assert_eq!(remote.sample_size, local.sample_size);
        assert_eq!(remote.cycle_counts, local.cycle_counts);
        assert_eq!(remote.diagnostics, local.diagnostics);
    }

    #[test]
    fn remote_pipeline_is_bit_identical_to_local_shards() {
        let circuit = iscas89::load("s27").unwrap();
        let local = sharded_reference(&circuit, 3, 7);
        let (remote, stats) = run_remote(&circuit, 3, 7, |_, _, _| {});
        assert_bit_identical(&remote, &local);
        assert_eq!(stats.duplicate_blocks, 0);
        assert_eq!(stats.corrupt_blocks, 0);
    }

    #[test]
    fn killed_worker_reassignment_is_bit_identical() {
        let circuit = iscas89::load("s27").unwrap();
        let local = sharded_reference(&circuit, 3, 7);
        let mut killed = false;
        let (remote, _) = run_remote(&circuit, 3, 7, |rounds, workers, merger| {
            // After two consumed rounds, "kill" the worker holding every
            // stream and hand its streams to a fresh worker resumed from the
            // merger's frontier states — the reassignment path.
            if rounds == 2 && !killed {
                killed = true;
                let dead = workers.pop().unwrap();
                let (circuit, interval) = (dead.circuit, dead.interval);
                drop(dead);
                let mut replacement = StreamWorker::new(
                    circuit,
                    config(),
                    InputModel::uniform(),
                    7,
                    interval,
                    DEFAULT_LEAD_BLOCKS,
                );
                for stream in 0..merger.streams() {
                    let a = merger.assignment(stream);
                    replacement
                        .assign(stream as u32, a.from_block, a.state.as_ref())
                        .unwrap();
                    merger.stats_mut().reassignments += 1;
                }
                replacement.set_consumed(rounds);
                workers.push(replacement);
            }
        });
        assert!(killed);
        assert_bit_identical(&remote, &local);
    }

    #[test]
    fn duplicates_and_corruption_are_rejected_without_changing_the_estimate() {
        let circuit = iscas89::load("s27").unwrap();
        let local = sharded_reference(&circuit, 2, 7);
        let mut injected = false;
        let (remote, stats) = run_remote(&circuit, 2, 7, |rounds, workers, merger| {
            if rounds == 1 && !injected {
                injected = true;
                // A straggler re-sends a block for stream 1 from its own
                // replayed tape: the merger must drop it as a duplicate.
                let interval = workers[0].interval;
                let mut straggler = StreamWorker::new(
                    workers[0].circuit,
                    config(),
                    InputModel::uniform(),
                    7,
                    interval,
                    DEFAULT_LEAD_BLOCKS,
                );
                straggler.assign(1, 0, None).unwrap();
                let replay = straggler.produce(1);
                assert_eq!(merger.offer(replay.clone()), BlockOutcome::Duplicate);
                // The same block with a flipped payload bit must be rejected
                // by checksum, not folded in.
                let mut corrupt = replay;
                corrupt.block_index += 10; // fresh (stream, index) key
                corrupt_block_payload(&mut corrupt);
                assert_eq!(merger.offer(corrupt), BlockOutcome::Corrupt);
            }
        });
        assert!(injected);
        assert_bit_identical(&remote, &local);
        assert_eq!(stats.duplicate_blocks, 1);
        assert_eq!(stats.corrupt_blocks, 1);
    }

    #[test]
    fn assignment_reports_the_contiguous_frontier() {
        let circuit = iscas89::load("s27").unwrap();
        let (sampler, selection) = front(&circuit, 3);
        let mut merger = StreamMerger::new(2, sampler.snapshot());
        let mut worker = StreamWorker::new(
            &circuit,
            config(),
            InputModel::uniform(),
            3,
            selection.interval,
            8,
        );
        let a0 = merger.assignment(0);
        assert_eq!(a0.from_block, 0);
        assert!(a0.state.is_some(), "stream 0 carries the session state");
        let a1 = merger.assignment(1);
        assert_eq!(a1.from_block, 0);
        assert!(a1.state.is_none(), "fresh streams are seeded, not restored");
        worker.assign(0, 0, a0.state.as_ref()).unwrap();
        worker.assign(1, 0, None).unwrap();

        // Deliver stream 0 blocks 0..3 but stream 1 only block 0, consume
        // one round: stream 0's frontier is block 3 with block 2's end
        // state; stream 1's frontier is block 1 with block 0's end state.
        let blocks0: Vec<_> = (0..3).map(|_| worker.produce(0)).collect();
        let block1 = worker.produce(1);
        let end0_2 = blocks0[2].end_state.clone();
        let end1_0 = block1.end_state.clone();
        for b in blocks0 {
            assert_eq!(merger.offer(b), BlockOutcome::Accepted);
        }
        assert_eq!(merger.offer(block1), BlockOutcome::Accepted);
        assert!(merger.consume_round());
        let a0 = merger.assignment(0);
        assert_eq!(a0.from_block, 3);
        assert_eq!(a0.state.as_ref().unwrap(), &end0_2);
        let a1 = merger.assignment(1);
        assert_eq!(a1.from_block, 1);
        assert_eq!(a1.state.as_ref().unwrap(), &end1_0);
    }

    #[test]
    fn stateless_assignment_is_rejected_for_stream0_and_midstream() {
        let circuit = iscas89::load("s27").unwrap();
        let mut worker = StreamWorker::new(&circuit, config(), InputModel::uniform(), 0, 4, 4);
        assert!(matches!(
            worker.assign(0, 0, None),
            Err(DipeError::InvalidCheckpoint { .. })
        ));
        assert!(matches!(
            worker.assign(1, 3, None),
            Err(DipeError::InvalidCheckpoint { .. })
        ));
    }

    #[test]
    fn checksum_detects_every_field_mutation() {
        let circuit = iscas89::load("s27").unwrap();
        let (sampler, selection) = front(&circuit, 0);
        let mut worker = StreamWorker::new(
            &circuit,
            config(),
            InputModel::uniform(),
            0,
            selection.interval,
            4,
        );
        worker.assign(0, 0, Some(&sampler.snapshot())).unwrap();
        let block = worker.produce(0);
        assert!(block.verify());

        type Mutation = Box<dyn Fn(&mut RemoteBlock)>;
        let mutations: Vec<Mutation> = vec![
            Box::new(|b| b.stream ^= 1),
            Box::new(|b| b.block_index ^= 1),
            Box::new(|b| b.powers.bits[0] ^= 1),
            Box::new(|b| b.end_state.input_stream.rng_state[2] ^= 1),
            Box::new(|b| {
                let flip = !b.end_state.latch_state[0];
                b.end_state.latch_state[0] = flip;
            }),
            Box::new(|b| b.end_state.cycle_counts.measured_cycles ^= 1),
            Box::new(|b| {
                b.accumulator = Some(MomentAccumulatorState {
                    observations: 1,
                    totals: vec![1],
                    totals_sq: vec![1],
                    glitch_totals: vec![0],
                })
            }),
        ];
        for (i, mutate) in mutations.iter().enumerate() {
            let mut copy = block.clone();
            mutate(&mut copy);
            assert!(!copy.verify(), "mutation {i} went undetected");
        }
    }

    #[test]
    fn fault_plan_parses_the_cli_syntax() {
        let plan = FaultPlan::parse("kill-after-blocks:3, delay:2:50, corrupt-block:1").unwrap();
        assert_eq!(plan.kill_after_blocks, Some(3));
        assert_eq!(
            plan.delay,
            Some(DelayFault {
                after_blocks: 2,
                millis: 50
            })
        );
        assert_eq!(plan.corrupt_block, Some(1));
        assert_eq!(plan.drop_after_blocks, None);
        assert!(!plan.is_empty());

        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("explode:1").is_err());
        assert!(FaultPlan::parse("kill-after-blocks").is_err());
        assert!(FaultPlan::parse("kill-after-blocks:x").is_err());
        assert!(FaultPlan::parse("corrupt-block:0").is_err());
        assert!(FaultPlan::parse("delay:1:2:3").is_err());
    }

    #[test]
    fn fault_plan_fires_at_the_planned_blocks() {
        let plan = FaultPlan::parse("kill-after-blocks:2,corrupt-block:1,delay:1:25").unwrap();
        let (corrupt, delay) = plan.on_block(1);
        assert!(corrupt);
        assert_eq!(delay, Duration::ZERO);
        let (corrupt, delay) = plan.on_block(2);
        assert!(!corrupt);
        assert_eq!(delay, Duration::from_millis(25));
        assert_eq!(plan.after_block(1), PostBlockFault::None);
        assert_eq!(plan.after_block(2), PostBlockFault::Kill);
        let drop_plan = FaultPlan::parse("drop-after-blocks:1").unwrap();
        assert_eq!(drop_plan.after_block(1), PostBlockFault::DropConnection);
    }

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(5);
        let h = endpoint_hash("worker-a:9000");
        let d0 = retry_backoff(0, h, base, cap);
        let d1 = retry_backoff(1, h, base, cap);
        let d3 = retry_backoff(3, h, base, cap);
        assert!(d0 >= base && d0 <= base + base / 4);
        assert!(d1 > d0 / 2, "attempt 1 is around 2x base");
        assert!(d3 <= cap);
        assert!(retry_backoff(30, h, base, cap) <= cap);
        assert_eq!(
            d1,
            retry_backoff(1, h, base, cap),
            "jitter is deterministic"
        );
        assert_ne!(
            retry_backoff(2, endpoint_hash("worker-a:9000"), base, cap),
            retry_backoff(2, endpoint_hash("worker-b:9000"), base, cap),
            "different endpoints de-synchronise"
        );
    }
}
