//! The time-sliced simulator: a glitch-capable, 64-lane bit-parallel
//! delay-aware backend.
//!
//! [`crate::EventDrivenSimulator`] measures one replication per cycle —
//! every estimator's measured (glitch-counting) cycle runs at scalar speed
//! while the zero-delay decorrelation cycles enjoy the 64-lane word
//! parallelism of [`crate::BitParallelSimulator`]. This module closes that
//! gap for the delay annotations that matter in practice: it **levelizes
//! the compiled circuit under its [`GateDelays`] annotation into discrete
//! arrival-time slots** and evaluates all 64 independent sample lanes per
//! word per slot.
//!
//! # Delay-slot levelization
//!
//! A [`SlotSchedule`] quantizes a delay annotation onto a slot grid: with
//! `g = gcd` of the (all-positive) per-gate delays, gate `i` contributes
//! events `delay_ps[i] / g` slots after its operands change. The schedule is
//! **exact, not approximate** — every annotation it accepts has all its
//! delays integer multiples of `g`, so the slot timeline is a relabelling of
//! the picosecond timeline, and the wheel sweep visits exactly the same
//! timestamps in the same order as the scalar event-driven wheel. Whether an
//! annotation is representable is decided by
//! [`SlotSchedule::try_from_delays`]; the two rejection cases
//! ([`SlotRejection`]) are *documented semantic boundaries*, never silent
//! divergences — callers fall back to the scalar backend.
//!
//! # Why the word sweep is bit-identical to the scalar wheel
//!
//! With every gate delay ≥ one slot, the scalar wheel's behaviour at each
//! timestamp collapses to a single delta round (zero-delay re-schedules are
//! the only source of additional rounds), and three invariants make a
//! word-wide reformulation exact:
//!
//! 1. **One flip per net per timestamp per lane.** Each net holds at most
//!    one pending (inertial) change per lane, and a pending change always
//!    targets the *complement* of the committed value — it was scheduled
//!    because the new output differed, and the committed value cannot move
//!    before the change matures. Maturing is therefore `values ^= mask`,
//!    per-timestamp coalescing is trivially satisfied, and every matured
//!    flip counts exactly one transition ([`u64::count_ones`] per commit).
//! 2. **Projection is an XOR.** The scalar sweep compares a re-evaluated
//!    output against its *projected* value (the pending value if one
//!    exists, else the committed one). With pending ≡ complement, the
//!    projected word is `values ^ pending`, so the lanes requiring action
//!    are `act = eval ^ values ^ pending`: `act & pending` are inertial
//!    cancellations (the contradicted pending change never matures — the
//!    pulse is swallowed), `act & !pending` are fresh schedules at
//!    `t + delay`, and `pending ^= act` maintains the pending set.
//! 3. **Evaluation order within a slot is irrelevant.** All writes land in
//!    future slots (delays ≥ 1), so evaluating each affected gate once with
//!    the union of its operands' change masks is equivalent to the scalar
//!    sweep's per-operand re-evaluations (whose repeats are no-ops).
//!
//! All-zero annotations take the levelized word path instead (one
//! topological re-evaluation of the stimulus cone, glitch-free by
//! construction), mirroring the scalar simulator's levelized fast path.
//! *Mixed* zero/positive annotations would need the scalar delta-round
//! machinery inside a timestamp and are rejected
//! ([`SlotRejection::MixedZeroAndPositive`]) rather than approximated.
//!
//! The cross-backend identity battery (`tests/lane_glitch_identity.rs`)
//! asserts per-net and aggregate `total`/`settled` counts bit-identical to
//! [`crate::EventDrivenSimulator`] over the ISCAS'89 catalogue × delay
//! models × seeds, plus proptest-generated circuits and annotations.

use netlist::{Circuit, CompiledCircuit, DelayModel, GateDelays};

use crate::compiled::eval_instruction_fast;
use crate::trace::WordGlitchActivity;

/// Cumulative profiling counters of a [`TimeSlicedSimulator`].
///
/// Lane-granular where the scalar [`crate::SimCounters`] are event-granular:
/// one word-wide schedule of `k` lanes counts `k` lane events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeSlicedCounters {
    /// Lane-granular value changes scheduled into the slot wheel.
    pub lane_events_scheduled: u64,
    /// Lane-granular pending changes killed by inertial cancellation.
    pub lane_events_cancelled: u64,
    /// Word-wide gate evaluations (each covers all 64 lanes).
    pub word_evals: u64,
    /// Cycles executed on the slot-wheel path.
    pub slot_cycles: u64,
    /// Cycles executed on the levelized zero-delay word path.
    pub levelized_cycles: u64,
    /// Wheel slots drained across all slot-wheel cycles.
    pub slots_drained: u64,
}

/// Why a delay annotation cannot be represented on the 64-slot grid.
///
/// Every rejection is a *documented semantic boundary* of the time-sliced
/// backend, reported so callers can fall back to the scalar
/// [`crate::EventDrivenSimulator`] — never a silently different answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRejection {
    /// The annotation mixes zero and positive delays. Zero-delay gates
    /// re-schedule within the *same* timestamp (the scalar wheel's delta
    /// rounds), which the single-round word sweep does not replicate.
    MixedZeroAndPositive {
        /// Number of gates annotated with a zero delay.
        zero_gates: usize,
        /// Number of gates annotated with a positive delay.
        positive_gates: usize,
    },
    /// The quantized horizon does not fit the wheel: `max_delay_ps` over
    /// the gcd granularity needs more than [`SlotSchedule::MAX_SLOTS`]
    /// slots (per-net wheel occupancy is one bit per slot in a `u64`).
    HorizonExceeded {
        /// The annotation's largest per-gate delay in picoseconds.
        max_delay_ps: u64,
        /// The gcd granularity of the annotation in picoseconds.
        granularity_ps: u64,
        /// The slot count the annotation would need (`max / gcd`).
        required_slots: u64,
    },
}

impl std::fmt::Display for SlotRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotRejection::MixedZeroAndPositive {
                zero_gates,
                positive_gates,
            } => write!(
                f,
                "annotation mixes {zero_gates} zero-delay and {positive_gates} positive-delay \
                 gates; same-timestamp delta rounds are not slot-representable"
            ),
            SlotRejection::HorizonExceeded {
                max_delay_ps,
                granularity_ps,
                required_slots,
            } => write!(
                f,
                "annotation needs {required_slots} delay slots ({max_delay_ps} ps at a \
                 {granularity_ps} ps granularity), above the {}-slot wheel horizon",
                SlotSchedule::MAX_SLOTS
            ),
        }
    }
}

impl std::error::Error for SlotRejection {}

/// The exact quantization of a [`GateDelays`] annotation onto the discrete
/// arrival-time slot grid of the [`TimeSlicedSimulator`].
///
/// Construction ([`try_from_delays`](Self::try_from_delays)) is the
/// slot-representability predicate: the replicated lane runner measures on
/// the time-sliced backend exactly when it succeeds and reports the
/// [`SlotRejection`] when it does not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSchedule {
    /// Picoseconds per slot (the gcd of the positive delays; 0 for an
    /// all-zero annotation, which takes the levelized word path).
    granularity_ps: u64,
    /// Largest per-gate delay in slots (0 for all-zero annotations).
    max_slots: u32,
    /// Wheel size: smallest power of two > `max_slots` (1 for all-zero).
    wheel_slots: u32,
}

impl SlotSchedule {
    /// The largest representable per-gate delay in slots: per-net wheel
    /// occupancy is tracked as one bit per slot in a `u64`, so a wheel
    /// revolution covers at most 64 slots.
    pub const MAX_SLOTS: u64 = 63;

    /// Quantizes a delay annotation, or reports why it cannot be done
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns a [`SlotRejection`] for annotations mixing zero and positive
    /// delays, and for annotations whose `max / gcd` exceeds
    /// [`MAX_SLOTS`](Self::MAX_SLOTS).
    pub fn try_from_delays(delays: &GateDelays) -> Result<Self, SlotRejection> {
        Self::try_from_delay_values(delays.as_slice())
    }

    /// [`try_from_delays`](Self::try_from_delays) over a raw per-gate (or
    /// per-instruction) delay slice.
    ///
    /// # Errors
    ///
    /// As for [`try_from_delays`](Self::try_from_delays).
    pub fn try_from_delay_values(delays_ps: &[u64]) -> Result<Self, SlotRejection> {
        let zero_gates = delays_ps.iter().filter(|&&d| d == 0).count();
        let positive_gates = delays_ps.len() - zero_gates;
        if positive_gates == 0 {
            return Ok(SlotSchedule {
                granularity_ps: 0,
                max_slots: 0,
                wheel_slots: 1,
            });
        }
        if zero_gates > 0 {
            return Err(SlotRejection::MixedZeroAndPositive {
                zero_gates,
                positive_gates,
            });
        }
        let granularity_ps = delays_ps.iter().copied().fold(0, gcd);
        let max_delay_ps = delays_ps.iter().copied().max().unwrap_or(0);
        let required_slots = max_delay_ps / granularity_ps;
        if required_slots > Self::MAX_SLOTS {
            return Err(SlotRejection::HorizonExceeded {
                max_delay_ps,
                granularity_ps,
                required_slots,
            });
        }
        Ok(SlotSchedule {
            granularity_ps,
            max_slots: required_slots as u32,
            wheel_slots: (required_slots as u32 + 1).next_power_of_two(),
        })
    }

    /// Picoseconds per slot: the gcd of the annotation's delays (0 for an
    /// all-zero annotation).
    pub fn granularity_ps(&self) -> u64 {
        self.granularity_ps
    }

    /// The largest per-gate delay in slots.
    pub fn max_slots(&self) -> u32 {
        self.max_slots
    }

    /// The wheel size in slots (smallest power of two above
    /// [`max_slots`](Self::max_slots)).
    pub fn wheel_slots(&self) -> u32 {
        self.wheel_slots
    }

    /// Whether the annotation is uniformly zero (levelized word path).
    pub fn is_zero_delay(&self) -> bool {
        self.max_slots == 0
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Glitch-capable, 64-lane bit-parallel delay-aware simulator.
///
/// The word-wide counterpart of [`crate::EventDrivenSimulator`]: it executes
/// the same delay-annotated [`CompiledCircuit`] with the same inertial
/// semantics, but carries one `u64` per net (bit `l` = lane `l`) and sweeps
/// a per-slot wheel instead of a per-picosecond one, so one pass measures 64
/// independent replications. Stateless across cycles, mirroring the scalar
/// backend: [`simulate_cycle`](Self::simulate_cycle) takes the previous
/// stable value words and the input pattern words, and returns the
/// glitch-decomposed [`WordGlitchActivity`] of one clock cycle.
///
/// Construction fails with a [`SlotRejection`] when the delay annotation is
/// not slot-representable; callers fall back to the scalar backend (the
/// DIPE lane runner does this automatically).
#[derive(Debug)]
pub struct TimeSlicedSimulator<'c> {
    circuit: &'c Circuit,
    program: CompiledCircuit,
    model: DelayModel,
    schedule: SlotSchedule,
    /// CSR adjacency: instruction indices consuming each net.
    consumer_offsets: Vec<u32>,
    consumers: Vec<u32>,
    /// Per-instruction output nets and slot delays (dense copies).
    outputs: Vec<u32>,
    delay_slots: Vec<u32>,
    /// Committed value words at the current simulation time.
    values: Vec<u64>,
    /// Pending-change lane masks per net. Invariant: a pending lane's
    /// scheduled value is the complement of its committed value.
    pending: Vec<u64>,
    /// The slot wheel, `wheel_slots × num_nets` lane masks: entry
    /// `slot * num_nets + net` holds the lanes of `net` maturing when the
    /// sweep reaches that slot.
    wheel: Vec<u64>,
    /// Per-net wheel occupancy: bit `s` set iff the net has pending lanes
    /// in wheel slot `s` (drives O(occupied-slots) cancellation).
    net_occupancy: Vec<u64>,
    /// Wheel slots holding any event at all (circularly scanned for the
    /// next occupied timestamp).
    global_occupancy: u64,
    /// Nets with events per wheel slot (may contain stale entries whose
    /// lane mask was fully cancelled; the drain skips them).
    slot_nets: Vec<Vec<u32>>,
    /// Per-instruction union of operand change masks this pass; non-zero
    /// doubles as the dirty flag.
    eval_mask: Vec<u64>,
    /// Instructions with a non-zero eval mask (wheel path worklist).
    dirty: Vec<u32>,
    /// Worklist of the levelized zero-delay word path, popped in
    /// topological (= instruction) order.
    dirty_heap: std::collections::BinaryHeap<std::cmp::Reverse<u32>>,
    in_dirty: Vec<bool>,
    counters: TimeSlicedCounters,
    activity: WordGlitchActivity,
}

impl<'c> TimeSlicedSimulator<'c> {
    /// Creates a simulator for `circuit` under the given delay model.
    ///
    /// # Errors
    ///
    /// Returns the [`SlotRejection`] explaining why the model's annotation
    /// is not slot-representable.
    pub fn new(circuit: &'c Circuit, model: DelayModel) -> Result<Self, SlotRejection> {
        Self::with_delays(circuit, model, &model.annotate(circuit))
    }

    /// Creates a simulator from an explicit per-gate delay annotation;
    /// `model` is only recorded for reporting.
    ///
    /// # Errors
    ///
    /// Returns the [`SlotRejection`] explaining why `delays` is not
    /// slot-representable.
    ///
    /// # Panics
    ///
    /// Panics if `delays` was not built for a circuit with the same gate
    /// count.
    pub fn with_delays(
        circuit: &'c Circuit,
        model: DelayModel,
        delays: &GateDelays,
    ) -> Result<Self, SlotRejection> {
        SlotSchedule::try_from_delays(delays)?;
        let program = CompiledCircuit::compile_with_delays(circuit, delays);
        // Quantize on the *instruction* delays the program actually runs
        // (identical to the gate delays today; recomputing keeps the
        // schedule honest if compilation ever reorders or splits gates).
        let schedule = SlotSchedule::try_from_delay_values(program.instruction_delays_ps())?;
        let num_nets = circuit.num_nets();

        let mut counts = vec![0u32; num_nets];
        for instruction in program.instructions() {
            for &operand in program.operands_of(instruction) {
                counts[operand as usize] += 1;
            }
        }
        let mut consumer_offsets = vec![0u32; num_nets + 1];
        for (i, &c) in counts.iter().enumerate() {
            consumer_offsets[i + 1] = consumer_offsets[i] + c;
        }
        let mut consumers = vec![0u32; consumer_offsets[num_nets] as usize];
        let mut cursor = consumer_offsets.clone();
        for (index, instruction) in program.instructions().iter().enumerate() {
            for &operand in program.operands_of(instruction) {
                let slot = &mut cursor[operand as usize];
                consumers[*slot as usize] = index as u32;
                *slot += 1;
            }
        }

        let outputs: Vec<u32> = program
            .instructions()
            .iter()
            .map(|instruction| instruction.output)
            .collect();
        let delay_slots: Vec<u32> = program
            .instruction_delays_ps()
            .iter()
            .map(|&d| d.checked_div(schedule.granularity_ps).unwrap_or(0) as u32)
            .collect();
        let wheel_slots = schedule.wheel_slots as usize;
        let num_instructions = program.instructions().len();
        Ok(TimeSlicedSimulator {
            circuit,
            model,
            consumer_offsets,
            consumers,
            outputs,
            delay_slots,
            values: vec![0; num_nets],
            pending: vec![0; num_nets],
            wheel: if schedule.is_zero_delay() {
                Vec::new()
            } else {
                vec![0; wheel_slots * num_nets]
            },
            net_occupancy: vec![0; num_nets],
            global_occupancy: 0,
            slot_nets: vec![Vec::new(); wheel_slots],
            eval_mask: vec![0; num_instructions],
            dirty: Vec::new(),
            dirty_heap: std::collections::BinaryHeap::new(),
            in_dirty: vec![false; num_instructions],
            counters: TimeSlicedCounters::default(),
            activity: WordGlitchActivity::zeroed(num_nets),
            schedule,
            program,
        })
    }

    /// The cumulative profiling counters of this simulator instance.
    pub fn counters(&self) -> TimeSlicedCounters {
        self.counters
    }

    /// The circuit this simulator operates on.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The delay model the program was annotated with.
    pub fn delay_model(&self) -> DelayModel {
        self.model
    }

    /// The delay-annotated compiled program being executed.
    pub fn program(&self) -> &CompiledCircuit {
        &self.program
    }

    /// The slot quantization of the delay annotation.
    pub fn slot_schedule(&self) -> &SlotSchedule {
        &self.schedule
    }

    /// The settled per-net value words after the last call to
    /// [`simulate_cycle`](Self::simulate_cycle).
    pub fn settled_words(&self) -> &[u64] {
        &self.values
    }

    #[inline]
    fn consumers_of(&self, net: usize) -> std::ops::Range<usize> {
        self.consumer_offsets[net] as usize..self.consumer_offsets[net + 1] as usize
    }

    /// Simulates one clock cycle for all 64 lanes at once.
    ///
    /// * `prev_words` — the stable net value words at the end of the
    ///   previous cycle (e.g. [`crate::BitParallelSimulator::words`]).
    /// * `input_words` — the primary-input pattern words applied in this
    ///   cycle (bit `l` = lane `l`'s pattern).
    ///
    /// Lane `l` of the returned [`WordGlitchActivity`] is bit-identical to
    /// what [`crate::EventDrivenSimulator::simulate_cycle`] reports for lane
    /// `l`'s previous values and pattern alone; the reference is valid until
    /// the next call.
    ///
    /// # Panics
    ///
    /// Panics if `prev_words` or `input_words` have the wrong length.
    pub fn simulate_cycle(
        &mut self,
        prev_words: &[u64],
        input_words: &[u64],
    ) -> &WordGlitchActivity {
        assert_eq!(
            prev_words.len(),
            self.circuit.num_nets(),
            "previous stable value words must cover every net"
        );
        assert_eq!(
            input_words.len(),
            self.circuit.num_primary_inputs(),
            "input pattern words must cover every primary input"
        );
        self.values.copy_from_slice(prev_words);
        self.activity.begin_cycle();
        debug_assert!(self.pending.iter().all(|&p| p == 0), "stale pending lanes");
        debug_assert_eq!(self.global_occupancy, 0, "stale wheel occupancy");

        if self.schedule.is_zero_delay() {
            self.counters.levelized_cycles += 1;
            self.simulate_cycle_levelized(prev_words, input_words);
        } else {
            self.counters.slot_cycles += 1;
            self.simulate_cycle_wheel(prev_words, input_words);
        }

        // Settled (functional) diffs: which lanes' stable values changed.
        let settled = self.activity.settled_words_mut();
        for (slot, (&old, &new)) in settled.iter_mut().zip(prev_words.iter().zip(&self.values)) {
            *slot = old ^ new;
        }
        &self.activity
    }

    /// The levelized word path for all-zero annotations: one topological
    /// re-evaluation of the stimulus cone, glitch-free by construction
    /// (mirrors the scalar simulator's levelized fast path).
    fn simulate_cycle_levelized(&mut self, prev_words: &[u64], input_words: &[u64]) {
        debug_assert!(self.dirty_heap.is_empty());
        for ff in 0..self.program.flip_flops().len() {
            let (d, q) = self.program.flip_flops()[ff];
            let mask = prev_words[d as usize] ^ self.values[q as usize];
            if mask != 0 {
                self.values[q as usize] ^= mask;
                self.activity.record(q, mask);
                self.mark_consumers_heap(q as usize, mask);
            }
        }
        for (pi, &word) in input_words.iter().enumerate() {
            let net = self.program.primary_inputs()[pi];
            let mask = word ^ self.values[net as usize];
            if mask != 0 {
                self.values[net as usize] ^= mask;
                self.activity.record(net, mask);
                self.mark_consumers_heap(net as usize, mask);
            }
        }
        // Topological (= instruction) order: every consumer of a changed net
        // has a higher instruction index than the change's producer, so each
        // affected instruction is evaluated exactly once, on final operand
        // words, and each net changes at most once (no glitches, as in the
        // scalar levelized path).
        while let Some(std::cmp::Reverse(index)) = self.dirty_heap.pop() {
            let index = index as usize;
            self.in_dirty[index] = false;
            self.eval_mask[index] = 0;
            self.counters.word_evals += 1;
            let instruction = &self.program.instructions()[index];
            let new_out = eval_instruction_fast(&self.program, instruction, &self.values);
            let out = self.outputs[index] as usize;
            let diff = new_out ^ self.values[out];
            if diff != 0 {
                self.values[out] = new_out;
                self.activity.record(out as u32, diff);
                self.mark_consumers_heap(out, diff);
            }
        }
    }

    #[inline]
    fn mark_consumers_heap(&mut self, net: usize, mask: u64) {
        for c in self.consumers_of(net) {
            let index = self.consumers[c] as usize;
            self.eval_mask[index] |= mask;
            if !self.in_dirty[index] {
                self.in_dirty[index] = true;
                self.dirty_heap.push(std::cmp::Reverse(index as u32));
            }
        }
    }

    /// The slot-wheel path for all-positive annotations.
    fn simulate_cycle_wheel(&mut self, prev_words: &[u64], input_words: &[u64]) {
        // Stimulus at slot time 0: latch captures and the new patterns
        // commit immediately (every gate delay is ≥ 1 slot, so nothing else
        // can land on timestamp 0).
        for ff in 0..self.program.flip_flops().len() {
            let (d, q) = self.program.flip_flops()[ff];
            let mask = prev_words[d as usize] ^ self.values[q as usize];
            if mask != 0 {
                self.commit(q, mask);
            }
        }
        for (pi, &word) in input_words.iter().enumerate() {
            let net = self.program.primary_inputs()[pi];
            let mask = word ^ self.values[net as usize];
            if mask != 0 {
                self.commit(net, mask);
            }
        }

        let num_nets = self.values.len();
        let wheel_mask = self.schedule.wheel_slots as usize - 1;
        let mut t = 0usize;
        loop {
            // Evaluation pass at time `t`: each dirty instruction once, with
            // the union of its operands' change masks.
            let mut dirty = std::mem::take(&mut self.dirty);
            for &index in &dirty {
                let index = index as usize;
                let mask = self.eval_mask[index];
                self.eval_mask[index] = 0;
                self.counters.word_evals += 1;
                let instruction = &self.program.instructions()[index];
                let new_out = eval_instruction_fast(&self.program, instruction, &self.values);
                let out = self.outputs[index] as usize;
                let pending = self.pending[out];
                // Lanes where the evaluation contradicts the projected value
                // (committed XOR pending, since pending ≡ complement).
                let act = mask & (new_out ^ self.values[out] ^ pending);
                if act == 0 {
                    continue;
                }
                let cancel = act & pending;
                if cancel != 0 {
                    // Inertial cancellation: clear the contradicted lanes
                    // from every wheel slot the net occupies (each lane is
                    // in exactly one of them).
                    self.counters.lane_events_cancelled += u64::from(cancel.count_ones());
                    let mut occupied = self.net_occupancy[out];
                    while occupied != 0 {
                        let slot = occupied.trailing_zeros() as usize;
                        occupied &= occupied - 1;
                        let cell = &mut self.wheel[slot * num_nets + out];
                        *cell &= !cancel;
                        if *cell == 0 {
                            self.net_occupancy[out] &= !(1u64 << slot);
                        }
                    }
                }
                let sched = act & !pending;
                if sched != 0 {
                    self.counters.lane_events_scheduled += u64::from(sched.count_ones());
                    let slot = (t + self.delay_slots[index] as usize) & wheel_mask;
                    let cell = &mut self.wheel[slot * num_nets + out];
                    if *cell == 0 {
                        self.slot_nets[slot].push(out as u32);
                        self.net_occupancy[out] |= 1u64 << slot;
                    }
                    *cell |= sched;
                    self.global_occupancy |= 1u64 << slot;
                }
                self.pending[out] = pending ^ act;
            }
            dirty.clear();
            self.dirty = dirty;

            if self.global_occupancy == 0 {
                break; // the cycle has quiesced
            }
            // Advance to the next occupied timestamp (circular scan; every
            // pending event lies within one wheel revolution of `t`).
            let mut step = 1usize;
            while self.global_occupancy & (1u64 << ((t + step) & wheel_mask)) == 0 {
                step += 1;
            }
            t += step;
            let slot = t & wheel_mask;
            self.global_occupancy &= !(1u64 << slot);
            self.counters.slots_drained += 1;

            // Drain the slot: commit every net's matured lanes as a batch
            // (simultaneous arrivals act simultaneously), then loop into the
            // evaluation pass for the changed nets' consumers.
            let mut list = std::mem::take(&mut self.slot_nets[slot]);
            for &net in &list {
                let net = net as usize;
                let mask = self.wheel[slot * num_nets + net];
                if mask == 0 {
                    continue; // fully cancelled (stale entry)
                }
                self.wheel[slot * num_nets + net] = 0;
                self.net_occupancy[net] &= !(1u64 << slot);
                self.pending[net] &= !mask;
                self.commit(net as u32, mask);
            }
            list.clear();
            self.slot_nets[slot] = list;
        }
    }

    /// Commits a matured (or stimulus) change: flips the lanes, counts one
    /// transition per lane, and marks the consumers dirty.
    #[inline]
    fn commit(&mut self, net: u32, mask: u64) {
        self.values[net as usize] ^= mask;
        self.activity.record(net, mask);
        for c in self.consumers_of(net as usize) {
            let index = self.consumers[c] as usize;
            if self.eval_mask[index] == 0 {
                self.dirty.push(index as u32);
            }
            self.eval_mask[index] |= mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::{broadcast, BitParallelSimulator};
    use crate::event_driven::EventDrivenSimulator;
    use crate::trace::GlitchActivity;
    use netlist::{iscas89, CircuitBuilder, GateKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// out = AND(a, NOT(a)): a rising edge on `a` glitches `out`.
    fn glitch_circuit() -> netlist::Circuit {
        let mut b = CircuitBuilder::new("glitch");
        let a = b.primary_input("a");
        let na = b.gate(GateKind::Not, "na", &[a]).unwrap();
        let out = b.gate(GateKind::And, "out", &[a, na]).unwrap();
        b.primary_output(out);
        b.finish().unwrap()
    }

    fn broadcast_words(bits: &[bool]) -> Vec<u64> {
        bits.iter().map(|&b| broadcast(b)).collect()
    }

    #[test]
    fn schedule_quantizes_exactly() {
        let s = SlotSchedule::try_from_delay_values(&[200, 280, 360]).unwrap();
        assert_eq!(s.granularity_ps(), 40);
        assert_eq!(s.max_slots(), 9);
        assert_eq!(s.wheel_slots(), 16);
        assert!(!s.is_zero_delay());

        let zero = SlotSchedule::try_from_delay_values(&[0, 0]).unwrap();
        assert!(zero.is_zero_delay());
        assert_eq!(zero.wheel_slots(), 1);

        let unit = SlotSchedule::try_from_delay_values(&[100, 100]).unwrap();
        assert_eq!(unit.max_slots(), 1);
        assert_eq!(unit.wheel_slots(), 2);
    }

    #[test]
    fn mixed_and_oversized_annotations_are_rejected_not_approximated() {
        assert!(matches!(
            SlotSchedule::try_from_delay_values(&[0, 100]),
            Err(SlotRejection::MixedZeroAndPositive {
                zero_gates: 1,
                positive_gates: 1
            })
        ));
        // gcd 1, max 64: one slot over the horizon.
        let err = SlotSchedule::try_from_delay_values(&[63, 64]).unwrap_err();
        assert!(matches!(
            err,
            SlotRejection::HorizonExceeded {
                required_slots: 64,
                ..
            }
        ));
        // The rejection renders as a one-line reason (used by the CLI).
        assert!(format!("{err}").contains("64 delay slots"));
    }

    #[test]
    fn glitch_is_counted_and_decomposed_under_unit_delay() {
        let c = glitch_circuit();
        let mut sim = TimeSlicedSimulator::new(&c, DelayModel::Unit(100)).unwrap();
        let a = c.net_by_name("a").unwrap().id();
        let na = c.net_by_name("na").unwrap().id();
        let out = c.net_by_name("out").unwrap().id();
        let mut prev = vec![false; c.num_nets()];
        prev[na.index()] = true;
        // All 64 lanes rise together: per-lane counts match the scalar
        // backend's, aggregates are 64x.
        let activity = sim.simulate_cycle(&broadcast_words(&prev), &[broadcast(true)]);
        assert_eq!(activity.totals()[out.index()], 128, "2 per lane");
        assert_eq!(activity.settled_diff_words()[out.index()], 0);
        assert_eq!(activity.totals()[a.index()], 64);
        let lane = activity.lane_activity(17);
        assert_eq!(lane.total().transitions_on(out), 2);
        assert_eq!(lane.settled().transitions_on(out), 0);
        assert_eq!(lane.glitch_on(out), 2);
        assert_eq!(lane.glitch_on(na), 0);
        assert_eq!(sim.settled_words()[out.index()], 0);
    }

    #[test]
    fn inertial_filtering_swallows_narrow_pulses() {
        // As in the event-driven suite: NOT/AND at 100 ps feed a 300 ps
        // buffer; the 100 ps hazard pulse dies inside the buffer.
        let mut b = CircuitBuilder::new("inertial");
        let a = b.primary_input("a");
        let na = b.gate(GateKind::Not, "na", &[a]).unwrap();
        let out = b.gate(GateKind::And, "out", &[a, na]).unwrap();
        let y = b.gate(GateKind::Buf, "y", &[out]).unwrap();
        b.primary_output(y);
        let c = b.finish().unwrap();
        let delays = netlist::GateDelays::from_delays(&c, vec![100, 100, 300]);
        let mut sim = TimeSlicedSimulator::with_delays(&c, DelayModel::Unit(100), &delays).unwrap();
        let out_id = c.net_by_name("out").unwrap().id();
        let y_id = c.net_by_name("y").unwrap().id();
        let mut prev = vec![false; c.num_nets()];
        prev[c.net_by_name("na").unwrap().id().index()] = true;
        let activity = sim.simulate_cycle(&broadcast_words(&prev), &[broadcast(true)]);
        assert_eq!(activity.totals()[out_id.index()], 128, "hazard pulse");
        assert_eq!(
            activity.totals()[y_id.index()],
            0,
            "the slow buffer must filter the narrow pulse in every lane"
        );
        assert!(sim.counters().lane_events_cancelled >= 64);
    }

    /// Drives 64 distinct lanes against 64 scalar event-driven references
    /// for several cycles, comparing per-lane and aggregate counts.
    fn assert_lane_identity(circuit: &netlist::Circuit, model: DelayModel, seed: u64, cycles: u32) {
        let delays = model.annotate(circuit);
        let mut word =
            TimeSlicedSimulator::with_delays(circuit, model, &delays).expect("representable");
        let mut scalar = EventDrivenSimulator::with_delays(circuit, model, &delays);
        let mut state = BitParallelSimulator::new(circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lane_scratch = GlitchActivity::zeroed(circuit.num_nets());
        let mut prev = vec![false; circuit.num_nets()];
        let mut pattern = vec![false; circuit.num_primary_inputs()];
        for cycle in 0..cycles {
            let input_words: Vec<u64> = (0..circuit.num_primary_inputs())
                .map(|_| rng.gen::<u64>())
                .collect();
            let prev_words = state.words().to_vec();
            let activity = word.simulate_cycle(&prev_words, &input_words);
            for lane in 0..crate::LANES {
                state.lane_values_into(lane, &mut prev);
                for (bit, w) in pattern.iter_mut().zip(&input_words) {
                    *bit = (w >> lane) & 1 != 0;
                }
                let reference = scalar.simulate_cycle(&prev, &pattern);
                activity.lane_activity_into(lane, &mut lane_scratch);
                assert_eq!(
                    &lane_scratch,
                    reference,
                    "{}: cycle {cycle}, lane {lane} diverged under {model:?}",
                    circuit.name()
                );
                for (net, (&prev_w, &diff_w)) in prev_words
                    .iter()
                    .zip(activity.settled_diff_words())
                    .enumerate()
                {
                    assert_eq!(
                        ((prev_w ^ diff_w) >> lane) & 1 != 0,
                        scalar.stable_values()[net],
                        "{}: settled value of net {net}, lane {lane}",
                        circuit.name()
                    );
                }
            }
            state.step_state_only(&input_words);
        }
    }

    #[test]
    fn lanes_match_the_event_driven_backend_under_unit_delay() {
        let c = iscas89::load("s27").unwrap();
        assert_lane_identity(&c, DelayModel::Unit(100), 0xD1CE, 6);
    }

    #[test]
    fn lanes_match_the_event_driven_backend_under_zero_delay() {
        let c = iscas89::load("s27").unwrap();
        assert_lane_identity(&c, DelayModel::Zero, 0xBEEF, 6);
    }

    #[test]
    fn lanes_match_the_event_driven_backend_under_fanout_delays() {
        let c = iscas89::load("s298").unwrap();
        assert_lane_identity(&c, DelayModel::default(), 7, 3);
    }

    #[test]
    fn lanes_match_on_generated_circuits_with_irregular_annotations() {
        for seed in [1u64, 9, 42] {
            let cfg = netlist::generator::GeneratorConfig::new("ts_prop", 4, 2, 5, 35)
                .with_seed(seed)
                .with_fanin(2, 4);
            let circuit = netlist::generator::generate(&cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
            let delays: Vec<u64> = (0..circuit.num_gates())
                .map(|_| 50 * rng.gen_range(1..=12u64))
                .collect();
            let annotation = netlist::GateDelays::from_delays(&circuit, delays);
            let mut word =
                TimeSlicedSimulator::with_delays(&circuit, DelayModel::Unit(50), &annotation)
                    .unwrap();
            let mut scalar =
                EventDrivenSimulator::with_delays(&circuit, DelayModel::Unit(50), &annotation);
            let mut state = BitParallelSimulator::new(&circuit);
            let mut prev = vec![false; circuit.num_nets()];
            let mut pattern = vec![false; circuit.num_primary_inputs()];
            for _ in 0..5 {
                let input_words: Vec<u64> = (0..circuit.num_primary_inputs())
                    .map(|_| rng.gen::<u64>())
                    .collect();
                let prev_words = state.words().to_vec();
                let activity = word.simulate_cycle(&prev_words, &input_words);
                for lane in (0..crate::LANES).step_by(7) {
                    state.lane_values_into(lane, &mut prev);
                    for (bit, w) in pattern.iter_mut().zip(&input_words) {
                        *bit = (w >> lane) & 1 != 0;
                    }
                    let reference = scalar.simulate_cycle(&prev, &pattern);
                    assert_eq!(&activity.lane_activity(lane), reference, "seed {seed}");
                }
                state.step_state_only(&input_words);
            }
        }
    }

    #[test]
    fn counters_accumulate_on_the_expected_paths() {
        let c = iscas89::load("s27").unwrap();
        let mut unit = TimeSlicedSimulator::new(&c, DelayModel::Unit(100)).unwrap();
        let mut zero = TimeSlicedSimulator::new(&c, DelayModel::Zero).unwrap();
        let prev = vec![0u64; c.num_nets()];
        let inputs = vec![!0u64; c.num_primary_inputs()];
        unit.simulate_cycle(&prev, &inputs);
        zero.simulate_cycle(&prev, &inputs);
        assert_eq!(unit.counters().slot_cycles, 1);
        assert_eq!(unit.counters().levelized_cycles, 0);
        assert!(unit.counters().word_evals > 0);
        assert!(unit.counters().lane_events_scheduled > 0);
        assert_eq!(zero.counters().slot_cycles, 0);
        assert_eq!(zero.counters().levelized_cycles, 1);
    }
}
