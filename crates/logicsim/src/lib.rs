//! Gate-level logic simulation.
//!
//! Seven simulators are provided. Four are zero-delay (functional) backends
//! sharing one semantics — bit-exact with each other, enforced by property
//! tests:
//!
//! * [`ZeroDelaySimulator`] — levelised zero-delay evaluation interpreting
//!   the gate objects directly: the reference semantics, used for tests and
//!   one-off stepping.
//! * [`CompiledSimulator`] — the compiled scalar zero-delay path executing a
//!   [`netlist::CompiledCircuit`] flat instruction stream with no per-gate
//!   dispatch. The estimator's decorrelation cycles run here unless
//!   [`prefers_partitioned`] picks the backend below.
//! * [`PartitionedSimulator`] — the same instruction stream walked level by
//!   level in cache-resident tiles with fanin-specialised kernels. It is
//!   faster than the compiled loop on fanin-≤ 2 programs of 64 or more
//!   instructions ([`prefers_partitioned`]), which is where the estimator
//!   runs its decorrelation cycles on it.
//! * [`BitParallelSimulator`] — 64 independent replications at once, one bit
//!   per lane in a `u64` word per net, with transition counting via XOR +
//!   `count_ones` ([`WordActivity`]). Batch replicated runs map onto lanes.
//!
//! Three are delay-aware ("general delay", Section IV of the paper) and model
//! the transient within a clock cycle — unequal path delays make gate
//! outputs toggle several times before settling (glitches), and every one of
//! those transitions dissipates power:
//!
//! * [`EventDrivenSimulator`] — the measurement backend: a timing-wheel
//!   scheduler over the *compiled* instruction stream with per-gate inertial
//!   delays (a [`netlist::DelayModel`] annotation). It reports a
//!   [`GlitchActivity`] per cycle: total transition counts alongside the
//!   settled functional ones, so glitch activity is `total − settled` per
//!   net. Under [`DelayModel::Zero`] it degenerates bit-identically to the
//!   zero-delay backends.
//! * [`TimeSlicedSimulator`] — the 64-lane word-parallel counterpart of the
//!   event-driven backend: the delay annotation is levelized onto a discrete
//!   arrival-time slot grid ([`SlotSchedule`]) and all 64 lanes advance per
//!   word per slot, with per-net counts proven bit-identical to the scalar
//!   wheel ([`WordGlitchActivity`]). Annotations that are not
//!   slot-representable are rejected explicitly ([`SlotRejection`]) and fall
//!   back to [`EventDrivenSimulator`].
//! * [`VariableDelaySimulator`] — the interpreted event-queue reference:
//!   no pulse filtering, no compilation; per net it upper-bounds the
//!   inertial simulator's counts and anchors its tests.
//!
//! All simulators agree on the *stable* (end-of-cycle) net values; they
//! differ only in how many transitions they observe on the way there.
//!
//! # Example
//!
//! ```
//! use logicsim::{ZeroDelaySimulator, EventDrivenSimulator, DelayModel};
//! use netlist::iscas89;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = iscas89::load("s27")?;
//! let mut zero = ZeroDelaySimulator::new(&circuit);
//! let mut full = EventDrivenSimulator::new(&circuit, DelayModel::default());
//!
//! let inputs = vec![true, false, true, false];
//! let before = zero.values().to_vec();
//! let activity = full.simulate_cycle(&before, &inputs);
//! let cycle = zero.step(&inputs);
//! // The event-driven totals dominate the functional counts; the settled
//! // component *is* the functional count.
//! assert!(activity.total().total_transitions() >= cycle.total_transitions());
//! assert_eq!(activity.settled().per_net(), cycle.per_net());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod compiled;
mod event;
mod event_driven;
mod partitioned;
mod state;
mod time_sliced;
mod trace;
mod variable_delay;
mod zero_delay;

pub use compiled::{broadcast, pack_lane_bit, BitParallelSimulator, CompiledSimulator, LANES};
pub use event::{Event, EventQueue};
pub use event_driven::{EventDrivenSimulator, SimCounters};
pub use netlist::{DelayModel, GateDelays};
pub use partitioned::{
    prefers_partitioned, PartitionedSimulator, PARTITIONED_MAX_FANIN, PARTITIONED_MIN_INSTRUCTIONS,
    TILE_INSTRUCTIONS,
};
pub use state::{random_input_vector, SimState};
pub use time_sliced::{SlotRejection, SlotSchedule, TimeSlicedCounters, TimeSlicedSimulator};
pub use trace::{CycleActivity, GlitchActivity, WordActivity, WordGlitchActivity};
pub use variable_delay::VariableDelaySimulator;
pub use zero_delay::{compute_next_state, ZeroDelaySimulator};
