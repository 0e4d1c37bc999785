//! Levelised zero-delay simulation.
//!
//! The zero-delay simulator evaluates the combinational logic once per clock
//! cycle in topological order. It is the cheap "next-state only" simulator
//! the paper uses during the independence interval, where the purpose of
//! simulation is solely to advance the finite state machine and decorrelate
//! consecutive power samples (Section IV).

use netlist::{Circuit, NetDriver};
use rand::Rng;

use crate::state::SimState;
use crate::trace::CycleActivity;

/// Zero-delay (functional) simulator holding the circuit state between
/// cycles.
#[derive(Debug, Clone)]
pub struct ZeroDelaySimulator<'c> {
    circuit: &'c Circuit,
    values: Vec<bool>,
    /// The stable values of the previous cycle. Written only by [`step`]
    /// (never used as scratch), so the per-cycle transition counts stay
    /// correct however `step` and `step_state_only` are interleaved.
    prev: Vec<bool>,
    /// Dedicated latch-capture scratch (one slot per flip-flop).
    latch_scratch: Vec<bool>,
    /// Reused input buffer for the closure-driven advance loops.
    input_scratch: Vec<bool>,
    activity: CycleActivity,
}

impl<'c> ZeroDelaySimulator<'c> {
    /// Creates a simulator with all latches and inputs at logic 0, constants
    /// applied, and the combinational logic settled accordingly.
    pub fn new(circuit: &'c Circuit) -> Self {
        let state = SimState::zeroed(circuit);
        let mut sim = ZeroDelaySimulator {
            circuit,
            values: state.values().to_vec(),
            prev: vec![false; circuit.num_nets()],
            latch_scratch: vec![false; circuit.num_flip_flops()],
            input_scratch: vec![false; circuit.num_primary_inputs()],
            activity: CycleActivity::zeroed(circuit.num_nets()),
        };
        sim.evaluate_combinational();
        sim
    }

    /// The circuit this simulator operates on.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The stable per-net values after the last cycle (or initialisation).
    #[inline]
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// The present-state vector (flip-flop outputs).
    pub fn latch_state(&self) -> Vec<bool> {
        self.circuit
            .flip_flops()
            .iter()
            .map(|ff| self.values[ff.q().index()])
            .collect()
    }

    /// The current primary-input pattern.
    pub fn input_pattern(&self) -> Vec<bool> {
        self.circuit
            .primary_inputs()
            .iter()
            .map(|&pi| self.values[pi.index()])
            .collect()
    }

    /// Forces the latch state and input pattern, then settles the
    /// combinational logic. Used to (re)start simulation from a chosen state.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the circuit.
    pub fn reset_to(&mut self, latch_state: &[bool], inputs: &[bool]) {
        assert_eq!(latch_state.len(), self.circuit.num_flip_flops());
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        for (ff, &v) in self.circuit.flip_flops().iter().zip(latch_state) {
            self.values[ff.q().index()] = v;
        }
        for (&pi, &v) in self.circuit.primary_inputs().iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        self.evaluate_combinational();
    }

    /// Draws a uniformly random latch state and input pattern and settles the
    /// combinational logic. A convenient way to start the warm-up phase from
    /// an arbitrary point of the state space.
    pub fn randomize<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let latches: Vec<bool> = (0..self.circuit.num_flip_flops())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let inputs: Vec<bool> = (0..self.circuit.num_primary_inputs())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        self.reset_to(&latches, &inputs);
    }

    /// Advances the circuit by one clock cycle:
    ///
    /// 1. flip-flops capture the value present on their `D` nets,
    /// 2. the primary inputs take the new pattern,
    /// 3. the combinational logic settles (zero delay),
    /// 4. every net that differs from its previous stable value counts one
    ///    transition.
    ///
    /// Returns the switching activity of the cycle. The returned reference is
    /// valid until the next call to `step`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not have one value per primary input.
    pub fn step(&mut self, inputs: &[bool]) -> &CycleActivity {
        assert_eq!(
            inputs.len(),
            self.circuit.num_primary_inputs(),
            "input pattern length must equal the number of primary inputs"
        );
        self.prev.copy_from_slice(&self.values);

        // 1. Latch capture: Q <- D (from the *previous* stable values).
        for ff in self.circuit.flip_flops() {
            self.values[ff.q().index()] = self.prev[ff.d().index()];
        }
        // 2. New primary-input pattern.
        for (&pi, &v) in self.circuit.primary_inputs().iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        // 3. Settle combinational logic.
        self.evaluate_combinational();

        // 4. Count zero-delay transitions.
        self.activity.reset();
        let counts = self.activity.per_net_mut();
        for (idx, (&old, &new)) in self.prev.iter().zip(&self.values).enumerate() {
            if old != new {
                counts[idx] = 1;
            }
        }
        &self.activity
    }

    /// Advances the circuit by `cycles` clock cycles using input patterns
    /// drawn from the provided closure, discarding activity counts. This is
    /// the "decorrelation only" fast path used during the independence
    /// interval.
    ///
    /// Allocates one `Vec` per cycle; prefer
    /// [`advance_with`](Self::advance_with) on hot paths.
    pub fn advance<F>(&mut self, cycles: usize, mut next_inputs: F)
    where
        F: FnMut() -> Vec<bool>,
    {
        for _ in 0..cycles {
            let inputs = next_inputs();
            self.step_state_only(&inputs);
        }
    }

    /// Allocation-free variant of [`advance`](Self::advance): `fill` writes
    /// each cycle's input pattern into a buffer the simulator reuses across
    /// cycles.
    pub fn advance_with<F>(&mut self, cycles: usize, mut fill: F)
    where
        F: FnMut(&mut [bool]),
    {
        let mut inputs = std::mem::take(&mut self.input_scratch);
        for _ in 0..cycles {
            fill(&mut inputs);
            self.step_state_only(&inputs);
        }
        self.input_scratch = inputs;
    }

    /// Like [`step`](Self::step) but skips transition counting. Roughly twice
    /// as fast for large circuits; used when only the next state matters.
    pub fn step_state_only(&mut self, inputs: &[bool]) {
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        // Latch capture must read pre-update values; gather into the
        // dedicated scratch first. (`self.prev` must NOT be used here: it
        // holds the previous stable values backing the last `step`'s
        // transition counts, and clobbering it would corrupt the activity of
        // interleaved `step` calls.)
        for (slot, ff) in self.latch_scratch.iter_mut().zip(self.circuit.flip_flops()) {
            *slot = self.values[ff.d().index()];
        }
        for (slot, ff) in self.latch_scratch.iter().zip(self.circuit.flip_flops()) {
            self.values[ff.q().index()] = *slot;
        }
        for (&pi, &v) in self.circuit.primary_inputs().iter().zip(inputs) {
            self.values[pi.index()] = v;
        }
        self.evaluate_combinational();
    }

    fn evaluate_combinational(&mut self) {
        for &gid in self.circuit.topological_order() {
            let gate = self.circuit.gate(gid);
            let value = gate.eval_with(&self.values);
            self.values[gate.output().index()] = value;
        }
    }
}

/// Computes the next-state vector of `circuit` for a given present state and
/// input pattern, without maintaining any simulator state. This is the
/// next-state function `δ(s, v)` of the underlying finite state machine; the
/// Markov-chain substrate uses it to enumerate state transition graphs.
pub fn compute_next_state(circuit: &Circuit, state: &[bool], inputs: &[bool]) -> Vec<bool> {
    assert_eq!(state.len(), circuit.num_flip_flops());
    assert_eq!(inputs.len(), circuit.num_primary_inputs());
    let mut values = vec![false; circuit.num_nets()];
    for net in circuit.nets() {
        if let NetDriver::Constant(v) = net.driver() {
            values[net.id().index()] = v;
        }
    }
    for (ff, &v) in circuit.flip_flops().iter().zip(state) {
        values[ff.q().index()] = v;
    }
    for (&pi, &v) in circuit.primary_inputs().iter().zip(inputs) {
        values[pi.index()] = v;
    }
    for &gid in circuit.topological_order() {
        let gate = circuit.gate(gid);
        let value = gate.eval_with(&values);
        values[gate.output().index()] = value;
    }
    circuit
        .flip_flops()
        .iter()
        .map(|ff| values[ff.d().index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{iscas89, CircuitBuilder, GateKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 3-bit linear feedback shift register: d0 = q1 XOR q2, d1 = q0, d2 = q1.
    fn lfsr3() -> Circuit {
        let mut b = CircuitBuilder::new("lfsr3");
        let q0 = b.flip_flop_placeholder("q0");
        let q1 = b.flip_flop_placeholder("q1");
        let q2 = b.flip_flop_placeholder("q2");
        let d0 = b.gate(GateKind::Xor, "d0", &[q1, q2]).unwrap();
        b.bind_flip_flop(q0, d0).unwrap();
        b.bind_flip_flop(q1, q0).unwrap();
        b.bind_flip_flop(q2, q1).unwrap();
        b.primary_output(q2);
        b.finish().unwrap()
    }

    #[test]
    fn lfsr_follows_expected_sequence() {
        let c = lfsr3();
        let mut sim = ZeroDelaySimulator::new(&c);
        // Seed the register with 1,0,0.
        sim.reset_to(&[true, false, false], &[]);
        // Next state: q0' = q1^q2 = 0, q1' = q0 = 1, q2' = q1 = 0.
        sim.step(&[]);
        assert_eq!(sim.latch_state(), vec![false, true, false]);
        // And once more: q0' = 1^0 = 1, q1' = 0, q2' = 1.
        sim.step(&[]);
        assert_eq!(sim.latch_state(), vec![true, false, true]);
    }

    #[test]
    fn step_counts_zero_delay_transitions() {
        let c = lfsr3();
        let mut sim = ZeroDelaySimulator::new(&c);
        sim.reset_to(&[true, false, false], &[]);
        let activity = sim.step(&[]);
        // q0: 1->0, q1: 0->1, q2: 0->0, d0: depends. At least the two state
        // bits that changed count one transition each.
        assert!(activity.total_transitions() >= 2);
        assert!(
            activity.per_net().iter().all(|&t| t <= 1),
            "zero-delay counts are 0/1"
        );
    }

    #[test]
    fn step_state_only_matches_step() {
        let c = iscas89::load("s27").unwrap();
        let mut a = ZeroDelaySimulator::new(&c);
        let mut b = ZeroDelaySimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(11);
        a.reset_to(&[true, false, true], &[false, true, false, true]);
        b.reset_to(&[true, false, true], &[false, true, false, true]);
        for _ in 0..50 {
            let inputs = crate::state::random_input_vector(&c, 0.5, &mut rng);
            a.step(&inputs);
            b.step_state_only(&inputs);
            assert_eq!(a.values(), b.values());
        }
    }

    /// Regression test for the `step_state_only` latch-capture scratch: the
    /// old implementation borrowed `self.prev` as scratch, leaving `prev`
    /// inconsistent with the last stable values. Interleaving
    /// `step`/`step_state_only` must produce exactly the same states *and*
    /// per-cycle activity counts as a reference simulator that was stepped
    /// identically.
    #[test]
    fn interleaved_state_only_steps_do_not_corrupt_activity() {
        let c = iscas89::load("s298").unwrap();
        let mut mixed = ZeroDelaySimulator::new(&c);
        let mut reference = ZeroDelaySimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..40 {
            let inputs = crate::state::random_input_vector(&c, 0.5, &mut rng);
            if round % 3 == 2 {
                // Counted cycle: both simulators step with counting; the
                // interleaved state-only cycles before it must not have
                // disturbed the transition bookkeeping.
                let a = mixed.step(&inputs).per_net().to_vec();
                let b = reference.step(&inputs).per_net().to_vec();
                assert_eq!(a, b, "activity diverged at round {round}");
                assert_eq!(
                    mixed.step(&inputs).total_transitions(),
                    reference.step(&inputs).total_transitions()
                );
            } else {
                mixed.step_state_only(&inputs);
                reference.step(&inputs); // reference always counts
            }
            assert_eq!(mixed.values(), reference.values());
        }
    }

    #[test]
    fn advance_with_matches_allocating_advance() {
        let c = iscas89::load("s27").unwrap();
        let mut a = ZeroDelaySimulator::new(&c);
        let mut b = ZeroDelaySimulator::new(&c);
        let mut ra = StdRng::seed_from_u64(13);
        let mut rb = StdRng::seed_from_u64(13);
        a.advance(20, || crate::state::random_input_vector(&c, 0.5, &mut ra));
        b.advance_with(20, |buf| {
            for v in buf.iter_mut() {
                *v = rb.gen_bool(0.5);
            }
        });
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn advance_runs_requested_cycles() {
        let c = iscas89::load("s27").unwrap();
        let mut sim = ZeroDelaySimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(3);
        let before = sim.values().to_vec();
        sim.advance(10, || crate::state::random_input_vector(&c, 0.5, &mut rng));
        // After ten random cycles the state is very likely to have changed;
        // the important property is that it does not crash and stays in sync.
        assert_eq!(sim.values().len(), before.len());
    }

    #[test]
    fn compute_next_state_matches_simulator() {
        let c = iscas89::load("s27").unwrap();
        let mut sim = ZeroDelaySimulator::new(&c);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let state: Vec<bool> = (0..c.num_flip_flops()).map(|_| rng.gen_bool(0.5)).collect();
            let inputs = crate::state::random_input_vector(&c, 0.5, &mut rng);
            sim.reset_to(&state, &inputs);
            let expected = compute_next_state(&c, &state, &inputs);
            sim.step(&inputs); // same inputs held for the next cycle
            assert_eq!(sim.latch_state(), expected);
        }
    }

    #[test]
    fn randomize_uses_rng_deterministically() {
        let c = iscas89::load("s27").unwrap();
        let mut a = ZeroDelaySimulator::new(&c);
        let mut b = ZeroDelaySimulator::new(&c);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        a.randomize(&mut rng_a);
        b.randomize(&mut rng_b);
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn input_pattern_accessor_reflects_last_step() {
        let c = iscas89::load("s27").unwrap();
        let mut sim = ZeroDelaySimulator::new(&c);
        sim.step(&[true, false, true, true]);
        assert_eq!(sim.input_pattern(), vec![true, false, true, true]);
    }

    #[test]
    #[should_panic(expected = "input pattern length")]
    fn step_rejects_wrong_input_length() {
        let c = iscas89::load("s27").unwrap();
        let mut sim = ZeroDelaySimulator::new(&c);
        sim.step(&[true]);
    }

    #[test]
    fn constant_nets_hold_their_value() {
        let mut b = CircuitBuilder::new("k");
        let one = b.constant("tie1", true).unwrap();
        let a = b.primary_input("a");
        let x = b.gate(GateKind::And, "x", &[a, one]).unwrap();
        b.primary_output(x);
        let c = b.finish().unwrap();
        let mut sim = ZeroDelaySimulator::new(&c);
        sim.step(&[true]);
        let x_id = c.net_by_name("x").unwrap().id();
        assert!(sim.values()[x_id.index()]);
        sim.step(&[false]);
        assert!(!sim.values()[x_id.index()]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use netlist::generator::{generate, GeneratorConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The simulator is deterministic: identical circuits, seeds and input
        /// streams produce identical value trajectories.
        #[test]
        fn simulation_is_deterministic(seed in 0u64..500, circuit_seed in 0u64..50) {
            let cfg = GeneratorConfig::new("prop_sim", 4, 2, 5, 30).with_seed(circuit_seed);
            let c = generate(&cfg).unwrap();
            let mut s1 = ZeroDelaySimulator::new(&c);
            let mut s2 = ZeroDelaySimulator::new(&c);
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            for _ in 0..20 {
                let i1 = crate::state::random_input_vector(&c, 0.5, &mut r1);
                let i2 = crate::state::random_input_vector(&c, 0.5, &mut r2);
                s1.step(&i1);
                s2.step(&i2);
                prop_assert_eq!(s1.values(), s2.values());
            }
        }

        /// Zero-delay transition counts are always 0 or 1 per net and bounded
        /// by the number of nets per cycle.
        #[test]
        fn transition_counts_are_binary(seed in 0u64..200) {
            let cfg = GeneratorConfig::new("prop_sim2", 3, 2, 4, 25).with_seed(7);
            let c = generate(&cfg).unwrap();
            let mut sim = ZeroDelaySimulator::new(&c);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..10 {
                let inputs = crate::state::random_input_vector(&c, 0.5, &mut rng);
                let act = sim.step(&inputs);
                prop_assert!(act.per_net().iter().all(|&t| t <= 1));
                prop_assert!(act.total_transitions() <= c.num_nets() as u64);
            }
        }
    }
}
