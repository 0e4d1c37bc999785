//! Circuit state vectors and random pattern helpers.

use netlist::{Circuit, NetDriver};
use rand::Rng;

/// The complete value assignment of a circuit at a clock boundary.
///
/// `SimState` is a thin wrapper around a dense `Vec<bool>` indexed by
/// [`netlist::NetId::index`]; the wrapper adds the state/input projections the
/// estimator needs (present-state vector, input pattern, state codes for STG
/// extraction).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SimState {
    values: Vec<bool>,
}

impl SimState {
    /// Creates an all-zero state for the given circuit, with constant nets set
    /// to their tied values.
    pub fn zeroed(circuit: &Circuit) -> Self {
        let mut values = vec![false; circuit.num_nets()];
        for net in circuit.nets() {
            if let NetDriver::Constant(v) = net.driver() {
                values[net.id().index()] = v;
            }
        }
        SimState { values }
    }

    /// Creates a state with the given dense value vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the circuit's net count.
    pub fn from_values(circuit: &Circuit, values: Vec<bool>) -> Self {
        assert_eq!(
            values.len(),
            circuit.num_nets(),
            "value vector length must equal the number of nets"
        );
        SimState { values }
    }

    /// The dense per-net values, indexed by [`netlist::NetId::index`].
    #[inline]
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// Mutable access to the dense per-net values.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [bool] {
        &mut self.values
    }

    /// The present-state vector: the values of all flip-flop outputs, in
    /// flip-flop declaration order.
    pub fn latch_vector(&self, circuit: &Circuit) -> Vec<bool> {
        circuit
            .flip_flops()
            .iter()
            .map(|ff| self.values[ff.q().index()])
            .collect()
    }

    /// The primary-input pattern, in declaration order.
    pub fn input_vector(&self, circuit: &Circuit) -> Vec<bool> {
        circuit
            .primary_inputs()
            .iter()
            .map(|&pi| self.values[pi.index()])
            .collect()
    }

    /// Encodes the present-state vector as an integer (flip-flop 0 is the
    /// least-significant bit). Only meaningful for circuits with at most 64
    /// flip-flops; used by STG extraction and by tests.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more than 64 flip-flops.
    pub fn state_code(&self, circuit: &Circuit) -> u64 {
        assert!(
            circuit.num_flip_flops() <= 64,
            "state_code only supports up to 64 flip-flops"
        );
        let mut code = 0u64;
        for (i, ff) in circuit.flip_flops().iter().enumerate() {
            if self.values[ff.q().index()] {
                code |= 1 << i;
            }
        }
        code
    }

    /// Overwrites the flip-flop outputs with the given state vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the flip-flop count.
    pub fn set_latch_vector(&mut self, circuit: &Circuit, state: &[bool]) {
        assert_eq!(state.len(), circuit.num_flip_flops());
        for (ff, &v) in circuit.flip_flops().iter().zip(state) {
            self.values[ff.q().index()] = v;
        }
    }

    /// Overwrites the primary inputs with the given pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern length does not match the primary-input count.
    pub fn set_input_vector(&mut self, circuit: &Circuit, pattern: &[bool]) {
        assert_eq!(pattern.len(), circuit.num_primary_inputs());
        for (&pi, &v) in circuit.primary_inputs().iter().zip(pattern) {
            self.values[pi.index()] = v;
        }
    }
}

/// Draws a random primary-input pattern where every bit is an independent
/// Bernoulli(`p_one`) variable — the input model used in the paper's
/// experiments with `p_one = 0.5`.
pub fn random_input_vector<R: Rng + ?Sized>(
    circuit: &Circuit,
    p_one: f64,
    rng: &mut R,
) -> Vec<bool> {
    (0..circuit.num_primary_inputs())
        .map(|_| rng.gen_bool(p_one))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::iscas89;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeroed_state_has_correct_length() {
        let c = iscas89::load("s27").unwrap();
        let s = SimState::zeroed(&c);
        assert_eq!(s.values().len(), c.num_nets());
        assert!(s.values().iter().all(|&v| !v));
    }

    #[test]
    fn latch_and_input_projections() {
        let c = iscas89::load("s27").unwrap();
        let mut s = SimState::zeroed(&c);
        s.set_latch_vector(&c, &[true, false, true]);
        s.set_input_vector(&c, &[true, true, false, false]);
        assert_eq!(s.latch_vector(&c), vec![true, false, true]);
        assert_eq!(s.input_vector(&c), vec![true, true, false, false]);
        assert_eq!(s.state_code(&c), 0b101);
    }

    #[test]
    fn state_code_round_trips() {
        let c = iscas89::load("s27").unwrap();
        for code in 0..8u64 {
            let mut s = SimState::zeroed(&c);
            let bits: Vec<bool> = (0..3).map(|i| (code >> i) & 1 == 1).collect();
            s.set_latch_vector(&c, &bits);
            assert_eq!(s.state_code(&c), code);
        }
    }

    #[test]
    fn random_vectors_have_right_lengths() {
        let c = iscas89::load("s27").unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(random_input_vector(&c, 0.5, &mut rng).len(), 4);
    }

    #[test]
    fn random_input_probability_extremes() {
        let c = iscas89::load("s27").unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(random_input_vector(&c, 1.0, &mut rng).iter().all(|&b| b));
        assert!(random_input_vector(&c, 0.0, &mut rng).iter().all(|&b| !b));
    }

    #[test]
    #[should_panic(expected = "value vector length")]
    fn from_values_checks_length() {
        let c = iscas89::load("s27").unwrap();
        let _ = SimState::from_values(&c, vec![false; 3]);
    }

    #[test]
    fn constants_are_applied_in_zeroed_state() {
        use netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("k");
        let one = b.constant("tie1", true).unwrap();
        let a = b.primary_input("a");
        let x = b.gate(GateKind::And, "x", &[a, one]).unwrap();
        b.primary_output(x);
        let c = b.finish().unwrap();
        let s = SimState::zeroed(&c);
        let tie = c.net_by_name("tie1").unwrap().id();
        assert!(s.values()[tie.index()]);
    }
}
