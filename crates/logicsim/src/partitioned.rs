//! Partitioned levelized zero-delay simulation for large circuits.
//!
//! [`PartitionedSimulator`] executes the same compiled instruction stream as
//! [`crate::CompiledSimulator`] but exploits the level partition recorded by
//! the compiler ([`netlist::CompiledCircuit::level_offsets`]): the FIFO
//! levelisation in `netlist` guarantees each topological level is one
//! contiguous run of instructions, so the settle pass can walk the stream
//! level by level and split each level into fixed-size *tiles* of
//! [`TILE_INSTRUCTIONS`] instructions. Instructions within a level never
//! depend on one another, which makes the tile an independently evaluable,
//! cache-resident unit — the natural blocking grain for megagate circuits
//! whose full value vector no longer fits in L2.
//!
//! Within a tile, gates are evaluated through a pre-specialised *micro-op*
//! stream built once at construction: for the dominant one- and two-operand
//! gate shapes the operand net indices are resolved inline, so the settle
//! loop reads one flat sequential array instead of chasing each
//! instruction's run in the shared operand table (wider gates escape to the
//! generic fold). Both changes are pure scheduling: the per-instruction
//! results are **bit-identical** to [`crate::CompiledSimulator`]
//! — same stable values, same transition counts — which the property tests
//! in this module enforce on the ISCAS catalogue and on random and tiled
//! generator circuits.
//!
//! Which of the two kernels is faster depends on fanin, not gate count: a
//! wide gate escapes the micro-op stream to the generic fold, so circuits
//! with many of them settle faster on the straight-line compiled loop.
//! [`prefers_partitioned`] is the rule the estimator picks its decorrelation
//! backend by; its thresholds carry the measurements behind it.

use netlist::{Circuit, CompiledCircuit, Opcode};
use rand::Rng;

use crate::compiled::{eval_instruction, LogicWord};
use crate::state::SimState;
use crate::trace::CycleActivity;

/// Instructions per tile: 2048 micro-ops (32 KiB) plus their touched operand
/// values comfortably fit current L1/L2 caches.
pub const TILE_INSTRUCTIONS: usize = 2048;

/// The widest instruction (operand count) a program may hold for
/// [`prefers_partitioned`] to pick this backend.
///
/// Measured as `step_state_only` throughput over 2·10⁷/gates cycles, best
/// of 3 interleaved runs, release build on a 2-vCPU host (ratios are taken
/// within one run; host speed drifts 20–40 % between runs):
///
/// | circuits | gates | gates with > 2 inputs | partitioned ÷ compiled |
/// |---|---|---|---|
/// | s298, s386, s1494, s5378, s9234, s15850 | 119–9 772 | 39–58 % | 0.73–0.96 |
/// | s27 | 10 | 0 % | 0.76–0.78 |
/// | `generate_tiled`, 12–30 gates | 12–30 | 0 % | 0.85–0.98 |
/// | `generate_tiled`, 40–300 000 gates | 40–300 000 | 0 % | 1.10–1.62 |
///
/// Gate count does not separate the classes; fanin does. End to end on two
/// 10⁵-gate tiles (`--delay-model unit:100 --shards 1`, 6 alternating
/// pairs), the partitioned backend lowered the run time in 6 of 6 pairs by
/// 2.8–15.6 % (median 7.4 %) with the same estimate bits.
pub const PARTITIONED_MAX_FANIN: usize = 2;

/// The fewest instructions a program must hold for [`prefers_partitioned`]
/// to pick this backend. Fanin-2 programs below about 35 instructions
/// settle faster on the compiled loop (s27 and the 12–30-gate tiles in the
/// table of [`PARTITIONED_MAX_FANIN`]); end to end, s27 at `--error 0.01`
/// ran slower partitioned in 6 of 6 seeds. The crossover lies between 30
/// and 40 gates, so the floor sits above it.
pub const PARTITIONED_MIN_INSTRUCTIONS: usize = 64;

/// Whether `program` decorrelates faster on [`PartitionedSimulator`] than on
/// [`crate::CompiledSimulator`]: no instruction has more than
/// [`PARTITIONED_MAX_FANIN`] operands, so every gate runs a fanin-specialised
/// micro-op, and the program holds at least [`PARTITIONED_MIN_INSTRUCTIONS`]
/// instructions. Both backends are bit-identical, so the answer moves speed
/// only, never a result.
pub fn prefers_partitioned(program: &CompiledCircuit) -> bool {
    let instructions = program.instructions();
    instructions.len() >= PARTITIONED_MIN_INSTRUCTIONS
        && instructions
            .iter()
            .all(|i| usize::from(i.num_operands) <= PARTITIONED_MAX_FANIN)
}

/// Fanin-specialised micro-op shape. `Wide` escapes to the generic
/// instruction evaluator for gates with more than two operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroKind {
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Not,
    Buf,
    Wide,
}

/// One pre-specialised instruction: operand net indices resolved at
/// construction so the settle loop reads one flat, sequential array instead
/// of chasing each instruction's run in the shared operand table. For
/// `Wide`, `a` holds the index of the original instruction instead of an
/// operand.
#[derive(Debug, Clone, Copy)]
struct MicroOp {
    a: u32,
    b: u32,
    out: u32,
    kind: MicroKind,
}

/// Specialises the compiled instruction stream into micro-ops, in stream
/// order (one micro-op per instruction, same index).
fn specialize(program: &CompiledCircuit) -> Vec<MicroOp> {
    program
        .instructions()
        .iter()
        .enumerate()
        .map(|(index, instruction)| {
            let out = instruction.output;
            match *program.operands_of(instruction) {
                // A one-operand gate folds to its operand, negated for the
                // inverting opcodes (Nand/Nor/Xnor of one input is Not).
                [a] => {
                    let kind = match instruction.opcode {
                        Opcode::Not | Opcode::Nand | Opcode::Nor | Opcode::Xnor => MicroKind::Not,
                        _ => MicroKind::Buf,
                    };
                    MicroOp { a, b: a, out, kind }
                }
                [a, b] => {
                    let kind = match instruction.opcode {
                        Opcode::And => MicroKind::And,
                        Opcode::Nand => MicroKind::Nand,
                        Opcode::Or => MicroKind::Or,
                        Opcode::Nor => MicroKind::Nor,
                        Opcode::Xor => MicroKind::Xor,
                        Opcode::Xnor => MicroKind::Xnor,
                        Opcode::Not => MicroKind::Not,
                        Opcode::Buf => MicroKind::Buf,
                    };
                    MicroOp { a, b, out, kind }
                }
                _ => MicroOp {
                    a: index as u32,
                    b: 0,
                    out,
                    kind: MicroKind::Wide,
                },
            }
        })
        .collect()
}

/// Executes one settle pass level by level, in tiles of `tile` micro-ops.
/// Bit-identical to the straight-line settle in `compiled.rs`: the level
/// runs are contiguous and in stream order, so the evaluation order of
/// individual instructions is unchanged — only the operand loads are
/// pre-resolved.
fn settle_partitioned<W: LogicWord>(
    program: &CompiledCircuit,
    ops: &[MicroOp],
    values: &mut [W],
    tile: usize,
) -> u64 {
    let mut tiles = 0u64;
    let offsets = program.level_offsets();
    for bounds in offsets.windows(2) {
        let (start, end) = (bounds[0] as usize, bounds[1] as usize);
        let mut t = start;
        while t < end {
            let tile_end = (t + tile).min(end);
            tiles += 1;
            for op in &ops[t..tile_end] {
                let a = values[op.a as usize];
                let b = values[op.b as usize];
                values[op.out as usize] = match op.kind {
                    MicroKind::And => a & b,
                    MicroKind::Nand => !(a & b),
                    MicroKind::Or => a | b,
                    MicroKind::Nor => !(a | b),
                    MicroKind::Xor => a ^ b,
                    MicroKind::Xnor => !(a ^ b),
                    MicroKind::Not => !a,
                    MicroKind::Buf => a,
                    MicroKind::Wide => {
                        let instruction = &program.instructions()[op.a as usize];
                        eval_instruction(program, instruction, values)
                    }
                };
            }
            t = tile_end;
        }
    }
    tiles
}

/// Latch capture (`Q <- D`, all reads before all writes), identical to the
/// compiled simulator's.
#[inline]
fn capture_latches<W: LogicWord>(program: &CompiledCircuit, values: &mut [W], scratch: &mut [W]) {
    for (slot, &(d, _)) in scratch.iter_mut().zip(program.flip_flops()) {
        *slot = values[d as usize];
    }
    for (slot, &(_, q)) in scratch.iter().zip(program.flip_flops()) {
        values[q as usize] = *slot;
    }
}

/// Zero-delay simulator with a partitioned levelized settle pass.
///
/// Drop-in replacement for [`crate::CompiledSimulator`] (same constructor
/// and stepping API, bit-identical results); faster on the programs
/// [`prefers_partitioned`] accepts.
#[derive(Debug, Clone)]
pub struct PartitionedSimulator<'c> {
    circuit: &'c Circuit,
    program: CompiledCircuit,
    ops: Vec<MicroOp>,
    tile: usize,
    values: Vec<bool>,
    prev: Vec<bool>,
    latch_scratch: Vec<bool>,
    input_scratch: Vec<bool>,
    activity: CycleActivity,
    /// Cumulative count of tiles evaluated by the settle passes (profiling;
    /// see [`tiles_settled`](Self::tiles_settled)).
    tiles_settled: u64,
}

impl<'c> PartitionedSimulator<'c> {
    /// Compiles `circuit` and initialises all latches and inputs to logic 0
    /// (constants applied, combinational logic settled).
    pub fn new(circuit: &'c Circuit) -> Self {
        Self::with_program(circuit, CompiledCircuit::compile(circuit))
    }

    /// Builds the simulator from an already-compiled program (e.g. one
    /// shared across many simulator instances).
    ///
    /// # Panics
    ///
    /// Panics if `program` was not compiled from a circuit with the same net
    /// count.
    pub fn with_program(circuit: &'c Circuit, program: CompiledCircuit) -> Self {
        assert_eq!(
            program.num_nets(),
            circuit.num_nets(),
            "compiled program does not match the circuit"
        );
        let state = SimState::zeroed(circuit);
        let ops = specialize(&program);
        let mut sim = PartitionedSimulator {
            circuit,
            tile: TILE_INSTRUCTIONS,
            values: state.values().to_vec(),
            prev: vec![false; circuit.num_nets()],
            latch_scratch: vec![false; circuit.num_flip_flops()],
            input_scratch: vec![false; circuit.num_primary_inputs()],
            activity: CycleActivity::zeroed(circuit.num_nets()),
            tiles_settled: 0,
            ops,
            program,
        };
        sim.tiles_settled += settle_partitioned(&sim.program, &sim.ops, &mut sim.values, sim.tile);
        sim
    }

    /// Cumulative number of tiles the settle passes evaluated over this
    /// simulator's lifetime — the partitioned backend's profiling counter,
    /// mirroring [`crate::SimCounters`] on the event-driven side.
    pub fn tiles_settled(&self) -> u64 {
        self.tiles_settled
    }

    /// Overrides the tile size (instructions per tile). Exposed for tuning
    /// and for tests that exercise tile-boundary behaviour; results are
    /// identical for every tile size.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero.
    pub fn with_tile_size(mut self, tile: usize) -> Self {
        assert!(tile > 0, "tile size must be positive");
        self.tile = tile;
        self
    }

    /// The circuit this simulator operates on.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The compiled program being executed.
    pub fn program(&self) -> &CompiledCircuit {
        &self.program
    }

    /// The stable per-net values after the last cycle (or initialisation).
    #[inline]
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// The present-state vector (flip-flop outputs).
    pub fn latch_state(&self) -> Vec<bool> {
        self.program
            .flip_flops()
            .iter()
            .map(|&(_, q)| self.values[q as usize])
            .collect()
    }

    /// The current primary-input pattern.
    pub fn input_pattern(&self) -> Vec<bool> {
        self.program
            .primary_inputs()
            .iter()
            .map(|&pi| self.values[pi as usize])
            .collect()
    }

    /// Forces the latch state and input pattern, then settles the
    /// combinational logic.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the circuit.
    pub fn reset_to(&mut self, latch_state: &[bool], inputs: &[bool]) {
        assert_eq!(latch_state.len(), self.circuit.num_flip_flops());
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        for (&(_, q), &v) in self.program.flip_flops().iter().zip(latch_state) {
            self.values[q as usize] = v;
        }
        for (&pi, &v) in self.program.primary_inputs().iter().zip(inputs) {
            self.values[pi as usize] = v;
        }
        self.tiles_settled +=
            settle_partitioned(&self.program, &self.ops, &mut self.values, self.tile);
    }

    /// Draws a uniformly random latch state and input pattern and settles
    /// the combinational logic (same RNG consumption as
    /// [`crate::CompiledSimulator::randomize`]).
    pub fn randomize<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let latches: Vec<bool> = (0..self.circuit.num_flip_flops())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        let inputs: Vec<bool> = (0..self.circuit.num_primary_inputs())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        self.reset_to(&latches, &inputs);
    }

    /// Advances the circuit by one clock cycle and counts the zero-delay
    /// transitions, exactly like [`crate::CompiledSimulator::step`].
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
        self.apply_cycle(inputs);
        self.activity.reset();
        let counts = self.activity.per_net_mut();
        for (idx, (&old, &new)) in self.prev.iter().zip(&self.values).enumerate() {
            if old != new {
                counts[idx] = 1;
            }
        }
        &self.activity
    }

    /// Like [`step`](Self::step) but skips transition counting — the
    /// decorrelation fast path.
    pub fn step_state_only(&mut self, inputs: &[bool]) {
        assert_eq!(inputs.len(), self.circuit.num_primary_inputs());
        self.apply_cycle(inputs);
    }

    /// Advances the circuit by `cycles` clock cycles, letting `fill` write
    /// each cycle's input pattern into a reused buffer (no per-cycle
    /// allocation), discarding activity.
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

    #[inline]
    fn apply_cycle(&mut self, inputs: &[bool]) {
        capture_latches(&self.program, &mut self.values, &mut self.latch_scratch);
        for (&pi, &v) in self.program.primary_inputs().iter().zip(inputs) {
            self.values[pi as usize] = v;
        }
        self.tiles_settled +=
            settle_partitioned(&self.program, &self.ops, &mut self.values, self.tile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledSimulator;
    use netlist::iscas89;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_pattern(circuit: &Circuit, rng: &mut StdRng) -> Vec<bool> {
        crate::state::random_input_vector(circuit, 0.5, rng)
    }

    #[test]
    fn partitioned_matches_compiled_on_catalogue() {
        for name in ["s27", "s298", "s641"] {
            let c = iscas89::load(name).unwrap();
            let mut compiled = CompiledSimulator::new(&c);
            let mut partitioned = PartitionedSimulator::new(&c);
            assert_eq!(compiled.values(), partitioned.values());
            let mut rng = StdRng::seed_from_u64(17);
            for _ in 0..200 {
                let inputs = random_pattern(&c, &mut rng);
                let a = compiled.step(&inputs).per_net().to_vec();
                let b = partitioned.step(&inputs).per_net().to_vec();
                assert_eq!(a, b, "{name}: transition counts diverged");
                assert_eq!(compiled.values(), partitioned.values(), "{name}");
            }
        }
    }

    #[test]
    fn tiny_tiles_hit_every_boundary_shape() {
        let c = iscas89::load("s298").unwrap();
        let mut reference = CompiledSimulator::new(&c);
        // Tile sizes around and below typical level sizes force partial
        // tiles, single-instruction tiles and exact-boundary tiles.
        for tile in [1usize, 2, 3, 7, 64] {
            let mut partitioned = PartitionedSimulator::new(&c).with_tile_size(tile);
            let mut rng = StdRng::seed_from_u64(23);
            reference.reset_to(
                &vec![false; c.num_flip_flops()],
                &vec![false; c.num_primary_inputs()],
            );
            for _ in 0..50 {
                let inputs = random_pattern(&c, &mut rng);
                let a = reference.step(&inputs).per_net().to_vec();
                let b = partitioned.step(&inputs).per_net().to_vec();
                assert_eq!(a, b, "tile size {tile}");
                assert_eq!(reference.values(), partitioned.values(), "tile size {tile}");
            }
        }
    }

    #[test]
    fn reset_randomize_and_accessors_match_compiled() {
        let c = iscas89::load("s27").unwrap();
        let mut compiled = CompiledSimulator::new(&c);
        let mut partitioned = PartitionedSimulator::new(&c);
        compiled.reset_to(&[true, false, true], &[false, true, false, true]);
        partitioned.reset_to(&[true, false, true], &[false, true, false, true]);
        assert_eq!(compiled.values(), partitioned.values());
        assert_eq!(compiled.latch_state(), partitioned.latch_state());
        assert_eq!(compiled.input_pattern(), partitioned.input_pattern());
        assert_eq!(partitioned.circuit().name(), "s27");
        assert_eq!(partitioned.program().instructions().len(), c.num_gates());

        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        compiled.randomize(&mut ra);
        partitioned.randomize(&mut rb);
        assert_eq!(compiled.values(), partitioned.values());
    }

    #[test]
    fn tiles_settled_counts_every_settle_pass() {
        let c = iscas89::load("s298").unwrap();
        let mut sim = PartitionedSimulator::new(&c).with_tile_size(64);
        let after_init = sim.tiles_settled();
        assert!(after_init > 0, "construction runs one settle pass");
        let inputs = vec![false; c.num_primary_inputs()];
        sim.step(&inputs);
        sim.step_state_only(&inputs);
        // Each cycle runs exactly one settle pass over the same program, so
        // the counter grows by the same amount per cycle.
        assert_eq!(sim.tiles_settled(), 3 * after_init);
    }

    #[test]
    fn advance_with_matches_stepping() {
        let c = iscas89::load("s27").unwrap();
        let mut a = PartitionedSimulator::new(&c);
        let mut b = PartitionedSimulator::new(&c);
        let mut ra = StdRng::seed_from_u64(5);
        let mut rb = StdRng::seed_from_u64(5);
        a.advance_with(25, |buf| {
            for v in buf.iter_mut() {
                *v = ra.gen_bool(0.5);
            }
        });
        for _ in 0..25 {
            let inputs = random_pattern(&c, &mut rb);
            b.step_state_only(&inputs);
        }
        assert_eq!(a.values(), b.values());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::compiled::CompiledSimulator;
    use netlist::generator::{generate, generate_tiled, GeneratorConfig, TiledConfig};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The partitioned settle is bit-identical to the compiled settle —
        /// stable values *and* per-net transition counts — on random
        /// generator circuits.
        #[test]
        fn partitioned_is_bit_exact_on_random_circuits(
            seed in 0u64..200,
            circuit_seed in 0u64..50,
        ) {
            let cfg = GeneratorConfig::new("prop_part", 5, 2, 6, 60).with_seed(circuit_seed);
            let c = generate(&cfg).unwrap();
            let mut compiled = CompiledSimulator::new(&c);
            let mut partitioned = PartitionedSimulator::new(&c);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..25 {
                let inputs = crate::state::random_input_vector(&c, 0.5, &mut rng);
                let a = compiled.step(&inputs).per_net().to_vec();
                let b = partitioned.step(&inputs).per_net().to_vec();
                prop_assert_eq!(a, b);
                prop_assert_eq!(compiled.values(), partitioned.values());
            }
        }

        /// Same bit-exactness on the structured tiled circuits the backend
        /// is built for (small instances keep the test fast).
        #[test]
        fn partitioned_is_bit_exact_on_tiled_circuits(
            seed in 0u64..100,
            target in 50usize..2_000,
        ) {
            let cfg = TiledConfig::new("prop_part_tiled", target).with_seed(seed);
            let c = generate_tiled(&cfg).unwrap();
            let mut compiled = CompiledSimulator::new(&c);
            let mut partitioned = PartitionedSimulator::new(&c).with_tile_size(37);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a);
            for _ in 0..10 {
                let inputs = crate::state::random_input_vector(&c, 0.5, &mut rng);
                let a = compiled.step(&inputs).per_net().to_vec();
                let b = partitioned.step(&inputs).per_net().to_vec();
                prop_assert_eq!(a, b);
                prop_assert_eq!(compiled.values(), partitioned.values());
            }
        }
    }
}
