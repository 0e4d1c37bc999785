//! The cross-backend glitch-count identity battery: the lane-parallel
//! [`logicsim::TimeSlicedSimulator`] must be **bit-identical** to the scalar
//! [`logicsim::EventDrivenSimulator`] — per net, per lane, and in aggregate —
//! on every circuit of the bundled catalogue and on randomly generated
//! circuits with randomly drawn integer delay annotations.
//!
//! The identity claimed is exact, not statistical: for every cycle and every
//! one of the 64 lanes, the projected per-net total and settled transition
//! counts (and therefore the glitch counts, total − settled) equal what the
//! event-driven wheel reports for the same previous state and inputs, and
//! the settled end-of-cycle values agree bit for bit.
//!
//! Where the two backends *could* diverge, the time-sliced backend refuses
//! the annotation instead of approximating — those intentional divergences
//! are locked in by `divergent_annotations_are_rejected_not_approximated`:
//!
//! * **Mixed zero/positive delays** — a zero-delay gate inside a
//!   positive-delay fabric settles within the wheel's delta rounds of a
//!   single timestamp; reproducing that inside a slot pass would need an
//!   intra-slot fixpoint iteration, so the annotation is rejected
//!   ([`SlotRejection::MixedZeroAndPositive`]).
//! * **Annotations past the wheel horizon** — delay sets whose gcd-quantized
//!   span exceeds 63 slots (e.g. the `random:<seed>` model, whose uniform
//!   60–340 ps draws have gcd ≈ 1 ps) would force slot coalescing, merging
//!   events the event-driven wheel keeps distinct
//!   ([`SlotRejection::HorizonExceeded`]).

use logicsim::{
    BitParallelSimulator, DelayModel, EventDrivenSimulator, GlitchActivity, SlotRejection,
    SlotSchedule, TimeSlicedSimulator, LANES,
};
use netlist::{generator, iscas89, Circuit, GateDelays};
use proptest::{proptest, ProptestConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four delay models of the battery. `random:<seed>` is deliberately
/// absent: it is not slot-representable and is covered by the rejection
/// test instead.
fn battery_models() -> [DelayModel; 4] {
    [
        DelayModel::Zero,
        DelayModel::Unit(100),
        DelayModel::Unit(250),
        DelayModel::default(), // fanout-loaded
    ]
}

/// Drives the word backend and 64 scalar event-driven references over the
/// same stimulus and asserts per-lane, per-net and aggregate identity of
/// total, settled and glitch transition counts, plus the settled values.
///
/// Returns `false` (after asserting the event-driven backend still accepts
/// the annotation) when the delay annotation is not slot-representable.
fn assert_backends_identical(
    circuit: &Circuit,
    model: DelayModel,
    delays: &GateDelays,
    seed: u64,
    cycles: u32,
) -> bool {
    let mut word = match TimeSlicedSimulator::with_delays(circuit, model, delays) {
        Ok(word) => word,
        Err(rejection) => {
            // A rejected annotation is the documented divergence path: the
            // event-driven backend must still take it, and the rejection
            // must render a one-line reason.
            EventDrivenSimulator::with_delays(circuit, model, delays);
            assert!(!format!("{rejection}").is_empty());
            return false;
        }
    };
    let mut scalar = EventDrivenSimulator::with_delays(circuit, model, delays);
    let mut state = BitParallelSimulator::new(circuit);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = GlitchActivity::zeroed(circuit.num_nets());
    let mut prev = vec![false; circuit.num_nets()];
    let mut pattern = vec![false; circuit.num_primary_inputs()];
    let mut aggregate_total = vec![0u64; circuit.num_nets()];
    let mut aggregate_settled = vec![0u64; circuit.num_nets()];
    for cycle in 0..cycles {
        let input_words: Vec<u64> = (0..circuit.num_primary_inputs())
            .map(|_| rng.gen::<u64>())
            .collect();
        let prev_words = state.words().to_vec();
        let activity = word.simulate_cycle(&prev_words, &input_words);
        aggregate_total.fill(0);
        aggregate_settled.fill(0);
        for lane in 0..LANES {
            state.lane_values_into(lane, &mut prev);
            for (bit, w) in pattern.iter_mut().zip(&input_words) {
                *bit = (w >> lane) & 1 != 0;
            }
            let reference = scalar.simulate_cycle(&prev, &pattern);
            // Per-lane, per-net identity of the full glitch decomposition
            // (total, settled and therefore glitch counts).
            activity.lane_activity_into(lane, &mut scratch);
            assert_eq!(
                &scratch,
                reference,
                "{}: cycle {cycle}, lane {lane} diverged under {model:?}",
                circuit.name()
            );
            for (net, &count) in reference.total().per_net().iter().enumerate() {
                aggregate_total[net] += u64::from(count);
            }
            for (net, &count) in reference.settled().per_net().iter().enumerate() {
                aggregate_settled[net] += u64::from(count);
            }
            // Settled end-of-cycle values, bit for bit.
            for (net, (&prev_w, &diff_w)) in prev_words
                .iter()
                .zip(activity.settled_diff_words())
                .enumerate()
            {
                assert_eq!(
                    ((prev_w ^ diff_w) >> lane) & 1 != 0,
                    scalar.stable_values()[net],
                    "{}: settled value of net {net}, lane {lane}, cycle {cycle}",
                    circuit.name()
                );
            }
        }
        // Aggregate identity: the word backend's per-net lane sums equal the
        // sum of the 64 scalar references, for totals, settled counts and
        // the glitch counts they imply.
        assert_eq!(
            activity.totals(),
            aggregate_total.as_slice(),
            "{}: cycle {cycle} aggregate totals diverged under {model:?}",
            circuit.name()
        );
        let settled_from_words: Vec<u64> = activity
            .settled_diff_words()
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .collect();
        assert_eq!(
            settled_from_words,
            aggregate_settled,
            "{}: cycle {cycle} aggregate settled counts diverged under {model:?}",
            circuit.name()
        );
        assert_eq!(
            activity.total_transitions() - activity.settled_transitions(),
            aggregate_total.iter().sum::<u64>() - aggregate_settled.iter().sum::<u64>(),
            "{}: cycle {cycle} aggregate glitch count diverged under {model:?}",
            circuit.name()
        );
        state.step_state_only(&input_words);
    }
    true
}

/// Every catalogue circuit × every battery delay model × two seeds. Budgets
/// shrink with circuit size (64 scalar reference cycles are simulated per
/// word cycle); the property is structural, not statistical.
#[test]
fn catalogue_lane_counts_are_bit_identical_across_backends() {
    let mut circuits = 0usize;
    let mut representable = 0usize;
    for circuit in testkit::catalogue() {
        circuits += 1;
        let cycles = testkit::lane_cycle_budget(&circuit) as u32;
        for model in battery_models() {
            let delays = model.annotate(&circuit);
            for seed in [testkit::structural_seed(&circuit), 1997] {
                if assert_backends_identical(&circuit, model, &delays, seed, cycles) {
                    representable += 1;
                }
            }
        }
    }
    // Zero and both unit models are representable everywhere; only the
    // fanout annotation may fall off the horizon on high-fanout circuits.
    assert!(
        representable >= circuits * 3 * 2,
        "unexpectedly many rejected annotations: {representable} of {}",
        circuits * 4 * 2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random circuits with random integer delay annotations: delays are
    /// drawn as `granularity × multiplier` with multipliers up to 12, so
    /// every case is slot-representable and irregular (many distinct delay
    /// values per circuit, exercising wheel wrap-around and inertial
    /// cancellation).
    #[test]
    fn random_circuits_with_random_annotations_are_bit_identical(
        seed in 0u64..1_000_000,
        gates in 12usize..48,
        flip_flops in 1usize..5,
        granularity in 1u64..140,
    ) {
        let config = generator::GeneratorConfig::new("lane_prop", 5, 2, flip_flops, gates)
            .with_seed(seed)
            .with_fanin(2, 4);
        let circuit = generator::generate(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1997);
        let delays: Vec<u64> = (0..circuit.num_gates())
            .map(|_| granularity * rng.gen_range(1..=12u64))
            .collect();
        let annotation = GateDelays::from_delays(&circuit, delays);
        let representable = assert_backends_identical(
            &circuit,
            DelayModel::Unit(granularity),
            &annotation,
            seed,
            4,
        );
        assert!(representable, "multiplier-of-granularity delays fit 12 slots");
    }
}

/// The divergences the backends would have are rejected, not approximated:
/// mixed zero/positive annotations and annotations past the 63-slot wheel
/// horizon (the `random:<seed>` model among them) refuse to construct, with
/// a one-line reason the CLI surfaces.
#[test]
fn divergent_annotations_are_rejected_not_approximated() {
    let circuit = iscas89::load("s27").unwrap();

    // Mixed zero/positive delays: would need intra-slot fixpoint iteration.
    let mut mixed = vec![100u64; circuit.num_gates()];
    mixed[0] = 0;
    let annotation = GateDelays::from_delays(&circuit, mixed);
    match TimeSlicedSimulator::with_delays(&circuit, DelayModel::Unit(100), &annotation) {
        Err(SlotRejection::MixedZeroAndPositive {
            zero_gates,
            positive_gates,
        }) => {
            assert_eq!(zero_gates, 1);
            assert_eq!(positive_gates, circuit.num_gates() - 1);
        }
        other => panic!("mixed annotation must be rejected, got {other:?}"),
    }
    // The event-driven backend takes the same annotation without complaint —
    // the divergence is documented by the rejection, never by wrong counts.
    EventDrivenSimulator::with_delays(&circuit, DelayModel::Unit(100), &annotation);

    // The random model's 60–340 ps draws have gcd ≈ 1 ps: far over the
    // 63-slot horizon, so the slot schedule (the lane groups' dispatch
    // predicate) must refuse it on every catalogue circuit.
    let random = DelayModel::Random {
        seed: 7,
        min_ps: 60,
        max_ps: 340,
    };
    for name in ["s27", "s298", "s1494"] {
        let circuit = iscas89::load(name).unwrap();
        match SlotSchedule::try_from_delays(&random.annotate(&circuit)) {
            Err(SlotRejection::HorizonExceeded { required_slots, .. }) => {
                assert!(required_slots > SlotSchedule::MAX_SLOTS);
            }
            other => panic!("{name}: random delays must exceed the horizon, got {other:?}"),
        }
    }
}
