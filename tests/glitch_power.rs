//! Acceptance tests of the delay-aware estimation path.
//!
//! Two contracts anchor the event-driven backend:
//!
//! 1. **Zero-delay degeneration** — with all delays zero, the
//!    [`logicsim::EventDrivenSimulator`] must produce *bit-identical* per-net
//!    transition counts and stable values to the zero-delay backends on
//!    every bundled ISCAS'89 circuit (the CLI's `--delay-model zero` is then
//!    exactly the classic estimator).
//! 2. **Glitch decomposition** — under any non-zero delay model, every net's
//!    reported power splits into functional + glitch components that
//!    recombine to the total within 1e-12 relative, end to end through the
//!    breakdown estimator and the JSON export.

use activity::{BreakdownEstimator, ConvergenceTarget};
use dipe::DipeConfig;
use logicsim::{
    random_input_vector, CompiledSimulator, DelayModel, EventDrivenSimulator, ZeroDelaySimulator,
};
use netlist::iscas89;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seqstats::NodeStoppingPolicy;
use testkit::{catalogue, run, structural_cycle_budget, structural_seed};

/// With all delays zero, the event-driven simulator is bit-identical to both
/// zero-delay backends — per-net counts *and* stable values — on every
/// circuit of the bundled catalogue, across random stimulus.
#[test]
fn zero_delay_event_simulation_is_bit_identical_on_the_whole_catalogue() {
    for circuit in catalogue() {
        let name = circuit.name();
        let mut interpreted = ZeroDelaySimulator::new(&circuit);
        let mut compiled = CompiledSimulator::new(&circuit);
        let mut event = EventDrivenSimulator::new(&circuit, DelayModel::Zero);
        let mut rng = StdRng::seed_from_u64(structural_seed(&circuit));
        // Few cycles per circuit: the catalogue spans s27 to s15850 and the
        // property is structural, not statistical.
        let cycles = structural_cycle_budget(&circuit);
        for cycle in 0..cycles {
            let inputs = random_input_vector(&circuit, 0.5, &mut rng);
            let prev = interpreted.values().to_vec();
            let glitch = event.simulate_cycle(&prev, &inputs).clone();
            let a = interpreted.step(&inputs).per_net().to_vec();
            let b = compiled.step(&inputs).per_net().to_vec();
            assert_eq!(a, b, "{name} cycle {cycle}: zero-delay backends diverged");
            assert_eq!(
                glitch.total().per_net(),
                a.as_slice(),
                "{name} cycle {cycle}: event-driven totals diverged"
            );
            assert_eq!(
                glitch.settled().per_net(),
                a.as_slice(),
                "{name} cycle {cycle}: settled counts diverged"
            );
            assert_eq!(
                glitch.total_glitch_transitions(),
                0,
                "{name} cycle {cycle}: zero delay cannot glitch"
            );
            assert_eq!(
                event.stable_values(),
                interpreted.values(),
                "{name} cycle {cycle}: stable values diverged"
            );
        }
    }
}

/// Under unit delay, the breakdown's per-net power decomposes into
/// functional + glitch parts that recombine to ≤ 1e-12 relative, the glitch
/// totals are consistent across every aggregation level, and glitching is
/// actually present (the component the zero-delay estimator cannot see).
#[test]
fn unit_delay_breakdown_decomposes_power_into_functional_plus_glitch() {
    let circuit = iscas89::load("s298").unwrap();
    let config = DipeConfig::default()
        .with_seed(1997)
        .with_delay_model(DelayModel::Unit(100));
    let estimator = BreakdownEstimator::new(
        NodeStoppingPolicy::new(0.15, 0.90, 5, 0.05, 64),
        ConvergenceTarget::NodeBreakdown,
    );
    let estimate = run(&estimator, &circuit, &config);
    let breakdown = estimate.breakdown().expect("breakdown diagnostics");

    // Per net: total = functional + glitch to 1e-12 relative, components
    // non-negative, glitch bounded by the total.
    for net in breakdown.per_net() {
        let recombined = net.functional_power_w + net.glitch_power_w;
        let tolerance = 1e-12 * net.power_w.max(f64::MIN_POSITIVE);
        assert!(
            (recombined - net.power_w).abs() <= tolerance,
            "net {}: {} + {} != {}",
            net.name,
            net.functional_power_w,
            net.glitch_power_w,
            net.power_w
        );
        assert!(net.glitch_power_w >= 0.0 && net.functional_power_w >= 0.0);
        assert!(net.glitch_activity <= net.activity + 1e-15);
    }

    // Aggregates agree: group subtotals and the breakdown total.
    let group_glitch: f64 = breakdown
        .group_totals()
        .iter()
        .map(|g| g.glitch_power_w)
        .sum();
    let total_glitch = breakdown.total_glitch_power_w();
    assert!((group_glitch - total_glitch).abs() <= 1e-12 * total_glitch.max(f64::MIN_POSITIVE));

    // The breakdown total still equals the scalar estimate (Eq. 1 over the
    // same measured cycles)...
    let gap = (breakdown.total_power_w() - estimate.mean_power_w).abs() / estimate.mean_power_w;
    assert!(gap < 1e-9, "breakdown/scalar gap {gap}");

    // ...and a real glitch component exists under unit delay: sequential and
    // primary-input nets cannot glitch (they change once, at the clock
    // edge), combinational nets do.
    assert!(
        breakdown.glitch_fraction() > 0.01,
        "unit delay should expose glitch power, got fraction {}",
        breakdown.glitch_fraction()
    );
    for net in breakdown.per_net() {
        if !matches!(net.driver, power::DriverClass::Combinational) {
            assert_eq!(
                net.glitch_activity, 0.0,
                "net {} ({:?}) cannot glitch",
                net.name, net.driver
            );
        }
    }
    // The `dipe --json` export of the decomposition is checked where it is
    // built: `crates/cli/tests/cli_smoke.rs`.
}

/// The glitch component responds to the delay model: more path imbalance
/// (random per-gate delays) produces at least as much glitch power as no
/// imbalance at all, and `zero` produces none, with the functional component
/// stable across models.
#[test]
fn glitch_component_tracks_the_delay_model() {
    let circuit = iscas89::load("s344").unwrap();
    let measure = |model: DelayModel| {
        let config = DipeConfig::default().with_seed(7).with_delay_model(model);
        let estimator = BreakdownEstimator::new(
            NodeStoppingPolicy::new(0.15, 0.90, 5, 0.05, 64),
            ConvergenceTarget::TotalPower,
        );
        let estimate = run(&estimator, &circuit, &config);
        let b = estimate.breakdown().unwrap();
        (
            b.total_power_w(),
            b.total_glitch_power_w(),
            b.total_power_w() - b.total_glitch_power_w(),
        )
    };

    let (zero_total, zero_glitch, zero_functional) = measure(DelayModel::Zero);
    let (_, unit_glitch, unit_functional) = measure(DelayModel::Unit(100));
    let (_, random_glitch, random_functional) = measure(DelayModel::random(42));

    assert_eq!(zero_glitch, 0.0, "zero delay cannot glitch");
    assert!(unit_glitch > 0.0, "unit delay should glitch");
    assert!(random_glitch > 0.0, "random delays should glitch");
    // Functional power is the same physical quantity under every model; the
    // runs are statistically independent samples of it, so they agree to
    // sampling accuracy.
    for (label, functional) in [("unit", unit_functional), ("random", random_functional)] {
        let deviation = (functional - zero_functional).abs() / zero_total;
        assert!(
            deviation < 0.15,
            "{label}: functional component deviates {deviation:.3} from the zero-delay total"
        );
    }
}
