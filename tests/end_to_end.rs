//! End-to-end integration tests: the full DIPE flow against brute-force
//! references, across crates.

use dipe::input::InputModel;
use dipe::{
    CriterionKind, Diagnostics, DipeConfig, DipeEstimator, Estimate, LongSimulationReference,
    PowerEstimator,
};
use netlist::iscas89;

/// Runs DIPE and a reference on one circuit and returns (estimate, reference)
/// in watts.
fn estimate_and_reference(name: &str, seed: u64, reference_cycles: usize) -> (f64, f64) {
    let circuit = iscas89::load(name).unwrap();
    let config = DipeConfig::default().with_seed(seed);
    let result = DipeEstimator::new()
        .run(&circuit, &config, &InputModel::uniform())
        .unwrap();
    let reference = LongSimulationReference::new(reference_cycles)
        .run(&circuit, &config, &InputModel::uniform())
        .unwrap();
    (result.mean_power_w, reference.mean_power_w)
}

/// The raw power sample of a DIPE estimate.
fn dipe_sample(estimate: &Estimate) -> &[f64] {
    match &estimate.diagnostics {
        Diagnostics::Dipe { sample, .. } => sample,
        other => panic!("expected DIPE diagnostics, got {other:?}"),
    }
}

#[test]
fn s27_estimate_matches_reference_within_spec() {
    let (estimate, reference) = estimate_and_reference("s27", 101, 40_000);
    let deviation = (estimate - reference).abs() / reference;
    assert!(
        deviation < 0.07,
        "deviation {:.3} (estimate {:.4e} W, reference {:.4e} W)",
        deviation,
        estimate,
        reference
    );
}

#[test]
fn s208_estimate_matches_reference_within_spec() {
    let (estimate, reference) = estimate_and_reference("s208", 7, 30_000);
    let deviation = (estimate - reference).abs() / reference;
    assert!(deviation < 0.08, "deviation {deviation:.3}");
}

#[test]
fn s298_estimate_matches_reference_within_spec() {
    let (estimate, reference) = estimate_and_reference("s298", 3, 30_000);
    let deviation = (estimate - reference).abs() / reference;
    assert!(deviation < 0.08, "deviation {deviation:.3}");
}

#[test]
fn table1_shape_holds_on_a_small_suite() {
    // The qualitative claims of Table 1, checked end to end on three small
    // circuits: the estimate tracks the reference, the independence interval
    // is a few cycles, and the sample is far smaller than the reference.
    for (name, seed) in [("s27", 11u64), ("s208", 12), ("s344", 13)] {
        let circuit = iscas89::load(name).unwrap();
        let config = DipeConfig::default().with_seed(seed);
        let result = DipeEstimator::new()
            .run(&circuit, &config, &InputModel::uniform())
            .unwrap();
        let reference = LongSimulationReference::new(20_000)
            .run(&circuit, &config, &InputModel::uniform())
            .unwrap();

        let deviation = result.relative_deviation_from(reference.mean_power_w);
        assert!(deviation < 0.08, "{name}: deviation {deviation:.3}");
        let interval = result.independence_interval().unwrap();
        assert!(interval <= 10, "{name}: interval {interval}");
        assert!(
            (result.sample_size as f64) < 0.5 * reference.sample_size as f64,
            "{name}: sample {} not much smaller than reference {}",
            result.sample_size,
            reference.sample_size
        );
    }
}

#[test]
fn estimation_works_with_every_stopping_criterion() {
    let circuit = iscas89::load("s27").unwrap();
    let reference = LongSimulationReference::new(30_000)
        .run(
            &circuit,
            &DipeConfig::default().with_seed(50),
            &InputModel::uniform(),
        )
        .unwrap();
    for kind in [
        CriterionKind::Normal,
        CriterionKind::OrderStatistic,
        CriterionKind::Dkw,
    ] {
        let config = DipeConfig::default().with_seed(50).with_criterion(kind);
        let result = DipeEstimator::new()
            .run(&circuit, &config, &InputModel::uniform())
            .unwrap();
        let deviation = result.relative_deviation_from(reference.mean_power_w);
        assert!(
            deviation < 0.10,
            "{kind:?}: deviation {deviation:.3} ({} samples)",
            result.sample_size
        );
    }
}

#[test]
fn whole_flow_is_deterministic() {
    let circuit = iscas89::load("s298").unwrap();
    let run = |seed: u64| {
        DipeEstimator::new()
            .run(
                &circuit,
                &DipeConfig::default().with_seed(seed),
                &InputModel::uniform(),
            )
            .unwrap()
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a.mean_power_w, b.mean_power_w);
    assert_eq!(dipe_sample(&a), dipe_sample(&b));
    assert_eq!(a.independence_interval(), b.independence_interval());
    let c = run(78);
    assert_ne!(dipe_sample(&a), dipe_sample(&c));
}

#[test]
fn power_scales_with_clock_and_supply() {
    // Eq. 1: power is proportional to f_clk and to V_dd^2. Run the estimator
    // under two operating points and verify the ratio.
    let circuit = iscas89::load("s27").unwrap();
    let base = DipeConfig::default()
        .with_seed(31)
        .with_technology(power::Technology::new(5.0, 20.0e6));
    let double_clock = DipeConfig::default()
        .with_seed(31)
        .with_technology(power::Technology::new(5.0, 40.0e6));
    let run = |config: DipeConfig| {
        DipeEstimator::new()
            .run(&circuit, &config, &InputModel::uniform())
            .unwrap()
            .mean_power_w
    };
    let p_base = run(base);
    let p_fast = run(double_clock);
    let ratio = p_fast / p_base;
    assert!(
        (ratio - 2.0).abs() < 0.2,
        "doubling the clock should double the power, got ratio {ratio:.3}"
    );
}

#[test]
fn larger_circuits_dissipate_more_power() {
    // Coarse sanity check on the power model across the suite: power grows
    // with circuit size at the same operating point (as in Table 1, where
    // s1196/s1238/s1423 dissipate several times more than s208/s298).
    let small = estimate_and_reference("s208", 1, 10_000).1;
    let large = estimate_and_reference("s1196", 1, 10_000).1;
    assert!(
        large > 2.0 * small,
        "s1196 ({large:.3e} W) should dissipate much more than s208 ({small:.3e} W)"
    );
}
