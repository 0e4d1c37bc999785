//! Shared fixtures for the workspace's acceptance tests.
//!
//! A **dev-only** crate: production crates must never depend on it outside
//! `[dev-dependencies]`. It centralises the idioms the cross-crate test
//! suites kept re-inventing:
//!
//! * [`catalogue`] — every bundled ISCAS'89 circuit, loaded;
//! * [`structural_cycle_budget`] / [`lane_cycle_budget`] — per-circuit cycle
//!   budgets for structural (non-statistical) battery tests, scaled so the
//!   s15850 end of the catalogue stays affordable;
//! * [`structural_seed`] — the battery's per-circuit deterministic seed;
//! * [`SEED_FAMILY`] — the shared seed triple for multi-seed statistical
//!   tests;
//! * [`run`] — drive any [`PowerEstimator`] session to completion under the
//!   uniform input model;
//! * [`assert_power_eq`] — float equality up to summation-order slack;
//! * [`assert_estimates_bit_identical`] — the full bit-identity contract
//!   two estimation runs must meet when nothing statistical may differ.

use dipe::input::InputModel;
use dipe::{DipeConfig, Estimate, PowerEstimator};
use netlist::{iscas89, Circuit};

/// The shared seed family for tests that sweep a few independent seeds.
/// Three seeds make a chance violation of a per-seed confidence bound
/// astronomically unlikely without multiplying runtime.
pub const SEED_FAMILY: [u64; 3] = [11, 23, 1997];

/// Every bundled ISCAS'89 benchmark, loaded in catalogue order.
pub fn catalogue() -> impl Iterator<Item = Circuit> {
    iscas89::names().map(|name| {
        iscas89::load(name).unwrap_or_else(|e| panic!("catalogued circuit {name}: {e}"))
    })
}

/// Cycle budget for structural battery tests that step one simulator over a
/// circuit: few cycles on the big end of the catalogue (the property under
/// test is structural, not statistical).
pub fn structural_cycle_budget(circuit: &Circuit) -> usize {
    if circuit.num_gates() > 2_000 {
        3
    } else {
        12
    }
}

/// Cycle budget for lane-identity battery tests, which simulate 64 scalar
/// reference cycles per word cycle and therefore need tighter budgets than
/// [`structural_cycle_budget`].
pub fn lane_cycle_budget(circuit: &Circuit) -> usize {
    if circuit.num_gates() > 2_000 {
        2
    } else if circuit.num_gates() > 500 {
        3
    } else {
        6
    }
}

/// The catalogue batteries' per-circuit deterministic seed: distinct per
/// circuit, stable across runs.
pub fn structural_seed(circuit: &Circuit) -> u64 {
    0xD1CE ^ circuit.num_nets() as u64
}

/// [`PowerEstimator::run`] under the uniform input model.
///
/// # Panics
///
/// Panics if the session fails to start or to converge — these helpers are
/// for tests whose configurations are known-good.
pub fn run(estimator: &dyn PowerEstimator, circuit: &Circuit, config: &DipeConfig) -> Estimate {
    estimator
        .run(circuit, config, &InputModel::uniform())
        .expect("session converges")
}

/// Asserts two powers are equal up to float-summation reordering: a handful
/// of ulps (1e-12 relative). Use where two runs accumulate the same per-net
/// terms in a different order; anything looser hides real divergence.
pub fn assert_power_eq(a: f64, b: f64, what: &str) {
    let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
    assert!(
        (a - b).abs() / scale < 1e-12,
        "{what}: {a} vs {b} differ beyond summation-order slack"
    );
}

/// Asserts the full bit-identity contract between two estimates: power mean
/// and half-width as raw IEEE-754 bits, sample size, cycle accounting and
/// diagnostics. This is the equality two runs must meet when they are meant
/// to be *the same computation* (determinism, resume, backend-switch and
/// one-shard contracts) — [`assert_power_eq`]'s slack is not allowed here.
pub fn assert_estimates_bit_identical(a: &Estimate, b: &Estimate, what: &str) {
    assert_eq!(
        a.mean_power_w.to_bits(),
        b.mean_power_w.to_bits(),
        "{what}: mean power diverged ({} vs {} W)",
        a.mean_power_w,
        b.mean_power_w
    );
    assert_eq!(
        a.relative_half_width.map(f64::to_bits),
        b.relative_half_width.map(f64::to_bits),
        "{what}: relative half-width diverged"
    );
    assert_eq!(a.sample_size, b.sample_size, "{what}: sample size diverged");
    assert_eq!(
        a.cycle_counts, b.cycle_counts,
        "{what}: cycle accounting diverged"
    );
    assert_eq!(a.diagnostics, b.diagnostics, "{what}: diagnostics diverged");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dipe::DipeEstimator;

    #[test]
    fn catalogue_loads_and_budgets_scale_down_with_size() {
        let mut count = 0;
        let mut seeds = std::collections::HashSet::new();
        for circuit in catalogue() {
            count += 1;
            assert!(structural_cycle_budget(&circuit) >= 3);
            assert!(lane_cycle_budget(&circuit) >= 2);
            assert!(lane_cycle_budget(&circuit) <= structural_cycle_budget(&circuit));
            seeds.insert(structural_seed(&circuit));
        }
        assert!(count >= 25, "catalogue shrank to {count} circuits");
        assert!(seeds.len() > 20, "structural seeds should rarely collide");
    }

    #[test]
    fn run_helper_is_deterministic_and_bit_identity_holds_reflexively() {
        let circuit = iscas89::load("s27").unwrap();
        let config = DipeConfig::default().with_seed(SEED_FAMILY[0]);
        let a = run(&DipeEstimator::new(), &circuit, &config);
        let b = run(&DipeEstimator::new(), &circuit, &config);
        assert_estimates_bit_identical(&a, &b, "repeated runs");
        assert_power_eq(a.mean_power_w, b.mean_power_w, "repeated runs");
    }

    #[test]
    #[should_panic(expected = "beyond summation-order slack")]
    fn power_eq_rejects_real_divergence() {
        assert_power_eq(1.0, 1.0 + 1e-9, "diverging");
    }
}
