//! The estimator is format-blind: writing a circuit out as BLIF and parsing
//! it back must not move the estimate. The round-trip reproduces the circuit
//! structurally (proptested in `netlist::blif`) and the sampling trajectory —
//! every net value of every cycle — is bit-identical for the same seed. The
//! per-cycle *power* is a capacitance-weighted sum over nets, and the parser
//! assigns net ids in a different order than the generator did, so that sum
//! accumulates in a different order: the comparisons below allow the last-ulp
//! float-summation slack and nothing more.

use dipe::input::InputModel;
use dipe::{DipeConfig, DipeEstimator, PowerEstimator, PowerSampler};
use netlist::generator::{generate, generate_tiled, GeneratorConfig, TiledConfig};
use testkit::assert_power_eq;

fn round_trip_pair(seed: u64) -> (netlist::Circuit, netlist::Circuit) {
    // min fanin 2 keeps the BLIF cover recogniser's mapping exact (a
    // one-input XOR writes as a buffer cover).
    let cfg = GeneratorConfig::new("rt", 6, 4, 8, 60)
        .with_seed(seed)
        .with_fanin(2, 4);
    let original = generate(&cfg).unwrap();
    let back = netlist::blif::parse(&netlist::blif::write(&original), original.name()).unwrap();
    (original, back)
}

#[test]
fn blif_round_trip_preserves_the_power_sequence() {
    for seed in [1u64, 7, 23] {
        let (original, back) = round_trip_pair(seed);
        let config = DipeConfig::default().with_seed(seed);
        let model = InputModel::uniform();
        let mut a = PowerSampler::new(&original, &config, &model, 0).unwrap();
        let mut b = PowerSampler::new(&back, &config, &model, 0).unwrap();
        a.advance(64);
        b.advance(64);
        let seq_a = a.collect_sequence(64, 2);
        let seq_b = b.collect_sequence(64, 2);
        for (cycle, (&pa, &pb)) in seq_a.iter().zip(&seq_b).enumerate() {
            assert_power_eq(pa, pb, &format!("seed {seed}, observation {cycle}"));
        }
        // The trajectory itself is bit-identical: same cycle accounting ...
        assert_eq!(a.cycle_counts(), b.cycle_counts());
        // ... and the same latch state after the same number of cycles.
        let state_a = a.snapshot();
        let state_b = b.snapshot();
        assert_eq!(state_a.latch_state, state_b.latch_state, "seed {seed}");
        assert_eq!(state_a.input_pattern, state_b.input_pattern, "seed {seed}");
    }
}

#[test]
fn blif_round_trip_preserves_the_full_estimate() {
    let (original, back) = round_trip_pair(42);
    // A loose target so the full flow (interval selection + stopping rule)
    // completes quickly.
    let config = DipeConfig::default()
        .with_seed(42)
        .with_accuracy(0.15, 0.95);
    let model = InputModel::uniform();
    let a = DipeEstimator::new()
        .run(&original, &config, &model)
        .unwrap();
    let b = DipeEstimator::new().run(&back, &config, &model).unwrap();
    assert_power_eq(a.mean_power_w, b.mean_power_w, "mean power");
    assert_eq!(a.sample_size, b.sample_size);
    assert_eq!(a.independence_interval(), b.independence_interval());
}

#[test]
fn blif_round_trip_preserves_the_estimate_in_partitioned_mode() {
    // A fanin-2 generated circuit above the size floor decorrelates on the
    // partitioned kernel, before and after the round trip.
    let original = generate_tiled(&TiledConfig::new("rt_tiled", 400).with_seed(9)).unwrap();
    let back = netlist::blif::parse(&netlist::blif::write(&original), original.name()).unwrap();
    let config = DipeConfig::default().with_seed(9).with_accuracy(0.15, 0.95);
    let model = InputModel::uniform();
    let a = DipeEstimator::new()
        .run(&original, &config, &model)
        .unwrap();
    let b = DipeEstimator::new().run(&back, &config, &model).unwrap();
    assert_power_eq(a.mean_power_w, b.mean_power_w, "mean power");
    assert_eq!(a.sample_size, b.sample_size);
    for estimate in [&a, &b] {
        assert!(estimate.sim_profile.unwrap().tiles_settled > 0);
    }
}
