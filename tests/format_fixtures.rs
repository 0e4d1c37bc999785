//! Cross-format fixture smoke: the checked-in `tests/fixtures/mix3.*` files
//! describe the *same* sequential circuit in every supported frontend
//! (`.bench`, `.blif`, ascii and binary AIGER), and the estimator must not
//! care which one it was fed.
//!
//! The circuit uses only AND/NOT gates so it is expressible natively in all
//! four formats with an identical gate-level structure (AIGER inverted
//! literals materialise as the same two NOT gates the bench source declares).
//! The fixtures are self-verifying: re-writing the parsed circuit through
//! each format writer must reproduce the checked-in bytes, so the files can
//! never drift from the parsers.
//!
//! One check leaves the fixtures: the partitioned decorrelation kernel runs
//! only on fanin-2 programs of 64 or more instructions, larger than `mix3`,
//! so the binary-AIGER estimate on that kernel uses a generated
//! and-inverter graph.
//!
//! Estimates are compared with a relative tolerance of 1e-12: the sampling
//! trajectory is bit-identical across formats, but each parser assigns net
//! ids in its own order, so the capacitance-weighted per-cycle power sum
//! accumulates in a different float order (last-ulp slack only). Sample size
//! and the selected independence interval must match exactly.

use std::path::PathBuf;

use dipe::input::InputModel;
use dipe::{DipeConfig, DipeEstimator, PowerEstimator};
use netlist::{load_path, Circuit};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn load_fixture(name: &str) -> Circuit {
    load_path(fixture(name)).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

#[test]
fn fixtures_are_canonical_writer_output() {
    let circuit = load_fixture("mix3.bench");
    let checked_in = |name: &str| std::fs::read(fixture(name)).unwrap();
    assert_eq!(
        netlist::bench_format::write(&circuit).into_bytes(),
        checked_in("mix3.bench"),
        "mix3.bench is not the canonical bench writer output"
    );
    assert_eq!(
        netlist::blif::write(&circuit).into_bytes(),
        checked_in("mix3.blif"),
        "mix3.blif is not the canonical BLIF writer output"
    );
    assert_eq!(
        netlist::aiger::write_ascii(&circuit).unwrap().into_bytes(),
        checked_in("mix3.aag"),
        "mix3.aag is not the canonical ascii AIGER writer output"
    );
    assert_eq!(
        netlist::aiger::write_binary(&circuit).unwrap(),
        checked_in("mix3.aig"),
        "mix3.aig is not the canonical binary AIGER writer output"
    );
}

#[test]
fn all_formats_parse_to_the_same_structure() {
    let reference = load_fixture("mix3.bench");
    for name in ["mix3.blif", "mix3.aag", "mix3.aig"] {
        let circuit = load_fixture(name);
        assert_eq!(circuit.stats(), reference.stats(), "{name}");
        assert_eq!(
            circuit.num_primary_inputs(),
            reference.num_primary_inputs(),
            "{name}"
        );
        assert_eq!(
            circuit.num_flip_flops(),
            reference.num_flip_flops(),
            "{name}"
        );
    }
}

#[test]
fn estimates_are_bit_identical_across_formats() {
    let config = DipeConfig::default()
        .with_seed(1997)
        .with_accuracy(0.10, 0.95);
    let model = InputModel::uniform();
    let reference = DipeEstimator::new()
        .run(&load_fixture("mix3.bench"), &config, &model)
        .unwrap();
    for name in ["mix3.blif", "mix3.aag", "mix3.aig"] {
        let result = DipeEstimator::new()
            .run(&load_fixture(name), &config, &model)
            .unwrap();
        let (a, b) = (reference.mean_power_w, result.mean_power_w);
        let scale = a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        assert!(
            (a - b).abs() / scale < 1e-12,
            "{name}: mean power {b} vs bench {a}"
        );
        assert_eq!(result.sample_size, reference.sample_size, "{name}");
        assert_eq!(
            result.independence_interval(),
            reference.independence_interval(),
            "{name}"
        );
    }
}

/// A generated and-inverter graph as ascii AIGER: 8 inputs, 8 latches and
/// `ands` AND gates, each over two earlier variables picked by a xorshift
/// stream, half of them inverted. Every gate has fanin 2, so with enough of
/// them the estimator decorrelates on the partitioned kernel.
fn generated_aag(ands: u32) -> String {
    let (inputs, latches) = (8u32, 8u32);
    let max_var = inputs + latches + ands;
    let mut lines = vec![format!("aag {max_var} {inputs} {latches} 1 {ands}")];
    lines.extend((1..=inputs).map(|var| (2 * var).to_string()));
    // Latch k loads one of the last gates, alternately inverted.
    lines.extend(
        (0..latches).map(|k| format!("{} {}", 2 * (inputs + 1 + k), 2 * (max_var - k) + (k & 1))),
    );
    lines.push((2 * max_var).to_string());
    let mut state = 0x2545_f491_u32;
    let mut literal_below = |var: u32| {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        2 * (1 + state % (var - 1)) + (state >> 31)
    };
    for var in inputs + latches + 1..=max_var {
        let (a, b) = (literal_below(var), literal_below(var));
        lines.push(format!("{} {a} {b}", 2 * var));
    }
    lines.join("\n") + "\n"
}

#[test]
fn binary_aiger_estimates_match_in_partitioned_mode() {
    let parsed = netlist::aiger::parse_ascii(&generated_aag(96), "aig96").unwrap();
    let binary = netlist::aiger::write_binary(&parsed).unwrap();
    let from_aig = netlist::aiger::parse_binary(&binary, "aig96").unwrap();
    let from_bench =
        netlist::bench_format::parse(&netlist::bench_format::write(&parsed), "aig96").unwrap();
    let config = DipeConfig::default().with_seed(7).with_accuracy(0.10, 0.95);
    let model = InputModel::uniform();
    let a = DipeEstimator::new()
        .run(&from_bench, &config, &model)
        .unwrap();
    let b = DipeEstimator::new()
        .run(&from_aig, &config, &model)
        .unwrap();
    let scale = a.mean_power_w.abs().max(b.mean_power_w.abs());
    assert!((a.mean_power_w - b.mean_power_w).abs() / scale < 1e-12);
    assert_eq!(a.sample_size, b.sample_size);
    for estimate in [&a, &b] {
        assert!(estimate.sim_profile.unwrap().tiles_settled > 0);
    }
}
