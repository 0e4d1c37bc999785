//! Million-gate smoke: the synthetic tiled generator, the packed compiled
//! IR and the partitioned evaluator handle a 10^6-gate sequential circuit
//! end to end — generate, compile, and complete a (deliberately tiny)
//! zero-delay estimation run — inside the CI test budget. The tiled
//! circuits are fanin-2 throughout, so the estimator decorrelates them on
//! the partitioned kernel by itself.
//!
//! The estimation knobs are turned all the way down (shortest legal
//! randomness sequence, minimum sample budget, loose accuracy target): the
//! point is that the machinery *completes* at this scale, not that the
//! estimate is tight. The debug-profile gate-evaluation rate is the limiting
//! factor, so cycle counts here are chosen to keep the test in the tens of
//! seconds even unoptimised.

use dipe::input::InputModel;
use dipe::{DipeConfig, DipeEstimator, PowerEstimator};
use netlist::generator::{generate_tiled, TiledConfig};
use netlist::CompiledCircuit;

/// A smoke-sized estimation config: completes in ~100 clock cycles.
fn smoke_config() -> DipeConfig {
    DipeConfig::default()
        .with_seed(3)
        .with_accuracy(0.5, 0.9)
        .with_sequence_length(16)
        .with_warmup_cycles(4)
        .with_sample_budget(16, 32)
}

#[test]
fn million_gate_circuit_compiles_lean_and_completes_an_estimate() {
    let cfg = TiledConfig::new("mega", 1_000_000).with_seed(1);
    let circuit = generate_tiled(&cfg).unwrap();
    assert_eq!(
        circuit.num_gates(),
        1_000_000,
        "generator must hit the target exactly"
    );

    let program = CompiledCircuit::compile(&circuit);
    let footprint = program.memory_footprint();
    assert!(
        footprint.bytes_per_gate() <= 24.0,
        "packed IR exceeded its budget: {:.1} B/gate",
        footprint.bytes_per_gate()
    );

    let mut config = smoke_config();
    config.max_independence_interval = 2;
    let result = DipeEstimator::new()
        .run(&circuit, &config, &InputModel::uniform())
        .unwrap();
    assert!(result.mean_power_w > 0.0);
    assert!(result.sample_size >= 16);
    assert!(result.sim_profile.unwrap().tiles_settled > 0);
}

#[test]
fn hundred_kilogate_blif_round_trips_and_estimates() {
    // The frontend leg of the scale story: a 10^5-gate circuit serialised to
    // BLIF and parsed back completes the same smoke estimate. (The 10^6 BLIF
    // ingest is exercised by the release-profile benchmarks; in the debug
    // test profile parsing a ~60 MB netlist would dominate the suite.)
    let cfg = TiledConfig::new("blif100k", 100_000).with_seed(2);
    let circuit = generate_tiled(&cfg).unwrap();
    let text = netlist::blif::write(&circuit);
    let parsed = netlist::blif::parse(&text, circuit.name()).unwrap();
    assert_eq!(parsed.stats(), circuit.stats());

    let mut config = smoke_config();
    config.max_independence_interval = 2;
    let result = DipeEstimator::new()
        .run(&parsed, &config, &InputModel::uniform())
        .unwrap();
    assert!(result.mean_power_w > 0.0);
}
