//! Integration tests of the baseline estimators and of the substrate crates
//! working together (netlist generation → simulation → power → statistics →
//! FSM analysis).

use dipe::baselines::{DecoupledCombinationalEstimator, FixedWarmupEstimator};
use dipe::input::InputModel;
use dipe::{DipeConfig, DipeEstimator, LongSimulationReference, PowerEstimator};
use markov::{warmup, StateTransitionGraph};
use netlist::{bench_format, generator, iscas89};

#[test]
fn fixed_warmup_baseline_is_accurate_but_wasteful() {
    let circuit = iscas89::load("s27").unwrap();
    let config = DipeConfig::default().with_seed(15);
    let inputs = InputModel::uniform();
    let reference = LongSimulationReference::new(30_000)
        .run(&circuit, &config, &inputs)
        .unwrap();

    let fixed = FixedWarmupEstimator::default()
        .run(&circuit, &config, &inputs)
        .unwrap();
    assert!(
        fixed.relative_deviation_from(reference.mean_power_w) < 0.08,
        "fixed warm-up deviates {:.3}",
        fixed.relative_deviation_from(reference.mean_power_w)
    );

    let dipe_result = DipeEstimator::new()
        .run(&circuit, &config, &inputs)
        .unwrap();
    // Cost per sample: the fixed warm-up spends ~300 zero-delay cycles per
    // sample; DIPE spends the independence interval (a few cycles).
    let fixed_cost = fixed.cycle_counts.zero_delay_cycles as f64 / fixed.sample_size as f64;
    let dipe_cost =
        dipe_result.cycle_counts.zero_delay_cycles as f64 / dipe_result.sample_size as f64;
    assert!(
        fixed_cost > 10.0 * dipe_cost,
        "fixed warm-up cost/sample {fixed_cost:.1} should dwarf DIPE's {dipe_cost:.1}"
    );
}

#[test]
fn decoupled_baseline_runs_on_several_circuits() {
    // The decoupled estimator must run end to end; its accuracy depends on
    // how strongly the latch bits are correlated in each circuit, so the test
    // only pins down plausibility bounds rather than exact bias.
    let config = DipeConfig::default().with_seed(23);
    for name in ["s27", "s298", "s386"] {
        let circuit = iscas89::load(name).unwrap();
        let reference = LongSimulationReference::new(15_000)
            .run(&circuit, &config, &InputModel::uniform())
            .unwrap();
        let decoupled = DecoupledCombinationalEstimator {
            characterization_cycles: 10_000,
            samples: 2_000,
        }
        .run(&circuit, &config, &InputModel::uniform())
        .unwrap();
        let ratio = decoupled.mean_power_w / reference.mean_power_w;
        assert!(
            ratio > 0.5 && ratio < 2.0,
            "{name}: decoupled/reference ratio {ratio:.3} implausible"
        );
    }
}

#[test]
fn stg_stationary_distribution_matches_simulation_frequencies() {
    // Chapman-Kolmogorov vs Monte Carlo: the stationary state probabilities
    // from the extracted STG of s27 should match the empirical visit
    // frequencies of a long zero-delay simulation.
    let circuit = iscas89::load("s27").unwrap();
    let stg = StateTransitionGraph::extract(&circuit, 0.5).unwrap();
    let pi = stg.stationary_state_probabilities();

    let mut stream = InputModel::uniform().stream(&circuit, 77).unwrap();
    let mut sim = logicsim::ZeroDelaySimulator::new(&circuit);
    // Warm up, then count state visits.
    for _ in 0..500 {
        let inputs = stream.next_pattern();
        sim.step_state_only(&inputs);
    }
    let cycles = 200_000usize;
    let mut visits = vec![0u64; pi.len()];
    for _ in 0..cycles {
        let inputs = stream.next_pattern();
        sim.step_state_only(&inputs);
        let mut code = 0usize;
        for (i, &bit) in sim.latch_state().iter().enumerate() {
            if bit {
                code |= 1 << i;
            }
        }
        visits[code] += 1;
    }
    for (state, (&expected, &count)) in pi.iter().zip(&visits).enumerate() {
        let observed = count as f64 / cycles as f64;
        assert!(
            (observed - expected).abs() < 0.02,
            "state {state:03b}: stationary {expected:.4} vs simulated {observed:.4}"
        );
    }
}

#[test]
fn spectral_and_empirical_warmup_agree_for_s27() {
    let circuit = iscas89::load("s27").unwrap();
    let stg = StateTransitionGraph::extract(&circuit, 0.5).unwrap();
    let chain = stg.chain();
    let empirical = warmup::empirical_warmup(chain, &chain.point_distribution(0), 0.01, 10_000)
        .expect("s27 mixes");
    let spectral = warmup::spectral_warmup_bound(chain, 0.01);
    // Both say "a handful of cycles", consistent with the independence
    // intervals of Tables 1-2.
    assert!(empirical <= 20, "empirical warm-up {empirical}");
    assert!(spectral <= 40, "spectral warm-up bound {spectral}");
    // And both are dwarfed by the conservative a-priori warm-up.
    assert!(warmup::conservative_warmup(0.01, 0.05) > 10 * empirical.max(1));
}

#[test]
fn generated_circuits_flow_through_the_whole_stack() {
    // A synthetic circuit straight from the generator (not the catalogue)
    // must work end to end: bench round trip, estimation, reference check.
    let cfg = generator::GeneratorConfig::new("integration_gen", 6, 4, 10, 120).with_seed(5);
    let circuit = generator::generate(&cfg).unwrap();

    // Survives serialisation to .bench and back.
    let text = bench_format::write(&circuit);
    let reparsed = bench_format::parse(&text, "integration_gen").unwrap();
    assert_eq!(reparsed.stats(), circuit.stats());

    let config = DipeConfig::default().with_seed(64);
    let result = DipeEstimator::new()
        .run(&circuit, &config, &InputModel::uniform())
        .unwrap();
    let reference = LongSimulationReference::new(20_000)
        .run(&circuit, &config, &InputModel::uniform())
        .unwrap();
    assert!(
        result.relative_deviation_from(reference.mean_power_w) < 0.08,
        "deviation {:.3}",
        result.relative_deviation_from(reference.mean_power_w)
    );
}

#[test]
fn correlated_inputs_change_power_but_not_accuracy() {
    let circuit = iscas89::load("s298").unwrap();
    let config = DipeConfig::default().with_seed(3);
    let correlated = InputModel::TemporallyCorrelated {
        p_one: 0.5,
        correlation: 0.9,
    };
    let reference_ind = LongSimulationReference::new(20_000)
        .run(&circuit, &config, &InputModel::uniform())
        .unwrap();
    let reference_cor = LongSimulationReference::new(20_000)
        .run(&circuit, &config, &correlated)
        .unwrap();
    // Strongly correlated (slowly changing) inputs reduce switching activity.
    assert!(
        reference_cor.mean_power_w < reference_ind.mean_power_w,
        "correlated {:.3e} vs independent {:.3e}",
        reference_cor.mean_power_w,
        reference_ind.mean_power_w
    );
    // DIPE still tracks its own reference under correlated inputs.
    let result = DipeEstimator::new()
        .run(&circuit, &config, &correlated)
        .unwrap();
    assert!(
        result.relative_deviation_from(reference_cor.mean_power_w) < 0.08,
        "deviation {:.3}",
        result.relative_deviation_from(reference_cor.mean_power_w)
    );
}

#[test]
fn suite_profiles_load_and_levelise_including_the_large_ones() {
    // Loading the three largest circuits exercises the generator and the
    // levelisation at scale (thousands of gates); no estimation here to keep
    // the test quick.
    for name in ["s5378", "s9234", "s15850"] {
        let circuit = iscas89::load(name).unwrap();
        let profile = iscas89::profile(name).unwrap();
        assert_eq!(circuit.num_gates(), profile.gates);
        assert_eq!(circuit.num_flip_flops(), profile.flip_flops);
        assert_eq!(circuit.topological_order().len(), circuit.num_gates());
        assert!(circuit.depth() > 3);
    }
}
