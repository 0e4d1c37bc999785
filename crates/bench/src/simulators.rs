//! Simulator-backend ablation: decorrelation-advance throughput of the
//! three zero-delay backends.
//!
//! The measured workload is exactly the estimator's hot path — `advance`
//! during the independence interval: draw one input pattern per replication
//! per cycle from a [`dipe::input::InputModel::uniform`] stream and step the
//! next-state logic, with no power measurement. Three backends are compared:
//!
//! * `zero_delay` — the interpreted scalar [`ZeroDelaySimulator`] (1 lane);
//! * `compiled` — the compiled scalar [`CompiledSimulator`] (1 lane);
//! * `bit_parallel` — the 64-lane [`BitParallelSimulator`], with one
//!   independent deterministically-seeded input stream per lane;
//! * `compiled+accum` / `bit_parallel+accum` — the same stepping with
//!   transition counting *and* per-net activity accumulation
//!   ([`activity::NodeActivityAccumulator`]) folded in every cycle, so the
//!   cost of node-resolved estimation over plain state advancement is
//!   visible in the same table;
//! * `event_driven(measure)` / `variable_delay(measure)` — the two
//!   delay-aware *measurement* backends under the default fanout-loaded
//!   delay model, measuring every cycle (the estimator only measures one
//!   cycle per sample, so these rows bound the per-measurement cost): the
//!   compiled arena-wheel [`EventDrivenSimulator`] versus the interpreted
//!   heap-based [`VariableDelaySimulator`];
//! * `event_driven(measure,zero)` / `event_driven(measure,unit)` — the same
//!   measurement workload under the all-zero annotation (the levelized
//!   fast path) and the 100 ps unit model;
//! * `time_sliced(measure,unit)` / `time_sliced(measure,zero)` /
//!   `time_sliced(measure,unit,accum)` — the 64-lane delay-slot
//!   [`TimeSlicedSimulator`] measuring all lanes per word pass, mirroring
//!   the replicated sampler's hot path: the plain rows read the word-level
//!   aggregate transition counts (the same per-cycle consumption as the
//!   event-driven rows), the `accum` row folds each word cycle into a
//!   [`NodeActivityAccumulator`] instead. Their basis is
//!   `measured_lane_cycles` — one unit is one lane's measured cycle, the
//!   same unit of work as one scalar `measured_cycles` tick — and their
//!   speedup is anchored to the same `variable_delay(measure)` baseline as
//!   the scalar measurement rows;
//! * `event_driven(measure,telemetry_off)` / `event_driven(measure,traced)`
//!   — the telemetry-overhead pair: the same measurement loop with a
//!   per-cycle trace-emit call against a **disabled** tracer (the one
//!   branch every instrumented estimation run now pays) and against a live
//!   in-memory sink. Both are timed against a same-shaped plain loop,
//!   interleaved round-robin with best-of-5 per variant, and their
//!   `speedup_vs_baseline` is relative to *that* loop — CI asserts the
//!   disabled row stays within 2 %.
//!
//! Every row runs the **same cycle budget**, so elapsed times compare
//! directly; `cycles_per_sec_basis` names what one unit of each row's rate
//! means (`state_advance_lane_cycles` for the zero-delay advance rows,
//! `measured_cycles` for the measurement rows), so speedup columns are
//! only formed over rows with a matching basis. Results serialise to the
//! machine-readable `BENCH_simulators.json` consumed by CI, so the perf
//! trajectory of the backends is tracked over time.
//!
//! Each run cross-checks the backends against each other before timing is
//! trusted: the compiled scalar simulator must end bit-exact with the
//! interpreted one, and lane 0 of the bit-parallel simulator must end
//! bit-exact with both (it shares their input-stream seed).

use std::sync::Arc;
use std::time::Instant;

use activity::NodeActivityAccumulator;
use dipe::input::{InputModel, InputStream};
use logicsim::{
    pack_lane_bit, BitParallelSimulator, CompiledSimulator, DelayModel, EventDrivenSimulator,
    TimeSlicedSimulator, VariableDelaySimulator, ZeroDelaySimulator, LANES,
};
use netlist::{iscas89, Circuit};
use telemetry::{BufferSink, Json, Tracer};

/// One backend × circuit measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimulatorBenchRow {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Backend identifier: `zero_delay`, `compiled` or `bit_parallel`.
    pub backend: &'static str,
    /// Simulated clock cycles (shared across lanes).
    pub cycles: u64,
    /// Concurrent replications evaluated per pass.
    pub lanes: u32,
    /// Wall-clock seconds for the advance loop, input generation included.
    pub elapsed_seconds: f64,
    /// Aggregate throughput: `cycles * lanes / elapsed_seconds`.
    pub lane_cycles_per_sec: f64,
    /// What one unit of `lane_cycles_per_sec` means:
    /// `state_advance_lane_cycles` (zero-delay next-state stepping, one per
    /// lane) or `measured_cycles` (full delay-aware measurement with
    /// transition counting). Speedups are only comparable within one basis.
    pub cycles_per_sec_basis: &'static str,
    /// Throughput relative to this row's *basis baseline* on the same
    /// circuit (1.0 for the baselines themselves): the interpreted
    /// `zero_delay` backend for state-advance rows, the interpreted
    /// `variable_delay(measure)` reference for measurement rows — never a
    /// cross-basis ratio.
    pub speedup_vs_baseline: f64,
}

/// Basis tag of the zero-delay advance rows.
pub const BASIS_STATE_ADVANCE: &str = "state_advance_lane_cycles";
/// Basis tag of the delay-aware measurement rows.
pub const BASIS_MEASURED: &str = "measured_cycles";
/// Basis tag of the 64-lane time-sliced measurement rows: one unit is one
/// lane's fully measured (glitch-counted) cycle — the same unit of work as
/// one scalar `measured_cycles` tick, so these rows share the
/// `variable_delay(measure)` speedup baseline with the scalar measurement
/// rows even though the tag differs (CI gates match on the tag).
pub const BASIS_MEASURED_LANES: &str = "measured_lane_cycles";
/// Basis tag of the telemetry-overhead pair: measured cycles, interleaved
/// best-of-5, with `speedup_vs_baseline` anchored to a same-shaped
/// un-instrumented loop timed in the same rounds (so 0.98 means "2 %
/// slower than no telemetry at all").
pub const BASIS_TELEMETRY: &str = "telemetry_overhead_measured_cycles";

pub(crate) fn uniform_stream(circuit: &Circuit, seed: u64) -> InputStream {
    InputModel::uniform()
        .stream(circuit, seed)
        .expect("the uniform model fits every circuit")
}

/// Runs the decorrelation-advance ablation for every named circuit. Unknown
/// circuit names are skipped with a note on stderr, mirroring the other
/// experiment drivers.
pub fn run_simulator_ablation(
    circuits: &[String],
    cycles: usize,
    seed: u64,
) -> Vec<SimulatorBenchRow> {
    let mut rows = Vec::new();
    for name in circuits {
        let circuit = match iscas89::load(name) {
            Ok(circuit) => circuit,
            Err(error) => {
                eprintln!("skipping {name}: {error}");
                continue;
            }
        };
        rows.extend(ablate_circuit(name, &circuit, cycles, seed));
    }
    rows
}

fn ablate_circuit(
    name: &str,
    circuit: &Circuit,
    cycles: usize,
    seed: u64,
) -> Vec<SimulatorBenchRow> {
    // Interpreted scalar baseline.
    let mut interpreted = ZeroDelaySimulator::new(circuit);
    let mut stream = uniform_stream(circuit, seed);
    let started = Instant::now();
    interpreted.advance_with(cycles, |buffer| stream.next_pattern_into(buffer));
    let zero_delay_elapsed = started.elapsed().as_secs_f64();

    // Compiled scalar: same stream seed, must end bit-exact.
    let mut compiled = CompiledSimulator::new(circuit);
    let mut stream = uniform_stream(circuit, seed);
    let started = Instant::now();
    compiled.advance_with(cycles, |buffer| stream.next_pattern_into(buffer));
    let compiled_elapsed = started.elapsed().as_secs_f64();
    assert_eq!(
        interpreted.values(),
        compiled.values(),
        "{name}: compiled backend diverged from the interpreted simulator"
    );

    // Bit-parallel: 64 independent streams; lane 0 shares the scalar seed.
    let mut bit_parallel = BitParallelSimulator::new(circuit);
    let mut streams: Vec<InputStream> = (0..LANES)
        .map(|lane| uniform_stream(circuit, seed.wrapping_add(lane as u64)))
        .collect();
    let mut pattern = vec![false; circuit.num_primary_inputs()];
    let started = Instant::now();
    bit_parallel.advance_with(cycles, |words| {
        for (lane, stream) in streams.iter_mut().enumerate() {
            stream.next_pattern_into(&mut pattern);
            for (word, &bit) in words.iter_mut().zip(&pattern) {
                pack_lane_bit(word, lane, bit);
            }
        }
    });
    let bit_parallel_elapsed = started.elapsed().as_secs_f64();
    assert_eq!(
        interpreted.values(),
        bit_parallel.lane_values(0).as_slice(),
        "{name}: bit-parallel lane 0 diverged from the interpreted simulator"
    );

    // Per-node accumulation overhead: the same compiled scalar stepping, but
    // with transition counting on and every cycle's per-net counts folded
    // into a NodeActivityAccumulator — the extra work node-resolved
    // estimation performs over a plain decorrelation advance.
    let mut accum_compiled = CompiledSimulator::new(circuit);
    let mut accumulator = NodeActivityAccumulator::for_circuit(circuit);
    let mut stream = uniform_stream(circuit, seed);
    let mut pattern = vec![false; circuit.num_primary_inputs()];
    let started = Instant::now();
    for _ in 0..cycles {
        stream.next_pattern_into(&mut pattern);
        accumulator.add_cycle(accum_compiled.step(&pattern));
    }
    let compiled_accum_elapsed = started.elapsed().as_secs_f64();
    assert_eq!(
        interpreted.values(),
        accum_compiled.values(),
        "{name}: accumulating compiled backend diverged from the interpreted simulator"
    );
    assert_eq!(accumulator.observations(), cycles as u64);

    // And the 64-lane equivalent: one count_ones fold per net per cycle.
    let mut accum_bitpar = BitParallelSimulator::new(circuit);
    let mut word_accumulator = NodeActivityAccumulator::for_circuit(circuit);
    let mut streams: Vec<InputStream> = (0..LANES)
        .map(|lane| uniform_stream(circuit, seed.wrapping_add(lane as u64)))
        .collect();
    let mut words = vec![0u64; circuit.num_primary_inputs()];
    let started = Instant::now();
    for _ in 0..cycles {
        for (lane, stream) in streams.iter_mut().enumerate() {
            stream.next_pattern_into(&mut pattern);
            for (word, &bit) in words.iter_mut().zip(&pattern) {
                pack_lane_bit(word, lane, bit);
            }
        }
        word_accumulator.add_word_cycle(accum_bitpar.step(&words));
    }
    let bit_parallel_accum_elapsed = started.elapsed().as_secs_f64();
    assert_eq!(
        interpreted.values(),
        accum_bitpar.lane_values(0).as_slice(),
        "{name}: accumulating bit-parallel lane 0 diverged from the interpreted simulator"
    );
    assert_eq!(word_accumulator.observations(), (cycles * LANES) as u64);

    // Delay-aware measurement backends: every cycle is a measured cycle
    // (previous stable values from a compiled zero-delay companion, then
    // one delay-aware settle with glitch counting), at the same common
    // cycle budget as every other row.
    let mut prev = vec![false; circuit.num_nets()];
    let mut measure_event_driven = |model: DelayModel| -> f64 {
        let mut state = CompiledSimulator::new(circuit);
        let mut event_driven = EventDrivenSimulator::new(circuit, model);
        let mut stream = uniform_stream(circuit, seed);
        let started = Instant::now();
        for _ in 0..cycles {
            stream.next_pattern_into(&mut pattern);
            prev.copy_from_slice(state.values());
            event_driven.simulate_cycle(&prev, &pattern);
            state.step_state_only(&pattern);
        }
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(
            event_driven.stable_values(),
            state.values(),
            "{name}: event-driven backend diverged from the compiled simulator"
        );
        elapsed
    };
    let event_driven_elapsed = measure_event_driven(DelayModel::default());
    let event_driven_zero_elapsed = measure_event_driven(DelayModel::Zero);
    let event_driven_unit_elapsed = measure_event_driven(DelayModel::Unit(100));

    let mut state = CompiledSimulator::new(circuit);
    let mut variable_delay = VariableDelaySimulator::new(circuit, DelayModel::default());
    let mut stream = uniform_stream(circuit, seed);
    let started = Instant::now();
    for _ in 0..cycles {
        stream.next_pattern_into(&mut pattern);
        prev.copy_from_slice(state.values());
        variable_delay.simulate_cycle(&prev, &pattern);
        state.step_state_only(&pattern);
    }
    let variable_delay_elapsed = started.elapsed().as_secs_f64();
    assert_eq!(
        variable_delay.stable_values(),
        state.values(),
        "{name}: variable-delay backend diverged from the compiled simulator"
    );

    // The 64-lane time-sliced measurement backend: all lanes measured per
    // word pass, mirroring the replicated sampler's hot path — pack 64
    // independent patterns, one delay-slot settle, then read the word-level
    // aggregate transition counts (the same per-cycle consumption as the
    // event-driven rows above), or fold the whole word cycle into the
    // per-net accumulator (`accumulate`).
    let mut measure_time_sliced = |model: DelayModel, accumulate: bool| -> f64 {
        let mut state = BitParallelSimulator::new(circuit);
        let mut time_sliced = TimeSlicedSimulator::new(circuit, model)
            .expect("the benchmarked models are slot-representable");
        let mut streams: Vec<InputStream> = (0..LANES)
            .map(|lane| uniform_stream(circuit, seed.wrapping_add(lane as u64)))
            .collect();
        let mut words = vec![0u64; circuit.num_primary_inputs()];
        let mut prev_words = vec![0u64; circuit.num_nets()];
        let mut accumulator = NodeActivityAccumulator::for_circuit(circuit);
        let mut transitions = 0u64;
        let started = Instant::now();
        for _ in 0..cycles {
            for (lane, stream) in streams.iter_mut().enumerate() {
                stream.next_pattern_into(&mut pattern);
                for (word, &bit) in words.iter_mut().zip(&pattern) {
                    pack_lane_bit(word, lane, bit);
                }
            }
            prev_words.copy_from_slice(state.words());
            let activity = time_sliced.simulate_cycle(&prev_words, &words);
            if accumulate {
                accumulator.add_glitch_word_cycle(activity);
            } else {
                transitions += activity.total_transitions();
            }
            state.step_state_only(&words);
        }
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(
            time_sliced.settled_words(),
            state.words(),
            "{name}: time-sliced backend diverged from the bit-parallel simulator"
        );
        if accumulate {
            assert_eq!(accumulator.observations(), (cycles * LANES) as u64);
        } else {
            assert!(transitions > 0, "{name}: no transitions counted");
        }
        elapsed
    };
    let time_sliced_unit_elapsed = measure_time_sliced(DelayModel::Unit(100), false);
    let time_sliced_zero_elapsed = measure_time_sliced(DelayModel::Zero, false);
    let time_sliced_accum_elapsed = measure_time_sliced(DelayModel::Unit(100), true);

    // Telemetry-overhead pair. Each variant repeats the estimator's
    // measured-cycle hot-path shape (zero-delay companion step + event-driven
    // settle) with one trace-emit per cycle; `None` runs the identical loop
    // with no telemetry call at all. The three variants are interleaved
    // round-robin and each keeps its best pass, so slow environment drift
    // (frequency scaling, a noisy co-tenant) hits all of them alike and the
    // CI guard compares branch cost rather than scheduler luck.
    let mut measure_telemetry = |tracer: Option<&Tracer>| -> f64 {
        let mut state = CompiledSimulator::new(circuit);
        let mut event_driven = EventDrivenSimulator::new(circuit, DelayModel::default());
        let mut stream = uniform_stream(circuit, seed);
        let started = Instant::now();
        for cycle in 0..cycles {
            stream.next_pattern_into(&mut pattern);
            prev.copy_from_slice(state.values());
            event_driven.simulate_cycle(&prev, &pattern);
            if let Some(tracer) = tracer {
                tracer.emit("stopping_eval", |e| {
                    e.field_u64("samples", cycle as u64)
                        .field_f64_bits("rhw", 0.25)
                        .field_bool("satisfied", false);
                });
            }
            state.step_state_only(&pattern);
        }
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(
            event_driven.stable_values(),
            state.values(),
            "{name}: telemetry-pair event-driven pass diverged"
        );
        elapsed
    };
    let disabled_tracer = Tracer::disabled();
    let sink = Arc::new(BufferSink::bounded(64));
    let live_tracer = Tracer::to_sink(sink);
    let mut telemetry_plain_elapsed = f64::INFINITY;
    let mut telemetry_off_elapsed = f64::INFINITY;
    let mut telemetry_traced_elapsed = f64::INFINITY;
    for _ in 0..5 {
        telemetry_plain_elapsed = telemetry_plain_elapsed.min(measure_telemetry(None));
        telemetry_off_elapsed =
            telemetry_off_elapsed.min(measure_telemetry(Some(&disabled_tracer)));
        telemetry_traced_elapsed =
            telemetry_traced_elapsed.min(measure_telemetry(Some(&live_tracer)));
    }

    let rate = |lanes: u64, elapsed: f64| cycles as f64 * lanes as f64 / elapsed.max(1e-12);
    let advance_baseline = rate(1, zero_delay_elapsed);
    let measured_baseline = rate(1, variable_delay_elapsed);
    let row = |backend: &'static str, lanes: u64, elapsed: f64| SimulatorBenchRow {
        circuit: name.to_string(),
        backend,
        cycles: cycles as u64,
        lanes: lanes as u32,
        elapsed_seconds: elapsed,
        lane_cycles_per_sec: rate(lanes, elapsed),
        cycles_per_sec_basis: BASIS_STATE_ADVANCE,
        speedup_vs_baseline: rate(lanes, elapsed) / advance_baseline,
    };
    let measure_row = |backend: &'static str, elapsed: f64| SimulatorBenchRow {
        cycles_per_sec_basis: BASIS_MEASURED,
        speedup_vs_baseline: rate(1, elapsed) / measured_baseline,
        ..row(backend, 1, elapsed)
    };
    // Lane-cycles against the same scalar measurement baseline: one unit of
    // work is one lane's measured cycle either way.
    let measure_lanes_row = |backend: &'static str, elapsed: f64| SimulatorBenchRow {
        cycles_per_sec_basis: BASIS_MEASURED_LANES,
        speedup_vs_baseline: rate(LANES as u64, elapsed) / measured_baseline,
        ..row(backend, LANES as u64, elapsed)
    };
    let telemetry_baseline = rate(1, telemetry_plain_elapsed);
    let telemetry_row = |backend: &'static str, elapsed: f64| SimulatorBenchRow {
        cycles_per_sec_basis: BASIS_TELEMETRY,
        speedup_vs_baseline: rate(1, elapsed) / telemetry_baseline,
        ..row(backend, 1, elapsed)
    };
    vec![
        row("zero_delay", 1, zero_delay_elapsed),
        row("compiled", 1, compiled_elapsed),
        row("bit_parallel", LANES as u64, bit_parallel_elapsed),
        row("compiled+accum", 1, compiled_accum_elapsed),
        row(
            "bit_parallel+accum",
            LANES as u64,
            bit_parallel_accum_elapsed,
        ),
        measure_row("event_driven(measure)", event_driven_elapsed),
        measure_row("event_driven(measure,zero)", event_driven_zero_elapsed),
        measure_row("event_driven(measure,unit)", event_driven_unit_elapsed),
        measure_row("variable_delay(measure)", variable_delay_elapsed),
        measure_lanes_row("time_sliced(measure,unit)", time_sliced_unit_elapsed),
        measure_lanes_row("time_sliced(measure,zero)", time_sliced_zero_elapsed),
        measure_lanes_row("time_sliced(measure,unit,accum)", time_sliced_accum_elapsed),
        telemetry_row("event_driven(measure,telemetry_off)", telemetry_off_elapsed),
        telemetry_row("event_driven(measure,traced)", telemetry_traced_elapsed),
    ]
}

/// Serialises the rows as the `BENCH_simulators.json` document: a flat,
/// machine-readable record of cycles/sec per backend per circuit. When
/// `scaling` is non-empty, the document also carries the `gate_scaling`
/// array — the compiled-vs-partitioned synthetic sweep
/// ([`crate::scaling::run_gate_scaling`]).
pub fn to_json_with_scaling(
    rows: &[SimulatorBenchRow],
    scaling: &[crate::scaling::GateScalingRow],
    cycles: usize,
    seed: u64,
) -> String {
    let workload = "decorrelation advance (uniform input stream + state-only step)";
    let mut members = vec![
        ("benchmark", Json::str("simulator_ablation")),
        ("workload", Json::str(workload)),
        ("cycles", Json::usize(cycles)),
        ("seed", Json::u64(seed)),
    ];
    if !scaling.is_empty() {
        members.push(("gate_scaling", crate::scaling::scaling_json(scaling)));
    }
    let rows = rows
        .iter()
        .map(|row| {
            Json::obj(vec![
                ("circuit", Json::str(row.circuit.as_str())),
                ("backend", Json::str(row.backend)),
                ("cycles", Json::u64(row.cycles)),
                ("lanes", Json::u64(row.lanes.into())),
                ("elapsed_seconds", Json::f64(row.elapsed_seconds)),
                ("lane_cycles_per_sec", Json::f64(row.lane_cycles_per_sec)),
                ("cycles_per_sec_basis", Json::str(row.cycles_per_sec_basis)),
                ("speedup_vs_baseline", Json::f64(row.speedup_vs_baseline)),
            ])
        })
        .collect();
    members.push(("rows", Json::Arr(rows)));
    Json::obj(members).to_pretty()
}

/// Formats the rows as a human-readable table for the binary's stdout.
pub fn format_rows(rows: &[SimulatorBenchRow]) -> dipe::report::TextTable {
    let mut table = dipe::report::TextTable::new(&[
        "Circuit",
        "Backend",
        "Lanes",
        "Cycles",
        "Elapsed (s)",
        "Lane-cycles/s",
        "Basis",
        "Speedup",
    ]);
    for row in rows {
        table.add_row(&[
            row.circuit.clone(),
            row.backend.to_string(),
            row.lanes.to_string(),
            row.cycles.to_string(),
            format!("{:.3}", row.elapsed_seconds),
            format!("{:.0}", row.lane_cycles_per_sec),
            row.cycles_per_sec_basis.to_string(),
            format!("{:.1}x", row.speedup_vs_baseline),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_produces_fourteen_rows_per_circuit_at_one_budget() {
        let rows = run_simulator_ablation(&["s27".into(), "nope".into()], 2_000, 9);
        assert_eq!(rows.len(), 14);
        let backends: Vec<&str> = rows.iter().map(|r| r.backend).collect();
        assert_eq!(
            backends,
            [
                "zero_delay",
                "compiled",
                "bit_parallel",
                "compiled+accum",
                "bit_parallel+accum",
                "event_driven(measure)",
                "event_driven(measure,zero)",
                "event_driven(measure,unit)",
                "variable_delay(measure)",
                "time_sliced(measure,unit)",
                "time_sliced(measure,zero)",
                "time_sliced(measure,unit,accum)",
                "event_driven(measure,telemetry_off)",
                "event_driven(measure,traced)",
            ]
        );
        assert_eq!(rows[2].lanes, 64);
        assert_eq!(rows[3].lanes, 1);
        assert_eq!(rows[4].lanes, 64);
        assert_eq!(rows[5].lanes, 1);
        for row in &rows {
            // The normalised budget: every row simulates the same cycles.
            assert_eq!(row.cycles, 2_000);
            assert_eq!(row.circuit, "s27");
            assert!(row.lane_cycles_per_sec > 0.0);
            assert!(row.speedup_vs_baseline > 0.0);
        }
        for row in &rows[..5] {
            assert_eq!(row.cycles_per_sec_basis, BASIS_STATE_ADVANCE);
        }
        for row in &rows[5..9] {
            assert_eq!(row.cycles_per_sec_basis, BASIS_MEASURED);
        }
        for row in &rows[9..12] {
            assert_eq!(row.cycles_per_sec_basis, BASIS_MEASURED_LANES);
            // The word backend measures all 64 lanes per pass.
            assert_eq!(row.lanes, 64);
        }
        for row in &rows[12..] {
            assert_eq!(row.cycles_per_sec_basis, BASIS_TELEMETRY);
        }
        // Each basis anchors to its own baseline row, never across bases.
        assert!((rows[0].speedup_vs_baseline - 1.0).abs() < 1e-9);
        assert!((rows[8].speedup_vs_baseline - 1.0).abs() < 1e-9);
    }

    #[test]
    fn json_document_is_well_formed_enough_for_ci() {
        let rows = run_simulator_ablation(&["s27".into()], 500, 1);
        let json = to_json_with_scaling(&rows, &[], 500, 1);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"benchmark\": \"simulator_ablation\""));
        assert!(json.contains("\"backend\": \"bit_parallel\""));
        assert!(json.contains("\"backend\": \"compiled+accum\""));
        assert!(json.contains("\"backend\": \"bit_parallel+accum\""));
        assert!(json.contains("\"lane_cycles_per_sec\""));
        assert!(json.contains("\"cycles_per_sec_basis\": \"measured_cycles\""));
        assert!(json.contains("\"speedup_vs_baseline\""));
        assert!(json.contains("\"backend\": \"event_driven(measure,zero)\""));
        assert!(json.contains("\"backend\": \"time_sliced(measure,unit)\""));
        assert!(json.contains("\"backend\": \"time_sliced(measure,unit,accum)\""));
        assert!(json.contains("\"cycles_per_sec_basis\": \"measured_lane_cycles\""));
        assert!(json.contains("\"backend\": \"event_driven(measure,telemetry_off)\""));
        assert!(json.contains("\"backend\": \"event_driven(measure,traced)\""));
        assert!(json.contains("\"cycles_per_sec_basis\": \"telemetry_overhead_measured_cycles\""));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
        let rendered = format_rows(&rows).render();
        assert!(rendered.contains("Lane-cycles/s"));
    }
}
