//! Gate-count scaling of the zero-delay backends: compiled straight-line
//! sweep versus cache-blocked partitioned levelized evaluation.
//!
//! The workload is again the estimator's hot path — decorrelation advance
//! with a uniform input stream — but swept over synthetic tiled circuits
//! ([`netlist::generator::TiledConfig`]: array-multiplier and counter tiles)
//! from 10^3 to 10^6 gates, where the simulator ablation's ISCAS'89
//! catalogue tops out below 10^4 nets. Each size runs the same *instruction*
//! budget (cycles × gates), so every row costs comparable wall-clock and
//! rates stay measurable at both ends of the sweep.
//!
//! For each size the two backends run the identical compiled program and
//! input stream and are cross-checked bit-exact before the timing is
//! trusted; the row also records the program's [`netlist::MemoryFootprint`] — the
//! packed IR's bytes/gate is what lets the 10^6-gate sweep fit in cache-
//! friendly memory at all.

use std::time::Instant;

use logicsim::{CompiledSimulator, PartitionedSimulator};
use netlist::generator::{generate_tiled, TiledConfig};
use netlist::Circuit;
use telemetry::Json;

use crate::simulators::uniform_stream;

/// One backend × gate-count measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GateScalingRow {
    /// Combinational gate count of the synthetic circuit (exact).
    pub gates: u64,
    /// Backend identifier: `compiled` or `levelized-partitioned`.
    pub backend: &'static str,
    /// Decorrelation cycles simulated.
    pub cycles: u64,
    /// Topological levels of the circuit.
    pub levels: u32,
    /// Compiled-program bytes per gate ([`netlist::MemoryFootprint`]).
    pub bytes_per_gate: f64,
    /// Wall-clock seconds for the advance loop, input generation included.
    pub elapsed_seconds: f64,
    /// Cycles per second.
    pub cycles_per_sec: f64,
    /// Gate-evaluations per second (`cycles * gates / elapsed`): the
    /// size-independent rate that makes rows comparable across the sweep.
    pub gate_evals_per_sec: f64,
    /// Throughput relative to the `compiled` row of the same size.
    pub speedup_vs_compiled: f64,
}

/// Per-size instruction budget (cycles × gates): keeps every row at roughly
/// equal wall-clock while cycles scale from thousands (10^3 gates) down to
/// tens (10^6 gates).
const INSTRUCTION_BUDGET: usize = 20_000_000;

/// Cycles to run for a circuit of `gates` gates.
pub fn cycles_for(gates: usize) -> usize {
    (INSTRUCTION_BUDGET / gates.max(1)).clamp(50, 20_000)
}

/// Timing repetitions per backend; the reported elapsed is the minimum, so
/// the first repetition absorbs the cold-cache / page-fault cost of touching
/// the packed arrays (which at 10^6 gates would otherwise dominate a short
/// run).
const TIMING_REPS: usize = 3;

/// Runs the compiled-vs-partitioned sweep over synthetic tiled circuits of
/// the given gate counts.
pub fn run_gate_scaling(targets: &[usize], seed: u64) -> Vec<GateScalingRow> {
    let mut rows = Vec::new();
    for &gates in targets {
        let config = TiledConfig::new(format!("tiled{gates}"), gates).with_seed(seed);
        let circuit =
            generate_tiled(&config).expect("tiled generation cannot fail for valid sizes");
        rows.extend(scale_circuit(&circuit, gates, seed));
    }
    rows
}

fn scale_circuit(circuit: &Circuit, gates: usize, seed: u64) -> Vec<GateScalingRow> {
    let cycles = cycles_for(gates);

    let mut compiled = CompiledSimulator::new(circuit);
    let footprint = compiled.program().memory_footprint();
    let levels = compiled.program().num_levels() as u32;
    let mut stream = uniform_stream(circuit, seed);
    let mut compiled_elapsed = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let started = Instant::now();
        compiled.advance_with(cycles, |buffer| stream.next_pattern_into(buffer));
        compiled_elapsed = compiled_elapsed.min(started.elapsed().as_secs_f64());
    }

    let mut partitioned = PartitionedSimulator::new(circuit);
    let mut stream = uniform_stream(circuit, seed);
    let mut partitioned_elapsed = f64::INFINITY;
    for _ in 0..TIMING_REPS {
        let started = Instant::now();
        partitioned.advance_with(cycles, |buffer| stream.next_pattern_into(buffer));
        partitioned_elapsed = partitioned_elapsed.min(started.elapsed().as_secs_f64());
    }
    assert_eq!(
        compiled.values(),
        partitioned.values(),
        "{}: partitioned backend diverged from the compiled simulator",
        circuit.name()
    );

    let rate = |elapsed: f64| cycles as f64 / elapsed.max(1e-12);
    let row = |backend: &'static str, elapsed: f64| GateScalingRow {
        gates: gates as u64,
        backend,
        cycles: cycles as u64,
        levels,
        bytes_per_gate: footprint.bytes_per_gate(),
        elapsed_seconds: elapsed,
        cycles_per_sec: rate(elapsed),
        gate_evals_per_sec: rate(elapsed) * gates as f64,
        speedup_vs_compiled: compiled_elapsed / elapsed.max(1e-12),
    };
    vec![
        row("compiled", compiled_elapsed),
        row("levelized-partitioned", partitioned_elapsed),
    ]
}

/// Serialises the scaling rows as the `gate_scaling` array of the
/// `BENCH_simulators.json` document.
pub fn scaling_json(rows: &[GateScalingRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|row| {
                Json::obj(vec![
                    ("gates", Json::u64(row.gates)),
                    ("backend", Json::str(row.backend)),
                    ("cycles", Json::u64(row.cycles)),
                    ("levels", Json::u64(row.levels.into())),
                    ("bytes_per_gate", Json::f64(row.bytes_per_gate)),
                    ("elapsed_seconds", Json::f64(row.elapsed_seconds)),
                    ("cycles_per_sec", Json::f64(row.cycles_per_sec)),
                    ("gate_evals_per_sec", Json::f64(row.gate_evals_per_sec)),
                    ("speedup_vs_compiled", Json::f64(row.speedup_vs_compiled)),
                ])
            })
            .collect(),
    )
}

/// Formats the scaling rows as a human-readable table.
pub fn format_scaling_rows(rows: &[GateScalingRow]) -> dipe::report::TextTable {
    let mut table = dipe::report::TextTable::new(&[
        "Gates",
        "Backend",
        "Cycles",
        "Levels",
        "B/gate",
        "Elapsed (s)",
        "Cycles/s",
        "Gate-evals/s",
        "Speedup",
    ]);
    for row in rows {
        table.add_row(&[
            row.gates.to_string(),
            row.backend.to_string(),
            row.cycles.to_string(),
            row.levels.to_string(),
            format!("{:.1}", row.bytes_per_gate),
            format!("{:.3}", row.elapsed_seconds),
            format!("{:.0}", row.cycles_per_sec),
            format!("{:.2e}", row.gate_evals_per_sec),
            format!("{:.2}x", row.speedup_vs_compiled),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_two_cross_checked_rows_per_size() {
        let rows = run_gate_scaling(&[1_000, 5_000], 3);
        assert_eq!(rows.len(), 4);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].backend, "compiled");
            assert_eq!(pair[1].backend, "levelized-partitioned");
            assert_eq!(pair[0].gates, pair[1].gates);
            assert_eq!(pair[0].cycles, pair[1].cycles);
            // The packed IR honours its budget at every size.
            assert!(
                pair[0].bytes_per_gate <= 24.0,
                "{} B/gate at {} gates",
                pair[0].bytes_per_gate,
                pair[0].gates
            );
            assert!((pair[0].speedup_vs_compiled - 1.0).abs() < 1e-9);
            assert!(pair[1].speedup_vs_compiled > 0.0);
        }
    }

    #[test]
    fn instruction_budget_scales_cycles_down_with_size() {
        assert_eq!(cycles_for(1_000), 20_000);
        assert_eq!(cycles_for(10_000), 2_000);
        assert_eq!(cycles_for(100_000), 200);
        assert_eq!(cycles_for(1_000_000), 50);
        assert_eq!(cycles_for(usize::MAX / 2), 50);
    }

    #[test]
    fn scaling_json_fragment_is_well_formed() {
        let rows = run_gate_scaling(&[1_000], 1);
        let json = scaling_json(&rows);
        assert_eq!(Json::parse(&json.to_pretty()).unwrap(), json);
        let entries = json.as_arr().expect("gate_scaling is an array");
        let backend = entries[1].get("backend").and_then(Json::as_str);
        assert_eq!(backend, Some("levelized-partitioned"));
        for (entry, row) in entries.iter().zip(&rows) {
            let bytes = entry.get("bytes_per_gate").and_then(Json::as_f64);
            assert_eq!(bytes, Some(row.bytes_per_gate));
        }
        let rendered = format_scaling_rows(&rows).render();
        assert!(rendered.contains("Gate-evals/s"));
    }
}
