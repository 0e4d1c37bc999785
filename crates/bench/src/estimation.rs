//! End-to-end estimation benchmark: full DIPE breakdown runs to
//! convergence, timed across shard counts, written to the machine-readable
//! `BENCH_estimation.json`.
//!
//! Where the simulator ablation times raw backend stepping, this benchmark
//! times the whole product path — warm-up, runs-test interval selection,
//! sharded block sampling with per-net activity accumulation, per-node
//! stopping — exactly what `dipe <circuit> --breakdown --shards N` runs.
//! Every cell is a complete [`activity::ShardedBreakdownEstimator`] session
//! (node-breakdown target, default policy); the 1-shard cell is the
//! baseline its `speedup_vs_one_shard` column divides against.
//!
//! The document records `host_cpus` alongside the rows: sharded speedup is
//! bounded by the physical parallelism of the host, so a row with
//! `shards > host_cpus` measures scheduling overhead, not scaling — on a
//! single-core container every shard count collapses to ~1x by
//! construction. The statistical contract (pooled estimates within the
//! confidence specification at every shard count) is asserted by the
//! workspace test-suite either way.

use std::time::Instant;

use activity::{BreakdownEstimator, ConvergenceTarget};
use dipe::estimate::run_to_completion;
use dipe::input::InputModel;
use dipe::{DipeConfig, PowerEstimator};
use logicsim::DelayModel;
use netlist::iscas89;
use seqstats::NodeStoppingPolicy;
use telemetry::Json;

/// One (circuit × delay model × shard count) measurement.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EstimationBenchRow {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Delay model id of the measurement backend (`zero` or `unit:100`).
    pub delay_model: String,
    /// Worker shards the sampling phase fanned out to.
    pub shards: usize,
    /// Wall-clock seconds of the full run (warm-up to estimate).
    pub elapsed_seconds: f64,
    /// Pooled power samples behind the estimate.
    pub samples: usize,
    /// Measured (delay-aware) cycles consumed.
    pub measured_cycles: u64,
    /// Zero-delay (warm-up + decorrelation) cycles consumed.
    pub zero_delay_cycles: u64,
    /// The estimate in watts (a determinism witness: fixed seed and shard
    /// count must reproduce it bit-for-bit).
    pub mean_power_w: f64,
    /// Wall-clock speedup against the 1-shard cell of the same circuit and
    /// delay model (if the grid omits shard count 1, against the smallest
    /// shard count measured), whatever order the grid lists the cells in.
    pub speedup_vs_one_shard: f64,
}

/// Runs the estimation benchmark grid. Unknown circuit names are skipped
/// with a note on stderr, mirroring the other experiment drivers.
pub fn run_estimation_bench(
    circuits: &[String],
    delay_models: &[DelayModel],
    shard_counts: &[usize],
    seed: u64,
) -> Vec<EstimationBenchRow> {
    let mut rows = Vec::new();
    for name in circuits {
        let circuit = match iscas89::load(name) {
            Ok(circuit) => circuit,
            Err(error) => {
                eprintln!("skipping {name}: {error}");
                continue;
            }
        };
        for &model in delay_models {
            let config = DipeConfig::default()
                .with_seed(seed)
                .with_delay_model(model);
            // Measure every cell first, then compute speedups against the
            // 1-shard cell (or, if the grid omits it, the smallest shard
            // count measured) — independent of the order `shard_counts`
            // lists the cells in.
            let mut cells = Vec::with_capacity(shard_counts.len());
            for &shards in shard_counts {
                let estimator = BreakdownEstimator::new(
                    NodeStoppingPolicy::default_spec(),
                    ConvergenceTarget::NodeBreakdown,
                )
                .sharded(shards);
                let started = Instant::now();
                let estimate = run_to_completion(
                    estimator
                        .start(&circuit, &config, &InputModel::uniform(), 0)
                        .expect("the default configuration is valid"),
                )
                .expect("catalogued circuits converge under the default policy");
                cells.push((shards, started.elapsed().as_secs_f64(), estimate));
            }
            let baseline = cells
                .iter()
                .min_by_key(|&&(shards, _, _)| shards)
                .map(|&(_, elapsed, _)| elapsed)
                .expect("at least one shard count is measured");
            for (shards, elapsed, estimate) in cells {
                rows.push(EstimationBenchRow {
                    circuit: name.clone(),
                    delay_model: model.id(),
                    shards,
                    elapsed_seconds: elapsed,
                    samples: estimate.sample_size,
                    measured_cycles: estimate.cycle_counts.measured_cycles,
                    zero_delay_cycles: estimate.cycle_counts.zero_delay_cycles,
                    mean_power_w: estimate.mean_power_w,
                    speedup_vs_one_shard: baseline / elapsed.max(1e-12),
                });
            }
        }
    }
    rows
}

/// `Some(warning)` when the grid's largest shard count exceeds the host's
/// parallelism — the speedup columns then measure scheduling overhead, not
/// scaling. The driver prints this loudly; the JSON document records the
/// same fact as `"scaling_valid": false`.
pub fn scaling_warning(rows: &[EstimationBenchRow]) -> Option<String> {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_shards = rows.iter().map(|row| row.shards).max()?;
    (host_cpus < max_shards).then(|| {
        format!(
            "host has {host_cpus} CPU(s) but the grid runs up to {max_shards} shards: \
             speedup_vs_one_shard columns do NOT measure parallel scaling on this host \
             (document is marked scaling_valid: false)"
        )
    })
}

const WORKLOAD: &str = "full DIPE breakdown runs to convergence (node-breakdown target, \
                        default policy, uniform inputs)";

const NOTES: &str = "speedup_vs_one_shard is wall-clock and bounded by host_cpus; on hosts with \
     fewer cores than shards it measures scheduling overhead plus decision cadence (the merger \
     evaluates the pooled stopping rule once per round of N blocks, so stopping-rule-bound \
     workloads can show >1x even on one core), not parallel scaling. Statistical fields \
     (samples, cycles, mean_power_w) are machine-independent for a fixed seed and shard count.";

/// Serialises the rows as the `BENCH_estimation.json` document.
pub fn to_json(rows: &[EstimationBenchRow], seed: u64) -> String {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scaling_valid = scaling_warning(rows).is_none();
    let rows = rows
        .iter()
        .map(|row| {
            Json::obj(vec![
                ("circuit", Json::str(row.circuit.as_str())),
                ("delay_model", Json::str(row.delay_model.as_str())),
                ("shards", Json::usize(row.shards)),
                ("elapsed_seconds", Json::f64(row.elapsed_seconds)),
                ("samples", Json::usize(row.samples)),
                ("measured_cycles", Json::u64(row.measured_cycles)),
                ("zero_delay_cycles", Json::u64(row.zero_delay_cycles)),
                ("mean_power_w", Json::f64(row.mean_power_w)),
                ("speedup_vs_one_shard", Json::f64(row.speedup_vs_one_shard)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("benchmark", Json::str("estimation")),
        ("workload", Json::str(WORKLOAD)),
        ("seed", Json::u64(seed)),
        ("host_cpus", Json::usize(host_cpus)),
        ("scaling_valid", Json::Bool(scaling_valid)),
        ("notes", Json::str(NOTES)),
        ("rows", Json::Arr(rows)),
    ])
    .to_pretty()
}

/// Formats the rows as a human-readable table for the binary's stdout.
pub fn format_rows(rows: &[EstimationBenchRow]) -> dipe::report::TextTable {
    let mut table = dipe::report::TextTable::new(&[
        "Circuit",
        "Delay",
        "Shards",
        "Elapsed (s)",
        "Samples",
        "Measured",
        "Zero-delay",
        "p̄ (mW)",
        "Speedup",
    ]);
    for row in rows {
        table.add_row(&[
            row.circuit.clone(),
            row.delay_model.clone(),
            row.shards.to_string(),
            format!("{:.3}", row.elapsed_seconds),
            row.samples.to_string(),
            row.measured_cycles.to_string(),
            row.zero_delay_cycles.to_string(),
            format!("{:.4}", row.mean_power_w * 1e3),
            format!("{:.2}x", row.speedup_vs_one_shard),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_produces_one_row_per_cell() {
        let rows = run_estimation_bench(
            &["s27".into(), "nope".into()],
            &[DelayModel::Zero],
            &[1, 2],
            7,
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].shards, 1);
        assert_eq!(rows[1].shards, 2);
        assert!((rows[0].speedup_vs_one_shard - 1.0).abs() < 1e-9);
        for row in &rows {
            assert_eq!(row.circuit, "s27");
            assert_eq!(row.delay_model, "zero");
            assert!(row.samples >= 64);
            assert!(row.mean_power_w > 0.0);
            assert!(row.measured_cycles as usize >= row.samples);
        }
        // The pooled sample of the 2-shard run arrives in complete rounds.
        assert_eq!(rows[1].samples % (2 * DipeConfig::default().block_size), 0);
    }

    #[test]
    fn speedup_baseline_is_order_independent() {
        // Listing the shard counts largest-first must not change which cell
        // anchors the speedup column: the smallest measured count does.
        let rows = run_estimation_bench(&["s27".into()], &[DelayModel::Zero], &[2, 1], 7);
        assert_eq!(rows[0].shards, 2);
        assert_eq!(rows[1].shards, 1);
        assert!((rows[1].speedup_vs_one_shard - 1.0).abs() < 1e-9);
        let expected = rows[1].elapsed_seconds / rows[0].elapsed_seconds;
        assert!((rows[0].speedup_vs_one_shard - expected).abs() < 1e-9);
    }

    #[test]
    fn json_document_is_well_formed_enough_for_ci() {
        let rows = run_estimation_bench(&["s27".into()], &[DelayModel::Zero], &[1], 3);
        let json = to_json(&rows, 3);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"benchmark\": \"estimation\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"scaling_valid\""));
        assert!(json.contains("\"speedup_vs_one_shard\""));
        assert!(!json.contains(",\n  ]"));
        let rendered = format_rows(&rows).render();
        assert!(rendered.contains("Speedup"));
        // A 1-shard grid never oversubscribes the host.
        assert!(scaling_warning(&rows).is_none());
        assert!(json.contains("\"scaling_valid\": true"));
    }

    #[test]
    fn oversubscribed_grid_is_marked_scaling_invalid() {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let row = EstimationBenchRow {
            circuit: "s27".into(),
            delay_model: "zero".into(),
            shards: host_cpus + 1,
            elapsed_seconds: 1.0,
            samples: 64,
            measured_cycles: 64,
            zero_delay_cycles: 64,
            mean_power_w: 1e-5,
            speedup_vs_one_shard: 1.0,
        };
        let warning = scaling_warning(std::slice::from_ref(&row)).expect("must warn");
        assert!(warning.contains("do NOT measure parallel scaling"));
        assert!(to_json(&[row], 3).contains("\"scaling_valid\": false"));
        assert!(
            scaling_warning(&[]).is_none(),
            "empty grid has nothing to warn about"
        );
    }
}
