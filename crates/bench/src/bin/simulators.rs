//! Simulator-backend ablation: zero-delay decorrelation throughput of the
//! interpreted scalar, compiled scalar and 64-lane bit-parallel backends,
//! plus the compiled-vs-partitioned gate-count scaling sweep over synthetic
//! tiled circuits, written to a machine-readable `BENCH_simulators.json`.
//!
//! ```text
//! cargo run --release -p dipe-bench --bin simulators
//! cargo run --release -p dipe-bench --bin simulators -- \
//!     --circuits s27,s298,s1494 --cycles 200000 --out BENCH_simulators.json
//! cargo run --release -p dipe-bench --bin simulators -- \
//!     --scaling-gates 1000,10000,100000,1000000
//! ```

use dipe_bench::scaling::{format_scaling_rows, run_gate_scaling};
use dipe_bench::simulators::{format_rows, run_simulator_ablation, to_json_with_scaling};

struct Options {
    circuits: Vec<String>,
    cycles: usize,
    seed: u64,
    out: String,
    scaling_gates: Vec<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            circuits: vec!["s27".into(), "s298".into(), "s1494".into()],
            cycles: 200_000,
            seed: 1997,
            out: "BENCH_simulators.json".into(),
            scaling_gates: vec![1_000, 10_000, 100_000, 1_000_000],
        }
    }
}

fn usage() -> String {
    "usage: simulators [--circuits s27,s298,...] [--cycles N] [--seed N] [--out FILE] \
     [--scaling-gates 1000,10000,... | --no-scaling]"
        .to_string()
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options::default();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        let mut take_value = |name: &str| {
            iter.next()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match arg.as_str() {
            "--circuits" => {
                options.circuits = take_value("--circuits")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--cycles" => {
                options.cycles = take_value("--cycles")?
                    .parse()
                    .map_err(|e| format!("--cycles: {e}"))?;
                if options.cycles == 0 {
                    return Err("--cycles: must be at least 1".into());
                }
            }
            "--seed" => {
                options.seed = take_value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => options.out = take_value("--out")?,
            "--scaling-gates" => {
                options.scaling_gates = take_value("--scaling-gates")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .map_err(|e| format!("--scaling-gates: {e}"))
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
            }
            "--no-scaling" => options.scaling_gates.clear(),
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(options)
}

fn main() {
    let options = match parse_options() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    println!(
        "# Simulator ablation — {} decorrelation cycles per backend, seed = {}",
        options.cycles, options.seed
    );
    let rows = run_simulator_ablation(&options.circuits, options.cycles, options.seed);
    if rows.is_empty() {
        eprintln!("no circuits could be loaded");
        std::process::exit(1);
    }
    println!("{}", format_rows(&rows));
    let scaling = if options.scaling_gates.is_empty() {
        Vec::new()
    } else {
        println!(
            "# Gate-count scaling — tiled synthetic circuits, equal instruction budget per size"
        );
        let scaling = run_gate_scaling(&options.scaling_gates, options.seed);
        println!("{}", format_scaling_rows(&scaling));
        scaling
    };
    let json = to_json_with_scaling(&rows, &scaling, options.cycles, options.seed);
    if let Err(error) = std::fs::write(&options.out, json) {
        eprintln!("failed to write {}: {error}", options.out);
        std::process::exit(1);
    }
    println!("# wrote {}", options.out);
}
