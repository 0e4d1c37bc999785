//! Criterion bench behind Table 2: the repeated-run robustness kernel — many
//! independent DIPE runs of the same circuit with different seed offsets, as
//! used to compute II_min/II_max/II_avg, S_avg and D_avg.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dipe::input::InputModel;
use dipe::{DipeConfig, DipeEstimator, PowerEstimator};
use netlist::iscas89;

fn bench_repeated_runs(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/repeated_runs_x5");
    group.sample_size(10);
    for name in ["s27", "s298"] {
        let circuit = iscas89::load(name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, circuit| {
            b.iter(|| {
                let mut estimates = Vec::with_capacity(5);
                for run in 0..5u64 {
                    let result = DipeEstimator::new()
                        .with_seed_offset(run + 1)
                        .run(
                            circuit,
                            &DipeConfig::default().with_seed(1997),
                            &InputModel::uniform(),
                        )
                        .unwrap();
                    estimates.push(result.mean_power_w);
                }
                estimates
            });
        });
    }
    group.finish();
}

fn bench_interval_statistics_kernel(c: &mut Criterion) {
    // The per-run piece that dominates Table 2's cost besides sampling: the
    // independence-interval selection procedure itself.
    let mut group = c.benchmark_group("table2/interval_selection");
    group.sample_size(10);
    for name in ["s27", "s298"] {
        let circuit = iscas89::load(name).unwrap();
        let config = DipeConfig::default().with_seed(3);
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, circuit| {
            b.iter(|| {
                let mut sampler =
                    dipe::PowerSampler::new(circuit, &config, &InputModel::uniform(), 0).unwrap();
                sampler.advance(config.warmup_cycles);
                dipe::independence::select_independence_interval(&mut sampler, &config)
                    .unwrap()
                    .interval
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_repeated_runs,
    bench_interval_statistics_kernel
);
criterion_main!(benches);
