//! Criterion bench behind Table 1: the end-to-end DIPE estimation flow
//! (warm-up, independence-interval selection, sampling to the 5 % / 0.99
//! accuracy specification) on representative circuits, plus the brute-force
//! reference for the efficiency comparison the table makes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dipe::input::InputModel;
use dipe::{DipeConfig, DipeEstimator, LongSimulationReference, PowerEstimator};
use netlist::iscas89;

fn bench_dipe_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/dipe_estimation");
    group.sample_size(10);
    for name in ["s27", "s208", "s298"] {
        let circuit = iscas89::load(name).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, circuit| {
            b.iter(|| {
                DipeEstimator::new()
                    .run(
                        circuit,
                        &DipeConfig::default().with_seed(7),
                        &InputModel::uniform(),
                    )
                    .unwrap()
                    .mean_power_w
            });
        });
    }
    group.finish();
}

fn bench_reference_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/reference_10k_cycles");
    group.sample_size(10);
    for name in ["s27", "s298"] {
        let circuit = iscas89::load(name).unwrap();
        let config = DipeConfig::default().with_seed(7);
        group.bench_with_input(BenchmarkId::from_parameter(name), &circuit, |b, circuit| {
            b.iter(|| {
                LongSimulationReference::new(10_000)
                    .run(circuit, &config, &InputModel::uniform())
                    .unwrap()
                    .mean_power_w
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dipe_estimation, bench_reference_simulation);
criterion_main!(benches);
