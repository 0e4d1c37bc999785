//! A breakdown run's warm checkpoint — taken at sampling entry, before any
//! accuracy-dependent decision — resumes under another node accuracy target
//! and reproduces a cold run under that target bit for bit.

use activity::{BreakdownEstimator, ConvergenceTarget};
use dipe::input::InputModel;
use dipe::{run_to_completion, CycleBudget, DipeConfig, PowerEstimator, Progress};
use netlist::iscas89;
use seqstats::NodeStoppingPolicy;

fn node_target(relative_error: f64) -> BreakdownEstimator {
    BreakdownEstimator::new(
        NodeStoppingPolicy::new(relative_error, 0.90, 5, 0.05, 64),
        ConvergenceTarget::NodeBreakdown,
    )
}

#[test]
fn warm_checkpoint_resumes_under_any_node_accuracy_target() {
    let c = iscas89::load("s298").unwrap();
    let config = DipeConfig::default().with_seed(11);
    let model = InputModel::uniform();

    // Harvest the warm checkpoint from a completed loose run.
    let mut session = node_target(0.20).start(&c, &config, &model, 0).unwrap();
    let loose = loop {
        if let Progress::Done(estimate) = session.step(CycleBudget::unbounded()).unwrap() {
            break estimate;
        }
    };
    let warm = session
        .warm_checkpoint()
        .expect("finished run has a warm checkpoint");
    assert!(warm.is_warm());
    assert_eq!(warm.accumulator.as_ref().unwrap().observations, 0);

    // Resume it under a tighter node ε with the same top-K (so under the same
    // estimator name): the result matches a cold run under that ε bit for
    // bit, per-net breakdown included.
    let tight = node_target(0.10);
    let cold = run_to_completion(tight.start(&c, &config, &model, 0).unwrap()).unwrap();
    assert!(cold.sample_size > loose.sample_size);
    let resumed = run_to_completion(tight.resume(&c, &config, &model, &warm).unwrap()).unwrap();
    assert_eq!(resumed.mean_power_w.to_bits(), cold.mean_power_w.to_bits());
    assert_eq!(resumed.sample_size, cold.sample_size);
    assert_eq!(resumed.cycle_counts, cold.cycle_counts);
    assert_eq!(resumed.breakdown(), cold.breakdown());
    assert_eq!(resumed.diagnostics, cold.diagnostics);
}
