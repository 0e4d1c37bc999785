//! Statistics substrate for sequential power estimation.
//!
//! The paper's method rests on three statistical building blocks, all of
//! which are implemented here from first principles (no external statistics
//! crates):
//!
//! * the **ordinary runs test** for randomness of a data sequence
//!   ([`runs_test`], Eqs. 3–7 of the paper), used to select the independence
//!   interval;
//! * **standard-normal quantiles** ([`normal`]) for significance levels and
//!   confidence intervals;
//! * **stopping criteria** ([`stopping`]) that monitor a growing i.i.d.
//!   sample and decide when the requested accuracy (maximum relative error at
//!   a given confidence) has been reached — a parametric CLT criterion and
//!   two distribution-independent alternatives.
//!
//! Supporting modules provide descriptive statistics ([`descriptive`]),
//! autocorrelation / effective-sample-size diagnostics ([`autocorr`]) and
//! two-sided hypothesis-test helpers ([`hypothesis`]).
//!
//! # Example: runs test on an obviously non-random sequence
//!
//! ```
//! use seqstats::runs_test::RunsTest;
//!
//! let clustered: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 1.0 }).collect();
//! let outcome = RunsTest::new(0.05).evaluate(&clustered);
//! assert!(!outcome.accepted, "a perfectly clustered sequence is not random");
//!
//! let alternating: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
//! let outcome = RunsTest::new(0.05).evaluate(&alternating);
//! assert!(!outcome.accepted, "a perfectly alternating sequence is not random either");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod autocorr;
pub mod descriptive;
pub mod hypothesis;
pub mod node_stopping;
pub mod normal;
pub mod runs_test;
pub mod snapshot;
pub mod stopping;

pub use descriptive::RunningStats;
pub use hypothesis::SignificanceLevel;
pub use node_stopping::{NodeStoppingDecision, NodeStoppingPolicy};
pub use runs_test::{RunsTest, RunsTestOutcome};
pub use snapshot::{MomentAccumulatorState, PooledSampleState};
pub use stopping::{
    DkwCriterion, NormalCriterion, OrderStatisticCriterion, SampleMoments, StoppingCriterion,
    StoppingDecision,
};
