//! Per-net switching-activity estimation — the spatial extension of the
//! paper's scalar estimator.
//!
//! The DIPE procedure stops when the *total* average power converges, but the
//! same sampled-cycle machinery supports node-resolved estimation: every
//! measured cycle carries a full per-net transition record, so folding those
//! records into per-net mean/variance streams yields switching-activity
//! estimates with individual confidence intervals — a spatial power
//! breakdown instead of a single scalar, the quantity hot-spot analysis and
//! power-aware synthesis actually consume.
//!
//! Three pieces live here:
//!
//! * [`NodeActivityAccumulator`] — folds per-net transition counts out of
//!   scalar [`logicsim::CycleActivity`] records and 64-lane
//!   [`logicsim::WordActivity`] words (one `count_ones` per net) into
//!   streaming per-net moment estimates; integer internals make the
//!   accumulation exact and backend-independent.
//! * [`BreakdownEstimator`] (and its sharded counterpart) — a
//!   [`dipe::PowerEstimator`] that runs the DIPE flow (warm-up, runs-test
//!   interval selection, block-wise sampling) through the core
//!   [`dipe::session::Session`] with a per-net fold: it records per-net activity
//!   alongside every total-power sample, and can target either total-power
//!   convergence or the two-tier per-node rule of
//!   [`seqstats::NodeStoppingPolicy`] (top-K max relative error plus an
//!   absolute floor for quiet nets).
//! * the finished [`dipe::Estimate`] carries a [`power::PowerBreakdown`]
//!   (per-net/per-class power, ranked hot spots, JSON export) in its
//!   diagnostics; by construction its capacitance-weighted activity total
//!   equals the session's scalar power estimate.
//!
//! # Example
//!
//! ```
//! use activity::{BreakdownEstimator, ConvergenceTarget};
//! use dipe::input::InputModel;
//! use dipe::{run_to_completion, DipeConfig, PowerEstimator};
//! use netlist::iscas89;
//! use seqstats::NodeStoppingPolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = iscas89::load("s27")?;
//! let config = DipeConfig::default().with_seed(7);
//! let estimator = BreakdownEstimator::new(
//!     NodeStoppingPolicy::new(0.10, 0.95, 5, 0.02, 64),
//!     ConvergenceTarget::NodeBreakdown,
//! );
//! let estimate = run_to_completion(estimator.start(
//!     &circuit,
//!     &config,
//!     &InputModel::uniform(),
//!     0,
//! )?)?;
//! let breakdown = estimate.breakdown().expect("breakdown diagnostics");
//! for hot in breakdown.hot_spots(3) {
//!     println!("{}: {:.1} µW", hot.name, hot.power_w * 1e6);
//! }
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod accumulator;
mod session;
mod sharded;

pub use accumulator::NodeActivityAccumulator;
pub use session::{BreakdownEstimator, ConvergenceTarget};
pub use sharded::ShardedBreakdownEstimator;
