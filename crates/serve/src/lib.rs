//! `dipe-serve` — estimation-as-a-service for the DIPE power estimator.
//!
//! The `dipe` CLI answers one question per process: *what is the average
//! power of this circuit under this input model?* This crate turns that into
//! a long-running service. A [`server::Server`] listens on a TCP socket for
//! newline-delimited-JSON requests ([`protocol`]), runs each accepted job as
//! a re-entrant [`dipe::EstimationSession`] driven in bounded cycle slices,
//! and multiplexes any number of concurrent jobs over a bounded worker pool
//! while streaming per-job progress events back to the submitting client.
//!
//! Two properties make the service more than a remote CLI:
//!
//! * **Compiled-circuit cache** ([`cache`]): jobs are content-hash keyed
//!   ([`spec::JobSpec::circuit_key`]), so a repeat submission of the same
//!   netlist + delay model skips parsing, levelisation and compilation; a
//!   second tier keyed by (netlist, delay model, input model, seed) caches
//!   the *warm* session checkpoint, additionally skipping warm-up and
//!   independence-interval selection. Both hits are bit-transparent: a
//!   cached job produces the byte-identical estimate of a cold one.
//! * **Checkpoint / resume** ([`checkpoint_io`]): a running job can be
//!   snapshotted to disk — exact integer accumulator sums, RNG stream
//!   position, latch state — and resumed later (even by a different server
//!   process) to the bit-identical result of the uninterrupted run.
//!
//! Every line on the wire and every checkpoint file is written and parsed by
//! the workspace's one JSON codec, [`telemetry::json`], re-exported here as
//! [`Json`] and [`JsonError`].
//!
//! The crate ships two binaries: `dipe-serve` (the server) and `dipe-client`
//! (a minimal scriptable client used by CI smoke tests).
//!
//! The same crate also hosts the **distributed shard runtime**: `dipe-serve
//! --worker` turns a process into a block-producing sampling worker
//! ([`worker`]), and the [`coordinator`] fans one estimation's sampling
//! phase out over a fleet of such workers with timeouts, retries,
//! seed-stream reassignment and checksummed blocks — bit-identical to the
//! local `--shards` runtime under every fault the harness can inject.

#![warn(missing_docs)]

pub mod cache;
pub mod checkpoint_io;
pub mod client;
pub mod coordinator;
mod lines;
pub mod protocol;
pub mod server;
pub mod spec;
pub mod worker;

pub use cache::{CacheStats, CircuitCache, CompiledEntry};
pub use checkpoint_io::CheckpointFile;
pub use client::Client;
pub use coordinator::{CoordinatorConfig, RemoteOutcome, WorkerReport};
pub use lines::MAX_LINE_BYTES;
pub use protocol::{CachePath, Event, JobResult, Request};
pub use server::{Server, ServerConfig};
pub use spec::{CircuitRef, JobSpec};
pub use telemetry::{Json, JsonError};
pub use worker::run_worker;
