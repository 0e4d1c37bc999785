//! Report builders of the `dipe` binary, kept in a library so they can be
//! unit-tested without running the binary.

pub mod breakdown;
