//! The repository benchmark: five seeded workloads measured on the
//! simulated clock (bit-exact per seed) and the host clock, a host layer
//! ladder, and a traced run that splits host time by layer. See
//! `README.md` for the workloads, metrics and modes.

#![forbid(unsafe_code)]

pub mod host;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
