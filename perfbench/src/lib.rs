//! The loopback serving benchmark for `coursenav serve`, as a library so
//! its tests can reach the plan generator; `src/main.rs` is the binary.
//! See `README.md` in this directory for the workloads and metrics.

pub mod check;
pub mod client;
pub mod plan;
pub mod replay;
pub mod report;
