//! The repo benchmark behind the `up2p_bench` binary: seeded input
//! generators, an oracle, six workloads over the servent's request path,
//! and harness-side tracing. See `README.md` beside this package for the
//! metric and workload tables.

pub mod countfs;
pub mod des;
pub mod gen;
pub mod harness;
pub mod metrics;
pub mod oracle;
pub mod publish;
pub mod search;
pub mod trace;
pub mod ui;
