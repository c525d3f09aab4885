//! # up2p-sim
//!
//! Reproduction harness for the U-P2P paper: corpora, workloads, world
//! construction and the experiment scenarios E1–E7 and E11, whose tables
//! `run_experiments` prints.
//!
//! The paper contains no quantitative evaluation (its three figures are
//! architecture diagrams and the bootstrap schema); DESIGN.md §4 maps
//! each figure/claim to the quantitative experiment implemented here.
//!
//! ```
//! use up2p_sim::{pattern_world, Scale};
//! use up2p_net::ProtocolKind;
//! use up2p_store::Query;
//!
//! let (mut world, community) = pattern_world(ProtocolKind::Napster, 16, 2, 7);
//! let out = world.search_from(3, &community, &Query::any_keyword("observer"));
//! assert!(!out.hits.is_empty());
//! // each scenario returns its table:
//! let table = up2p_sim::e7_indexing();
//! assert!(table.to_markdown().contains("name only"));
//! # let _ = Scale::Smoke;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
mod experiment;
mod metrics;
mod report;
mod scenarios;
mod workload;

pub use experiment::{pattern_world, World};
pub use metrics::{retrieval_quality, RetrievalQuality, Series};
pub use report::{fnum, ms, Table};
pub use scenarios::{
    e11_des_scale, e1_pipeline, e2_generation, e3_discovery, e4_metadata, e5_replication,
    e6_dedup_ablation, e6_protocols, e6_topologies, e6_ttl_sweep, e7_indexing, run_all,
    run_scenario, Scale,
};
pub use workload::{assign_providers, rng_for, Zipf};
