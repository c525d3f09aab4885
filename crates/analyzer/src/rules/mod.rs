//! The two rule families the analyzer enforces.

pub mod panic_free;
pub mod stats;
