//! Link latency models for the discrete-event simulation.

use crate::message::Time;
use crate::peer::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded link-latency model: one per substrate, read for every
/// message it sends. A link's delay is a function of its two ends alone,
/// never of how many were asked before. Only [`LatencySpec::build`]
/// makes one.
#[derive(Debug, Clone)]
pub struct Latency {
    spec: LatencySpec,
    /// Each peer's place on the line (`Coordinate` only).
    positions: Vec<f64>,
}

impl Latency {
    /// Delay in virtual microseconds for a message `from` → `to`:
    ///
    /// * `Constant` — the same on every link, keeping experiments
    ///   deterministic when latency is not the variable under study;
    /// * `Coordinate` — base cost plus the distance between the two
    ///   peers' random positions on a line: stable, symmetric pairwise
    ///   delays that respect the triangle inequality. An id outside the
    ///   network (the Napster server) sits mid-line.
    pub fn delay(&self, from: PeerId, to: PeerId) -> Time {
        match self.spec {
            LatencySpec::Constant(us) => us,
            LatencySpec::Coordinate { base, per_unit } => {
                let at = |p: PeerId| self.positions.get(p.index()).copied().unwrap_or(0.5);
                base + ((at(from) - at(to)).abs() * per_unit as f64) as Time
            }
        }
    }
}

/// Declarative latency-model choice for [`crate::NetConfig`]: a config
/// carries this spec and builds a fresh seeded [`Latency`] per substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencySpec {
    /// Fixed per-link delay in microseconds.
    Constant(Time),
    /// Coordinate-based delay `base + distance · per_unit`.
    Coordinate {
        /// Base per-link cost in microseconds.
        base: Time,
        /// Cost per unit of coordinate distance (distance is in `[0,1]`).
        per_unit: Time,
    },
}

impl LatencySpec {
    /// Builds a fresh model for an `n`-peer substrate, seeded by `seed`.
    pub fn build(self, n: usize, seed: u64) -> Latency {
        let positions = match self {
            LatencySpec::Coordinate { .. } => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..n).map(|_| rng.gen::<f64>()).collect()
            }
            LatencySpec::Constant(_) => Vec::new(),
        };
        Latency { spec: self, positions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = LatencySpec::Constant(50_000).build(2, 1);
        assert_eq!(m.delay(PeerId(0), PeerId(1)), 50_000);
        assert_eq!(m.delay(PeerId(5), PeerId(9)), 50_000);
    }

    #[test]
    fn latency_spec_builds_working_models() {
        let m = LatencySpec::Constant(7_000).build(4, 1);
        assert_eq!(m.delay(PeerId(0), PeerId(1)), 7_000);
        let m = LatencySpec::Coordinate { base: 500, per_unit: 1_000 }.build(4, 1);
        assert!(m.delay(PeerId(0), PeerId(1)) >= 500);
    }

    #[test]
    fn seeded_draws_are_pinned() {
        // the delays a seeded model gives over fixed pairs: a change to
        // how a model places its peers moves every virtual latency
        let pairs = [(0, 1), (1, 0), (2, 63), (63, 2), (5, 9), (10, 40), (33, 7), (0, 0)];
        let m = LatencySpec::Coordinate { base: 500, per_unit: 40_000 }.build(64, 7);
        assert_eq!(
            pairs.map(|(a, b)| m.delay(PeerId(a), PeerId(b))),
            [5_170, 5_170, 6_971, 6_971, 16_196, 34_886, 20_628, 500]
        );
    }

    #[test]
    fn coordinates_are_symmetric_and_stable() {
        let m = LatencySpec::Coordinate { base: 5_000, per_unit: 100_000 }.build(10, 7);
        let d1 = m.delay(PeerId(2), PeerId(8));
        let d2 = m.delay(PeerId(8), PeerId(2));
        assert_eq!(d1, d2);
        assert!(d1 >= 5_000);
        assert_eq!(d1, m.delay(PeerId(2), PeerId(8)), "stable across calls");
    }
}
