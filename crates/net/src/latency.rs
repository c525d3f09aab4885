//! Link latency models for the discrete-event simulation.

use crate::message::Time;
use crate::peer::PeerId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Produces a one-way delay for a message on a link.
pub trait LatencyModel {
    /// Delay in virtual microseconds for a message `from` → `to`.
    fn delay(&mut self, from: PeerId, to: PeerId) -> Time;
}

/// Fixed delay on every link — keeps experiments deterministic when
/// latency is not the variable under study.
#[derive(Debug, Clone, Copy)]
pub struct ConstantLatency(pub Time);

impl LatencyModel for ConstantLatency {
    fn delay(&mut self, _from: PeerId, _to: PeerId) -> Time {
        self.0
    }
}

/// Uniformly random delay in `[min, max)`, seeded for reproducibility.
/// Roughly models the wide-area RTT spread of 2002-era dial-up/DSL swarms.
#[derive(Debug, Clone)]
pub struct UniformLatency {
    min: Time,
    max: Time,
    rng: StdRng,
}

impl UniformLatency {
    /// Creates a model producing delays in `[min, max)` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `min >= max`.
    pub fn new(min: Time, max: Time, seed: u64) -> Self {
        // panic-ok: `# Panics` unless min < max; built from `LatencySpec::Uniform`, and every such spec in the tree is a literal pair with min < max (the benchmark uses `Coordinate`)
        assert!(min < max, "empty latency range");
        UniformLatency { min, max, rng: StdRng::seed_from_u64(seed) }
    }
}

impl LatencyModel for UniformLatency {
    fn delay(&mut self, _from: PeerId, _to: PeerId) -> Time {
        self.rng.gen_range(self.min..self.max)
    }
}

/// Per-peer "coordinates" latency: each peer gets a random position on a
/// line; delay is proportional to distance plus a base cost. Gives
/// triangle-inequality-respecting, stable pairwise delays.
#[derive(Debug, Clone)]
pub struct CoordinateLatency {
    positions: Vec<f64>,
    base: Time,
    per_unit: Time,
}

impl CoordinateLatency {
    /// Creates coordinates for `n` peers with the given base cost and
    /// per-distance-unit cost (distance is in `[0,1]`).
    pub fn new(n: usize, base: Time, per_unit: Time, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let positions = (0..n).map(|_| rng.gen::<f64>()).collect();
        CoordinateLatency { positions, base, per_unit }
    }
}

impl LatencyModel for CoordinateLatency {
    fn delay(&mut self, from: PeerId, to: PeerId) -> Time {
        let a = self.positions.get(from.index()).copied().unwrap_or(0.5);
        let b = self.positions.get(to.index()).copied().unwrap_or(0.5);
        self.base + ((a - b).abs() * self.per_unit as f64) as Time
    }
}

/// Declarative latency-model choice for [`crate::NetConfig`].
///
/// Boxed [`LatencyModel`]s are stateful and not `Clone`, so configs carry
/// this spec and build a fresh seeded model per substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencySpec {
    /// Fixed per-link delay in microseconds.
    Constant(Time),
    /// Uniform delay in `[min, max)` microseconds.
    Uniform(Time, Time),
    /// Coordinate-based delay `base + distance · per_unit`.
    Coordinate {
        /// Base per-link cost in microseconds.
        base: Time,
        /// Cost per unit of coordinate distance (distance is in `[0,1]`).
        per_unit: Time,
    },
}

impl LatencySpec {
    /// Builds a fresh model for an `n`-peer substrate.
    pub fn build(self, n: usize, seed: u64) -> Box<dyn LatencyModel + Send> {
        match self {
            LatencySpec::Constant(us) => Box::new(ConstantLatency(us)),
            LatencySpec::Uniform(min, max) => Box::new(UniformLatency::new(min, max, seed)),
            LatencySpec::Coordinate { base, per_unit } => {
                Box::new(CoordinateLatency::new(n, base, per_unit, seed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut m = ConstantLatency(50_000);
        assert_eq!(m.delay(PeerId(0), PeerId(1)), 50_000);
        assert_eq!(m.delay(PeerId(5), PeerId(9)), 50_000);
    }

    #[test]
    fn uniform_within_bounds_and_reproducible() {
        let mut a = UniformLatency::new(10, 100, 42);
        let mut b = UniformLatency::new(10, 100, 42);
        for _ in 0..100 {
            let d = a.delay(PeerId(0), PeerId(1));
            assert!((10..100).contains(&d));
            assert_eq!(d, b.delay(PeerId(0), PeerId(1)), "same seed, same sequence");
        }
    }

    #[test]
    #[should_panic(expected = "empty latency range")]
    fn uniform_rejects_empty_range() {
        UniformLatency::new(100, 100, 1);
    }

    #[test]
    fn latency_spec_builds_working_models() {
        let mut m = LatencySpec::Constant(7_000).build(4, 1);
        assert_eq!(m.delay(PeerId(0), PeerId(1)), 7_000);
        let mut m = LatencySpec::Uniform(10, 100).build(4, 1);
        assert!((10..100).contains(&m.delay(PeerId(0), PeerId(1))));
        let mut m = LatencySpec::Coordinate { base: 500, per_unit: 1_000 }.build(4, 1);
        assert!(m.delay(PeerId(0), PeerId(1)) >= 500);
    }

    #[test]
    fn coordinates_are_symmetric_and_stable() {
        let mut m = CoordinateLatency::new(10, 5_000, 100_000, 7);
        let d1 = m.delay(PeerId(2), PeerId(8));
        let d2 = m.delay(PeerId(8), PeerId(2));
        assert_eq!(d1, d2);
        assert!(d1 >= 5_000);
        assert_eq!(d1, m.delay(PeerId(2), PeerId(8)), "stable across calls");
    }
}
