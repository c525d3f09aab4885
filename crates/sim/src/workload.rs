//! Workload generation: Zipf popularity and query streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zipf(s) sampler over ranks `0..n` via inverse-CDF lookup.
///
/// P2P request popularity is classically Zipf-like; all object- and
/// community-popularity draws in the experiments use this.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s` (s = 0 is
    /// uniform; s ≈ 1 matches measured file-sharing workloads).
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn new(n: usize, s: f64) -> Zipf {
        // panic-ok: `# Panics` on an empty domain; callers pass corpus constants (5 000, 1 000), the 23 pattern names, or a community count of at least 16
        assert!(n > 0, "zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` when the domain is a single rank.
    pub fn is_empty(&self) -> bool {
        false // construction requires n > 0
    }

    /// Draws a rank (0 = most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// Deterministic RNG for a named experiment phase — experiments derive
/// all randomness from (seed, label) so every table regenerates exactly.
pub fn rng_for(seed: u64, label: &str) -> StdRng {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    StdRng::seed_from_u64(seed ^ h)
}

/// Splits a corpus across peers: object `i` is assigned
/// `replicas` distinct provider peers chosen deterministically.
///
/// Placement is a prefix of a per-object Fisher–Yates shuffle, and the
/// shuffle consumes the same number of RNG draws regardless of
/// `replicas`. Both together make placements *nested*: given the same
/// rng seed, the providers for `replicas = r` are a subset of those for
/// `replicas = r' > r`. The replication experiment (E5) relies on this
/// to compare replica counts under common random numbers, which turns
/// availability monotonicity from a statistical tendency into a
/// per-trial invariant.
pub fn assign_providers(
    objects: usize,
    peers: usize,
    replicas: usize,
    rng: &mut StdRng,
) -> Vec<Vec<u32>> {
    let replicas = replicas.min(peers);
    (0..objects)
        .map(|_| {
            let mut order: Vec<u32> = (0..peers as u32).collect();
            for i in (1..peers).rev() {
                let j = rng.gen_range(0..i + 1);
                order.swap(i, j);
            }
            order.truncate(replicas);
            order
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_normalized_and_skewed() {
        let z = Zipf::new(100, 1.0);
        assert_eq!(z.len(), 100);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(z.pmf(0) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(90));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_sampling_matches_pmf_roughly() {
        let z = Zipf::new(20, 1.0);
        let mut rng = rng_for(7, "zipf-test");
        let mut counts = [0usize; 20];
        let draws = 20_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let freq0 = counts[0] as f64 / draws as f64;
        assert!((freq0 - z.pmf(0)).abs() < 0.02, "freq {freq0} vs pmf {}", z.pmf(0));
        assert!(counts[0] > counts[10]);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn rng_for_is_label_sensitive_and_reproducible() {
        let mut a1 = rng_for(1, "phase-a");
        let mut a2 = rng_for(1, "phase-a");
        let mut b = rng_for(1, "phase-b");
        let x1: u64 = a1.gen();
        let x2: u64 = a2.gen();
        let y: u64 = b.gen();
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn provider_assignment_distinct_and_bounded() {
        let mut rng = rng_for(3, "assign");
        let assignment = assign_providers(50, 10, 3, &mut rng);
        assert_eq!(assignment.len(), 50);
        for providers in &assignment {
            assert_eq!(providers.len(), 3);
            let mut sorted = providers.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "providers must be distinct");
            assert!(providers.iter().all(|&p| p < 10));
        }
        // replicas clamped to peer count
        let clamped = assign_providers(5, 2, 9, &mut rng);
        assert!(clamped.iter().all(|ps| ps.len() == 2));
    }
}
