//! Test-runner plumbing: config, deterministic per-case RNG and the
//! error type `prop_assert*` / `prop_assume!` produce.

/// Per-suite configuration. Only `cases` is meaningful in this shim;
/// the struct is non-exhaustive-by-convention via `Default`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Requested number of cases per property.
    pub cases: u32,
}

/// Hard ceiling keeping the whole workspace's property suites fast even
/// if a config asks for more. `PROPTEST_CASES` is not held to it: a
/// count set in the environment is a deliberate long run.
const MAX_CASES: u32 = 256;
const DEFAULT_CASES: u32 = 32;

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: DEFAULT_CASES }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }

    /// The case count actually run: the `PROPTEST_CASES` env override, at
    /// least 1, else the configured count clamped to [1, MAX_CASES].
    pub fn effective_cases(&self) -> u32 {
        let env = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse::<u32>().ok());
        self.effective_cases_with(env)
    }

    fn effective_cases_with(&self, env_override: Option<u32>) -> u32 {
        env_override.unwrap_or(self.cases.min(MAX_CASES)).max(1)
    }
}

/// Why a test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The inputs violated a `prop_assume!` precondition; the case is
    /// skipped, not failed.
    Reject(String),
    /// A `prop_assert*` failed.
    Fail(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

/// The base seed: fixed constant unless `PROPTEST_SEED` overrides it.
pub fn base_seed() -> u64 {
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|v| {
            let v = v.trim();
            v.strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16).ok())
                .unwrap_or_else(|| v.parse::<u64>().ok())
        })
        .unwrap_or(0x5EED_u64 << 16 | 0x2b2b)
}

/// Deterministic per-case generator (SplitMix64 over a seed derived
/// from base seed, test path and case index).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl TestRng {
    pub fn for_case(test_path: &str, case: u32) -> TestRng {
        let seed = base_seed() ^ fnv1a(test_path.as_bytes()) ^ ((case as u64) << 32 | case as u64);
        // Burn one output so nearby seeds decorrelate.
        let mut rng = TestRng { state: seed };
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + self.below((hi - lo) as u64) as usize
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// True with probability `num/denom`.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_case_same_stream() {
        let mut a = TestRng::for_case("mod::t", 3);
        let mut b = TestRng::for_case("mod::t", 3);
        let mut c = TestRng::for_case("mod::t", 4);
        let mut d = TestRng::for_case("mod::u", 3);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| d.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn config_defaults_and_caps() {
        assert_eq!(ProptestConfig::default().cases, 32);
        assert_eq!(ProptestConfig::with_cases(9999).effective_cases_with(None), 256);
        assert_eq!(ProptestConfig::with_cases(0).effective_cases_with(None), 1);
        assert_eq!(ProptestConfig::with_cases(10).effective_cases_with(Some(64)), 64);
        assert_eq!(ProptestConfig::with_cases(10).effective_cases_with(Some(0)), 1);
        assert_eq!(ProptestConfig::with_cases(10).effective_cases_with(Some(2048)), 2048);
    }
}
