//! Test execution support: config, RNG, case errors.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Per-suite configuration. Only `cases` is supported.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The case count after applying the `PROPTEST_CASES` env override.
    #[must_use]
    #[allow(
        clippy::disallowed_methods,
        reason = "upstream proptest's API: PROPTEST_CASES overrides the case count"
    )]
    pub fn effective_cases(&self) -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(self.cases)
            .max(1)
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// The sampling RNG handed to strategies. Seeded deterministically per
/// test so failures reproduce without a persistence file.
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeds from a test's fully qualified name (FNV-1a).
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(hash))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `[0, bound)`; `bound = 0` means the full 64-bit range.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return self.next_u64();
        }
        let rem = (u64::MAX % bound).wrapping_add(1) % bound;
        if rem == 0 {
            return self.next_u64() % bound;
        }
        let top = u64::MAX - rem;
        loop {
            let x = self.next_u64();
            if x <= top {
                return x % bound;
            }
        }
    }

    /// Uniform in `[0, 1)` with 53 mantissa bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed.
    Fail(String),
}

impl TestCaseError {
    /// An assertion failure with a message.
    #[must_use]
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// Result type property bodies produce.
pub type TestCaseResult = Result<(), TestCaseError>;
