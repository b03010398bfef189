//! Deterministic backoff and fault-decision model, shared by the
//! simulator's loss machinery and the live replay engine's retry path.
//!
//! Everything here is a pure function of a seed and a key — no RNG state,
//! no locks — so concurrent callers (a receive loop's timeout tick
//! racing a send path, or a server deciding packet fates in arrival
//! order) get the *same* decisions regardless of interleaving. That is
//! what makes chaos runs reproducible under a fixed seed (the
//! repeatability requirement of LDplayer §2.1) even over real sockets.

use std::time::Duration;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash step.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes a byte string under `seed` (FNV-style fold, SplitMix finalize).
/// Used to key fault decisions on packet *content*, so the decision for a
/// given wire image is independent of arrival order.
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(h)
}

/// Deterministic Bernoulli trial: true with probability `p`, decided
/// entirely by `(seed, key)`. The same pair always decides the same way.
pub fn decide(seed: u64, key: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let unit = (splitmix64(seed ^ key) >> 11) as f64 / (1u64 << 53) as f64;
    unit < p
}

/// Capped exponential backoff with deterministic jitter.
///
/// `delay(attempt, key)` grows as `base · 2^attempt`, capped at `cap`,
/// plus up to `jitter` (fraction of the uncapped delay) of extra wait
/// derived from `(seed, key, attempt)` — so two retriers with the same
/// schedule but different keys desynchronize, and the same retrier
/// replays identically across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Backoff {
    pub base: Duration,
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: extra delay up to `jitter · delay`.
    pub jitter: f64,
    pub seed: u64,
}

impl Backoff {
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff {
            base,
            cap,
            jitter: 0.25,
            seed: 0,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Backoff {
        self.seed = seed;
        self
    }

    pub fn with_jitter(mut self, jitter: f64) -> Backoff {
        self.jitter = jitter.clamp(0.0, 1.0);
        self
    }

    /// Delay before (or deadline extension for) retry `attempt` (0-based).
    pub fn delay(&self, attempt: u32, key: u64) -> Duration {
        let shift = attempt.min(16);
        let exp = self
            .base
            .checked_mul(1u32 << shift)
            .unwrap_or(self.cap)
            .min(self.cap);
        if self.jitter <= 0.0 {
            return exp;
        }
        let k = splitmix64(self.seed ^ key ^ (u64::from(attempt) << 48));
        let unit = (k >> 11) as f64 / (1u64 << 53) as f64;
        let extra = exp.mul_f64(self.jitter * unit);
        (exp + extra).min(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_deterministic_and_seed_sensitive() {
        let a: Vec<bool> = (0..200).map(|k| decide(7, k, 0.3)).collect();
        let b: Vec<bool> = (0..200).map(|k| decide(7, k, 0.3)).collect();
        assert_eq!(a, b);
        let c: Vec<bool> = (0..200).map(|k| decide(8, k, 0.3)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn decide_rate_approximates_p() {
        let hits = (0..20_000).filter(|&k| decide(42, k, 0.2)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn decide_extremes() {
        assert!(!decide(1, 2, 0.0));
        assert!(decide(1, 2, 1.0));
    }

    #[test]
    fn hash_bytes_distinguishes_content_and_seed() {
        let a = hash_bytes(1, b"query-a");
        assert_eq!(a, hash_bytes(1, b"query-a"));
        assert_ne!(a, hash_bytes(1, b"query-b"));
        assert_ne!(a, hash_bytes(2, b"query-a"));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let b = Backoff::new(Duration::from_millis(100), Duration::from_secs(1)).with_jitter(0.0);
        assert_eq!(b.delay(0, 0), Duration::from_millis(100));
        assert_eq!(b.delay(1, 0), Duration::from_millis(200));
        assert_eq!(b.delay(2, 0), Duration::from_millis(400));
        assert_eq!(b.delay(10, 0), Duration::from_secs(1));
        assert_eq!(b.delay(60, 0), Duration::from_secs(1), "shift saturates");
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        let b = Backoff::new(Duration::from_millis(100), Duration::from_secs(10))
            .with_jitter(0.5)
            .with_seed(9);
        for key in 0..100 {
            let d = b.delay(1, key);
            assert!(d >= Duration::from_millis(200));
            assert!(d <= Duration::from_millis(300));
            assert_eq!(d, b.delay(1, key), "same key, same delay");
        }
        // Different keys desynchronize.
        assert_ne!(b.delay(1, 1), b.delay(1, 2));
    }
}
