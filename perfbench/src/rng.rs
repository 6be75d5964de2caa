//! Seeding helpers over the workspace's `SplitMix64`, and the FNV-1a
//! digest used for the input and count digests.

use sekitei_util::SplitMix64;

/// A generator for `seed`, decorrelated from the other streams of the
/// same seed by `salt`.
pub fn salted(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// FNV-1a over a byte stream: the input and count digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Fold a number into the digest.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
