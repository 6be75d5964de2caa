//! FNV-1a 64-bit hashing for deterministic content keys.
//!
//! Server cache keys, `SKS1` snapshot checksums, compiled-task
//! fingerprints, the search's set interning and the symmetry pass all
//! persist or compare these values, so they must not vary across runs,
//! processes or platforms — which rules out `std`'s randomly keyed
//! `SipHash`. Everything is `#[inline]` so the loops inline into callers
//! in other crates (the symmetry pass hashes every ground action).

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a 64-bit hash. Integers are fed as little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// A hash of the empty input (the FNV offset basis).
    #[inline]
    pub const fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Feed one byte.
    #[inline]
    pub fn u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
    }

    /// Feed a byte slice.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.u8(b);
        }
    }

    /// Feed a `u32` as its four little-endian bytes.
    #[inline]
    pub fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    /// Feed a `u64` as its eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit hash of a byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// Word-wise FNV-1a: one xor-multiply per 64-bit word instead of per
/// byte. Eight times fewer steps than [`fnv1a`] over the same words, for
/// hot-path keys over id sequences (interned proposition sets, anytime
/// tails, the symmetry pass's action encodings). It is a different hash
/// from [`fnv1a`] of the words' bytes.
#[inline]
pub fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(OFFSET_BASIS, |h, w| (h ^ w).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // published FNV-1a 64 test vectors
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn word_reference_vectors() {
        assert_eq!(fnv1a_words([]), 0xcbf2_9ce4_8422_2325);
        // a word below 256 steps exactly like the byte it equals
        assert_eq!(fnv1a_words([u64::from(b'a')]), fnv1a(b"a"));
        assert_eq!(fnv1a_words([1, 2, 3]), 0xd0aa_6218_672c_f5ab);
        assert_eq!(fnv1a_words([u64::MAX]), 0x509c_41b3_79fe_466e);
    }

    #[test]
    fn integers_feed_little_endian_bytes() {
        let mut a = Fnv1a::new();
        a.u8(7);
        a.u32(0x0102_0304);
        a.u64(u64::MAX - 1);
        let mut b = Fnv1a::new();
        b.bytes(&[7, 4, 3, 2, 1]);
        b.bytes(&(u64::MAX - 1).to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
