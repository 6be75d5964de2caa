//! FNV-1a 64-bit hashing for deterministic content keys.
//!
//! Server cache keys, `SKS1` snapshot checksums, compiled-task
//! fingerprints and the symmetry pass's action fingerprints all persist
//! or compare these values, so they must not vary across runs, processes
//! or platforms — which rules out `std`'s randomly keyed `SipHash`. The
//! methods are `#[inline]` so the per-byte loop inlines into callers in
//! other crates (the symmetry pass runs it over every ground action).

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
