//! Seeded pseudorandom numbers for deterministic components.
//!
//! Everything seeded in the workspace derives from one stream per
//! component, so a `(inputs, seed)` pair always reproduces the same
//! behaviour byte for byte. Churn traces, the anytime SLS lane and the
//! load generator draw from [`SplitMix64`]; the topology generators
//! (and with them the paper's 93-node Large network) draw from
//! [`Xoshiro256pp`], seeded through SplitMix64. The generators live here
//! (rather than in consumer crates) so there is exactly one
//! implementation of each to audit against its reference sequence.

/// SplitMix64 (Steele et al., "Fast splittable pseudorandom number
/// generators"): 64 bits of state, passes BigCrush, and trivially
/// self-contained — the workspace has no real `rand` crate to lean on.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`. Modulo bias is irrelevant at trace sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// The top 53 bits of `word` as a uniform draw in `[0, 1)`.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256++ (Blackman and Vigna, "Scrambled linear pseudorandom
/// number generators"): 256 bits of state, seeded from four SplitMix64
/// draws as its authors recommend. The topology generators' stream;
/// changing it moves every seeded network, the Large one included.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp([u64; 4]);

impl Xoshiro256pp {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256pp([sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()])
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, n)` by `next % n`; the modulo bias is part of
    /// the pinned stream.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // reference sequence for seed 1234567 from the published algorithm
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        let u = SplitMix64::new(42).unit();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn xoshiro_reference_values() {
        // the stream the Large network was generated from (seed of
        // `TransitStubConfig::default()`), and the samplers at seed 42
        let mut r = Xoshiro256pp::new(0x05EB_17E1);
        assert_eq!(r.next_u64(), 9557666030030069297);
        assert_eq!(r.next_u64(), 1406484579541458154);
        let mut r = Xoshiro256pp::new(42);
        assert_eq!(r.unit(), 0.8143051451229099);
        assert_eq!(r.below(1000), 753);
    }

    #[test]
    fn unit_and_range_stay_in_bounds() {
        let mut r = SplitMix64::new(99);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            let x = r.in_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
            assert!(r.below(7) < 7);
        }
    }
}
