//! Big-endian byte codec for the workspace's binary forms.
//!
//! Every binary form the workspace exchanges or persists — `SKT1`
//! problems, `SKO1` outcomes, `SKP1` phase tables, `SKS1` cache files,
//! `SKC1` certificates and the serving protocol's envelopes — is written
//! with [`Writer`] and read back with [`Reader`]. Integers are big-endian,
//! `f64`s are their IEEE-754 bit patterns, and length prefixes are `u32`.
//!
//! The reader is the one place that bounds-checks: each read either
//! returns the bytes it promised or a [`Truncated`] error, never a panic.
//! Callers map that error to their own type and keep their own length
//! caps and tag checks.

use std::fmt;

/// Append-only big-endian encoder over a `Vec<u8>`.
#[derive(Debug)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer(Vec::with_capacity(capacity))
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// Append a big-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an `f64` as its big-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append bytes verbatim, without a length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// Append a `u32` length prefix, then the bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u32(bytes.len() as u32);
        self.raw(bytes);
    }

    /// Append a string as length-prefixed UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Append a `u32` count, then each item with `item`.
    pub fn seq<I>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.u32(items.len() as u32);
        for x in items {
            item(self, x);
        }
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.0
    }
}

/// A read ran past the end of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Offset of the read that failed.
    pub at: usize,
    /// Bytes the read asked for.
    pub need: usize,
}

impl fmt::Display for Truncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "truncated at byte {} (need {} more)", self.at, self.need)
    }
}

impl std::error::Error for Truncated {}

/// Bounds-checked big-endian decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.at
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// True once every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unread bytes, consuming them.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.at..];
        self.at = self.buf.len();
        rest
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        if self.remaining() < n {
            return Err(Truncated { at: self.at, need: n });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.take(1)?[0])
    }

    /// A big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_be_bytes)
    }

    /// A big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_be_bytes)
    }

    /// An `f64` from its big-endian bit pattern.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32` count, then that many items read with `item`. Memory grows
    /// with the items actually read, never with the count alone.
    pub fn seq<T, E: From<Truncated>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.u32()?;
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_big_endian() {
        let mut w = Writer::with_capacity(32);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(1);
        w.f64(1.5);
        w.str("xy");
        w.seq([3u8, 4], |w, x| w.u8(x));
        w.raw(b"!");
        let bytes = w.into_vec();
        assert_eq!(&bytes[..5], &[7, 0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(&bytes[13..21], &1.5f64.to_be_bytes());
        assert_eq!(&bytes[21..], b"\x00\x00\x00\x02xy\x00\x00\x00\x02\x03\x04!");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(1));
        assert_eq!(r.f64(), Ok(1.5));
        let n = r.u32().unwrap() as usize;
        assert_eq!(r.take(n), Ok(&b"xy"[..]));
        assert_eq!(r.seq(|r| r.u8()), Ok::<_, Truncated>(vec![3, 4]));
        assert_eq!(r.position(), 33);
        assert_eq!(r.rest(), b"!");
        assert!(r.is_empty());
    }

    #[test]
    fn short_reads_fail_without_consuming() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Truncated { at: 0, need: 4 }));
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.take(3), Err(Truncated { at: 1, need: 3 }));
        assert_eq!(r.remaining(), 2);
        assert_eq!(Truncated { at: 1, need: 3 }.to_string(), "truncated at byte 1 (need 3 more)");
    }
}
