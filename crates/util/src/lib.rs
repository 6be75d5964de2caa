//! # sekitei-util
//!
//! Dependency-free utilities shared across the workspace, each one
//! audited implementation with its reference test:
//!
//! * the seeded [`rng::SplitMix64`] generator that the churn event
//!   generator, the load generator and the anytime planner's stochastic
//!   local-search lane draw from;
//! * the seeded [`rng::Xoshiro256pp`] generator behind the topology
//!   generators and the paper's 93-node Large network;
//! * the [`hash::Fnv1a`] content hash behind server cache keys, snapshot
//!   checksums, task fingerprints and symmetry signatures, and its
//!   word-wise variant [`hash::fnv1a_words`] behind the search's set
//!   interning, the anytime tail cache and the symmetry action index;
//! * the big-endian [`codec::Writer`] and bounds-checked
//!   [`codec::Reader`] that every binary form (`SKT1`, `SKO1`, `SKP1`,
//!   `SKS1`, `SKC1` and the serving protocol's envelopes) is written and
//!   read with.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod hash;
pub mod rng;

pub use codec::{Reader, Truncated, Writer};
pub use hash::{fnv1a, fnv1a_words, Fnv1a};
pub use rng::{SplitMix64, Xoshiro256pp};
