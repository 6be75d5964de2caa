//! # sekitei-util
//!
//! Dependency-free utilities shared across the workspace, each one
//! audited implementation with its reference test:
//!
//! * the seeded [`rng::SplitMix64`] generator that both the churn event
//!   generator and the anytime planner's stochastic local-search lane
//!   draw from;
//! * the [`hash::Fnv1a`] content hash behind server cache keys, snapshot
//!   checksums, task fingerprints and symmetry action fingerprints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hash;
pub mod rng;

pub use hash::{fnv1a, Fnv1a};
pub use rng::SplitMix64;
