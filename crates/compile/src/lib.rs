//! # sekitei-compile
//!
//! Compilation of CPP specifications into leveled AI-planning tasks:
//! grounding of `place`/`cross` action schemas over the network, level
//! enumeration with static pruning (paper §3.1), optimistic resource maps,
//! and lower-bound action costs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ground;
pub mod symmetry;
pub mod task;

pub use ground::{compile, CompileError};
pub use symmetry::NodeOrbits;
pub use task::{
    AchieverIndex, ActionKind, CompileStats, GVarData, GroundAction, PlanningTask, PropData,
};
