//! # sekitei-churn
//!
//! Deterministic fault injection and closed-loop deployment maintenance —
//! the dynamic counterpart to the one-shot planner, exercising the
//! adaptation encoding of [`sekitei_model::adapt_problem`] against a
//! network that actually changes (the paper's §6 future-work item).
//!
//! Three layers:
//!
//! * [`event`] — timestamped network mutations (link degradation and
//!   recovery, node crash and rejoin, CPU drift) with a hand-writable
//!   textual trace format, applied to a mutable [`sekitei_model::Network`].
//! * [`generator`] — a seeded ([`sekitei_util::SplitMix64`]) weighted event
//!   generator parameterized by the per-scenario
//!   [`sekitei_topology::scenarios::ChurnProfile`].
//! * [`engine`] — the monitor/repair loop: re-validate the deployment in
//!   the simulator after every event, classify what broke, repair via
//!   adaptation with scratch-planning fallback, and account availability
//!   and plan churn.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod event;
pub mod generator;

pub use engine::{
    run, ChurnConfig, ChurnError, ChurnReport, ChurnSummary, Deployment, EventRecord, Outcome,
    Repair, RepairRoute,
};
pub use event::{apply, parse_trace, render_trace, ChurnEvent, Mutation, TraceError};
pub use generator::generate;
