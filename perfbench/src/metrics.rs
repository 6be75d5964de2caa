//! Metric declarations, summary statistics and the result line.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares; the crate's tests hold the two in step.

use std::fmt::Write as _;

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by an untraced run (`--trace 0`).
    EndToEnd,
    /// Printed by a traced run (`--trace 1`).
    PerLayer,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Which run prints it.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, kind: Kind::EndToEnd }
}

const fn layer(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, kind: Kind::PerLayer }
}

/// Every metric the benchmark prints. Every workload prints every metric
/// of the run's kind; a layer that a workload does not run reads 0 there.
pub const DECLS: &[Decl] = &[
    e2e("slo_share", "ratio"),
    e2e("setup_s", "s"),
    layer("spec.parse_ms", "ms"),
    layer("compile.ms", "ms"),
    layer("compile.ground_place_ms", "ms"),
    layer("compile.ground_cross_ms", "ms"),
    layer("compile.finalize_ms", "ms"),
    layer("compile.symmetry_ms", "ms"),
    layer("compile.ground_actions", "count"),
    layer("compile.pruned_actions", "count"),
    layer("compile.self_share", "ratio"),
    layer("compile.self_share_p50", "ratio"),
    layer("planner.plrg_ms", "ms"),
    layer("planner.plrg_nodes", "count"),
    layer("planner.slrg_ms", "ms"),
    layer("planner.slrg_nodes", "count"),
    layer("planner.slrg_memo_hits", "count"),
    layer("planner.rg_ms", "ms"),
    layer("planner.rg_nodes", "count"),
    layer("planner.rg_expansions", "count"),
    layer("planner.replay_prunes", "count"),
    layer("planner.symmetry_pruned", "count"),
    layer("planner.dominance_pruned", "count"),
    layer("planner.candidate_accept_ratio", "ratio"),
    layer("planner.concretize_ms", "ms"),
    layer("planner.concretize_calls", "count"),
    layer("planner.budget_exhausted_share", "ratio"),
    layer("planner.search_self_share", "ratio"),
    layer("planner.search_self_share_p50", "ratio"),
    layer("sim.validate_ms", "ms"),
    layer("cert.emit_ms", "ms"),
    layer("cert.check_ms", "ms"),
    layer("anytime.sls_ms", "ms"),
    layer("anytime.sls_rollouts", "count"),
    layer("anytime.sls_validated_ratio", "ratio"),
    layer("anytime.incumbent_used_share", "ratio"),
    layer("anytime.exact_lane_ms", "ms"),
    layer("anytime.gap_mean", "cost"),
    layer("deadline.overrun_p50_ms", "ms"),
    layer("deadline.overrun_p90_ms", "ms"),
    layer("server.queue_wait_ms", "ms"),
    layer("server.cache_ms", "ms"),
    layer("server.decode_ms", "ms"),
    layer("server.compile_ms", "ms"),
    layer("server.search_ms", "ms"),
    layer("server.validate_ms", "ms"),
    layer("server.encode_ms", "ms"),
    layer("server.outcome_hit_ratio", "ratio"),
    layer("server.task_hit_ratio", "ratio"),
    layer("server.coalesced_share", "ratio"),
    layer("server.shed_share", "ratio"),
    layer("server.deadline_hit_share", "ratio"),
    layer("obs.trace_overhead_pct", "%"),
    layer("bench.traced_wall_ms", "ms"),
    layer("bench.blocking_self_ms", "ms"),
    layer("bench.gen_lag_p99_ms", "ms"),
    layer("bench.error_share", "ratio"),
    layer("bench.peak_rss_mb", "MB"),
    layer("bench.ops_per_s", "1/s"),
    layer("bench.latency_p50_ms", "ms"),
    layer("bench.latency_tail_ms", "ms"),
];

/// The declaration of `name`.
pub fn decl(name: &str) -> Option<&'static Decl> {
    DECLS.iter().find(|d| d.name == name)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set size in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (plans or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Benchmark self-check failures (count mismatches, broken layer
    /// accounting); any makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Lines for standard error about failed operations (the program gave
    /// up; not check failures) and answers the reference search could not
    /// verify, each starting with `failed:` or `unverified:`.
    pub notes: Vec<String>,
    /// Measured metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Digest of every instance's exact layer counts (planning workloads):
    /// equal for two runs of the same seed.
    pub counts_digest: Option<u64>,
}

impl Report {
    /// Record a metric value; `name` must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(decl(name).is_some(), "undeclared metric {name}");
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Record a self-check failure.
    pub fn fail_check(&mut self, msg: String) {
        self.check_failures.push(msg);
    }

    /// True when every output was right and every self-check held.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The result line: every declared metric of `kind`, in declaration
    /// order, with metrics the run did not touch reading 0.
    pub fn json_line(&self, kind: Kind) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let mut first = true;
        for d in DECLS.iter().filter(|d| d.kind == kind) {
            let v = self.values.iter().find(|(n, _)| *n == d.name).map_or(0.0, |&(_, v)| v);
            // JSON has no NaN or infinity; a non-finite value is a bug in
            // the benchmark, which the self-check list reports
            // (`+ 0.0` turns the -0.0 of an empty float sum into 0.0)
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            let sep = if first { "" } else { ", " };
            first = false;
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", d.name, d.unit);
        }
        out.push_str("}}");
        out
    }

    /// Flag every non-finite metric value as a self-check failure.
    pub fn check_finite(&mut self) {
        let bad: Vec<_> =
            self.values.iter().filter(|(_, v)| !v.is_finite()).map(|(n, _)| *n).collect();
        for n in bad {
            self.fail_check(format!("metric {n} is not finite"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn names_are_unique() {
        for (i, d) in DECLS.iter().enumerate() {
            assert!(DECLS[i + 1..].iter().all(|e| e.name != d.name), "{} twice", d.name);
        }
    }
}
