//! The sekitei benchmark: four seeded workloads whose outputs are all
//! checked, end-to-end metrics from untraced runs, and per-layer metrics
//! from a separate traced run. See `README.md` for the workloads, the
//! metrics and what each layer metric should move.

pub mod corpus;
pub mod metrics;
pub mod plan;
pub mod rng;
pub mod serve;

use corpus::{Corpus, Workload};
use metrics::{peak_rss_mb, quantile, Report};
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` is their median. On the shared
/// 2-vCPU host this was built on, the machine's speed changed every
/// second or so by up to 1.5×, so back-to-back repetitions all landed in
/// one such stretch. They are spread over the run instead: on the
/// planning workloads one before the run and the rest evenly between its
/// timed operations, before any output check (so no reference search
/// left running past its timeout competes with them); on `serve-mix`,
/// whose traffic runs against the clock, half before the traffic and
/// half after it.
pub const SETUP_REPS: usize = 11;

/// Provenance printed beside every result.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Digest of the run's inputs.
    pub input_digest: u64,
}

impl Provenance {
    /// One JSON object with the build's and the run's provenance.
    pub fn json(&self, report: &Report, seconds: f64, traced: bool) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let counts = report.counts_digest.map_or("null".to_string(), |d| format!("\"{d:016x}\""));
        format!(
            "{{\"commit\": \"{}\", \"source_digest\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \
             \"nproc\": {nproc}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {seconds}, \
             \"trace\": {}, \"input_digest\": \"{:016x}\", \"counts_digest\": {counts}}}",
            env!("PERFBENCH_COMMIT"),
            env!("PERFBENCH_SOURCE_DIGEST"),
            env!("PERFBENCH_RUSTC"),
            env!("PERFBENCH_PROFILE"),
            self.workload,
            self.seed,
            u8::from(traced),
            self.input_digest,
        )
    }
}

/// Set up and run `workload` for `seconds`, tracing when `traced`.
/// `Err` only when set-up itself fails; output and self-check failures
/// are in the report.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Report, Provenance), String> {
    let mut setup = Vec::new();
    let mut set_up = || -> Result<(Corpus, Option<serve::Live>), String> {
        let t = Instant::now();
        let corpus = Corpus::generate(workload, seed, seconds);
        let live = match workload {
            Workload::ServeMix => Some(
                serve::Live::start(&corpus, serve::connections())
                    .map_err(|e| format!("server set-up: {e}"))?,
            ),
            _ => None,
        };
        setup.push(t.elapsed().as_secs_f64());
        Ok((corpus, live))
    };
    let tear_down = |live: Option<serve::Live>| match live {
        Some(live) => live.stop().map_err(|e| format!("server shutdown: {e}")),
        None => Ok(()),
    };
    let serving = workload == Workload::ServeMix;
    let (before, after) = if serving { (SETUP_REPS / 2, (SETUP_REPS - 1) / 2) } else { (0, 0) };
    for _ in 0..before {
        tear_down(set_up()?.1)?;
    }
    let (corpus, live) = set_up()?;
    let mut again = || tear_down(set_up()?.1);

    let mut digest = corpus.digest();
    let mut report = match &live {
        Some(live) => {
            let arrivals = serve::schedule(
                seed,
                corpus.instances.len(),
                serve::connections(),
                seconds,
                traced,
            );
            serve::schedule_digest(&mut digest, &arrivals);
            serve::run(&corpus, live, seconds, traced)
        }
        None => plan::run(&corpus, traced, SETUP_REPS - 1, &mut again),
    };
    if let Err(e) = tear_down(live) {
        report.fail_check(e);
    }
    for _ in 0..after {
        again()?;
    }

    report.set("setup_s", quantile(&setup, 0.5));
    report.set("bench.peak_rss_mb", peak_rss_mb());
    report.check_finite();
    if report.attempted == 0 {
        report.fail_check("no operation ran".into());
    }
    let prov = Provenance { workload: workload.name(), seed, input_digest: digest.value() };
    Ok((report, prov))
}
