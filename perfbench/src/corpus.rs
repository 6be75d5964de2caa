//! Seeded workload inputs.
//!
//! Every workload draws its instances from `sekitei_topology::scenarios`:
//! the paper's Tiny/Small/Large grid plus `random_media` Waxman and
//! Barabási–Albert draws. Draw sizes are stratified (one draw per size
//! band, jittered by the seed) so every seed gets the same mix of sizes,
//! models and level scenarios and only the graphs differ. Each instance is
//! printed to spec text with `sekitei_spec::print_problem`; the timed
//! paths start from that text at `parse_problem`.

use crate::rng::{salted, shuffle, Digest};
use sekitei_model::{CppProblem, LevelScenario};
use sekitei_topology::scenarios::{self, NetSize, RandomMediaConfig, RandomModel};
use sekitei_util::SplitMix64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compile-heavy exact planning: Large/C–E and 32–64-node D/E draws.
    PlanFine,
    /// Search-heavy exact planning: Small/A–E, Large/A–B and 16–48-node
    /// B/C draws.
    PlanCoarse,
    /// Anytime planning under 10/50/250 ms deadlines on scenario-A inputs.
    PlanDeadline,
    /// Open-loop Zipf traffic against an in-process server: Tiny/Small
    /// grid plus 12–32-node C–D draws.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::PlanFine, Workload::PlanCoarse, Workload::PlanDeadline, Workload::ServeMix];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanFine => "plan-fine",
            Workload::PlanCoarse => "plan-coarse",
            Workload::PlanDeadline => "plan-deadline",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One input instance, as the spec text the timed path parses.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Human-readable origin, e.g. `large-E` or `waxman-41-D`.
    pub label: String,
    /// `print_problem` output.
    pub spec: String,
    /// Deadlines this instance is planned under (`plan-deadline` only):
    /// every deadline for the grid instances, one per random draw.
    pub deadlines_ms: Vec<u64>,
}

/// A workload's seeded instance list.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The workload the corpus belongs to.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Instances in a seed-dependent order.
    pub instances: Vec<Instance>,
}

/// Deadlines of `plan-deadline`, in milliseconds.
pub const DEADLINES_MS: [u64; 3] = [10, 50, 250];

/// Draws per size band, model and level scenario per second of run time:
/// `plan-fine` (32–64 nodes in four bands, Waxman and Barabási–Albert, D
/// and E), `plan-coarse` (16–48 nodes in four bands, both models, B and C)
/// and `plan-deadline` (12–24 nodes in three bands, both models, scenario
/// A). Sized so that the planning passes of a run take about the run's
/// length on a 2-core x86-64 machine.
pub const FINE_DRAWS_PER_S: f64 = 0.2;
/// See [`FINE_DRAWS_PER_S`].
pub const COARSE_DRAWS_PER_S: f64 = 0.35;
/// See [`FINE_DRAWS_PER_S`].
pub const DEADLINE_DRAWS_PER_S: f64 = 1.0;

/// Draws per size band, model and level scenario of `serve-mix` (12–32
/// nodes in five bands, both models, C and D): 160 draws on top of the 10
/// Tiny/Small grid instances, more than the server's outcome cache holds.
/// B and E draws are left out: some of them search until the server's 2 s
/// deadline (B: long searches; E: the drain-mode give-up), a deadline
/// outcome is never cached, so one such draw stalls its connection for
/// 2 s on every request and the seed decides the result. They are
/// measured on `plan-coarse` (B) and `plan-fine` (E) instead.
pub const SERVE_PER_BAND: usize = 8;

/// A generated instance before printing: label, problem, deadlines.
type Drawn = (String, CppProblem, Vec<u64>);

fn grid(size: NetSize, sc: LevelScenario) -> Drawn {
    (format!("{}-{sc:?}", size.label().to_lowercase()), scenarios::problem(size, sc), Vec::new())
}

fn draw(rng: &mut SplitMix64, model: RandomModel, nodes: usize, sc: LevelScenario) -> Drawn {
    let cfg = RandomMediaConfig {
        model,
        nodes,
        scenario: sc,
        seed: rng.next_u64(),
        ..Default::default()
    };
    let name = match model {
        RandomModel::Waxman => "waxman",
        RandomModel::BarabasiAlbert => "ba",
    };
    (format!("{name}-{nodes}-{sc:?}"), scenarios::random_media(&cfg), Vec::new())
}

/// `per_band` draws per size band `lo + width·i ..= lo + width·(i+1)`,
/// per model, per level scenario.
fn stratified(
    rng: &mut SplitMix64,
    (lo, width, bands): (usize, usize, usize),
    levels: &[LevelScenario],
    per_band: usize,
) -> Vec<Drawn> {
    let mut out = Vec::new();
    for band in 0..bands {
        for model in [RandomModel::Waxman, RandomModel::BarabasiAlbert] {
            for &sc in levels {
                for _ in 0..per_band {
                    let nodes = lo + width * band + rng.below(width as u64 + 1) as usize;
                    out.push(draw(rng, model, nodes, sc));
                }
            }
        }
    }
    out
}

impl Corpus {
    /// The corpus of `workload` for `seed`, with as many random draws as
    /// a run of `seconds` calls for. Pure: the same arguments give the
    /// same instances in the same order.
    pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Corpus {
        use LevelScenario::{A, B, C, D, E};
        let mut rng = salted(seed, 1 + workload as u64);
        let per_band = |rate: f64| ((seconds * rate).round() as usize).max(1);
        let mut problems: Vec<Drawn> = match workload {
            Workload::PlanFine => {
                let mut v: Vec<_> = [C, D, E].iter().map(|&sc| grid(NetSize::Large, sc)).collect();
                v.extend(stratified(&mut rng, (32, 8, 4), &[D, E], per_band(FINE_DRAWS_PER_S)));
                v
            }
            Workload::PlanCoarse => {
                let mut v: Vec<_> =
                    [A, B, C, D, E].iter().map(|&sc| grid(NetSize::Small, sc)).collect();
                v.extend([A, B].iter().map(|&sc| grid(NetSize::Large, sc)));
                v.extend(stratified(&mut rng, (16, 8, 4), &[B, C], per_band(COARSE_DRAWS_PER_S)));
                v
            }
            Workload::PlanDeadline => {
                let mut v =
                    vec![grid(NetSize::Small, A), grid(NetSize::Large, A), grid(NetSize::Large, B)];
                for g in &mut v {
                    g.2 = DEADLINES_MS.to_vec();
                }
                let draws = stratified(&mut rng, (12, 4, 3), &[A], per_band(DEADLINE_DRAWS_PER_S));
                // each draw gets one deadline, evenly across the three
                v.extend(draws.into_iter().enumerate().map(|(k, mut d)| {
                    d.2 = vec![DEADLINES_MS[k % DEADLINES_MS.len()]];
                    d
                }));
                v
            }
            Workload::ServeMix => {
                let mut v = Vec::new();
                for size in [NetSize::Tiny, NetSize::Small] {
                    v.extend(LevelScenario::ALL.iter().map(|&sc| grid(size, sc)));
                }
                v.extend(stratified(&mut rng, (12, 4, 5), &[C, D], SERVE_PER_BAND));
                v
            }
        };
        // the order is part of the input: plan workloads run it as the
        // pass order, serve-mix as the Zipf popularity ranking
        shuffle(&mut rng, &mut problems);
        let instances = problems
            .into_iter()
            .map(|(label, p, deadlines_ms)| Instance {
                label,
                spec: sekitei_spec::print_problem(&p),
                deadlines_ms,
            })
            .collect();
        Corpus { workload, seed, instances }
    }

    /// Digest of the workload and every instance's label and spec text in
    /// order: two runs with equal digests had identical inputs. The seed
    /// itself is left out, so two seeds that drew the same inputs would
    /// show it.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        d.bytes(self.workload.name().as_bytes());
        for inst in &self.instances {
            d.bytes(inst.label.as_bytes()).bytes(inst.spec.as_bytes());
            for &ms in &inst.deadlines_ms {
                d.u64(ms);
            }
        }
        d
    }
}
