//! Golden pins for compiled planning tasks.
//!
//! Each test compiles one problem and feeds a canonical text rendering of
//! the whole task through FNV-1a: the `Debug` form of every ground action
//! (name, kind, preconditions, adds, numeric conditions and effects,
//! optimistic map, post levels, level assignment, cost), the interned
//! propositions and ground variables, the initial state, the goals, the
//! members of every verified orbit and every signature class, and the
//! static-pruning counter. A refactor of grounding, leveling or symmetry
//! detection that moves a single action, interning order, orbit or pruned
//! combination fails here.

use sekitei_compile::{compile, NodeOrbits, PlanningTask};
use sekitei_model::{CppProblem, LevelScenario};
use sekitei_topology::scenarios::{self, NetSize, RandomMediaConfig, RandomModel};
use sekitei_util::Fnv1a;
use std::fmt::{self, Write};

/// A `fmt::Write` sink that hashes the text instead of storing it.
struct Digest(Fnv1a);

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.bytes(s.as_bytes());
        Ok(())
    }
}

fn render_classes(out: &mut Digest, what: &str, classes: &NodeOrbits) {
    for members in classes.orbits() {
        let ids: Vec<u32> = members.iter().map(|n| n.0).collect();
        writeln!(out, "{what} {ids:?}").unwrap();
    }
}

fn digest(task: &PlanningTask) -> u64 {
    let mut out = Digest(Fnv1a::new());
    for a in &task.actions {
        writeln!(out, "action {a:?}").unwrap();
    }
    writeln!(out, "props {:?}", task.props).unwrap();
    writeln!(out, "gvars {:?}", task.gvars).unwrap();
    writeln!(out, "init_props {:?}", task.init_props).unwrap();
    writeln!(out, "init_values {:?}", task.init_values).unwrap();
    writeln!(out, "goal_props {:?}", task.goal_props).unwrap();
    render_classes(&mut out, "orbit", &task.orbits);
    render_classes(&mut out, "class", &task.sig_classes);
    writeln!(out, "pruned {}", task.stats.pruned).unwrap();
    out.0.finish()
}

fn assert_pins(what: &str, problems: impl IntoIterator<Item = CppProblem>, want: &[u64]) {
    let got: Vec<u64> = problems.into_iter().map(|p| digest(&compile(&p).unwrap())).collect();
    let shown: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, want, "{what}: digests [{}]", shown.join(", "));
}

fn grid(size: NetSize) -> Vec<CppProblem> {
    LevelScenario::ALL.iter().map(|&sc| scenarios::problem(size, sc)).collect()
}

#[test]
fn tiny_tasks_are_pinned() {
    assert_pins(
        "tiny A-E",
        grid(NetSize::Tiny),
        &[
            0x65da_4a40_4fab_ec9f,
            0xa61a_2bb7_9631_d456,
            0x4e34_9a28_575d_f028,
            0x9b8e_fff3_22a1_8936,
            0x8d53_599d_d591_313c,
        ],
    );
}

#[test]
fn small_tasks_are_pinned() {
    assert_pins(
        "small A-E",
        grid(NetSize::Small),
        &[
            0x1d1a_e2a8_2fdc_ecd4,
            0x01a8_c4ee_a324_bdc8,
            0xf40b_79b0_734e_cab0,
            0xa710_d70f_ff63_9be0,
            0x075a_5b7e_9574_5fec,
        ],
    );
}

#[test]
fn large_tasks_are_pinned() {
    assert_pins(
        "large A-E",
        grid(NetSize::Large),
        &[
            0x63dc_c51e_91dd_0226,
            0xaf8f_1ebd_cbea_f841,
            0x4bbe_2e72_c976_4621,
            0xdcb6_7e34_c466_b264,
            0xec8b_b03e_3483_2fcc,
        ],
    );
}

#[test]
fn random_media_tasks_are_pinned() {
    let draws = [
        (RandomModel::Waxman, 16, LevelScenario::C, 3),
        (RandomModel::Waxman, 24, LevelScenario::E, 7),
        (RandomModel::BarabasiAlbert, 20, LevelScenario::D, 5),
        (RandomModel::BarabasiAlbert, 32, LevelScenario::B, 11),
    ];
    let problems = draws.iter().map(|&(model, nodes, scenario, seed)| {
        scenarios::random_media(&RandomMediaConfig {
            model,
            nodes,
            scenario,
            seed,
            ..RandomMediaConfig::default()
        })
    });
    assert_pins(
        "random media",
        problems,
        &[
            0x8c7e_6346_0958_8d20,
            0xf5b6_beff_20ca_6a7f,
            0x4fc3_1d48_aa29_a0e9,
            0x080b_f464_fbdb_9d5d,
        ],
    );
}
