//! Golden pins for the spec crate's binary wire forms.
//!
//! Each test encodes one fixed value and compares the FNV-1a digest of
//! the bytes with a recorded constant. The forms are persisted (`SKS1`
//! cache files) and exchanged between processes (`SKT1`, `SKO1`, `SKP1`),
//! so a codec change that moves a single byte must fail here.

use sekitei_model::LevelScenario;
use sekitei_spec::{
    encode, encode_outcome, encode_phases, encode_snapshot_header, encode_snapshot_record,
    WireOutcome, WirePhase, WirePlan, WireSnapshotRecord, WireStats, WireStep, WireStepKind,
};
use sekitei_topology::scenarios;
use sekitei_util::fnv1a;

fn assert_digest(what: &str, bytes: &[u8], want: u64) {
    let got = fnv1a(bytes);
    assert_eq!(got, want, "{what}: digest {got:#018x} over {} bytes", bytes.len());
}

fn outcome() -> WireOutcome {
    WireOutcome {
        plan: Some(WirePlan {
            steps: vec![
                WireStep { name: "place(S,n0)".into(), kind: WireStepKind::Place, cost_lb: 1.0 },
                WireStep {
                    name: "cross(M,n0→n1)".into(), kind: WireStepKind::Cross, cost_lb: 0.5
                },
                WireStep { name: "other".into(), kind: WireStepKind::Other, cost_lb: -0.0 },
            ],
            cost_lower_bound: 1.5,
            degraded: false,
            source_values: vec![(3, 92.5), (11, 0.1)],
        }),
        best_bound: Some(1.25),
        optimality_gap: None,
        stats: WireStats {
            total_actions: 96,
            plrg_props: 40,
            plrg_actions: 97,
            slrg_nodes: 200,
            rg_nodes: 5000,
            rg_open_left: 120,
            replay_prunes: 300,
            candidate_rejects: 2,
            total_time_us: 1234,
            search_time_us: 1000,
            budget_exhausted: false,
            deadline_hit: true,
        },
        certificate: Some(b"SKC1-opaque".to_vec()),
    }
}

#[test]
fn skt1_tiny_c_is_pinned() {
    assert_digest("tiny/C", &encode(&scenarios::tiny(LevelScenario::C)), 0x9d56_e818_12d9_da89);
}

#[test]
fn skt1_large_e_is_pinned() {
    assert_digest("large/E", &encode(&scenarios::large(LevelScenario::E)), 0x41e3_2885_f02e_8712);
}

#[test]
fn sko1_outcome_is_pinned() {
    assert_digest("outcome", &encode_outcome(&outcome()), 0x3691_c25f_6a32_f90e);
}

#[test]
fn skp1_phase_table_is_pinned() {
    let phases = [
        WirePhase { name: "queue_wait".into(), self_ns: 1200, count: 1 },
        WirePhase { name: "search".into(), self_ns: 81_000, count: 3 },
    ];
    assert_digest("phases", &encode_phases(&phases), 0xa02f_1058_02eb_059e);
}

#[test]
fn sks1_header_and_record_are_pinned() {
    let mut file = encode_snapshot_header(0xDEAD_BEEF_CAFE_F00D).to_vec();
    let record = WireSnapshotRecord {
        key: 0x0123_4567_89AB_CDEF,
        class: 4,
        rg_nodes: 5977,
        payload: encode_outcome(&outcome()).to_vec(),
    };
    file.extend_from_slice(&encode_snapshot_record(&record));
    assert_digest("snapshot", &file, 0xe031_1cca_a2e8_e686);
}
