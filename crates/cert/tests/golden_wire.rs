//! Golden pin for the `SKC1` certificate encoding: the certificate the
//! planner issues for Tiny/C must encode to the recorded bytes, so a
//! codec change that moves a single byte fails here.

use sekitei_cert::{decode_certificate, encode_certificate};
use sekitei_model::LevelScenario;
use sekitei_planner::Planner;
use sekitei_topology::scenarios;
use sekitei_util::fnv1a;

#[test]
fn skc1_tiny_c_is_pinned() {
    let o = Planner::default().plan(&scenarios::tiny(LevelScenario::C)).unwrap();
    let cert = o.plan.expect("tiny C solves").certificate.expect("plans carry a certificate");
    let bytes = encode_certificate(&cert);
    let got = fnv1a(&bytes);
    assert_eq!(
        got,
        0xee73_5dea_aa2f_0b8a,
        "SKC1 tiny/C: digest {got:#018x} over {} bytes",
        bytes.len()
    );
    assert_eq!(decode_certificate(&bytes).unwrap(), cert);
}
