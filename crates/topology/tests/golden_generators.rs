//! Golden pins for the seeded network generators.
//!
//! The paper's 93-node Large network and every seeded random topology
//! derive from the generators' RNG stream. Each test renders one
//! generated network as text (names, capacities, link endpoints and
//! classes) and compares its FNV-1a digest with a recorded constant, so
//! a generator or RNG change that moves a single link fails here.

use sekitei_model::Network;
use sekitei_topology::generators::{
    barabasi_albert, transit_stub, waxman, Capacities, TransitStubConfig,
};
use sekitei_util::fnv1a;
use std::fmt::Write;

fn render(net: &Network) -> String {
    let mut out = String::new();
    for (id, n) in net.nodes() {
        writeln!(out, "node {} {} {:?}", id.0, n.name, n.resources).unwrap();
    }
    for (id, l) in net.links() {
        writeln!(out, "link {} {}-{} {:?} {:?}", id.0, l.a.0, l.b.0, l.class, l.resources).unwrap();
    }
    out
}

fn assert_digest(what: &str, net: &Network, want: u64) {
    let text = render(net);
    let got = fnv1a(text.as_bytes());
    assert_eq!(got, want, "{what}: digest {got:#018x} over {} links", net.num_links());
}

#[test]
fn transit_stub_default_is_pinned() {
    let ts = transit_stub(&TransitStubConfig::default());
    assert_eq!((ts.net.num_nodes(), ts.net.num_links()), (93, 144));
    assert_digest("transit-stub", &ts.net, 0x55a6_7b83_da37_57ac);
}

#[test]
fn waxman_is_pinned() {
    assert_digest(
        "waxman",
        &waxman(40, 0.4, 0.3, 42, &Capacities::default()),
        0x1c5b_4485_14b1_c7b5,
    );
}

#[test]
fn barabasi_albert_is_pinned() {
    assert_digest(
        "barabasi-albert",
        &barabasi_albert(50, 2, 11, &Capacities::default()),
        0x31e6_4202_d9be_74f1,
    );
}
