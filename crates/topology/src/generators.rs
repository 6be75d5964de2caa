//! Network generators.
//!
//! The paper's 93-node *Large* network was produced with the GeorgiaTech
//! ITM tool [Zegura et al., Infocom'96]; the tool is not available as a
//! library, so [`transit_stub`] reimplements its structural model: a core
//! of *transit domains* (WAN-connected routers) with *stub domains* (LAN
//! clouds) hanging off each transit node. [`waxman`] provides the classic
//! flat random model used inside domains, and [`line()`]/[`ring`]/[`star`]
//! cover deterministic micro-topologies for tests.

use crate::algo;
use sekitei_model::{LinkClass, Network, NodeId};
use sekitei_util::Xoshiro256pp;

/// Resource capacities applied uniformly by the generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Capacities {
    /// CPU capacity of every node.
    pub node_cpu: f64,
    /// Bandwidth of LAN (intra-stub) links.
    pub lan_bw: f64,
    /// Bandwidth of WAN (transit and transit-stub) links.
    pub wan_bw: f64,
}

impl Default for Capacities {
    /// The paper's §4.1 values: LAN 150, WAN 70, CPU 30.
    fn default() -> Self {
        Capacities { node_cpu: 30.0, lan_bw: 150.0, wan_bw: 70.0 }
    }
}

fn add_node(net: &mut Network, name: String, caps: &Capacities) -> NodeId {
    net.add_node(name, [(sekitei_model::resource::names::CPU, caps.node_cpu)])
}

fn add_link(net: &mut Network, a: NodeId, b: NodeId, class: LinkClass, caps: &Capacities) {
    let bw = match class {
        LinkClass::Lan => caps.lan_bw,
        _ => caps.wan_bw,
    };
    net.add_link(a, b, class, [(sekitei_model::resource::names::LBW, bw)]);
}

/// A line `n0 - n1 - … - n(k-1)` with the given per-link classes
/// (`classes.len()` links, `classes.len() + 1` nodes).
pub fn line(classes: &[LinkClass], caps: &Capacities) -> Network {
    let mut net = Network::new();
    let nodes: Vec<_> =
        (0..=classes.len()).map(|i| add_node(&mut net, format!("n{i}"), caps)).collect();
    for (i, &c) in classes.iter().enumerate() {
        add_link(&mut net, nodes[i], nodes[i + 1], c, caps);
    }
    net
}

/// A ring of `n` nodes (all links the same class).
pub fn ring(n: usize, class: LinkClass, caps: &Capacities) -> Network {
    assert!(n >= 3, "ring needs at least 3 nodes");
    let mut net = Network::new();
    let nodes: Vec<_> = (0..n).map(|i| add_node(&mut net, format!("n{i}"), caps)).collect();
    for i in 0..n {
        add_link(&mut net, nodes[i], nodes[(i + 1) % n], class, caps);
    }
    net
}

/// A star: hub `n0` with `n - 1` leaves.
pub fn star(n: usize, class: LinkClass, caps: &Capacities) -> Network {
    assert!(n >= 2, "star needs at least 2 nodes");
    let mut net = Network::new();
    let hub = add_node(&mut net, "n0".into(), caps);
    for i in 1..n {
        let leaf = add_node(&mut net, format!("n{i}"), caps);
        add_link(&mut net, hub, leaf, class, caps);
    }
    net
}

/// Waxman random graph: nodes scattered on the unit square; edge
/// probability `alpha * exp(-d / (beta * sqrt(2)))` for distance `d`.
/// A random spanning tree guarantees connectivity first.
pub fn waxman(n: usize, alpha: f64, beta: f64, seed: u64, caps: &Capacities) -> Network {
    assert!(n >= 1);
    let mut rng = Xoshiro256pp::new(seed);
    let mut net = Network::new();
    let pos: Vec<(f64, f64)> = (0..n).map(|_| (rng.unit(), rng.unit())).collect();
    let nodes: Vec<_> = (0..n).map(|i| add_node(&mut net, format!("w{i}"), caps)).collect();
    // spanning tree: attach each node to a random earlier node
    for i in 1..n {
        let j = rng.below(i as u64) as usize;
        add_link(&mut net, nodes[i], nodes[j], LinkClass::Wan, caps);
    }
    // Waxman extra edges
    for i in 0..n {
        for j in (i + 1)..n {
            if net.link_between(nodes[i], nodes[j]).is_some() {
                continue;
            }
            let d = ((pos[i].0 - pos[j].0).powi(2) + (pos[i].1 - pos[j].1).powi(2)).sqrt();
            let p = alpha * (-d / (beta * std::f64::consts::SQRT_2)).exp();
            if rng.unit() < p {
                add_link(&mut net, nodes[i], nodes[j], LinkClass::Wan, caps);
            }
        }
    }
    net
}

/// Barabási–Albert preferential-attachment graph: each new node attaches
/// to `m` existing nodes with probability proportional to their degree.
/// Produces the heavy-tailed degree distributions typical of router-level
/// internet maps — a rougher alternative to [`transit_stub`].
pub fn barabasi_albert(n: usize, m: usize, seed: u64, caps: &Capacities) -> Network {
    assert!(n > m && m >= 1, "need n > m >= 1");
    let mut rng = Xoshiro256pp::new(seed);
    let mut net = Network::new();
    let nodes: Vec<_> = (0..n).map(|i| add_node(&mut net, format!("b{i}"), caps)).collect();
    // degree-weighted endpoint pool (each edge contributes both endpoints)
    let mut pool: Vec<usize> = Vec::new();
    // seed clique over the first m+1 nodes
    for i in 0..=m {
        for j in (i + 1)..=m {
            add_link(&mut net, nodes[i], nodes[j], LinkClass::Wan, caps);
            pool.push(i);
            pool.push(j);
        }
    }
    for i in (m + 1)..n {
        let mut targets = Vec::with_capacity(m);
        let mut guard = 0;
        while targets.len() < m {
            let pick = pool[rng.below(pool.len() as u64) as usize];
            if !targets.contains(&pick) {
                targets.push(pick);
            }
            guard += 1;
            if guard > 64 * m {
                // fall back to uniform choice among untaken nodes
                for j in 0..i {
                    if targets.len() == m {
                        break;
                    }
                    if !targets.contains(&j) {
                        targets.push(j);
                    }
                }
            }
        }
        for &t in &targets {
            add_link(&mut net, nodes[i], nodes[t], LinkClass::Wan, caps);
            pool.push(i);
            pool.push(t);
        }
    }
    net
}

/// Configuration of the transit-stub generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    /// Transit (core) nodes, connected in a ring plus random chords.
    pub transit_nodes: usize,
    /// Probability of a chord between two non-adjacent transit nodes.
    pub transit_extra_edge_prob: f64,
    /// Stub domains attached to each transit node.
    pub stubs_per_transit: usize,
    /// Nodes per stub domain.
    pub stub_size: usize,
    /// Probability of an extra intra-stub edge beyond the spanning tree.
    pub stub_extra_edge_prob: f64,
    /// Uniform capacities.
    pub capacities: Capacities,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl Default for TransitStubConfig {
    /// The configuration reproducing the paper's 93-node Figure 10 network:
    /// 3 transit nodes × 3 stubs each × 10 nodes per stub + 3 core = 93.
    fn default() -> Self {
        TransitStubConfig {
            transit_nodes: 3,
            transit_extra_edge_prob: 0.3,
            stubs_per_transit: 3,
            stub_size: 10,
            stub_extra_edge_prob: 0.15,
            capacities: Capacities::default(),
            seed: 0x05EB_17E1,
        }
    }
}

/// A generated transit-stub network plus the structural indices scenario
/// builders need.
#[derive(Debug, Clone)]
pub struct TransitStub {
    /// The network.
    pub net: Network,
    /// Core transit nodes.
    pub transit: Vec<NodeId>,
    /// `gateways[t][s]` = the stub node of stub `s` of transit node `t`
    /// that carries the WAN uplink.
    pub gateways: Vec<Vec<NodeId>>,
    /// `members[t][s]` = all nodes of that stub (gateway first).
    pub members: Vec<Vec<Vec<NodeId>>>,
}

/// Generate a transit-stub network (GT-ITM structural model).
///
/// Transit nodes form a ring (guaranteeing core connectivity) with random
/// chords; each stub is a random tree plus extra LAN edges, and its
/// gateway connects to its transit node by a WAN link.
pub fn transit_stub(cfg: &TransitStubConfig) -> TransitStub {
    assert!(cfg.transit_nodes >= 1);
    assert!(cfg.stub_size >= 1);
    let caps = &cfg.capacities;
    let mut rng = Xoshiro256pp::new(cfg.seed);
    let mut net = Network::new();

    let transit: Vec<_> =
        (0..cfg.transit_nodes).map(|i| add_node(&mut net, format!("t{i}"), caps)).collect();
    if cfg.transit_nodes > 1 {
        for i in 0..cfg.transit_nodes {
            let j = (i + 1) % cfg.transit_nodes;
            if net.link_between(transit[i], transit[j]).is_none() {
                add_link(&mut net, transit[i], transit[j], LinkClass::Wan, caps);
            }
        }
        for i in 0..cfg.transit_nodes {
            for j in (i + 2)..cfg.transit_nodes {
                if net.link_between(transit[i], transit[j]).is_none()
                    && rng.unit() < cfg.transit_extra_edge_prob
                {
                    add_link(&mut net, transit[i], transit[j], LinkClass::Wan, caps);
                }
            }
        }
    }

    let mut gateways = Vec::with_capacity(cfg.transit_nodes);
    let mut members = Vec::with_capacity(cfg.transit_nodes);
    for (t, &tn) in transit.iter().enumerate() {
        let mut t_gws = Vec::with_capacity(cfg.stubs_per_transit);
        let mut t_members = Vec::with_capacity(cfg.stubs_per_transit);
        for s in 0..cfg.stubs_per_transit {
            let nodes: Vec<_> = (0..cfg.stub_size)
                .map(|i| add_node(&mut net, format!("s{t}_{s}_{i}"), caps))
                .collect();
            // random spanning tree rooted at the gateway (nodes[0])
            for i in 1..cfg.stub_size {
                let j = rng.below(i as u64) as usize;
                add_link(&mut net, nodes[i], nodes[j], LinkClass::Lan, caps);
            }
            // extra LAN edges
            for i in 0..cfg.stub_size {
                for j in (i + 1)..cfg.stub_size {
                    if net.link_between(nodes[i], nodes[j]).is_none()
                        && rng.unit() < cfg.stub_extra_edge_prob
                    {
                        add_link(&mut net, nodes[i], nodes[j], LinkClass::Lan, caps);
                    }
                }
            }
            // WAN uplink
            add_link(&mut net, nodes[0], tn, LinkClass::Wan, caps);
            t_gws.push(nodes[0]);
            t_members.push(nodes);
        }
        gateways.push(t_gws);
        members.push(t_members);
    }

    let ts = TransitStub { net, transit, gateways, members };
    debug_assert!(algo::is_connected(&ts.net), "transit-stub must be connected");
    ts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape() {
        let net = line(&[LinkClass::Lan, LinkClass::Wan, LinkClass::Lan], &Capacities::default());
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_links(), 3);
        assert_eq!(net.link(sekitei_model::LinkId(1)).class, LinkClass::Wan);
        assert_eq!(net.link_capacity(sekitei_model::LinkId(0), "lbw"), 150.0);
        assert_eq!(net.link_capacity(sekitei_model::LinkId(1), "lbw"), 70.0);
    }

    #[test]
    fn ring_and_star() {
        let caps = Capacities::default();
        let r = ring(5, LinkClass::Lan, &caps);
        assert_eq!(r.num_nodes(), 5);
        assert_eq!(r.num_links(), 5);
        assert!(algo::is_connected(&r));
        let s = star(6, LinkClass::Wan, &caps);
        assert_eq!(s.num_links(), 5);
        assert_eq!(s.incident(NodeId(0)).len(), 5);
        assert!(algo::is_connected(&s));
    }

    #[test]
    fn waxman_connected_and_deterministic() {
        let caps = Capacities::default();
        let a = waxman(30, 0.4, 0.3, 42, &caps);
        let b = waxman(30, 0.4, 0.3, 42, &caps);
        assert!(algo::is_connected(&a));
        assert_eq!(a.num_links(), b.num_links());
        assert!(a.num_links() >= 29); // at least the spanning tree
        let c = waxman(30, 0.4, 0.3, 43, &caps);
        // different seed almost surely differs in edge count
        assert!(algo::is_connected(&c));
    }

    #[test]
    fn barabasi_albert_shape() {
        let caps = Capacities::default();
        let net = barabasi_albert(50, 2, 11, &caps);
        assert_eq!(net.num_nodes(), 50);
        // clique(3) + 2 per new node = 3 + 47*2
        assert_eq!(net.num_links(), 3 + 47 * 2);
        assert!(algo::is_connected(&net));
        // preferential attachment: max degree well above the minimum
        let degs: Vec<usize> = net.node_ids().map(|n| net.incident(n).len()).collect();
        let max = *degs.iter().max().unwrap();
        assert!(max >= 8, "hub degree {max} too small for BA");
        // deterministic
        let again = barabasi_albert(50, 2, 11, &caps);
        assert_eq!(net, again);
    }

    #[test]
    fn transit_stub_default_is_93_nodes() {
        let ts = transit_stub(&TransitStubConfig::default());
        assert_eq!(ts.net.num_nodes(), 93);
        assert!(algo::is_connected(&ts.net));
        assert_eq!(ts.transit.len(), 3);
        assert_eq!(ts.gateways.len(), 3);
        assert_eq!(ts.gateways[0].len(), 3);
        assert_eq!(ts.members[0][0].len(), 10);
    }

    #[test]
    fn transit_stub_structure() {
        let ts = transit_stub(&TransitStubConfig::default());
        // every gateway has a WAN uplink to its transit node
        for (t, gws) in ts.gateways.iter().enumerate() {
            for &gw in gws {
                let l = ts.net.link_between(gw, ts.transit[t]).expect("uplink");
                assert_eq!(ts.net.link(l).class, LinkClass::Wan);
            }
        }
        // intra-stub links are LAN
        for stubs in &ts.members {
            for nodes in stubs {
                for &a in nodes {
                    for &b in nodes {
                        if a != b {
                            if let Some(l) = ts.net.link_between(a, b) {
                                assert_eq!(ts.net.link(l).class, LinkClass::Lan);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn transit_stub_deterministic() {
        let a = transit_stub(&TransitStubConfig::default());
        let b = transit_stub(&TransitStubConfig::default());
        assert_eq!(a.net, b.net);
    }

    #[test]
    fn transit_stub_single_transit() {
        let cfg = TransitStubConfig {
            transit_nodes: 1,
            stubs_per_transit: 2,
            stub_size: 4,
            ..TransitStubConfig::default()
        };
        let ts = transit_stub(&cfg);
        assert_eq!(ts.net.num_nodes(), 1 + 2 * 4);
        assert!(algo::is_connected(&ts.net));
    }
}
