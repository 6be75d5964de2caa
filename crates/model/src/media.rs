//! The canonical media-stream-delivery domain (paper Figure 1).
//!
//! Components: a pre-placed *Server* offering a combined media stream `M`
//! (images + text), a *Client* requiring `M` at a minimum bandwidth, and the
//! auxiliary transformers *Splitter* (`M → T + I`), *Zip* (`T → Z`), *Unzip*
//! (`Z → T`) and *Merger* (`T + I → M`, the paper's Figure 2 spec).
//!
//! Constants are derived from the paper's numbers (see DESIGN.md):
//! `T = 0.7·M`, `I = 0.3·M` (satisfying Figure 2's `T·3 == I·7`),
//! `Z = T/2`, `cpu(Splitter/Merger) = M/5`, `cpu(Zip/Unzip) = T/10`; costs
//! follow §3.1's example form `1 + processed_bw/10`.

use crate::component::{ComponentSpec, InterfaceSpec, SEffect, SpecVar};
use crate::expr::{AssignOp, CmpOp, Cond, Effect, Expr};
use crate::levels::LevelSpec;
use crate::resource::{names, ResourceDef};

/// The five level configurations of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelScenario {
    /// No levels — the original greedy Sekitei.
    A,
    /// `M: [0,100),[100,∞)`.
    B,
    /// `M: [0,90),[90,100),[100,∞)`.
    C,
    /// `M: [0,30),[30,70),[70,90),[90,100),[100,∞)`.
    D,
    /// Scenario D plus link bandwidth levels `[0,31),[31,62),[62,∞)`.
    E,
}

impl LevelScenario {
    /// All scenarios in Table 1 order.
    pub const ALL: [LevelScenario; 5] =
        [LevelScenario::A, LevelScenario::B, LevelScenario::C, LevelScenario::D, LevelScenario::E];

    /// Cutpoints of the M-stream bandwidth levels.
    pub fn m_cutpoints(self) -> Vec<f64> {
        match self {
            LevelScenario::A => vec![],
            LevelScenario::B => vec![100.0],
            LevelScenario::C => vec![90.0, 100.0],
            LevelScenario::D | LevelScenario::E => vec![30.0, 70.0, 90.0, 100.0],
        }
    }

    /// Cutpoints of the link-bandwidth levels.
    pub fn link_cutpoints(self) -> Vec<f64> {
        match self {
            LevelScenario::E => vec![31.0, 62.0],
            _ => vec![],
        }
    }

    /// Scenario label as in the paper.
    pub fn label(self) -> &'static str {
        match self {
            LevelScenario::A => "A",
            LevelScenario::B => "B",
            LevelScenario::C => "C",
            LevelScenario::D => "D",
            LevelScenario::E => "E",
        }
    }
}

/// Tunable constants of the media domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediaConfig {
    /// Client's minimum required `M.ibw` (paper: 90).
    pub client_demand: f64,
    /// Fraction of `M` that is text (`T = split_t · M`; paper-derived 0.7).
    pub split_t: f64,
    /// Compression ratio (`Z = zip_ratio · T`; paper-derived 0.5).
    pub zip_ratio: f64,
    /// Splitter/Merger CPU divisor (`cpu = M / cpu_heavy_div`; paper: 5).
    pub cpu_heavy_div: f64,
    /// Zip/Unzip CPU divisor in T terms (`cpu = T / cpu_light_div`; 10).
    pub cpu_light_div: f64,
    /// Cost divisor: cost = 1 + processed/cost_div (paper §3.1: 10).
    pub cost_div: f64,
    /// Weight of the constant (per-action) part of every cost formula.
    pub action_cost_weight: f64,
    /// Weight of the bandwidth-proportional part of cross costs, relative
    /// to place costs. Used by the Figure 5 tradeoff experiment, where the
    /// relative price of link bandwidth vs node resources decides the plan.
    pub link_cost_weight: f64,
}

impl Default for MediaConfig {
    fn default() -> Self {
        MediaConfig {
            client_demand: 90.0,
            split_t: 0.7,
            zip_ratio: 0.5,
            cpu_heavy_div: 5.0,
            cpu_light_div: 10.0,
            cost_div: 10.0,
            action_cost_weight: 1.0,
            link_cost_weight: 1.0,
        }
    }
}

/// The domain part of a CPP instance (everything but network/state/goals).
#[derive(Debug, Clone, PartialEq)]
pub struct MediaDomain {
    /// Resource catalog (cpu, lbw) with scenario-dependent link levels.
    pub resources: Vec<ResourceDef>,
    /// Interfaces M, T, I, Z with scenario-dependent bandwidth levels.
    pub interfaces: Vec<InterfaceSpec>,
    /// Components Client, Splitter, Zip, Unzip, Merger.
    pub components: Vec<ComponentSpec>,
    /// The config the domain was built with.
    pub config: MediaConfig,
}

fn ibw(iface: &str) -> Expr<SpecVar> {
    Expr::var(SpecVar::iface(iface, "ibw"))
}

fn cpu() -> Expr<SpecVar> {
    Expr::var(SpecVar::node(names::CPU))
}

fn consume_cpu(amount: Expr<SpecVar>) -> SEffect {
    Effect::new(SpecVar::node(names::CPU), AssignOp::Sub, amount)
}

/// Build the media domain with default constants.
pub fn media_domain(scenario: LevelScenario) -> MediaDomain {
    media_domain_with(MediaConfig::default(), scenario)
}

/// Build the media domain with explicit constants.
pub fn media_domain_with(cfg: MediaConfig, scenario: LevelScenario) -> MediaDomain {
    let m_levels = LevelSpec::new(scenario.m_cutpoints()).expect("static cutpoints");
    let link_levels = LevelSpec::new(scenario.link_cutpoints()).expect("static cutpoints");
    let split_i = 1.0 - cfg.split_t;

    let resources =
        vec![ResourceDef::node(names::CPU), ResourceDef::link(names::LBW).with_levels(link_levels)];

    // Interface bandwidth levels proportional to M's (Table 1 note).
    let stream = |name: &str, factor: f64| {
        let cost = Expr::c(cfg.action_cost_weight)
            + ibw(name) * Expr::c(cfg.link_cost_weight / cfg.cost_div);
        let s = InterfaceSpec::bandwidth_stream(name, "ibw", names::LBW).with_cross_cost(cost);
        if m_levels.is_trivial() {
            s // leave trivial levels implicit (keeps printed specs clean)
        } else {
            s.with_levels("ibw", m_levels.scaled(factor))
        }
    };
    let interfaces = vec![
        stream("M", 1.0),
        stream("T", cfg.split_t),
        stream("I", split_i),
        stream("Z", cfg.split_t * cfg.zip_ratio),
    ];

    let place_cost = |processed: Expr<SpecVar>| {
        Expr::c(cfg.action_cost_weight) + processed / Expr::c(cfg.cost_div)
    };

    let client = ComponentSpec::new("Client")
        .requires("M")
        .condition(Cond::new(ibw("M"), CmpOp::Ge, Expr::c(cfg.client_demand)))
        .with_cost(place_cost(ibw("M")));

    let splitter = ComponentSpec::new("Splitter")
        .requires("M")
        .implements("T")
        .implements("I")
        .condition(Cond::new(cpu(), CmpOp::Ge, ibw("M") / Expr::c(cfg.cpu_heavy_div)))
        .effect(Effect::new(
            SpecVar::iface("T", "ibw"),
            AssignOp::Set,
            ibw("M") * Expr::c(cfg.split_t),
        ))
        .effect(Effect::new(SpecVar::iface("I", "ibw"), AssignOp::Set, ibw("M") * Expr::c(split_i)))
        .effect(consume_cpu(ibw("M") / Expr::c(cfg.cpu_heavy_div)))
        .with_cost(place_cost(ibw("M")));

    let zip = ComponentSpec::new("Zip")
        .requires("T")
        .implements("Z")
        .condition(Cond::new(cpu(), CmpOp::Ge, ibw("T") / Expr::c(cfg.cpu_light_div)))
        .effect(Effect::new(
            SpecVar::iface("Z", "ibw"),
            AssignOp::Set,
            ibw("T") * Expr::c(cfg.zip_ratio),
        ))
        .effect(consume_cpu(ibw("T") / Expr::c(cfg.cpu_light_div)))
        .with_cost(place_cost(ibw("T")));

    let unzip = ComponentSpec::new("Unzip")
        .requires("Z")
        .implements("T")
        .condition(Cond::new(
            cpu(),
            CmpOp::Ge,
            ibw("Z") / Expr::c(cfg.cpu_light_div * cfg.zip_ratio),
        ))
        .effect(Effect::new(
            SpecVar::iface("T", "ibw"),
            AssignOp::Set,
            ibw("Z") / Expr::c(cfg.zip_ratio),
        ))
        .effect(consume_cpu(ibw("Z") / Expr::c(cfg.cpu_light_div * cfg.zip_ratio)))
        .with_cost(place_cost(ibw("Z")));

    // Figure 2, verbatim (with the ratio condition generalized to the
    // configured split: T·(1-t) == I·t reduces to T·3 == I·7 at t = 0.7).
    let merger = ComponentSpec::new("Merger")
        .requires("T")
        .requires("I")
        .implements("M")
        .condition(Cond::new(cpu(), CmpOp::Ge, (ibw("T") + ibw("I")) / Expr::c(cfg.cpu_heavy_div)))
        .condition(Cond::new(
            ibw("T") * Expr::c((split_i * 10.0).round()),
            CmpOp::Eq,
            ibw("I") * Expr::c((cfg.split_t * 10.0).round()),
        ))
        .effect(Effect::new(SpecVar::iface("M", "ibw"), AssignOp::Set, ibw("T") + ibw("I")))
        .effect(consume_cpu((ibw("T") + ibw("I")) / Expr::c(cfg.cpu_heavy_div)))
        .with_cost(place_cost(ibw("T") + ibw("I")));

    MediaDomain {
        resources,
        interfaces,
        components: vec![client, splitter, zip, unzip, merger],
        config: cfg,
    }
}

/// Latency model parameters for [`add_latency`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyConfig {
    /// Processing delay added by every transforming component.
    pub proc_delay: f64,
    /// End-to-end deadline imposed on the named client components.
    pub deadline: f64,
}

/// Name of the static per-link delay resource used by [`add_latency`].
pub const DELAY: &str = "delay";

/// Extend a domain with end-to-end latency tracking and a deadline QoS
/// constraint (paper §3.2.3: partial plans whose accumulated latency
/// exceeds the limit are discarded during the RG's replay).
///
/// Every interface gains a `lat` property that accumulates the static
/// per-link `delay` resource on each crossing; every transforming
/// component stamps `out.lat := max(inputs.lat) + proc_delay`; every
/// component named in `clients` gets the condition
/// `input.lat <= deadline`. Network links must carry a `delay` capacity.
pub fn add_latency(domain: &mut MediaDomain, cfg: LatencyConfig, clients: &[&str]) {
    use crate::resource::{Elasticity, ResourceDef};
    if !domain.resources.iter().any(|r| r.name == DELAY) {
        let mut def = ResourceDef::link(DELAY);
        def.consumable = false;
        def.elasticity = Elasticity::Rigid;
        domain.resources.push(def);
    }
    for iface in &mut domain.interfaces {
        if !iface.properties.iter().any(|p| p == "lat") {
            iface.properties.push("lat".to_string());
        }
        let lat = SpecVar::iface(iface.name.clone(), "lat");
        iface.cross_effects.push(Effect::new(
            lat.clone(),
            AssignOp::Set,
            Expr::var(lat) + Expr::var(SpecVar::link(DELAY)),
        ));
    }
    for comp in &mut domain.components {
        if comp.implements.is_empty() {
            // sink component: impose the deadline if requested
            if clients.contains(&comp.name.as_str()) {
                for input in comp.requires.clone() {
                    comp.conditions.push(Cond::new(
                        Expr::var(SpecVar::iface(input, "lat")),
                        CmpOp::Le,
                        Expr::c(cfg.deadline),
                    ));
                }
            }
            continue;
        }
        // out.lat := max over input latencies + processing delay
        let mut inputs = comp.requires.iter();
        let first = inputs.next().expect("transforming component has inputs");
        let mut acc = Expr::var(SpecVar::iface(first.clone(), "lat"));
        for i in inputs {
            acc = acc.max_e(Expr::var(SpecVar::iface(i.clone(), "lat")));
        }
        let stamped = acc + Expr::c(cfg.proc_delay);
        for out in comp.implements.clone() {
            comp.effects.push(Effect::new(
                SpecVar::iface(out, "lat"),
                AssignOp::Set,
                stamped.clone(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_cutpoints_match_table1() {
        assert!(LevelScenario::A.m_cutpoints().is_empty());
        assert_eq!(LevelScenario::B.m_cutpoints(), vec![100.0]);
        assert_eq!(LevelScenario::C.m_cutpoints(), vec![90.0, 100.0]);
        assert_eq!(LevelScenario::D.m_cutpoints(), vec![30.0, 70.0, 90.0, 100.0]);
        assert_eq!(LevelScenario::E.m_cutpoints(), vec![30.0, 70.0, 90.0, 100.0]);
        assert_eq!(LevelScenario::E.link_cutpoints(), vec![31.0, 62.0]);
        assert!(LevelScenario::D.link_cutpoints().is_empty());
    }

    #[test]
    fn domain_shape() {
        let d = media_domain(LevelScenario::D);
        assert_eq!(d.interfaces.len(), 4);
        assert_eq!(d.components.len(), 5);
        let names: Vec<_> = d.components.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["Client", "Splitter", "Zip", "Unzip", "Merger"]);
    }

    #[test]
    fn proportional_levels() {
        let d = media_domain(LevelScenario::C);
        let t = d.interfaces.iter().find(|i| i.name == "T").unwrap();
        assert_eq!(t.levels_of("ibw").cutpoints(), &[63.0, 70.0]);
        let i = d.interfaces.iter().find(|i| i.name == "I").unwrap();
        assert_eq!(i.levels_of("ibw").cutpoints(), &[27.0, 30.0]);
        let z = d.interfaces.iter().find(|i| i.name == "Z").unwrap();
        assert_eq!(z.levels_of("ibw").cutpoints(), &[31.5, 35.0]);
    }

    #[test]
    fn scenario_a_is_trivial() {
        let d = media_domain(LevelScenario::A);
        for i in &d.interfaces {
            assert!(i.levels_of("ibw").is_trivial());
        }
    }

    #[test]
    fn paper_figure2_merger_numbers() {
        let d = media_domain(LevelScenario::C);
        let merger = d.components.iter().find(|c| c.name == "Merger").unwrap();
        let mut env = |v: &SpecVar| match v {
            SpecVar::Iface { iface, .. } if iface == "T" => 63.0,
            SpecVar::Iface { iface, .. } if iface == "I" => 27.0,
            SpecVar::Node { .. } => 30.0,
            _ => panic!(),
        };
        // T·3 == I·7 holds at the 70/30 split
        assert!(merger.conditions.iter().all(|c| c.holds(&mut env)));
        // cost 1 + 90/10 = 10 (paper §3.1)
        assert_eq!(merger.cost.eval(&mut env), 10.0);
        // M := T + I = 90
        assert_eq!(merger.effects[0].value.eval(&mut env), 90.0);
        // cpu consumption = 18
        assert_eq!(merger.effects[1].value.eval(&mut env), 18.0);
    }

    #[test]
    fn scenario1_cpu_numbers() {
        // §2.3: transforming 200 units of M by the Splitter requires 40 CPU
        let d = media_domain(LevelScenario::A);
        let sp = d.components.iter().find(|c| c.name == "Splitter").unwrap();
        let mut env = |v: &SpecVar| match v {
            SpecVar::Iface { .. } => 200.0,
            SpecVar::Node { .. } => 30.0,
            _ => panic!(),
        };
        // condition cpu(30) >= 200/5 = 40 fails
        assert!(!sp.conditions[0].holds(&mut env));
        assert_eq!(sp.effects.last().unwrap().value.eval(&mut env), 40.0);
    }

    #[test]
    fn max_processable_is_about_111() {
        // §4.1: 30 CPU suffices for Splitter+Zip on up to ~111 units of M
        let cfg = MediaConfig::default();
        let m = 111.0;
        let split_cpu = m / cfg.cpu_heavy_div;
        let zip_cpu = (m * cfg.split_t) / cfg.cpu_light_div;
        assert!(split_cpu + zip_cpu <= 30.0 + 1e-9);
        let m2 = 112.0;
        assert!(m2 / cfg.cpu_heavy_div + (m2 * cfg.split_t) / cfg.cpu_light_div > 30.0);
    }

    #[test]
    fn zip_unzip_are_inverse() {
        let d = media_domain(LevelScenario::C);
        let zip = d.components.iter().find(|c| c.name == "Zip").unwrap();
        let unzip = d.components.iter().find(|c| c.name == "Unzip").unwrap();
        let t0 = 63.0;
        let z = zip.effects[0].value.eval(&mut |v: &SpecVar| match v {
            SpecVar::Iface { .. } => t0,
            _ => panic!(),
        });
        assert_eq!(z, 31.5);
        let t1 = unzip.effects[0].value.eval(&mut |v: &SpecVar| match v {
            SpecVar::Iface { .. } => z,
            _ => panic!(),
        });
        assert_eq!(t1, t0);
    }

    #[test]
    fn optimal_lan_reservation_constants() {
        // §4.1/4.2: at M=90 the optimal config needs 27+31.5 = 58.5 units of
        // LAN bandwidth; at M=100 it reserves 30+35 = 65 (Table 2 col 4).
        let cfg = MediaConfig::default();
        for (m, expect) in [(90.0, 58.5), (100.0, 65.0)] {
            let i = m * (1.0 - cfg.split_t);
            let z = m * cfg.split_t * cfg.zip_ratio;
            assert!((i + z - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn add_latency_shapes() {
        let mut d = media_domain(LevelScenario::C);
        add_latency(&mut d, LatencyConfig { proc_delay: 2.0, deadline: 40.0 }, &["Client"]);
        // delay resource registered once, idempotent property add
        assert!(d.resources.iter().any(|r| r.name == DELAY && !r.consumable));
        for i in &d.interfaces {
            assert_eq!(i.properties, vec!["ibw".to_string(), "lat".to_string()]);
            assert_eq!(i.cross_effects.len(), 3); // lbw -=, ibw :=, lat :=
        }
        let client = d.components.iter().find(|c| c.name == "Client").unwrap();
        assert_eq!(client.conditions.len(), 2); // demand + deadline
        let merger = d.components.iter().find(|c| c.name == "Merger").unwrap();
        // merger stamps M.lat := max(T.lat, I.lat) + 2
        let lat_eff = merger
            .effects
            .iter()
            .find(|e| matches!(&e.target, SpecVar::Iface { prop, .. } if prop == "lat"))
            .unwrap();
        let v = lat_eff.value.eval(&mut |sv: &SpecVar| match sv {
            SpecVar::Iface { iface, .. } if iface == "T" => 7.0,
            _ => 3.0,
        });
        assert_eq!(v, 9.0);
    }

    #[test]
    fn latency_accumulates_through_cross_effects() {
        let mut d = media_domain(LevelScenario::C);
        add_latency(&mut d, LatencyConfig { proc_delay: 2.0, deadline: 40.0 }, &["Client"]);
        let m = d.interfaces.iter().find(|i| i.name == "M").unwrap();
        let lat_eff = m
            .cross_effects
            .iter()
            .find(|e| matches!(&e.target, SpecVar::Iface { prop, .. } if prop == "lat"))
            .unwrap();
        let v = lat_eff.value.eval(&mut |sv: &SpecVar| match sv {
            SpecVar::Iface { prop, .. } if prop == "lat" => 10.0,
            SpecVar::Link { res } if res == DELAY => 4.0,
            _ => 0.0,
        });
        assert_eq!(v, 14.0);
    }

    #[test]
    fn domain_validates_in_problem() {
        use crate::network::{LinkClass, Network};
        use crate::problem::{CppProblem, Goal, StreamSource};
        let mut net = Network::new();
        let a = net.add_node("s", [(names::CPU, 30.0)]);
        let b = net.add_node("c", [(names::CPU, 30.0)]);
        net.add_link(a, b, LinkClass::Wan, [(names::LBW, 70.0)]);
        for sc in LevelScenario::ALL {
            let d = media_domain(sc);
            let p = CppProblem {
                network: net.clone(),
                resources: d.resources,
                interfaces: d.interfaces,
                components: d.components,
                sources: vec![StreamSource::up_to("M", a, "ibw", 200.0)],
                pre_placed: vec![],
                goals: vec![Goal { component: "Client".into(), node: b }],
            };
            p.validate().unwrap_or_else(|e| panic!("scenario {:?}: {e}", sc));
        }
    }
}
