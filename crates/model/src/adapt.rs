//! Deployment adaptation and repair (the paper's §6 future-work item):
//! replan an application whose environment changed, **reusing or
//! migrating** already-deployed components instead of paying for fresh
//! instantiations — "separate operators are necessary, because the cost of
//! migration differs from that of the initial deployment".
//!
//! The encoding is a pure problem transformation, so the ordinary planner
//! solves adaptation problems unchanged: for every component with existing
//! instances we add a *static* per-node marker resource
//! `deployed_<comp>` (1 on nodes hosting an instance, 0 elsewhere) and
//! rewrite the component's placement-cost formula to
//!
//! ```text
//! deployed · keep_cost  +  (1 − deployed) · migration_factor · original
//! ```
//!
//! Keeping a component where it already runs is (nearly) free; placing it
//! anywhere else pays the migration tariff. Because the marker is a static
//! resource, grounding evaluates it exactly, so the planner's cost lower
//! bounds — and therefore its optimality — are unaffected in precision.
//! Resource consumption is recomputed from scratch for the whole adapted
//! deployment (capacities in the problem are full capacities, not
//! residuals), which matches the repair semantics of tearing down the old
//! flow assignments and re-establishing them.

use crate::expr::Expr;
use crate::ids::NodeId;
use crate::problem::{CppProblem, StreamSource};
use crate::resource::{Elasticity, ResourceDef};
use crate::SpecVar;

/// A component instance currently running in the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExistingPlacement {
    /// Component name.
    pub component: String,
    /// Host node.
    pub node: NodeId,
}

/// The state of an existing deployment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExistingDeployment {
    /// Running component instances.
    pub placements: Vec<ExistingPlacement>,
    /// Streams that remain available independently of replanning (e.g.
    /// a long-lived GridFTP staging area). Flows produced by the existing
    /// components themselves are *not* listed — the adapted plan re-derives
    /// them.
    pub streams: Vec<StreamSource>,
}

impl ExistingDeployment {
    /// True when nothing is deployed (adaptation degenerates to planning).
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty() && self.streams.is_empty()
    }
}

/// Cost model for adaptation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptConfig {
    /// Cost of keeping a component on its current node (re-binding its
    /// streams is cheap but not free).
    pub keep_cost: f64,
    /// Multiplier applied to the component's original placement-cost
    /// formula when it must move (state transfer + cold start typically
    /// exceeds a fresh instantiation; the paper only says it *differs*).
    pub migration_factor: f64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig { keep_cost: 0.5, migration_factor: 1.5 }
    }
}

/// Name of the static marker resource for a component.
pub fn deployed_marker(component: &str) -> String {
    format!("deployed_{component}")
}

/// Build the adaptation problem: `base` (with its — possibly changed —
/// network) plus the keep/migrate cost structure induced by `existing`.
///
/// Returns an ordinary [`CppProblem`]; solve it with the ordinary planner.
/// Panics if `existing` references unknown components or nodes (callers
/// derive it from a previous plan, so a mismatch is a programming error).
///
/// ```
/// use sekitei_model::adapt::{adapt_problem, AdaptConfig};
/// use sekitei_model::{
///     media_domain, CppProblem, ExistingDeployment, ExistingPlacement, Goal, LevelScenario,
///     LinkClass, Network, NodeId, StreamSource,
/// };
///
/// // a two-node media problem
/// let mut net = Network::new();
/// let s = net.add_node("s", [("cpu", 30.0)]);
/// let k = net.add_node("k", [("cpu", 30.0)]);
/// net.add_link(s, k, LinkClass::Wan, [("lbw", 70.0)]);
/// let d = media_domain(LevelScenario::C);
/// let base = CppProblem {
///     network: net,
///     resources: d.resources,
///     interfaces: d.interfaces,
///     components: d.components,
///     sources: vec![StreamSource::up_to("M", s, "ibw", 200.0)],
///     pre_placed: vec![],
///     goals: vec![Goal { component: "Client".into(), node: k }],
/// };
/// let existing = ExistingDeployment {
///     placements: vec![ExistingPlacement { component: "Splitter".into(), node: s }],
///     streams: vec![],
/// };
/// let adapted = adapt_problem(&base, &existing, &AdaptConfig::default());
/// // a static marker resource now prices keeping vs migrating the Splitter
/// assert!(adapted.resource("deployed_Splitter").is_some());
/// ```
pub fn adapt_problem(
    base: &CppProblem,
    existing: &ExistingDeployment,
    cfg: &AdaptConfig,
) -> CppProblem {
    let mut p = base.clone();
    // components with at least one running instance
    let mut touched: Vec<&str> = existing
        .placements
        .iter()
        .map(|e| {
            assert!(
                p.comp_id(&e.component).is_some(),
                "existing placement references unknown component `{}`",
                e.component
            );
            assert!(
                e.node.index() < p.network.num_nodes(),
                "existing placement references node {} outside the network",
                e.node
            );
            e.component.as_str()
        })
        .collect();
    touched.sort_unstable();
    touched.dedup();

    for name in touched {
        let marker = deployed_marker(name);
        let mut def = ResourceDef::node(marker.clone());
        def.consumable = false;
        def.elasticity = Elasticity::Rigid;
        p.resources.push(def);

        // stamp the marker onto hosting nodes (absent ⇒ capacity 0)
        let hosts: Vec<NodeId> =
            existing.placements.iter().filter(|e| e.component == name).map(|e| e.node).collect();
        for node in hosts {
            p.network.set_node_capacity(node, marker.clone(), 1.0);
        }

        let idx = p.comp_id(name).expect("checked above").index();
        let original = p.components[idx].cost.clone();
        let d = || Expr::var(SpecVar::node(marker.clone()));
        p.components[idx].cost = d() * Expr::c(cfg.keep_cost)
            + (Expr::c(1.0) - d()) * (Expr::c(cfg.migration_factor) * original);
    }

    p.sources.extend(existing.streams.iter().cloned());
    debug_assert!(p.validate().is_ok());
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{media_domain, LevelScenario};
    use crate::network::{LinkClass, Network};
    use crate::problem::Goal;
    use crate::resource::names::{CPU, LBW};

    fn base() -> CppProblem {
        let mut net = Network::new();
        let a = net.add_node("a", [(CPU, 30.0)]);
        let b = net.add_node("b", [(CPU, 30.0)]);
        net.add_link(a, b, LinkClass::Wan, [(LBW, 70.0)]);
        let d = media_domain(LevelScenario::C);
        CppProblem {
            network: net,
            resources: d.resources,
            interfaces: d.interfaces,
            components: d.components,
            sources: vec![StreamSource::up_to("M", a, "ibw", 200.0)],
            pre_placed: vec![],
            goals: vec![Goal { component: "Client".into(), node: b }],
        }
    }

    #[test]
    fn adapt_adds_markers_and_rewrites_costs() {
        let p = base();
        let existing = ExistingDeployment {
            placements: vec![
                ExistingPlacement { component: "Splitter".into(), node: NodeId(0) },
                ExistingPlacement { component: "Client".into(), node: NodeId(1) },
            ],
            streams: vec![],
        };
        let q = adapt_problem(&p, &existing, &AdaptConfig::default());
        q.validate().unwrap();
        assert!(q.resource(&deployed_marker("Splitter")).is_some());
        assert!(q.resource(&deployed_marker("Client")).is_some());
        assert!(q.resource(&deployed_marker("Zip")).is_none());
        assert_eq!(q.network.node_capacity(NodeId(0), &deployed_marker("Splitter")), 1.0);
        assert_eq!(q.network.node_capacity(NodeId(1), &deployed_marker("Splitter")), 0.0);

        // keep cost: Splitter at node a with M = 100 → 0.5
        let idx = q.comp_id("Splitter").unwrap().index();
        let cost = &q.components[idx].cost;
        let at = |deployed: f64| {
            cost.eval(&mut |v: &SpecVar| match v {
                SpecVar::Node { res } if res == CPU => 30.0,
                SpecVar::Node { .. } => deployed,
                _ => 100.0,
            })
        };
        assert!((at(1.0) - 0.5).abs() < 1e-9, "keep = {}", at(1.0));
        // migrate: 1.5 × (1 + 100/10) = 16.5
        assert!((at(0.0) - 16.5).abs() < 1e-9, "migrate = {}", at(0.0));
    }

    #[test]
    fn adapt_keeps_network_structure() {
        let p = base();
        let existing = ExistingDeployment {
            placements: vec![ExistingPlacement { component: "Zip".into(), node: NodeId(0) }],
            streams: vec![],
        };
        let q = adapt_problem(&p, &existing, &AdaptConfig::default());
        assert_eq!(q.network.num_nodes(), p.network.num_nodes());
        assert_eq!(q.network.num_links(), p.network.num_links());
        assert!(q.network.link_between(NodeId(0), NodeId(1)).is_some());
        // untouched resources intact
        assert_eq!(q.network.node_capacity(NodeId(0), CPU), 30.0);
    }

    #[test]
    fn adapt_appends_streams() {
        let p = base();
        let existing = ExistingDeployment {
            placements: vec![],
            streams: vec![StreamSource::up_to("Z", NodeId(1), "ibw", 35.0)],
        };
        let q = adapt_problem(&p, &existing, &AdaptConfig::default());
        assert_eq!(q.sources.len(), 2);
        assert!(!existing.is_empty());
        assert!(ExistingDeployment::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown component")]
    fn adapt_rejects_unknown_component() {
        let p = base();
        let existing = ExistingDeployment {
            placements: vec![ExistingPlacement { component: "Ghost".into(), node: NodeId(0) }],
            streams: vec![],
        };
        adapt_problem(&p, &existing, &AdaptConfig::default());
    }
}
