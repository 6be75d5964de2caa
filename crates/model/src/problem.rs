//! The complete component placement problem (CPP) instance.

use crate::component::{ComponentSpec, InterfaceSpec, Placement, SpecVar};
use crate::error::ModelError;
use crate::ids::{CompId, IfaceId, NodeId};
use crate::interval::Interval;
use crate::network::Network;
use crate::resource::{Locus, ResourceDef};
use std::collections::BTreeMap;
use std::collections::HashSet;

/// A stream made available by the environment (e.g. the media server's M
/// stream): the interface exists on `node` with each property available in
/// a given range (`ibw ∈ [0, 200]` for "can produce up to 200 units").
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSource {
    /// Interface name.
    pub iface: String,
    /// Node where the stream originates.
    pub node: NodeId,
    /// Available property ranges (property name → producible interval).
    pub properties: BTreeMap<String, Interval>,
}

impl StreamSource {
    /// Source producing up to `max` units of the single property `prop`.
    pub fn up_to(iface: impl Into<String>, node: NodeId, prop: &str, max: f64) -> Self {
        StreamSource {
            iface: iface.into(),
            node,
            properties: [(prop.to_string(), Interval::new(0.0, max))].into(),
        }
    }
}

/// A component pre-placed by the environment (counts as already deployed;
/// consumes no plan actions and no resources).
#[derive(Debug, Clone, PartialEq)]
pub struct PrePlacement {
    /// Component name.
    pub component: String,
    /// Host node.
    pub node: NodeId,
}

/// A deployment goal: the named component must end up placed on the node.
#[derive(Debug, Clone, PartialEq)]
pub struct Goal {
    /// Component name.
    pub component: String,
    /// Required host node.
    pub node: NodeId,
}

/// A full CPP instance: network + domain + initial state + goals.
#[derive(Debug, Clone, PartialEq)]
pub struct CppProblem {
    /// The network topology and resource capacities.
    pub network: Network,
    /// Resource catalog (cpu, lbw, ...), including level specs.
    pub resources: Vec<ResourceDef>,
    /// Interface (stream) type specifications.
    pub interfaces: Vec<InterfaceSpec>,
    /// Component type specifications.
    pub components: Vec<ComponentSpec>,
    /// Streams available in the initial state.
    pub sources: Vec<StreamSource>,
    /// Components already deployed in the initial state.
    pub pre_placed: Vec<PrePlacement>,
    /// Deployment goals (conjunction).
    pub goals: Vec<Goal>,
}

impl CppProblem {
    /// Find an interface id by name.
    pub fn iface_id(&self, name: &str) -> Option<IfaceId> {
        self.interfaces.iter().position(|i| i.name == name).map(IfaceId::from_index)
    }

    /// Find a component id by name.
    pub fn comp_id(&self, name: &str) -> Option<CompId> {
        self.components.iter().position(|c| c.name == name).map(CompId::from_index)
    }

    /// Interface spec by id.
    pub fn iface(&self, id: IfaceId) -> &InterfaceSpec {
        &self.interfaces[id.index()]
    }

    /// Component spec by id.
    pub fn component(&self, id: CompId) -> &ComponentSpec {
        &self.components[id.index()]
    }

    /// Resource definition by catalog name.
    pub fn resource(&self, name: &str) -> Option<&ResourceDef> {
        self.resources.iter().find(|r| r.name == name)
    }

    /// Structural validation: referential integrity of every name and
    /// variable-scope checking of every formula. Run once after
    /// construction or parsing; the compiler assumes a validated problem.
    pub fn validate(&self) -> Result<(), ModelError> {
        // unique names
        let mut seen = HashSet::new();
        for i in &self.interfaces {
            if !seen.insert(format!("iface:{}", i.name)) {
                return Err(ModelError::DuplicateName(i.name.clone()));
            }
        }
        for c in &self.components {
            if !seen.insert(format!("comp:{}", c.name)) {
                return Err(ModelError::DuplicateName(c.name.clone()));
            }
        }
        for r in &self.resources {
            if !seen.insert(format!("res:{}:{:?}", r.name, r.locus)) {
                return Err(ModelError::DuplicateName(r.name.clone()));
            }
        }
        let mut node_names = HashSet::new();
        for (_, n) in self.network.nodes() {
            if !node_names.insert(n.name.as_str()) {
                return Err(ModelError::DuplicateName(n.name.clone()));
            }
        }

        let iface_ok = |n: &str| self.interfaces.iter().any(|i| i.name == n);
        let node_res_ok =
            |n: &str| self.resources.iter().any(|r| r.name == n && r.locus == Locus::Node);
        let link_res_ok =
            |n: &str| self.resources.iter().any(|r| r.name == n && r.locus == Locus::Link);

        // components: linkage names, formula scopes
        for c in &self.components {
            for i in c.scope() {
                if !iface_ok(i) {
                    return Err(ModelError::UnknownInterface(i.to_string()));
                }
            }
            let in_scope: HashSet<&str> = c.scope().collect();
            let mut err = None;
            let mut check = |v: &SpecVar| {
                if err.is_some() {
                    return;
                }
                match v {
                    SpecVar::Iface { iface, prop } => {
                        if !in_scope.contains(iface.as_str()) {
                            err = Some(ModelError::VarOutOfScope(format!("{iface}.{prop}")));
                        } else if let Some(spec) = self.interfaces.iter().find(|i| &i.name == iface)
                        {
                            if !spec.properties.contains(prop) {
                                err = Some(ModelError::VarOutOfScope(format!("{iface}.{prop}")));
                            }
                        }
                    }
                    SpecVar::Node { res } => {
                        if !node_res_ok(res) {
                            err = Some(ModelError::UnknownResource(res.clone()));
                        }
                    }
                    SpecVar::Link { res } => {
                        // link vars make no sense in a placement formula
                        err = Some(ModelError::VarOutOfScope(format!("link.{res}")));
                    }
                }
            };
            for cond in &c.conditions {
                cond.for_each_var(&mut check);
            }
            for eff in &c.effects {
                eff.for_each_var(&mut check);
            }
            c.cost.for_each_var(&mut check);
            if let Some(e) = err {
                return Err(e);
            }
            if let Placement::Only(nodes) = &c.placement {
                for n in nodes {
                    if self.network.node_by_name(n).is_none() {
                        return Err(ModelError::UnknownNode(n.clone()));
                    }
                }
            }
        }

        // interfaces: cross formula scopes
        for i in &self.interfaces {
            let mut err = None;
            let mut check = |v: &SpecVar| {
                if err.is_some() {
                    return;
                }
                match v {
                    SpecVar::Iface { iface, prop } => {
                        if iface != &i.name || !i.properties.contains(prop) {
                            err = Some(ModelError::VarOutOfScope(format!("{iface}.{prop}")));
                        }
                    }
                    SpecVar::Link { res } => {
                        if !link_res_ok(res) {
                            err = Some(ModelError::UnknownResource(res.clone()));
                        }
                    }
                    SpecVar::Node { res } => {
                        err = Some(ModelError::VarOutOfScope(format!("node.{res}")));
                    }
                }
            };
            for cond in &i.cross_conditions {
                cond.for_each_var(&mut check);
            }
            for eff in &i.cross_effects {
                eff.for_each_var(&mut check);
            }
            i.cross_cost.for_each_var(&mut check);
            if let Some(e) = err {
                return Err(e);
            }
            for prop in i.levels.keys() {
                if !i.properties.contains(prop) {
                    return Err(ModelError::VarOutOfScope(format!("{}.{prop}", i.name)));
                }
            }
        }

        // initial state / goals
        for s in &self.sources {
            if !iface_ok(&s.iface) {
                return Err(ModelError::UnknownInterface(s.iface.clone()));
            }
            if s.node.index() >= self.network.num_nodes() {
                return Err(ModelError::UnknownNode(s.node.to_string()));
            }
        }
        for p in &self.pre_placed {
            if self.comp_id(&p.component).is_none() {
                return Err(ModelError::UnknownComponent(p.component.clone()));
            }
            if p.node.index() >= self.network.num_nodes() {
                return Err(ModelError::UnknownNode(p.node.to_string()));
            }
        }
        if self.goals.is_empty() {
            return Err(ModelError::Invalid("problem has no goals".into()));
        }
        for g in &self.goals {
            if self.comp_id(&g.component).is_none() {
                return Err(ModelError::UnknownComponent(g.component.clone()));
            }
            if g.node.index() >= self.network.num_nodes() {
                return Err(ModelError::UnknownNode(g.node.to_string()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{media_domain, LevelScenario};
    use crate::network::LinkClass;
    use crate::resource::names::{CPU, LBW};

    fn tiny_problem() -> CppProblem {
        let mut net = Network::new();
        let n0 = net.add_node("n0", [(CPU, 30.0)]);
        let n1 = net.add_node("n1", [(CPU, 30.0)]);
        net.add_link(n0, n1, LinkClass::Wan, [(LBW, 70.0)]);
        let domain = media_domain(LevelScenario::C);
        CppProblem {
            network: net,
            resources: domain.resources,
            interfaces: domain.interfaces,
            components: domain.components,
            sources: vec![StreamSource::up_to("M", n0, "ibw", 200.0)],
            pre_placed: vec![],
            goals: vec![Goal { component: "Client".into(), node: n1 }],
        }
    }

    #[test]
    fn valid_problem_passes() {
        tiny_problem().validate().unwrap();
    }

    #[test]
    fn lookup_helpers() {
        let p = tiny_problem();
        let m = p.iface_id("M").unwrap();
        assert_eq!(p.iface(m).name, "M");
        let cl = p.comp_id("Client").unwrap();
        assert_eq!(p.component(cl).name, "Client");
        assert!(p.iface_id("nope").is_none());
        assert!(p.resource(CPU).is_some());
        assert!(p.resource("gpu").is_none());
    }

    #[test]
    fn rejects_unknown_goal_component() {
        let mut p = tiny_problem();
        p.goals[0].component = "Ghost".into();
        assert!(matches!(p.validate(), Err(ModelError::UnknownComponent(_))));
    }

    #[test]
    fn rejects_unknown_source_iface() {
        let mut p = tiny_problem();
        p.sources[0].iface = "Q".into();
        assert!(matches!(p.validate(), Err(ModelError::UnknownInterface(_))));
    }

    #[test]
    fn rejects_missing_goal() {
        let mut p = tiny_problem();
        p.goals.clear();
        assert!(matches!(p.validate(), Err(ModelError::Invalid(_))));
    }

    #[test]
    fn rejects_duplicate_component_name() {
        let mut p = tiny_problem();
        let dup = p.components[0].clone();
        p.components.push(dup);
        assert!(matches!(p.validate(), Err(ModelError::DuplicateName(_))));
    }

    #[test]
    fn rejects_out_of_scope_formula_var() {
        let mut p = tiny_problem();
        // Client suddenly references the Z stream it doesn't consume
        let idx = p.comp_id("Client").unwrap().index();
        p.components[idx].conditions.push(crate::expr::Cond::new(
            crate::expr::Expr::var(SpecVar::iface("Z", "ibw")),
            crate::expr::CmpOp::Ge,
            crate::expr::Expr::c(0.0),
        ));
        assert!(matches!(p.validate(), Err(ModelError::VarOutOfScope(_))));
    }

    #[test]
    fn rejects_goal_node_out_of_range() {
        let mut p = tiny_problem();
        p.goals[0].node = NodeId(99);
        assert!(matches!(p.validate(), Err(ModelError::UnknownNode(_))));
    }
}
