//! Component and interface specifications (paper §2.1, Figures 2 and 6).
//!
//! A *component* consumes and produces *interfaces* (data streams). Each
//! interface carries application-specific properties (the media domain has
//! one, `ibw` — stream bandwidth). Component specifications contain
//! formulae for deployment conditions, resource consumption and output
//! property derivation; interface specifications describe what happens when
//! a stream crosses a network link.

use crate::expr::{Cond, Effect, Expr};
use crate::levels::LevelSpec;
use std::collections::BTreeMap;
use std::fmt;

/// A symbolic variable inside a specification formula.
///
/// Scope rules: `Iface` variables must name an interface the component
/// requires or implements (for component formulas) or the interface itself
/// (for cross formulas); `Node`/`Link` variables name catalog resources.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpecVar {
    /// `<iface>.<prop>`, e.g. `T.ibw`.
    Iface {
        /// Interface (port) name.
        iface: String,
        /// Property name.
        prop: String,
    },
    /// `node.<res>`, e.g. `node.cpu`.
    Node {
        /// Resource catalog name.
        res: String,
    },
    /// `link.<res>`, e.g. `link.lbw`.
    Link {
        /// Resource catalog name.
        res: String,
    },
}

impl SpecVar {
    /// `<iface>.<prop>` helper.
    pub fn iface(iface: impl Into<String>, prop: impl Into<String>) -> Self {
        SpecVar::Iface { iface: iface.into(), prop: prop.into() }
    }

    /// `node.<res>` helper.
    pub fn node(res: impl Into<String>) -> Self {
        SpecVar::Node { res: res.into() }
    }

    /// `link.<res>` helper.
    pub fn link(res: impl Into<String>) -> Self {
        SpecVar::Link { res: res.into() }
    }
}

impl fmt::Display for SpecVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecVar::Iface { iface, prop } => write!(f, "{iface}.{prop}"),
            SpecVar::Node { res } => write!(f, "node.{res}"),
            SpecVar::Link { res } => write!(f, "link.{res}"),
        }
    }
}

/// Spec-level expression alias.
pub type SExpr = Expr<SpecVar>;
/// Spec-level condition alias.
pub type SCond = Cond<SpecVar>;
/// Spec-level effect alias.
pub type SEffect = Effect<SpecVar>;

/// An interface (stream) type specification — paper Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceSpec {
    /// Unique interface name (`M`, `T`, ...).
    pub name: String,
    /// Property names carried by the stream (`ibw`, possibly `latency`...).
    pub properties: Vec<String>,
    /// Degradable: availability at a higher property level implies
    /// availability at lower ones (a stream can be throttled). This is the
    /// paper's default for bandwidth-like properties.
    pub degradable: bool,
    /// Conditions for crossing a link (usually empty; a secure stream might
    /// require `link.secure >= 1`).
    pub cross_conditions: Vec<SCond>,
    /// Effects of crossing a link: property transformation and link
    /// resource consumption. `Iface` variables refer to this interface;
    /// `Link` variables to the crossed link. Effects apply sequentially,
    /// each reading the pre-state of its own targets (paper's tick-mark
    /// primed variables).
    pub cross_effects: Vec<SEffect>,
    /// Cost of a `cross` action carrying this stream, as a function of the
    /// same variables (paper §3.1's user-specified cost formula).
    pub cross_cost: SExpr,
    /// Level specs per property (paper Table 1). Missing properties are
    /// trivially leveled.
    pub levels: BTreeMap<String, LevelSpec>,
}

impl InterfaceSpec {
    /// A bandwidth-carrying stream with the paper's standard cross
    /// semantics: `p' := min(p, link.lbw); link.lbw -= min(p, link.lbw)`
    /// — the delivered bandwidth is capped by and consumes link bandwidth.
    pub fn bandwidth_stream(name: impl Into<String>, prop: &str, lbw: &str) -> Self {
        use crate::expr::AssignOp;
        let name = name.into();
        let p = SpecVar::iface(name.clone(), prop);
        let l = SpecVar::link(lbw);
        let capped = Expr::var(p.clone()).min_e(Expr::var(l.clone()));
        InterfaceSpec {
            name,
            properties: vec![prop.to_string()],
            degradable: true,
            cross_conditions: Vec::new(),
            cross_effects: vec![
                Effect::new(l, AssignOp::Sub, capped.clone()),
                Effect::new(p, AssignOp::Set, capped),
            ],
            cross_cost: Expr::c(1.0),
            levels: BTreeMap::new(),
        }
    }

    /// Set the cross-action cost formula (builder style).
    pub fn with_cross_cost(mut self, cost: SExpr) -> Self {
        self.cross_cost = cost;
        self
    }

    /// Set the level spec of one property (builder style).
    pub fn with_levels(mut self, prop: &str, levels: LevelSpec) -> Self {
        self.levels.insert(prop.to_string(), levels);
        self
    }

    /// Level spec of a property (trivial when unspecified).
    pub fn levels_of(&self, prop: &str) -> LevelSpec {
        self.levels.get(prop).cloned().unwrap_or_default()
    }
}

/// Placement restriction for a component.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Placement {
    /// May be placed on any node (subject to resource conditions).
    #[default]
    Anywhere,
    /// May only be placed on the named nodes (e.g. a licensed codec).
    Only(Vec<String>),
}

/// A component type specification — paper Figure 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Unique component name (`Merger`, ...).
    pub name: String,
    /// Interfaces the component consumes (each at most once).
    pub requires: Vec<String>,
    /// Interfaces the component produces.
    pub implements: Vec<String>,
    /// Deployment conditions over input properties and node resources.
    pub conditions: Vec<SCond>,
    /// Deployment effects: output property derivation (`M.ibw := T.ibw +
    /// I.ibw`) and node resource consumption (`node.cpu -= ...`). Effects
    /// apply sequentially reading the pre-state.
    pub effects: Vec<SEffect>,
    /// Cost of placing this component (paper §3.1, e.g.
    /// `1 + (T.ibw + I.ibw)/10`).
    pub cost: SExpr,
    /// Placement restriction.
    pub placement: Placement,
}

impl ComponentSpec {
    /// A component with no linkages and unit cost; fill in the rest with
    /// the builder methods.
    pub fn new(name: impl Into<String>) -> Self {
        ComponentSpec {
            name: name.into(),
            requires: Vec::new(),
            implements: Vec::new(),
            conditions: Vec::new(),
            effects: Vec::new(),
            cost: Expr::c(1.0),
            placement: Placement::Anywhere,
        }
    }

    /// Add a required interface.
    pub fn requires(mut self, iface: impl Into<String>) -> Self {
        self.requires.push(iface.into());
        self
    }

    /// Add an implemented interface.
    pub fn implements(mut self, iface: impl Into<String>) -> Self {
        self.implements.push(iface.into());
        self
    }

    /// Add a condition.
    pub fn condition(mut self, c: SCond) -> Self {
        self.conditions.push(c);
        self
    }

    /// Add an effect.
    pub fn effect(mut self, e: SEffect) -> Self {
        self.effects.push(e);
        self
    }

    /// Set the placement cost.
    pub fn with_cost(mut self, cost: SExpr) -> Self {
        self.cost = cost;
        self
    }

    /// Restrict placement to the named nodes.
    pub fn only_on(mut self, nodes: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.placement = Placement::Only(nodes.into_iter().map(Into::into).collect());
        self
    }

    /// All interface names in scope for this component's formulas.
    pub fn scope(&self) -> impl Iterator<Item = &str> {
        self.requires.iter().chain(self.implements.iter()).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AssignOp, CmpOp};

    /// Build the paper's Figure 2 Merger spec verbatim.
    fn merger() -> ComponentSpec {
        let t = || Expr::var(SpecVar::iface("T", "ibw"));
        let i = || Expr::var(SpecVar::iface("I", "ibw"));
        let cpu = || Expr::var(SpecVar::node("cpu"));
        ComponentSpec::new("Merger")
            .requires("T")
            .requires("I")
            .implements("M")
            .condition(Cond::new(cpu(), CmpOp::Ge, (t() + i()) / Expr::c(5.0)))
            .condition(Cond::new(t() * Expr::c(3.0), CmpOp::Eq, i() * Expr::c(7.0)))
            .effect(Effect::new(SpecVar::iface("M", "ibw"), AssignOp::Set, t() + i()))
            .effect(Effect::new(SpecVar::node("cpu"), AssignOp::Sub, (t() + i()) / Expr::c(5.0)))
            .with_cost(Expr::c(1.0) + (t() + i()) / Expr::c(10.0))
    }

    #[test]
    fn merger_spec_shape() {
        let m = merger();
        assert_eq!(m.requires, vec!["T", "I"]);
        assert_eq!(m.implements, vec!["M"]);
        assert_eq!(m.conditions.len(), 2);
        assert_eq!(m.effects.len(), 2);
        let scope: Vec<_> = m.scope().collect();
        assert_eq!(scope, vec!["T", "I", "M"]);
    }

    #[test]
    fn merger_formulas_evaluate() {
        let m = merger();
        let mut env = |v: &SpecVar| match v {
            SpecVar::Iface { iface, .. } if iface == "T" => 63.0,
            SpecVar::Iface { iface, .. } if iface == "I" => 27.0,
            SpecVar::Node { .. } => 30.0,
            _ => panic!("unexpected var"),
        };
        assert!(m.conditions.iter().all(|c| c.holds(&mut env)));
        assert_eq!(m.cost.eval(&mut env), 10.0);
        // output derivation
        assert_eq!(m.effects[0].value.eval(&mut env), 90.0);
    }

    #[test]
    fn bandwidth_stream_cross_semantics() {
        let m = InterfaceSpec::bandwidth_stream("M", "ibw", "lbw");
        assert!(m.degradable);
        assert_eq!(m.cross_effects.len(), 2);
        // crossing 90 units over a 70-unit link delivers 70 and drains it
        let mut env = |v: &SpecVar| match v {
            SpecVar::Iface { .. } => 90.0,
            SpecVar::Link { .. } => 70.0,
            _ => panic!(),
        };
        let drained = m.cross_effects[0].value.eval(&mut env);
        assert_eq!(drained, 70.0);
        assert_eq!(m.cross_effects[1].value.eval(&mut env), 70.0);
    }

    #[test]
    fn spec_var_display() {
        assert_eq!(SpecVar::iface("T", "ibw").to_string(), "T.ibw");
        assert_eq!(SpecVar::node("cpu").to_string(), "node.cpu");
        assert_eq!(SpecVar::link("lbw").to_string(), "link.lbw");
    }

    #[test]
    fn placement_builder() {
        let c = ComponentSpec::new("Server").only_on(["n7"]);
        assert_eq!(c.placement, Placement::Only(vec!["n7".to_string()]));
    }

    #[test]
    fn levels_of_defaults_trivial() {
        let m = InterfaceSpec::bandwidth_stream("M", "ibw", "lbw");
        assert!(m.levels_of("ibw").is_trivial());
        let m2 = m.with_levels("ibw", LevelSpec::new(vec![100.0]).unwrap());
        assert_eq!(m2.levels_of("ibw").num_levels(), 2);
    }
}
