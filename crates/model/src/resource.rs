//! Resource catalog: named quantities attached to nodes or links.
//!
//! The paper's resources of interest are node `cpu` and link `lbw`
//! (bandwidth); the catalog is open-ended so domains can add memory, disk
//! bandwidth, accumulated latency, etc. Each definition carries its
//! [`LevelSpec`] (paper Table 1, scenario E levels link bandwidth) and the
//! degradable/upgradable tags that guide the planner's search (§3.1).

use crate::levels::LevelSpec;
use std::fmt;

/// Where a resource lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locus {
    /// Attached to a network node (e.g. `cpu`).
    Node,
    /// Attached to a network link (e.g. `lbw`).
    Link,
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Locus::Node => "node",
            Locus::Link => "link",
        })
    }
}

/// Direction-of-availability tag (paper §3.1).
///
/// *Degradable*: availability at a higher value implies availability at any
/// lower value (link bandwidth: a 70-unit link can carry 30 units).
/// *Upgradable*: the dual (e.g. a minimum-security requirement).
///
/// Semantics in this implementation: consumable resources are grounded
/// with the degradable assumption (`[0, capacity]` optimistic intervals),
/// matching the paper's experiments where link bandwidth is degradable;
/// non-consumable (static) resources are pinned to their exact value, so
/// `Upgradable` and `Rigid` currently coincide for them. Interface
/// *streams* honor their own `degradable` flag through effect-side level
/// closure (see `sekitei-compile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Elasticity {
    /// Higher availability covers lower requirements.
    #[default]
    Degradable,
    /// Lower availability covers higher requirements.
    Upgradable,
    /// Exact-level matching only.
    Rigid,
}

/// A resource definition in the problem catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceDef {
    /// Catalog name, referenced from formulas (`node.cpu`, `link.lbw`).
    pub name: String,
    /// Node- or link-attached.
    pub locus: Locus,
    /// Whether deployment consumes it (CPU, bandwidth) as opposed to a
    /// static property that is only tested (e.g. "has JVM").
    pub consumable: bool,
    /// Discretization used by the leveled planner.
    pub levels: LevelSpec,
    /// Degradable / upgradable / rigid tag.
    pub elasticity: Elasticity,
}

impl ResourceDef {
    /// A consumable, degradable node resource with trivial levels.
    pub fn node(name: impl Into<String>) -> Self {
        ResourceDef {
            name: name.into(),
            locus: Locus::Node,
            consumable: true,
            levels: LevelSpec::trivial(),
            elasticity: Elasticity::Degradable,
        }
    }

    /// A consumable, degradable link resource with trivial levels.
    pub fn link(name: impl Into<String>) -> Self {
        ResourceDef {
            name: name.into(),
            locus: Locus::Link,
            consumable: true,
            levels: LevelSpec::trivial(),
            elasticity: Elasticity::Degradable,
        }
    }

    /// Replace the level spec (builder style).
    pub fn with_levels(mut self, levels: LevelSpec) -> Self {
        self.levels = levels;
        self
    }

    /// Replace the elasticity tag (builder style).
    pub fn with_elasticity(mut self, e: Elasticity) -> Self {
        self.elasticity = e;
        self
    }
}

/// Conventional resource names used by the built-in media domain.
pub mod names {
    /// Node CPU capacity.
    pub const CPU: &str = "cpu";
    /// Link bandwidth.
    pub const LBW: &str = "lbw";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders() {
        let cpu = ResourceDef::node(names::CPU);
        assert_eq!(cpu.locus, Locus::Node);
        assert!(cpu.consumable);
        assert_eq!(cpu.elasticity, Elasticity::Degradable);

        let lbw = ResourceDef::link(names::LBW)
            .with_levels(LevelSpec::new(vec![31.0, 62.0]).unwrap())
            .with_elasticity(Elasticity::Degradable);
        assert_eq!(lbw.levels.num_levels(), 3);
        assert_eq!(lbw.locus, Locus::Link);
    }

    #[test]
    fn locus_display() {
        assert_eq!(Locus::Node.to_string(), "node");
        assert_eq!(Locus::Link.to_string(), "link");
    }
}
