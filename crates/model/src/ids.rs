//! Strongly-typed index newtypes used across the workspace.
//!
//! All identifiers are small dense indices into the owning container
//! (`Network::nodes`, `CppProblem::components`, ...). Using `u32`/`u16`
//! keeps hot planner structs compact (see the type-size guidance in the
//! perf notes); conversion to `usize` happens only at indexing sites.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $repr:ty, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $repr);

        impl $name {
            /// Index into the owning container.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Build from a container index. Panics on overflow of the
            /// compact representation (indicates a malformed problem far
            /// beyond any realistic CPP size).
            #[inline]
            pub fn from_index(i: usize) -> Self {
                debug_assert!(i <= <$repr>::MAX as usize, "id overflow");
                $name(i as $repr)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(v: $name) -> usize {
                v.index()
            }
        }
    };
}

id_type!(
    /// A node of the network.
    NodeId, u32, "n"
);
id_type!(
    /// An undirected link of the network.
    LinkId, u32, "l"
);
id_type!(
    /// A component type (e.g. `Splitter`).
    CompId, u16, "c"
);
id_type!(
    /// An interface (stream) type (e.g. `M`).
    IfaceId, u16, "i"
);
id_type!(
    /// A resource definition in the problem catalog (e.g. node `cpu`).
    ResId, u16, "r"
);
id_type!(
    /// A ground proposition in a compiled planning task.
    PropId, u32, "p"
);
id_type!(
    /// A ground (leveled) action in a compiled planning task.
    ActionId, u32, "a"
);
id_type!(
    /// A ground numeric variable (e.g. `ibw(M, n3)` or `cpu(n0)`).
    GVarId, u32, "v"
);

/// A resource-level index: position of an interval in a [`crate::levels::LevelSpec`].
pub type LevelIdx = u8;

/// A directed traversal of an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DirLink {
    /// The underlying undirected link.
    pub link: LinkId,
    /// Origin node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
}

impl fmt::Display for DirLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let n = NodeId::from_index(17);
        assert_eq!(n.index(), 17);
        assert_eq!(n.to_string(), "n17");
        let c = CompId::from_index(3);
        assert_eq!(usize::from(c), 3);
    }

    #[test]
    fn ordering_follows_indices() {
        assert!(PropId(2) < PropId(10));
        assert!(ActionId(0) < ActionId(1));
    }

    #[test]
    fn dir_link_display() {
        let d = DirLink { link: LinkId(0), from: NodeId(1), to: NodeId(2) };
        assert_eq!(d.to_string(), "n1->n2");
    }
}
