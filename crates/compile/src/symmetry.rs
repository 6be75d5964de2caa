//! Compile-time network-node symmetry detection.
//!
//! Transit-stub WANs are full of interchangeable machines: stub nodes with
//! the same capacities, the same link signature and the same placement
//! possibilities generate search branches that differ only by a renaming
//! of nodes. `classify` partitions the network nodes of a compiled
//! [`PlanningTask`] two ways, both from one pass over the task:
//!
//! 1. **Signature classes** by cheap invariant signature: initial node
//!    resource values, the multiset of incident-link resource values,
//!    per-node ground-action mention counts, and whether the node is
//!    pinned by the initial state or the goal (source/client nodes are
//!    never symmetric to anything). One pass, no refinement: the classes
//!    are local invariants only, and the search uses them solely in its
//!    lossy drain mode.
//! 2. **Orbits** under verified automorphisms: inside each signature
//!    class, every candidate transposition `(r, x)` against an orbit
//!    representative `r` is checked to be a full automorphism of the
//!    *compiled* task. It must map every ground variable, every initial
//!    proposition/value and every goal onto themselves, and map every
//!    ground action onto an existing ground action. Members that verify
//!    against no representative found their own orbit; orbits of one node
//!    are singletons. The search expands a single representative per
//!    orbit (`sekitei-planner`, `rg.rs` achiever enumeration).
//!
//! An action's image is checked through one canonical, length-prefixed
//! word encoding (kind, sorted preconditions and adds, numeric conditions
//! and effects, sorted optimistic map, post levels and level assignment,
//! cost bits). The identity encodings of all actions sit in one flat
//! arena indexed by their FNV-1a word hash; an image is accepted only
//! when its words equal an indexed encoding exactly.
//!
//! Verified transpositions against a common representative compose:
//! `(x, y) = (r, x)(r, y)(r, x)`, so every pairwise swap inside an orbit
//! is itself an automorphism — exactly the property the search-side
//! canonicalization rule needs.

use crate::task::{ActionKind, GVarData, GroundAction, PlanningTask, PropData};
use sekitei_model::{Expr, GVarId, LinkId, NodeId, PropId};
use sekitei_util::{fnv1a_words, Fnv1a};
use std::collections::HashMap;

/// Node equivalence classes of a compiled task. Default = no nodes, every
/// lookup returns an empty sibling list (safe for hand-built tasks that
/// were never classified).
#[derive(Debug, Clone, Default)]
pub struct NodeOrbits {
    /// Orbit index per node.
    orbit_of: Vec<u32>,
    /// Orbit members, each sorted ascending.
    members: Vec<Vec<NodeId>>,
}

const NO_SIBLINGS: &[NodeId] = &[];

impl NodeOrbits {
    /// The given classes of two or more nodes, in order, then every node
    /// they leave out as a singleton, in node order.
    fn from_classes(num_nodes: usize, classes: impl IntoIterator<Item = Vec<NodeId>>) -> Self {
        let mut orbit_of = vec![u32::MAX; num_nodes];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        for class in classes.into_iter().filter(|c| c.len() > 1) {
            for &n in &class {
                orbit_of[n.index()] = members.len() as u32;
            }
            members.push(class);
        }
        for (n, o) in orbit_of.iter_mut().enumerate() {
            if *o == u32::MAX {
                *o = members.len() as u32;
                members.push(vec![NodeId::from_index(n)]);
            }
        }
        NodeOrbits { orbit_of, members }
    }

    /// Number of network nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.orbit_of.len()
    }

    /// Number of orbits.
    pub fn orbit_count(&self) -> usize {
        self.members.len()
    }

    /// True when at least one orbit has two or more members — the gate
    /// for the search-side symmetry rule.
    pub fn nontrivial(&self) -> bool {
        self.members.iter().any(|m| m.len() > 1)
    }

    /// All members of `n`'s orbit (ascending, includes `n` itself). Nodes
    /// outside the covered range get an empty list.
    pub fn siblings(&self, n: NodeId) -> &[NodeId] {
        match self.orbit_of.get(n.index()) {
            Some(&o) => &self.members[o as usize],
            None => NO_SIBLINGS,
        }
    }

    /// Iterate the orbits (each sorted ascending).
    pub fn orbits(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.members.iter().map(|m| m.as_slice())
    }
}

/// Partition the nodes of a compiled task over a network of `num_nodes`
/// nodes: returns the verified orbits and the unverified signature
/// classes.
///
/// The signature classes are generally **not** task automorphisms: two
/// stub leaves in different stubs share a signature but occupy different
/// graph positions. The search therefore uses them only in its lossy
/// drain mode, where a pruned branch costs completeness of the
/// *unsolvability* verdict but never plan validity (candidates still
/// validate against the initial state). Pinned nodes are singletons in
/// both partitions.
pub(crate) fn classify(task: &PlanningTask, num_nodes: usize) -> (NodeOrbits, NodeOrbits) {
    let links = LinkTable::build(task);
    let groups = signature_groups(task, num_nodes, &links);
    let mut images = None; // built at the first candidate group
    let mut buf = Vec::new();
    // a signature group can contain several genuine orbits (e.g. twin
    // leaves of *different* parents all share one signature): chain
    // representatives — each member joins the first orbit whose
    // representative it verifiably swaps with, else founds a new one
    let mut orbits: Vec<Vec<NodeId>> = Vec::new();
    for group in groups.iter().filter(|g| g.len() > 1) {
        let images = &*images.get_or_insert_with(|| Images::build(task, &links));
        let first = orbits.len();
        for &x in group {
            let found = orbits[first..].iter_mut().find(|orbit| {
                let swap = Swap { task, links: &links, u: orbit[0], v: x };
                transposition_ok(task, &swap, images, &mut buf)
            });
            match found {
                Some(orbit) => orbit.push(x),
                None => orbits.push(vec![x]),
            }
        }
    }
    (NodeOrbits::from_classes(num_nodes, orbits), NodeOrbits::from_classes(num_nodes, groups))
}

/// Undirected link endpoints, derived from the cross actions (the only
/// ground structures that mention links together with nodes). Links that
/// never appear under a cross action are inert to the task and map to
/// themselves.
struct LinkTable {
    endpoints: HashMap<LinkId, (NodeId, NodeId)>,
    by_ends: HashMap<(NodeId, NodeId), Vec<LinkId>>,
}

impl LinkTable {
    fn build(task: &PlanningTask) -> LinkTable {
        let mut endpoints = HashMap::new();
        let mut by_ends: HashMap<(NodeId, NodeId), Vec<LinkId>> = HashMap::new();
        for act in &task.actions {
            if let ActionKind::Cross { dir, .. } = &act.kind {
                let ends = (dir.from.min(dir.to), dir.from.max(dir.to));
                if endpoints.insert(dir.link, ends).is_none() {
                    by_ends.entry(ends).or_default().push(dir.link);
                }
            }
        }
        LinkTable { endpoints, by_ends }
    }
}

/// The transposition `(u, v)` lifted to every ground id space. With
/// `u == v` this is the identity (used to encode the actions themselves).
/// Every mapping returns `None` when the image does not exist in the
/// compiled task — which makes the candidate transposition fail
/// verification, never silently mismap.
struct Swap<'t> {
    task: &'t PlanningTask,
    links: &'t LinkTable,
    u: NodeId,
    v: NodeId,
}

impl<'t> Swap<'t> {
    fn node(&self, n: NodeId) -> NodeId {
        if n == self.u {
            self.v
        } else if n == self.v {
            self.u
        } else {
            n
        }
    }

    fn link(&self, l: LinkId) -> Option<LinkId> {
        let Some(&(a, b)) = self.links.endpoints.get(&l) else {
            return Some(l); // inert link: no action mentions it
        };
        let (ma, mb) = (self.node(a), self.node(b));
        let ends = (ma.min(mb), ma.max(mb));
        if ends == (a, b) {
            return Some(l); // both endpoints fixed (or swapped in place)
        }
        match self.links.by_ends.get(&ends).map(Vec::as_slice) {
            Some([only]) => Some(*only),
            // missing or ambiguous (multigraph): refuse to guess
            _ => None,
        }
    }

    fn prop(&self, p: PropId) -> Option<PropId> {
        let data = match self.task.prop(p) {
            PropData::Placed { comp, node } => PropData::Placed { comp, node: self.node(node) },
            PropData::Avail { iface, node, level } => {
                PropData::Avail { iface, node: self.node(node), level }
            }
        };
        self.task.prop_id(&data)
    }

    fn gvar(&self, g: GVarId) -> Option<GVarId> {
        let data = match self.task.gvars[g.index()] {
            GVarData::IfaceProp { iface, prop, node } => {
                GVarData::IfaceProp { iface, prop, node: self.node(node) }
            }
            GVarData::NodeRes { res, node } => GVarData::NodeRes { res, node: self.node(node) },
            GVarData::LinkRes { res, link } => GVarData::LinkRes { res, link: self.link(link)? },
        };
        self.task.gvar_id(&data)
    }

    fn var_word(&self, g: GVarId) -> Option<u64> {
        Some(self.gvar(g)?.index() as u64)
    }

    /// Append the prefix encoding of `e`'s image (fixed arity per tag, so
    /// self-delimiting).
    fn encode_expr(&self, e: &Expr<GVarId>, out: &mut Vec<u64>) -> Option<()> {
        let (tag, a, b) = match e {
            Expr::Const(c) => {
                out.extend([0, c.to_bits()]);
                return Some(());
            }
            Expr::Var(v) => {
                out.extend([1, self.var_word(*v)?]);
                return Some(());
            }
            Expr::Neg(a) => {
                out.push(2);
                return self.encode_expr(a, out);
            }
            Expr::Add(a, b) => (3, a, b),
            Expr::Sub(a, b) => (4, a, b),
            Expr::Mul(a, b) => (5, a, b),
            Expr::Div(a, b) => (6, a, b),
            Expr::Min(a, b) => (7, a, b),
            Expr::Max(a, b) => (8, a, b),
        };
        out.push(tag);
        self.encode_expr(a, out)?;
        self.encode_expr(b, out)
    }

    /// Append the canonical word encoding of `act`'s image. Every variable-
    /// length part is length-prefixed; propositions, optimistic and post
    /// maps and level assignments are sorted by image so the encoding is
    /// independent of declaration order; conditions and effects keep their
    /// order (compilation emits them in schema order, which is identical
    /// across symmetric groundings). `None` when some image does not exist.
    fn encode(&self, act: &GroundAction, out: &mut Vec<u64>) -> Option<()> {
        match &act.kind {
            ActionKind::Place { comp, node } => {
                out.extend([0, comp.index() as u64, self.node(*node).index() as u64]);
            }
            ActionKind::Cross { iface, dir } => out.extend([
                1,
                iface.index() as u64,
                self.link(dir.link)?.index() as u64,
                self.node(dir.from).index() as u64,
                self.node(dir.to).index() as u64,
            ]),
        }
        for group in [&act.preconds, &act.adds] {
            out.push(group.len() as u64);
            let start = out.len();
            for &p in group {
                out.push(self.prop(p)?.index() as u64);
            }
            out[start..].sort_unstable();
        }
        out.push(act.conditions.len() as u64);
        for c in &act.conditions {
            self.encode_expr(&c.lhs, out)?;
            out.push(c.op as u64);
            self.encode_expr(&c.rhs, out)?;
        }
        out.push(act.effects.len() as u64);
        for e in &act.effects {
            out.extend([self.var_word(e.target)?, e.op as u64]);
            self.encode_expr(&e.value, out)?;
        }
        for group in [&act.optimistic, &act.post] {
            out.push(group.len() as u64);
            let start = out.len();
            for &(v, iv) in group.iter() {
                out.extend([self.var_word(v)?, iv.lo.to_bits(), iv.hi.to_bits()]);
            }
            sort_records(&mut out[start..], 3);
        }
        out.push(act.levels.len() as u64);
        let start = out.len();
        for &(v, l) in &act.levels {
            out.extend([self.var_word(v)?, u64::from(l)]);
        }
        sort_records(&mut out[start..], 2);
        out.push(act.cost.to_bits());
        Some(())
    }
}

/// Sort `words` as consecutive `n`-word records, lexicographically. An
/// action's record groups hold a handful of entries, so an in-place
/// insertion sort beats allocating a scratch vector per group.
fn sort_records(words: &mut [u64], n: usize) {
    for i in (n..words.len()).step_by(n) {
        let mut j = i;
        while j > 0 && words[j..j + n] < words[j - n..j] {
            for k in j..j + n {
                words.swap(k - n, k);
            }
            j -= n;
        }
    }
}

/// The identity encoding of every ground action, back to back in one
/// arena, indexed by FNV-1a word hash.
struct Images {
    words: Vec<u64>,
    /// `offsets[i]..offsets[i + 1]` bounds action `i`'s encoding.
    offsets: Vec<usize>,
    by_hash: HashMap<u64, Vec<u32>>,
}

impl Images {
    fn build(task: &PlanningTask, links: &LinkTable) -> Images {
        let n0 = NodeId::from_index(0);
        let identity = Swap { task, links, u: n0, v: n0 };
        let mut words = Vec::new();
        let mut offsets = vec![0];
        let mut by_hash: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, act) in task.actions.iter().enumerate() {
            let start = words.len();
            identity.encode(act, &mut words).expect("every ground id is its own identity image");
            by_hash.entry(fnv1a_words(words[start..].iter().copied())).or_default().push(i as u32);
            offsets.push(words.len());
        }
        Images { words, offsets, by_hash }
    }

    /// Is `image` exactly the encoding of some ground action?
    fn contains(&self, image: &[u64]) -> bool {
        self.by_hash.get(&fnv1a_words(image.iter().copied())).is_some_and(|cands| {
            cands.iter().any(|&c| {
                let c = c as usize;
                &self.words[self.offsets[c]..self.offsets[c + 1]] == image
            })
        })
    }
}

/// Stage 1: group unpinned nodes by the cheap invariant signature
/// (initial node resources, incident-link resource multiset, ground-action
/// mention counts). Pinned nodes are absent; every other node is in
/// exactly one group.
fn signature_groups(task: &PlanningTask, num_nodes: usize, links: &LinkTable) -> Vec<Vec<NodeId>> {
    let mut pinned = vec![false; num_nodes];
    let mark = |p: PropId, pinned: &mut Vec<bool>| {
        let n = match task.prop(p) {
            PropData::Placed { node, .. } => node,
            PropData::Avail { node, .. } => node,
        };
        if n.index() < pinned.len() {
            pinned[n.index()] = true;
        }
    };
    for &p in &task.init_props {
        mark(p, &mut pinned);
    }
    for &p in &task.goal_props {
        mark(p, &mut pinned);
    }

    // per-node initial resource values
    let mut node_res: Vec<Vec<(u16, u64, u64)>> = vec![Vec::new(); num_nodes];
    let mut link_res: HashMap<LinkId, Vec<(u16, u64, u64)>> = HashMap::new();
    for (i, data) in task.gvars.iter().enumerate() {
        let iv = task.init_values[i].map(|iv| (iv.lo.to_bits(), iv.hi.to_bits()));
        match *data {
            GVarData::NodeRes { res, node } if node.index() < num_nodes => {
                let (lo, hi) = iv.unwrap_or((u64::MAX, u64::MAX));
                node_res[node.index()].push((res, lo, hi));
            }
            GVarData::LinkRes { res, link } => {
                let (lo, hi) = iv.unwrap_or((u64::MAX, u64::MAX));
                link_res.entry(link).or_default().push((res, lo, hi));
            }
            _ => {}
        }
    }
    for v in &mut node_res {
        v.sort_unstable();
    }
    let link_sig: HashMap<LinkId, u64> = link_res
        .into_iter()
        .map(|(l, mut v)| {
            v.sort_unstable();
            let mut h = Fnv1a::new();
            for (r, lo, hi) in v {
                h.u32(r as u32);
                h.u64(lo);
                h.u64(hi);
            }
            (l, h.finish())
        })
        .collect();

    // per-node action mention counts + incident link signature multiset
    let mut mentions = vec![(0u32, 0u32, 0u32); num_nodes]; // (place, cross-out, cross-in)
    let mut incident: Vec<Vec<u64>> = vec![Vec::new(); num_nodes];
    for (&l, &(a, b)) in &links.endpoints {
        let sig = link_sig.get(&l).copied().unwrap_or(0);
        if a.index() < num_nodes {
            incident[a.index()].push(sig);
        }
        if b.index() < num_nodes {
            incident[b.index()].push(sig);
        }
    }
    for v in &mut incident {
        v.sort_unstable();
    }
    for act in &task.actions {
        match &act.kind {
            ActionKind::Place { node, .. } if node.index() < num_nodes => {
                mentions[node.index()].0 += 1;
            }
            ActionKind::Cross { dir, .. } => {
                if dir.from.index() < num_nodes {
                    mentions[dir.from.index()].1 += 1;
                }
                if dir.to.index() < num_nodes {
                    mentions[dir.to.index()].2 += 1;
                }
            }
            _ => {}
        }
    }

    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut group_of_sig: HashMap<u64, usize> = HashMap::new();
    for n in 0..num_nodes {
        if pinned[n] {
            continue; // sources/clients/pre-placed hosts stay singleton
        }
        let mut h = Fnv1a::new();
        for &(r, lo, hi) in &node_res[n] {
            h.u32(r as u32);
            h.u64(lo);
            h.u64(hi);
        }
        h.u8(0xee);
        for &s in &incident[n] {
            h.u64(s);
        }
        h.u8(0xef);
        let (p, o, i) = mentions[n];
        h.u32(p);
        h.u32(o);
        h.u32(i);
        let g = *group_of_sig.entry(h.finish()).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(NodeId::from_index(n));
    }
    groups
}

/// Is the lifted transposition a full automorphism of the compiled task?
/// `buf` is scratch for the action images.
fn transposition_ok(
    task: &PlanningTask,
    swap: &Swap<'_>,
    images: &Images,
    buf: &mut Vec<u64>,
) -> bool {
    // ground variables must map bijectively with bit-identical initial
    // values (the swap is an involution, so totality + value match in one
    // direction suffices)
    for i in 0..task.gvars.len() {
        let Some(j) = swap.gvar(GVarId::from_index(i)) else { return false };
        match (&task.init_values[i], &task.init_values[j.index()]) {
            (None, None) => {}
            (Some(a), Some(b))
                if a.lo.to_bits() == b.lo.to_bits() && a.hi.to_bits() == b.hi.to_bits() => {}
            _ => return false,
        }
    }
    // initial and goal propositions must be setwise invariant
    for &p in &task.init_props {
        match swap.prop(p) {
            Some(q) if task.initially(q) => {}
            _ => return false,
        }
    }
    for &p in &task.goal_props {
        match swap.prop(p) {
            Some(q) if task.goal_props.binary_search(&q).is_ok() => {}
            _ => return false,
        }
    }
    // every ground action must map onto an existing ground action
    task.actions.iter().all(|act| {
        buf.clear();
        swap.encode(act, buf).is_some() && images.contains(buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_model::{
        media_domain_with, CppProblem, Goal, LevelScenario, LinkClass, MediaConfig, StreamSource,
    };
    use sekitei_topology::generators::{self, Capacities};
    use sekitei_topology::scenarios;

    /// Media delivery over a 7-node star: server on the hub, client on
    /// `n1`, leaves `n2..n6` interchangeable.
    fn star_task() -> PlanningTask {
        let domain = media_domain_with(MediaConfig::default(), LevelScenario::C);
        let p = CppProblem {
            network: generators::star(7, LinkClass::Lan, &Capacities::default()),
            resources: domain.resources,
            interfaces: domain.interfaces,
            components: domain.components,
            sources: vec![StreamSource::up_to("M", NodeId(0), "ibw", scenarios::SERVER_CAPACITY)],
            pre_placed: vec![],
            goals: vec![Goal { component: "Client".into(), node: NodeId(1) }],
        };
        crate::compile(&p).unwrap()
    }

    #[test]
    fn an_action_without_an_image_splits_its_node_off() {
        let mut task = star_task();
        let leaves: Vec<NodeId> = (2..7).map(NodeId).collect();
        assert_eq!(task.orbits.siblings(NodeId(4)), leaves.as_slice());
        // one placement on n4 costs more than its twins: every signature
        // still matches, but swapping n4 with another leaf maps that
        // twin's placement onto an action that does not exist
        let act = task
            .actions
            .iter_mut()
            .find(|a| matches!(a.kind, ActionKind::Place { node, .. } if node == NodeId(4)))
            .unwrap();
        act.cost += 1.0;
        let (orbits, classes) = classify(&task, 7);
        assert_eq!(orbits.siblings(NodeId(4)), &[NodeId(4)]);
        let rest = [NodeId(2), NodeId(3), NodeId(5), NodeId(6)];
        assert_eq!(orbits.siblings(NodeId(2)), &rest);
        assert_eq!(classes.siblings(NodeId(4)), leaves.as_slice());
    }

    #[test]
    fn records_sort_lexicographically_in_place() {
        let mut words = [3, 1, 9, 1, 7, 7, 1, 7, 2, 0, 5, 5];
        sort_records(&mut words, 3);
        assert_eq!(words, [0, 5, 5, 1, 7, 2, 1, 7, 7, 3, 1, 9]);
    }
}
