//! Compile-time network-node symmetry detection.
//!
//! Transit-stub WANs are full of interchangeable machines: stub nodes with
//! the same capacities, the same link signature and the same placement
//! possibilities generate search branches that differ only by a renaming
//! of nodes. This module partitions the network nodes of a compiled
//! [`PlanningTask`] into *orbits* — equivalence classes under verified
//! automorphisms of the ground task — so the search can expand a single
//! representative per orbit (`sekitei-planner`, `rg.rs` achiever
//! enumeration).
//!
//! The computation is a two-stage sieve:
//!
//! 1. **Candidate classes** by cheap invariant signature: initial node
//!    resource values, the multiset of incident-link resource values,
//!    per-node ground-action mention counts, and whether the node is
//!    pinned by the initial state or the goal (source/client nodes are
//!    never symmetric to anything).
//! 2. **Exact verification**: for each candidate class with minimum
//!    member `r`, every transposition `(r, x)` is checked to be a full
//!    automorphism of the *compiled* task — it must map every ground
//!    variable, every initial proposition/value and every goal onto
//!    themselves, and map every ground action (kind, preconditions, adds,
//!    numeric conditions/effects, optimistic map, post levels, bitwise
//!    cost) onto an existing ground action. Members that fail fall back
//!    to singleton orbits.
//!
//! Verified transpositions against a common representative compose:
//! `(x, y) = (r, x)(r, y)(r, x)`, so every pairwise swap inside an orbit
//! is itself an automorphism — exactly the property the search-side
//! canonicalization rule needs.

use crate::task::{ActionKind, GVarData, GroundAction, PlanningTask, PropData};
use sekitei_model::{Cond, Effect, Expr, GVarId, Interval, LinkId, NodeId, PropId};
use sekitei_util::Fnv1a;
use std::collections::HashMap;

/// Node equivalence classes of a compiled task. Default = no nodes, every
/// lookup returns an empty sibling list (safe for hand-built tasks that
/// never ran [`node_orbits`]).
#[derive(Debug, Clone, Default)]
pub struct NodeOrbits {
    /// Orbit index per node.
    orbit_of: Vec<u32>,
    /// Orbit members, each sorted ascending.
    members: Vec<Vec<NodeId>>,
}

const NO_SIBLINGS: &[NodeId] = &[];

impl NodeOrbits {
    /// Every node in its own singleton orbit (no exploitable symmetry).
    pub fn trivial(num_nodes: usize) -> NodeOrbits {
        NodeOrbits {
            orbit_of: (0..num_nodes as u32).collect(),
            members: (0..num_nodes).map(|n| vec![NodeId::from_index(n)]).collect(),
        }
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
/// `u == v` this is the identity (used to build the action fingerprint
/// index). Every mapping returns `None` when the image does not exist in
/// the compiled task — which makes the candidate transposition fail
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

    fn kind(&self, k: &ActionKind) -> Option<ActionKind> {
        Some(match k {
            ActionKind::Place { comp, node } => {
                ActionKind::Place { comp: *comp, node: self.node(*node) }
            }
            ActionKind::Cross { iface, dir } => ActionKind::Cross {
                iface: *iface,
                dir: sekitei_model::DirLink {
                    link: self.link(dir.link)?,
                    from: self.node(dir.from),
                    to: self.node(dir.to),
                },
            },
        })
    }

    fn hash_expr(&self, e: &Expr<GVarId>, h: &mut Fnv1a) -> Option<()> {
        match e {
            Expr::Const(c) => {
                h.u8(0);
                h.u64(c.to_bits());
            }
            Expr::Var(v) => {
                h.u8(1);
                h.u32(self.gvar(*v)?.index() as u32);
            }
            Expr::Add(a, b) => {
                h.u8(2);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Sub(a, b) => {
                h.u8(3);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Mul(a, b) => {
                h.u8(4);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Div(a, b) => {
                h.u8(5);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Min(a, b) => {
                h.u8(6);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Max(a, b) => {
                h.u8(7);
                self.hash_expr(a, h)?;
                self.hash_expr(b, h)?;
            }
            Expr::Neg(a) => {
                h.u8(8);
                self.hash_expr(a, h)?;
            }
        }
        Some(())
    }

    /// Structural fingerprint of an action's image under the swap.
    /// Prop/var *sets* are hashed in sorted-image order so the fingerprint
    /// is independent of declaration order; condition/effect *lists* keep
    /// their order (compilation emits them in schema order, which is
    /// identical across symmetric groundings).
    fn action_hash(&self, act: &GroundAction) -> Option<u64> {
        let mut h = Fnv1a::new();
        match self.kind(&act.kind)? {
            ActionKind::Place { comp, node } => {
                h.u8(0);
                h.u32(comp.index() as u32);
                h.u32(node.index() as u32);
            }
            ActionKind::Cross { iface, dir } => {
                h.u8(1);
                h.u32(iface.index() as u32);
                h.u32(dir.link.index() as u32);
                h.u32(dir.from.index() as u32);
                h.u32(dir.to.index() as u32);
            }
        }
        let mut props: Vec<u32> = Vec::with_capacity(act.preconds.len().max(act.adds.len()));
        for group in [&act.preconds, &act.adds] {
            props.clear();
            for &p in group {
                props.push(self.prop(p)?.index() as u32);
            }
            props.sort_unstable();
            h.u8(0xb7); // group separator
            for &p in &props {
                h.u32(p);
            }
        }
        for c in &act.conditions {
            h.u8(0xc0);
            self.hash_expr(&c.lhs, &mut h)?;
            h.u8(cmp_tag(c));
            self.hash_expr(&c.rhs, &mut h)?;
        }
        for e in &act.effects {
            h.u8(0xe0);
            h.u32(self.gvar(e.target)?.index() as u32);
            h.u8(assign_tag(e));
            self.hash_expr(&e.value, &mut h)?;
        }
        let mut ivs: Vec<(u32, u64, u64)> = Vec::new();
        for group in [&act.optimistic, &act.post] {
            ivs.clear();
            for &(v, iv) in group.iter() {
                ivs.push((self.gvar(v)?.index() as u32, iv.lo.to_bits(), iv.hi.to_bits()));
            }
            ivs.sort_unstable();
            h.u8(0xa0);
            for &(v, lo, hi) in &ivs {
                h.u32(v);
                h.u64(lo);
                h.u64(hi);
            }
        }
        let mut lvls: Vec<(u32, u8)> = Vec::new();
        for &(v, l) in &act.levels {
            lvls.push((self.gvar(v)?.index() as u32, l));
        }
        lvls.sort_unstable();
        for &(v, l) in &lvls {
            h.u32(v);
            h.u8(l);
        }
        h.u64(act.cost.to_bits());
        Some(h.finish())
    }

    /// Exact structural equality of `a`'s image with `b` (collision guard
    /// behind the fingerprint index).
    fn mapped_equals(&self, a: &GroundAction, b: &GroundAction) -> bool {
        match self.kind(&a.kind) {
            Some(k) if k == b.kind => {}
            _ => return false,
        }
        if a.cost.to_bits() != b.cost.to_bits() {
            return false;
        }
        let mut ok = true;
        let mut map_props = |group: &[PropId]| -> Vec<PropId> {
            let mut out: Vec<PropId> = group
                .iter()
                .map(|&p| {
                    self.prop(p).unwrap_or_else(|| {
                        ok = false;
                        p
                    })
                })
                .collect();
            out.sort_unstable();
            out
        };
        let (pre, adds) = (map_props(&a.preconds), map_props(&a.adds));
        if !ok || pre != b.preconds || adds != b.adds {
            return false;
        }
        let mut map_var = |v: &GVarId| {
            self.gvar(*v).unwrap_or_else(|| {
                ok = false;
                *v
            })
        };
        let conds: Vec<Cond<GVarId>> =
            a.conditions.iter().map(|c| c.map_vars(&mut map_var)).collect();
        let effs: Vec<Effect<GVarId>> =
            a.effects.iter().map(|e| e.map_vars(&mut map_var)).collect();
        if !ok || conds != b.conditions || effs != b.effects {
            return false;
        }
        let sort_ivs = |g: &[(GVarId, Interval)], mapped: bool| -> Option<Vec<(u32, u64, u64)>> {
            let mut out = Vec::with_capacity(g.len());
            for &(v, iv) in g {
                let v = if mapped { self.gvar(v)? } else { v };
                out.push((v.index() as u32, iv.lo.to_bits(), iv.hi.to_bits()));
            }
            out.sort_unstable();
            Some(out)
        };
        match (sort_ivs(&a.optimistic, true), sort_ivs(&b.optimistic, false)) {
            (Some(x), Some(y)) if x == y => {}
            _ => return false,
        }
        match (sort_ivs(&a.post, true), sort_ivs(&b.post, false)) {
            (Some(x), Some(y)) if x == y => {}
            _ => return false,
        }
        let sort_lvls = |g: &[(GVarId, u8)], mapped: bool| -> Option<Vec<(u32, u8)>> {
            let mut out = Vec::with_capacity(g.len());
            for &(v, l) in g {
                let v = if mapped { self.gvar(v)? } else { v };
                out.push((v.index() as u32, l));
            }
            out.sort_unstable();
            Some(out)
        };
        matches!(
            (sort_lvls(&a.levels, true), sort_lvls(&b.levels, false)),
            (Some(x), Some(y)) if x == y
        )
    }
}

fn cmp_tag(c: &Cond<GVarId>) -> u8 {
    use sekitei_model::CmpOp::*;
    match c.op {
        Le => 0,
        Lt => 1,
        Ge => 2,
        Gt => 3,
        Eq => 4,
    }
}

fn assign_tag(e: &Effect<GVarId>) -> u8 {
    use sekitei_model::AssignOp::*;
    match e.op {
        Set => 0,
        Sub => 1,
        Add => 2,
    }
}

/// Stage-1 sieve shared by [`node_orbits`] and [`signature_classes`]:
/// group unpinned nodes by the cheap invariant signature (initial node
/// resources, incident-link resource multiset, ground-action mention
/// counts). Returns the groups; pinned and singleton-signature nodes are
/// simply absent.
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

/// Compute the node orbits of a compiled task over a network of
/// `num_nodes` nodes.
pub fn node_orbits(task: &PlanningTask, num_nodes: usize) -> NodeOrbits {
    if num_nodes == 0 {
        return NodeOrbits::default();
    }
    let links = LinkTable::build(task);
    let groups = signature_groups(task, num_nodes, &links);

    // ---- stage 2: exact transposition verification ----
    // fingerprint index of every action under the identity map
    let identity = Swap { task, links: &links, u: NodeId::from_index(0), v: NodeId::from_index(0) };
    let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut indexable = true;
    for (i, act) in task.actions.iter().enumerate() {
        match identity.action_hash(act) {
            Some(h) => index.entry(h).or_default().push(i as u32),
            None => {
                indexable = false; // ambiguous multigraph link: bail out
                break;
            }
        }
    }

    let mut orbit_of = vec![u32::MAX; num_nodes];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    let push_orbit = |orbit_of: &mut Vec<u32>, members: &mut Vec<Vec<NodeId>>, ns: Vec<NodeId>| {
        let o = members.len() as u32;
        for &n in &ns {
            orbit_of[n.index()] = o;
        }
        members.push(ns);
    };

    if indexable {
        for group in &groups {
            if group.len() < 2 {
                continue;
            }
            // a signature group can contain several genuine orbits (e.g.
            // twin leaves of *different* parents all share one signature):
            // chain representatives — each member joins the first orbit
            // whose representative it verifiably swaps with, else founds a
            // new one
            let mut orbits: Vec<Vec<NodeId>> = Vec::new();
            for &x in group.iter() {
                let found = orbits.iter_mut().find(|orbit| {
                    let swap = Swap { task, links: &links, u: orbit[0], v: x };
                    transposition_ok(task, &swap, &index)
                });
                match found {
                    Some(orbit) => orbit.push(x),
                    None => orbits.push(vec![x]),
                }
            }
            for orbit in orbits {
                if orbit.len() > 1 {
                    push_orbit(&mut orbit_of, &mut members, orbit);
                }
            }
        }
    }
    // everything unassigned (pinned, failed, singleton-signature) becomes
    // its own orbit
    for n in 0..num_nodes {
        if orbit_of[n] == u32::MAX {
            push_orbit(&mut orbit_of, &mut members, vec![NodeId::from_index(n)]);
        }
    }
    NodeOrbits { orbit_of, members }
}

/// The stage-1 signature partition as a [`NodeOrbits`] — *unverified*
/// equivalence classes by local invariants only (capacities, incident-link
/// resource multiset, action mention counts). Unlike [`node_orbits`], the
/// classes are generally **not** task automorphisms: two stub leaves in
/// different stubs share a signature but occupy different graph positions.
/// The search therefore uses these classes only in its lossy drain mode,
/// where a pruned branch costs completeness of the *unsolvability* verdict
/// but never plan validity (candidates still validate against the initial
/// state). Pinned nodes stay singletons, exactly as in the verified
/// orbits.
pub fn signature_classes(task: &PlanningTask, num_nodes: usize) -> NodeOrbits {
    if num_nodes == 0 {
        return NodeOrbits::default();
    }
    let links = LinkTable::build(task);
    let mut orbit_of = vec![u32::MAX; num_nodes];
    let mut members: Vec<Vec<NodeId>> = Vec::new();
    for group in signature_groups(task, num_nodes, &links) {
        if group.len() < 2 {
            continue;
        }
        let o = members.len() as u32;
        for &n in &group {
            orbit_of[n.index()] = o;
        }
        members.push(group);
    }
    for (n, o) in orbit_of.iter_mut().enumerate() {
        if *o == u32::MAX {
            *o = members.len() as u32;
            members.push(vec![NodeId::from_index(n)]);
        }
    }
    NodeOrbits { orbit_of, members }
}

/// Is the lifted transposition a full automorphism of the compiled task?
fn transposition_ok(task: &PlanningTask, swap: &Swap<'_>, index: &HashMap<u64, Vec<u32>>) -> bool {
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
    for act in &task.actions {
        let Some(h) = swap.action_hash(act) else { return false };
        let Some(cands) = index.get(&h) else { return false };
        if !cands.iter().any(|&c| swap.mapped_equals(act, &task.actions[c as usize])) {
            return false;
        }
    }
    true
}
