//! Grounding and leveling: [`compile`] turns a validated
//! [`CppProblem`] into a [`PlanningTask`].
//!
//! Grounding binds each action schema to one site: a component's `place`
//! schema to every node its placement allows, an interface's `cross`
//! schema to every directed link. Each binder maps the schema's formulas
//! onto ground variables and names the streams the action reads and
//! writes. Every bound `Schema` then goes through one leveling routine
//! (paper §3.1 "leveled actions"). It enumerates the combinations of the
//! input streams' levels and of the levels of every resource the formulas
//! mention, and keeps only combinations that pass the *static pruning
//! procedure*: each resource level must meet the site's capacity,
//! conditions must be possibly-satisfiable over the level intervals,
//! consumption must possibly fit, and the computed output ranges must
//! reach a declared output level. Each surviving combination becomes one
//! ground action per reachable output-level choice, carrying its
//! optimistic resource map and a lower-bound cost.

use crate::task::{ActionKind, GVarData, GroundAction, PlanningTask, PropData};
use sekitei_model::{
    AssignOp, CompId, Cond, CppProblem, DirLink, Effect, Expr, GVarId, IfaceId, Interval,
    LevelSpec, Locus, ModelError, NodeId, Placement, PropId, SpecVar,
};
use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

/// Hard cap on level combinations per action schema — a guard against
/// accidentally exponential level products, not a tuning knob.
const MAX_COMBOS: usize = 200_000;

/// Compilation errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The problem failed structural validation.
    Model(ModelError),
    /// A single action schema produced too many level combinations.
    TooManyCombinations {
        /// Which schema exploded.
        schema: String,
        /// How many combinations it would have produced.
        count: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Model(e) => write!(f, "invalid problem: {e}"),
            CompileError::TooManyCombinations { schema, count } => {
                write!(f, "schema `{schema}` yields {count} level combinations (max {MAX_COMBOS})")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ModelError> for CompileError {
    fn from(e: ModelError) -> Self {
        CompileError::Model(e)
    }
}

/// Compile a CPP instance into a leveled planning task.
///
/// ```
/// use sekitei_model::LevelScenario;
/// use sekitei_topology::scenarios;
///
/// let problem = scenarios::tiny(LevelScenario::C);
/// let task = sekitei_compile::compile(&problem).unwrap();
/// assert!(task.num_actions() > 0);
/// // leveling multiplied the action schemas (paper Table 2, col 5)
/// let unleveled = sekitei_compile::compile(&scenarios::tiny(LevelScenario::A)).unwrap();
/// assert!(task.num_actions() > unleveled.num_actions());
/// ```
pub fn compile(problem: &CppProblem) -> Result<PlanningTask, CompileError> {
    problem.validate()?;
    let _span = sekitei_obs::span("compile");
    let start = Instant::now();
    let mut ctx = Ctx { p: problem, task: PlanningTask::default(), pruned: 0 };
    {
        let _g = sekitei_obs::span("ground-place");
        ctx.ground_place_actions()?;
    }
    {
        let _g = sekitei_obs::span("ground-cross");
        ctx.ground_cross_actions()?;
    }
    {
        let _g = sekitei_obs::span("finalize");
        ctx.build_initial_state();
        ctx.build_goals();
        ctx.finalize();
    }
    {
        let _g = sekitei_obs::span("symmetry");
        (ctx.task.orbits, ctx.task.sig_classes) =
            crate::symmetry::classify(&ctx.task, problem.network.num_nodes());
    }
    ctx.task.stats.compile_time = start.elapsed();
    sekitei_obs::event("ground_actions", ctx.task.num_actions() as u64);
    sekitei_obs::event("level_combos_pruned", ctx.pruned as u64);
    sekitei_obs::event(
        "symmetry_orbits",
        ctx.task.orbits.orbits().filter(|m| m.len() > 1).count() as u64,
    );
    Ok(ctx.task)
}

struct Ctx<'p> {
    p: &'p CppProblem,
    task: PlanningTask,
    pruned: usize,
}

/// Iterate the cartesian product of `dims[i]` choices per slot.
fn for_each_combo(dims: &[usize], mut f: impl FnMut(&[usize])) {
    if dims.contains(&0) {
        return;
    }
    let mut idx = vec![0usize; dims.len()];
    loop {
        f(&idx);
        let mut k = dims.len();
        loop {
            if k == 0 {
                return;
            }
            k -= 1;
            idx[k] += 1;
            if idx[k] < dims[k] {
                break;
            }
            idx[k] = 0;
        }
    }
}

fn combo_count(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// A stream an action reads or writes: an interface on one node, leveled
/// by the interface's primary property.
struct Stream {
    iface: IfaceId,
    node: NodeId,
    /// Shown as `label=level` in action names when the stream is leveled.
    label: String,
}

/// An action schema bound to one site: its ground formulas, the streams
/// it reads and writes, and how its actions are named and recorded.
struct Schema {
    kind: ActionKind,
    /// Action-name prefix, e.g. `place(Merger,n3)`.
    name: String,
    /// The schema as [`CompileError::TooManyCombinations`] names it.
    label: String,
    conditions: Vec<Cond<GVarId>>,
    effects: Vec<Effect<GVarId>>,
    cost: Expr<GVarId>,
    /// One `avail` precondition each.
    inputs: Vec<Stream>,
    /// One `avail` add (with degradable closure) each.
    outputs: Vec<Stream>,
    /// Record single-level stream levels in [`GroundAction::levels`] too.
    record_trivial: bool,
    /// Show resource levels in action names.
    name_resources: bool,
}

/// One leveled dimension of a bound schema: a stream's primary property
/// or a resource.
struct Dim {
    /// `None` for a stream whose interface has no properties.
    var: Option<GVarId>,
    levels: LevelSpec,
    /// What the site offers. A static resource has exactly its declared
    /// value; a consumable one may have been drained to anything below its
    /// capacity; a stream may carry any non-negative value.
    avail: Interval,
    /// Whether the chosen level goes into [`GroundAction::levels`].
    record: bool,
    /// `Some` when the chosen level appears in action names.
    label: Option<String>,
}

/// The level dimensions of a bound schema. Inputs and resources are
/// enumerated up front; outputs follow from the computed ranges.
struct Dims {
    ins: Vec<Dim>,
    res: Vec<Dim>,
    outs: Vec<Dim>,
}

/// One surviving level choice of a bound schema, before its propositions
/// are interned.
struct Pending {
    /// Input levels, then resource levels.
    combo: Vec<usize>,
    outs: Vec<usize>,
    optimistic: Vec<(GVarId, Interval)>,
    post: Vec<(GVarId, Interval)>,
    levels: Vec<(GVarId, u8)>,
    cost: f64,
}

impl Dims {
    /// Statically evaluate one input × resource level combination of `s`
    /// and push one [`Pending`] per reachable output-level choice. Returns
    /// `false` when the static pruning procedure rejects the combination.
    fn evaluate(&self, s: &Schema, combo: &[usize], out: &mut Vec<Pending>) -> bool {
        // optimistic map for this level assignment
        let mut map: HashMap<GVarId, Interval> = HashMap::new();
        let mut optimistic: Vec<(GVarId, Interval)> = Vec::new();
        let mut levels: Vec<(GVarId, u8)> = Vec::new();
        for (d, &l) in self.ins.iter().chain(&self.res).zip(combo) {
            let Some(v) = d.var else { continue };
            let iv = d.levels.requirement(l).intersect(&d.avail);
            if iv.is_empty() {
                return false;
            }
            map.insert(v, iv);
            optimistic.push((v, iv));
            if d.record {
                levels.push((v, l as u8));
            }
        }
        let mut env = |v: &GVarId| map.get(v).copied().unwrap_or_else(Interval::nonneg);
        if !s.conditions.iter().all(|c| c.possibly(&mut env)) {
            return false;
        }

        // effects read the pre-state: consumption must possibly fit, and
        // `Set` targets get their computed ranges
        let mut produced: HashMap<GVarId, Interval> = HashMap::new();
        for eff in &s.effects {
            let val = eff.value.eval_interval(&mut env);
            match eff.op {
                AssignOp::Set => {
                    produced.insert(eff.target, val);
                }
                AssignOp::Sub => {
                    if env(&eff.target).sub(&val).clamp_nonneg().is_empty() {
                        return false;
                    }
                }
                AssignOp::Add => {}
            }
        }
        let computed = |v: &GVarId| produced.get(v).copied().unwrap_or_else(Interval::nonneg);

        // output levels the computed ranges reach
        let mut options: Vec<Vec<usize>> = Vec::with_capacity(self.outs.len());
        for d in &self.outs {
            let opts = match &d.var {
                Some(v) => d.levels.intersecting_half_open(&computed(v)),
                None => vec![0],
            };
            if opts.is_empty() {
                return false;
            }
            options.push(opts);
        }

        let out_dims: Vec<usize> = options.iter().map(Vec::len).collect();
        for_each_combo(&out_dims, |choice| {
            let outs: Vec<usize> = choice.iter().zip(&options).map(|(&i, o)| o[i]).collect();
            // the cost bound reads the pre-state plus the claimed outputs
            let mut full = map.clone();
            let mut post: Vec<(GVarId, Interval)> = Vec::new();
            let mut lv = levels.clone();
            for (d, &l) in self.outs.iter().zip(&outs) {
                if let Some(v) = d.var {
                    let claimed = d.levels.requirement(l);
                    full.insert(v, computed(&v).intersect(&claimed));
                    post.push((v, claimed));
                    if d.record {
                        lv.push((v, l as u8));
                    }
                }
            }
            let mut env = |v: &GVarId| full.get(v).copied().unwrap_or_else(Interval::nonneg);
            let cost = s.cost.eval_interval(&mut env).lo.max(0.0);
            out.push(Pending {
                combo: combo.to_vec(),
                outs,
                optimistic: optimistic.clone(),
                post,
                levels: lv,
                cost,
            });
        });
        true
    }
}

impl<'p> Ctx<'p> {
    // ------------------------------------------------------------- interning

    fn intern_prop(&mut self, data: PropData) -> PropId {
        if let Some(&id) = self.task.prop_index.get(&data) {
            return id;
        }
        let id = PropId::from_index(self.task.props.len());
        self.task.props.push(data);
        self.task.prop_names.push(self.render_prop(&data));
        self.task.prop_index.insert(data, id);
        id
    }

    fn intern_gvar(&mut self, data: GVarData) -> GVarId {
        if let Some(&id) = self.task.gvar_index.get(&data) {
            return id;
        }
        let id = GVarId::from_index(self.task.gvars.len());
        self.task.gvars.push(data);
        self.task.gvar_names.push(self.render_gvar(&data));
        self.task.gvar_index.insert(data, id);
        id
    }

    fn render_prop(&self, data: &PropData) -> String {
        match data {
            PropData::Placed { comp, node } => format!(
                "placed({},{})",
                self.p.component(*comp).name,
                self.p.network.node(*node).name
            ),
            PropData::Avail { iface, node, level } => format!(
                "avail({},{},L{})",
                self.p.iface(*iface).name,
                self.p.network.node(*node).name,
                level
            ),
        }
    }

    fn render_gvar(&self, data: &GVarData) -> String {
        match data {
            GVarData::IfaceProp { iface, prop, node } => {
                let spec = self.p.iface(*iface);
                format!(
                    "{}({},{})",
                    spec.properties[*prop as usize],
                    spec.name,
                    self.p.network.node(*node).name
                )
            }
            GVarData::NodeRes { res, node } => format!(
                "{}({})",
                self.p.resources[*res as usize].name,
                self.p.network.node(*node).name
            ),
            GVarData::LinkRes { res, link } => {
                let l = self.p.network.link(*link);
                format!(
                    "{}({}-{})",
                    self.p.resources[*res as usize].name,
                    self.p.network.node(l.a).name,
                    self.p.network.node(l.b).name
                )
            }
        }
    }

    fn res_index(&self, name: &str, locus: Locus) -> u16 {
        self.p
            .resources
            .iter()
            .position(|r| r.name == name && r.locus == locus)
            .expect("validated resource") as u16
    }

    /// Level spec of an interface's primary (first) property; trivial when
    /// the interface has no properties.
    fn primary_levels(&self, iface: IfaceId) -> LevelSpec {
        let spec = self.p.iface(iface);
        match spec.properties.first() {
            Some(p) => spec.levels_of(p),
            None => LevelSpec::trivial(),
        }
    }

    fn primary_var(&mut self, iface: IfaceId, node: NodeId) -> Option<GVarId> {
        if self.p.iface(iface).properties.is_empty() {
            None
        } else {
            Some(self.intern_gvar(GVarData::IfaceProp { iface, prop: 0, node }))
        }
    }

    /// Index of property `prop` within interface `iface`.
    fn prop_index(&self, iface: IfaceId, prop: &str) -> u8 {
        self.p.iface(iface).properties.iter().position(|p| p == prop).expect("validated") as u8
    }

    /// Catalog index and site capacity of a resource variable; `None` for
    /// a stream property.
    fn resource(&self, data: GVarData) -> Option<(usize, f64)> {
        let net = &self.p.network;
        let name = |res: u16| &self.p.resources[res as usize].name;
        match data {
            GVarData::NodeRes { res, node } => {
                Some((res as usize, net.node_capacity(node, name(res))))
            }
            GVarData::LinkRes { res, link } => {
                Some((res as usize, net.link_capacity(link, name(res))))
            }
            GVarData::IfaceProp { .. } => None,
        }
    }

    /// `Avail` effect propositions with degradable downward closure.
    fn avail_adds(&mut self, iface: IfaceId, node: NodeId, level: usize) -> Vec<PropId> {
        let degradable = self.p.iface(iface).degradable;
        let lo = if degradable { 0 } else { level };
        (lo..=level)
            .map(|l| self.intern_prop(PropData::Avail { iface, node, level: l as u8 }))
            .collect()
    }

    // ------------------------------------------------------------- binding

    fn ground_place_actions(&mut self) -> Result<(), CompileError> {
        let p = self.p;
        for (ci, spec) in p.components.iter().enumerate() {
            for node in p.network.node_ids() {
                if let Placement::Only(names) = &spec.placement {
                    if !names.contains(&p.network.node(node).name) {
                        continue;
                    }
                }
                self.ground_place_at(CompId::from_index(ci), node)?;
            }
        }
        Ok(())
    }

    fn ground_place_at(&mut self, comp: CompId, node: NodeId) -> Result<(), CompileError> {
        let p = self.p;
        let spec = p.component(comp);
        // every formula reads and writes on the host node
        let bind = |ctx: &mut Self, v: &SpecVar| -> GVarId {
            match v {
                SpecVar::Iface { iface, prop } => {
                    let iface = p.iface_id(iface).expect("validated");
                    let prop = ctx.prop_index(iface, prop);
                    ctx.intern_gvar(GVarData::IfaceProp { iface, prop, node })
                }
                SpecVar::Node { res } => {
                    let res = ctx.res_index(res, Locus::Node);
                    ctx.intern_gvar(GVarData::NodeRes { res, node })
                }
                SpecVar::Link { .. } => unreachable!("validated: no link vars in place formulas"),
            }
        };
        let conditions =
            spec.conditions.iter().map(|c| c.map_vars(&mut |v| bind(self, v))).collect();
        let effects = spec.effects.iter().map(|e| e.map_vars(&mut |v| bind(self, v))).collect();
        let cost = spec.cost.map_vars(&mut |v| bind(self, v));
        let streams = |names: &[String], mark: &str| -> Vec<Stream> {
            names
                .iter()
                .map(|n| Stream {
                    iface: p.iface_id(n).expect("validated"),
                    node,
                    label: format!("{mark}{n}"),
                })
                .collect()
        };
        let name = format!("place({},{})", spec.name, p.network.node(node).name);
        self.level(Schema {
            kind: ActionKind::Place { comp, node },
            label: name.clone(),
            name,
            conditions,
            effects,
            cost,
            inputs: streams(&spec.requires, ""),
            outputs: streams(&spec.implements, "→"),
            record_trivial: true,
            name_resources: false,
        })
    }

    fn ground_cross_actions(&mut self) -> Result<(), CompileError> {
        let p = self.p;
        for ii in 0..p.interfaces.len() {
            for dir in p.network.directed_links() {
                self.ground_cross_at(IfaceId::from_index(ii), dir)?;
            }
        }
        Ok(())
    }

    fn ground_cross_at(&mut self, iface: IfaceId, dir: DirLink) -> Result<(), CompileError> {
        let p = self.p;
        let spec = p.iface(iface);
        // readers reference the `from` side; effect targets on the
        // interface reference the `to` side (the stream after crossing)
        let bind = |ctx: &mut Self, v: &SpecVar, write: bool| -> GVarId {
            match v {
                SpecVar::Iface { prop, .. } => {
                    let prop = ctx.prop_index(iface, prop);
                    let node = if write { dir.to } else { dir.from };
                    ctx.intern_gvar(GVarData::IfaceProp { iface, prop, node })
                }
                SpecVar::Link { res } => {
                    let res = ctx.res_index(res, Locus::Link);
                    ctx.intern_gvar(GVarData::LinkRes { res, link: dir.link })
                }
                SpecVar::Node { .. } => unreachable!("validated: no node vars in cross formulas"),
            }
        };
        let conditions = spec
            .cross_conditions
            .iter()
            .map(|c| c.map_vars(&mut |v| bind(self, v, false)))
            .collect();
        let effects = spec
            .cross_effects
            .iter()
            .map(|e| {
                let value = e.value.map_vars(&mut |v| bind(self, v, false));
                // link-resource targets are consumed in place; interface
                // targets materialize on the destination node
                let target = bind(self, &e.target, matches!(e.target, SpecVar::Iface { .. }));
                Effect { target, op: e.op, value }
            })
            .collect();
        let cost = spec.cross_cost.map_vars(&mut |v| bind(self, v, false));
        let (from, to) = (&p.network.node(dir.from).name, &p.network.node(dir.to).name);
        let stream = |node, label: &str| vec![Stream { iface, node, label: label.into() }];
        self.level(Schema {
            kind: ActionKind::Cross { iface, dir },
            name: format!("cross({},{from}→{to})", spec.name),
            label: format!("cross({},{dir})", spec.name),
            conditions,
            effects,
            cost,
            inputs: stream(dir.from, "in"),
            outputs: stream(dir.to, "out"),
            record_trivial: false,
            name_resources: true,
        })
    }

    // ------------------------------------------------------------ leveling

    fn stream_dim(&mut self, st: &Stream, s: &Schema) -> Dim {
        let levels = self.primary_levels(st.iface);
        Dim {
            var: self.primary_var(st.iface, st.node),
            avail: Interval::nonneg(),
            record: s.record_trivial || !levels.is_trivial(),
            label: (!levels.is_trivial()).then(|| st.label.clone()),
            levels,
        }
    }

    /// One dimension per resource variable the formulas mention, in order
    /// of first mention.
    fn resource_dims(&self, s: &Schema) -> Vec<Dim> {
        let mut vars: Vec<GVarId> = Vec::new();
        let mut collect = |v: &GVarId| {
            let stream = matches!(self.task.gvars[v.index()], GVarData::IfaceProp { .. });
            if !stream && !vars.contains(v) {
                vars.push(*v);
            }
        };
        for c in &s.conditions {
            c.for_each_var(&mut collect);
        }
        for e in &s.effects {
            e.for_each_var(&mut collect);
        }
        s.cost.for_each_var(&mut collect);
        vars.into_iter()
            .map(|v| {
                let (r, cap) = self.resource(self.task.gvars[v.index()]).expect("resource var");
                let def = &self.p.resources[r];
                Dim {
                    var: Some(v),
                    levels: def.levels.clone(),
                    avail: if def.consumable {
                        Interval::new(0.0, cap)
                    } else {
                        Interval::point(cap)
                    },
                    record: !def.levels.is_trivial(),
                    label: (s.name_resources && !def.levels.is_trivial()).then(|| def.name.clone()),
                }
            })
            .collect()
    }

    /// Enumerate the level combinations of a bound schema, prune the
    /// infeasible ones and emit a ground action per survivor.
    fn level(&mut self, s: Schema) -> Result<(), CompileError> {
        let ins: Vec<Dim> = s.inputs.iter().map(|st| self.stream_dim(st, &s)).collect();
        let outs: Vec<Dim> = s.outputs.iter().map(|st| self.stream_dim(st, &s)).collect();
        let dims = Dims { ins, res: self.resource_dims(&s), outs };

        let sizes: Vec<usize> =
            dims.ins.iter().chain(&dims.res).map(|d| d.levels.num_levels()).collect();
        let count = combo_count(&sizes);
        if count > MAX_COMBOS {
            return Err(CompileError::TooManyCombinations { schema: s.label, count });
        }
        let mut pending: Vec<Pending> = Vec::new();
        for_each_combo(&sizes, |combo| {
            if !dims.evaluate(&s, combo, &mut pending) {
                self.pruned += 1;
            }
        });

        for pend in pending {
            let mut preconds: Vec<PropId> = s
                .inputs
                .iter()
                .zip(&pend.combo)
                .map(|(st, &l)| {
                    self.intern_prop(PropData::Avail {
                        iface: st.iface,
                        node: st.node,
                        level: l as u8,
                    })
                })
                .collect();
            preconds.sort_unstable();
            preconds.dedup();
            let mut adds = Vec::new();
            if let ActionKind::Place { comp, node } = s.kind {
                adds.push(self.intern_prop(PropData::Placed { comp, node }));
            }
            for (st, &l) in s.outputs.iter().zip(&pend.outs) {
                adds.extend(self.avail_adds(st.iface, st.node, l));
            }
            adds.sort_unstable();
            adds.dedup();

            let (ins, res) = pend.combo.split_at(dims.ins.len());
            let shown: Vec<String> = [(&dims.ins, ins), (&dims.outs, &pend.outs), (&dims.res, res)]
                .into_iter()
                .flat_map(|(d, l)| d.iter().zip(l))
                .filter_map(|(d, l)| Some(format!("{}={l}", d.label.as_ref()?)))
                .collect();
            let name = if shown.is_empty() {
                s.name.clone()
            } else {
                format!("{}[{}]", s.name, shown.join(","))
            };
            self.task.actions.push(GroundAction {
                name,
                kind: s.kind.clone(),
                preconds,
                adds,
                conditions: s.conditions.clone(),
                effects: s.effects.clone(),
                optimistic: pend.optimistic,
                post: pend.post,
                levels: pend.levels,
                cost: pend.cost,
            });
        }
        Ok(())
    }

    // --------------------------------------------------------- init & goals

    fn build_initial_state(&mut self) {
        let p = self.p;
        // stream sources: every level their producible range reaches
        for s in &p.sources {
            let iface = p.iface_id(&s.iface).expect("validated");
            let spec = self.primary_levels(iface);
            let props = &p.iface(iface).properties;
            if let Some(primary) = props.first() {
                let range = s.properties.get(primary).copied().unwrap_or_else(Interval::nonneg);
                for l in spec.intersecting(&range) {
                    let prop =
                        self.intern_prop(PropData::Avail { iface, node: s.node, level: l as u8 });
                    self.task.init_props.push(prop);
                }
                // initial values for every declared source property (the
                // primary gets its producible range; further properties —
                // e.g. accumulated latency — default to a point 0)
                for (pi, pname) in props.iter().enumerate() {
                    let v = self.intern_gvar(GVarData::IfaceProp {
                        iface,
                        prop: pi as u8,
                        node: s.node,
                    });
                    let value = s.properties.get(pname).copied().unwrap_or_else(|| {
                        if pi == 0 {
                            Interval::nonneg()
                        } else {
                            Interval::point(0.0)
                        }
                    });
                    while self.task.init_values.len() < self.task.gvars.len() {
                        self.task.init_values.push(None);
                    }
                    self.task.init_values[v.index()] = Some(value);
                }
            } else {
                let prop = self.intern_prop(PropData::Avail { iface, node: s.node, level: 0 });
                self.task.init_props.push(prop);
            }
        }
        for pp in &p.pre_placed {
            let comp = p.comp_id(&pp.component).expect("validated");
            let prop = self.intern_prop(PropData::Placed { comp, node: pp.node });
            self.task.init_props.push(prop);
        }
        self.task.init_props.sort_unstable();
        self.task.init_props.dedup();
    }

    fn build_goals(&mut self) {
        let p = self.p;
        for g in &p.goals {
            let comp = p.comp_id(&g.component).expect("validated");
            let prop = self.intern_prop(PropData::Placed { comp, node: g.node });
            self.task.goal_props.push(prop);
        }
        self.task.goal_props.sort_unstable();
        self.task.goal_props.dedup();
    }

    fn finalize(&mut self) {
        let np = self.task.props.len();
        self.task.init_mask = vec![false; np];
        for &p in &self.task.init_props {
            self.task.init_mask[p.index()] = true;
        }
        // initial numeric state: capacities for every interned resource var
        // (stream sources are already set)
        self.task.init_values.resize(self.task.gvars.len(), None);
        for i in 0..self.task.gvars.len() {
            if let Some((_, cap)) = self.resource(self.task.gvars[i]) {
                self.task.init_values[i] = Some(Interval::point(cap));
            }
        }
        // achievers index (flat CSR)
        self.task.achievers = crate::task::AchieverIndex::build(np, &self.task.actions);
        self.task.stats = crate::task::CompileStats {
            actions: self.task.actions.len(),
            pruned: self.pruned,
            props: np,
            gvars: self.task.gvars.len(),
            compile_time: Default::default(), // stamped when compile returns
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_model::{ActionId, LevelScenario};
    use sekitei_topology::scenarios;

    #[test]
    fn compile_tiny_scenario_a() {
        let p = scenarios::tiny(LevelScenario::A);
        let t = compile(&p).unwrap();
        assert!(t.num_actions() > 0);
        assert!(!t.goal_props.is_empty());
        assert!(!t.init_props.is_empty());
        // without levels there is exactly one place action per (comp, node)
        let places =
            t.actions.iter().filter(|a| matches!(a.kind, ActionKind::Place { .. })).count();
        assert_eq!(places, 5 * 2); // 5 components × 2 nodes
    }

    #[test]
    fn leveling_multiplies_actions() {
        let a = compile(&scenarios::tiny(LevelScenario::A)).unwrap().num_actions();
        let b = compile(&scenarios::tiny(LevelScenario::B)).unwrap().num_actions();
        let d = compile(&scenarios::tiny(LevelScenario::D)).unwrap().num_actions();
        let e = compile(&scenarios::tiny(LevelScenario::E)).unwrap().num_actions();
        assert!(a < b && b < d && d < e, "{a} < {b} < {d} < {e} expected");
    }

    #[test]
    fn high_m_cross_pruned_on_weak_link() {
        // paper §3.2.1: crossing the 70-unit link with M at levels above
        // [30,70) is pruned — the delivered range cannot reach level 2+.
        let p = scenarios::tiny(LevelScenario::D);
        let t = compile(&p).unwrap();
        let m = p.iface_id("M").unwrap();
        for a in &t.actions {
            if let ActionKind::Cross { iface, .. } = a.kind {
                if iface == m {
                    for &(_, iv) in &a.post {
                        assert!(iv.lo < 90.0, "M cross claiming ≥90 must be pruned: {}", a.name);
                    }
                }
            }
        }
    }

    #[test]
    fn merger_ratio_prunes_mismatched_levels() {
        let p = scenarios::tiny(LevelScenario::D);
        let t = compile(&p).unwrap();
        let merger = p.comp_id("Merger").unwrap();
        let ti = p.iface_id("T").unwrap();
        let ii = p.iface_id("I").unwrap();
        let t_spec = p.iface(ti).levels_of("ibw");
        let i_spec = p.iface(ii).levels_of("ibw");
        for a in &t.actions {
            if let ActionKind::Place { comp, .. } = a.kind {
                if comp == merger {
                    // the surviving (T, I) level pair must have ratio-
                    // compatible intervals: 3·T ∩ 7·I ≠ ∅
                    let mut t_iv = None;
                    let mut i_iv = None;
                    for &(v, iv) in &a.optimistic {
                        match t.gvars[v.index()] {
                            GVarData::IfaceProp { iface, .. } if iface == ti => t_iv = Some(iv),
                            GVarData::IfaceProp { iface, .. } if iface == ii => i_iv = Some(iv),
                            _ => {}
                        }
                    }
                    let (t_iv, i_iv) = (t_iv.unwrap(), i_iv.unwrap());
                    let lhs = t_iv.mul(&Interval::point(3.0));
                    let rhs = i_iv.mul(&Interval::point(7.0));
                    assert!(lhs.intersects(&rhs), "{}", a.name);
                }
            }
        }
        let _ = (t_spec, i_spec);
    }

    #[test]
    fn initial_state_has_source_levels() {
        let p = scenarios::tiny(LevelScenario::D);
        let t = compile(&p).unwrap();
        let m = p.iface_id("M").unwrap();
        let src = p.sources[0].node;
        // 200 units reach all five levels
        for l in 0..5u8 {
            let pid = t.prop_id(&PropData::Avail { iface: m, node: src, level: l });
            assert!(pid.is_some_and(|pid| t.initially(pid)), "level {l} missing");
        }
        // and the source var carries [0, 200]
        let v = t.gvar_id(&GVarData::IfaceProp { iface: m, prop: 0, node: src }).unwrap();
        assert_eq!(t.init_values[v.index()], Some(Interval::new(0.0, 200.0)));
    }

    #[test]
    fn goal_is_client_placement() {
        let p = scenarios::tiny(LevelScenario::C);
        let t = compile(&p).unwrap();
        assert_eq!(t.goal_props.len(), 1);
        let g = t.prop(t.goal_props[0]);
        let cl = p.comp_id("Client").unwrap();
        assert_eq!(g, PropData::Placed { comp: cl, node: p.goals[0].node });
        assert!(!t.initially(t.goal_props[0]));
    }

    #[test]
    fn costs_are_lower_bounds_at_level_lo() {
        // Merger at T=[63,70),I=[27,30) costs 1 + 90/10 = 10 (paper §3.1)
        let p = scenarios::tiny(LevelScenario::C);
        let t = compile(&p).unwrap();
        let merger = p.comp_id("Merger").unwrap();
        let found = t.actions.iter().any(|a| {
            matches!(a.kind, ActionKind::Place { comp, .. } if comp == merger)
                && a.post.iter().any(|(_, iv)| iv.lo == 90.0)
                && (a.cost - 10.0).abs() < 1e-9
        });
        assert!(found, "expected a Merger action with cost 10");
    }

    #[test]
    fn achievers_cover_all_adds() {
        let p = scenarios::tiny(LevelScenario::C);
        let t = compile(&p).unwrap();
        for (i, a) in t.actions.iter().enumerate() {
            for &pr in &a.adds {
                assert!(t.achievers(pr).contains(&ActionId::from_index(i)));
            }
        }
    }

    #[test]
    fn degradable_closure_in_adds() {
        let p = scenarios::tiny(LevelScenario::D);
        let t = compile(&p).unwrap();
        let m = p.iface_id("M").unwrap();
        // a Merger producing M at level 3 also adds levels 0..=2
        let act = t
            .actions
            .iter()
            .find(|a| {
                matches!(a.kind, ActionKind::Place { comp, .. }
                    if p.component(comp).name == "Merger")
                    && a.post.iter().any(|(_, iv)| iv.lo == 90.0 && (iv.hi - 100.0).abs() < 1e-3)
            })
            .expect("level-3 merger");
        let mut avail_levels: Vec<u8> = act
            .adds
            .iter()
            .filter_map(|&pr| match t.prop(pr) {
                PropData::Avail { iface, level, .. } if iface == m => Some(level),
                _ => None,
            })
            .collect();
        avail_levels.sort_unstable();
        assert_eq!(avail_levels, vec![0, 1, 2, 3]);
    }

    #[test]
    fn compile_rejects_invalid_problem() {
        let mut p = scenarios::tiny(LevelScenario::C);
        p.goals.clear();
        assert!(matches!(compile(&p), Err(CompileError::Model(_))));
    }

    #[test]
    fn combo_helper() {
        let mut seen = Vec::new();
        for_each_combo(&[2, 3], |c| seen.push((c[0], c[1])));
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], (0, 0));
        assert_eq!(seen[5], (1, 2));
        let mut none = 0;
        for_each_combo(&[2, 0], |_| none += 1);
        assert_eq!(none, 0);
        let mut empty = 0;
        for_each_combo(&[], |_| empty += 1);
        assert_eq!(empty, 1); // one empty combination
        assert_eq!(combo_count(&[2, 3]), 6);
    }
}
