//! Automatic level suggestion — a first cut at the paper's §6 future work
//! ("analyze the dependency between the number and quality of resource
//! levels and performance") and §4.3's closing remark that level choice
//! "needs to be performed by a domain expert".
//!
//! The obvious part of the expert's job is mechanical: every demand
//! constraint `iface.prop >= c` induces a natural cutpoint at `c` (the
//! paper's 90), and a second cutpoint slightly above it caps greedy
//! over-consumption (the paper's 100). Demands propagate through
//! single-input linear component transforms (`out := in · k`,
//! `out := in / k`), which is how the paper's Table 1 note — "levels of
//! T, I, Z are proportional to those of M" — arises. [`suggest_levels`]
//! performs exactly this seed-and-propagate analysis;
//! [`apply_suggestions`] installs the results on interfaces that have no
//! expert-provided levels yet.

use crate::component::SpecVar;
use crate::expr::{CmpOp, Expr};
use crate::interval::EPS;
use crate::levels::LevelSpec;
use crate::problem::CppProblem;

/// A suggested level specification for one interface property.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSuggestion {
    /// Interface name.
    pub iface: String,
    /// Property name.
    pub prop: String,
    /// Suggested cutpoints (sorted, deduplicated).
    pub cutpoints: Vec<f64>,
}

/// Linear dependency `to.prop = factor · from.prop` extracted from a
/// single-input component's Set effect.
struct LinearEdge {
    from: (String, String),
    to: (String, String),
    factor: f64,
}

/// Match `Var * Const`, `Const * Var`, `Var / Const` or bare `Var`.
fn linear_of(e: &Expr<SpecVar>) -> Option<(SpecVar, f64)> {
    match e {
        Expr::Var(v) => Some((v.clone(), 1.0)),
        Expr::Mul(a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(v), Expr::Const(k)) | (Expr::Const(k), Expr::Var(v)) if *k > 0.0 => {
                Some((v.clone(), *k))
            }
            _ => None,
        },
        Expr::Div(a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(v), Expr::Const(k)) if *k > 0.0 => Some((v.clone(), 1.0 / *k)),
            _ => None,
        },
        _ => None,
    }
}

/// Derive cutpoint suggestions for every interface property reachable from
/// a demand constraint. `headroom` controls the upper cutpoint
/// (`demand · (1 + headroom)`), which caps greedy over-consumption the
/// way the paper's cutpoint at 100 caps its demand of 90.
pub fn suggest_levels(problem: &CppProblem, headroom: f64) -> Vec<LevelSuggestion> {
    assert!(headroom >= 0.0, "headroom must be non-negative");

    // 1. demand seeds: `iface.prop >= c` conditions anywhere
    let mut seeds: Vec<((String, String), f64)> = Vec::new();
    for comp in &problem.components {
        for cond in &comp.conditions {
            let (var_side, const_side, op) = (&cond.lhs, &cond.rhs, cond.op);
            if let (Expr::Var(SpecVar::Iface { iface, prop }), Expr::Const(c)) =
                (var_side, const_side)
            {
                if matches!(op, CmpOp::Ge | CmpOp::Gt) && *c > 0.0 {
                    seeds.push(((iface.clone(), prop.clone()), *c));
                }
            }
        }
    }

    // 2. linear edges from single-input component transforms
    let mut edges: Vec<LinearEdge> = Vec::new();
    for comp in &problem.components {
        if comp.requires.len() != 1 {
            continue; // multi-input transforms are not invertible here
        }
        for eff in &comp.effects {
            let SpecVar::Iface { iface: out_iface, prop: out_prop } = &eff.target else {
                continue;
            };
            if !comp.implements.contains(out_iface) {
                continue;
            }
            if let Some((SpecVar::Iface { iface: in_iface, prop: in_prop }, k)) =
                linear_of(&eff.value)
            {
                if comp.requires.contains(&in_iface) {
                    edges.push(LinearEdge {
                        from: (in_iface, in_prop),
                        to: (out_iface.clone(), out_prop.clone()),
                        factor: k,
                    });
                }
            }
        }
    }

    // 3. propagate seeds across edges (both directions) to a fixpoint
    let mut changed = true;
    let mut guard = 0;
    while changed && guard < 64 {
        changed = false;
        guard += 1;
        let snapshot = seeds.clone();
        for e in &edges {
            for (key, v) in &snapshot {
                if *key == e.from {
                    let derived = v * e.factor;
                    if push_unique(&mut seeds, (e.to.clone(), derived)) {
                        changed = true;
                    }
                }
                if *key == e.to && e.factor > 0.0 {
                    let derived = v / e.factor;
                    if push_unique(&mut seeds, (e.from.clone(), derived)) {
                        changed = true;
                    }
                }
            }
        }
    }

    // 4. cutpoints per (iface, prop): each demand plus its headroom cap
    let mut out: Vec<LevelSuggestion> = Vec::new();
    for ((iface, prop), v) in seeds {
        let entry = out.iter_mut().find(|s| s.iface == iface && s.prop == prop);
        let cuts = match entry {
            Some(s) => &mut s.cutpoints,
            None => {
                out.push(LevelSuggestion { iface, prop, cutpoints: Vec::new() });
                &mut out.last_mut().unwrap().cutpoints
            }
        };
        for c in [v, v * (1.0 + headroom)] {
            if c > 0.0 && !cuts.iter().any(|x| (x - c).abs() <= EPS.max(1e-9 * c)) {
                cuts.push(c);
            }
        }
    }
    for s in &mut out {
        s.cutpoints.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    out.sort_by(|a, b| (&a.iface, &a.prop).cmp(&(&b.iface, &b.prop)));
    out
}

fn push_unique(seeds: &mut Vec<((String, String), f64)>, item: ((String, String), f64)) -> bool {
    let exists =
        seeds.iter().any(|(k, v)| *k == item.0 && (v - item.1).abs() <= EPS.max(1e-9 * item.1));
    if exists {
        false
    } else {
        seeds.push(item);
        true
    }
}

/// Install suggestions on interfaces whose corresponding property levels
/// are still trivial — expert-provided levels are never overwritten.
/// Returns how many interface properties were leveled.
pub fn apply_suggestions(problem: &mut CppProblem, suggestions: &[LevelSuggestion]) -> usize {
    let mut applied = 0;
    for s in suggestions {
        let Some(spec) = problem.interfaces.iter_mut().find(|i| i.name == s.iface) else {
            continue;
        };
        if !spec.properties.contains(&s.prop) {
            continue;
        }
        if !spec.levels_of(&s.prop).is_trivial() {
            continue;
        }
        if let Ok(levels) = LevelSpec::new(s.cutpoints.clone()) {
            spec.levels.insert(s.prop.clone(), levels);
            applied += 1;
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{media_domain, LevelScenario};

    fn unleveled_tiny() -> CppProblem {
        use crate::network::{LinkClass, Network};
        use crate::problem::{Goal, StreamSource};
        use crate::resource::names::{CPU, LBW};
        let mut net = Network::new();
        let a = net.add_node("n0", [(CPU, 30.0)]);
        let b = net.add_node("n1", [(CPU, 30.0)]);
        net.add_link(a, b, LinkClass::Wan, [(LBW, 70.0)]);
        let d = media_domain(LevelScenario::A);
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
    fn suggests_demand_derived_cutpoints() {
        let p = unleveled_tiny();
        let s = suggest_levels(&p, 1.0 / 9.0); // 90 · (1 + 1/9) = 100
        let m = s.iter().find(|x| x.iface == "M").expect("M leveled");
        assert!((m.cutpoints[0] - 90.0).abs() < 1e-9, "{:?}", m.cutpoints);
        assert!((m.cutpoints[1] - 100.0).abs() < 1e-6, "{:?}", m.cutpoints);
        // propagation through Splitter / Zip: T = 0.7·M, Z = 0.35·M
        let t = s.iter().find(|x| x.iface == "T").expect("T leveled");
        assert!((t.cutpoints[0] - 63.0).abs() < 1e-9, "{:?}", t.cutpoints);
        let z = s.iter().find(|x| x.iface == "Z").expect("Z leveled");
        assert!((z.cutpoints[0] - 31.5).abs() < 1e-9, "{:?}", z.cutpoints);
        let i = s.iter().find(|x| x.iface == "I").expect("I leveled");
        assert!((i.cutpoints[0] - 27.0).abs() < 1e-9, "{:?}", i.cutpoints);
    }

    #[test]
    fn apply_respects_existing_levels() {
        let mut p = unleveled_tiny();
        let s = suggest_levels(&p, 0.1);
        let n = apply_suggestions(&mut p, &s);
        assert_eq!(n, 4, "all four stream interfaces leveled");
        // second application is a no-op: levels now exist
        let n2 = apply_suggestions(&mut p, &s);
        assert_eq!(n2, 0);
        for i in &p.interfaces {
            assert!(!i.levels_of("ibw").is_trivial(), "{}", i.name);
        }
        p.validate().unwrap();
    }

    #[test]
    fn ignores_unknown_names_gracefully() {
        let mut p = unleveled_tiny();
        let bogus = vec![LevelSuggestion {
            iface: "Ghost".into(),
            prop: "ibw".into(),
            cutpoints: vec![1.0],
        }];
        assert_eq!(apply_suggestions(&mut p, &bogus), 0);
    }

    #[test]
    fn headroom_zero_gives_single_cut() {
        let p = unleveled_tiny();
        let s = suggest_levels(&p, 0.0);
        let m = s.iter().find(|x| x.iface == "M").unwrap();
        assert_eq!(m.cutpoints.len(), 1);
    }
}
