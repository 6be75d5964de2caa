//! Formula AST for component/interface specifications.
//!
//! Expressions are generic over the variable type `V`: specifications use
//! symbolic [`crate::component::SpecVar`]s, while the compiler rewrites them
//! into dense ground-variable indices for the planner's hot loops.
//!
//! Every expression can be evaluated both over points (`f64`) and over
//! [`Interval`]s (range semantics). Interval evaluation is the sound
//! over-approximation the paper's optimistic resource maps rely on: it never
//! excludes a reachable value, so an empty result proves infeasibility.

use crate::interval::{Interval, EPS};
use std::fmt;

/// Monotonicity of an expression in one variable, assuming all variables
/// range over `[0, +inf)`. Used to justify the greedy max-utilization
/// strategy (paper §2.2) and to tighten concretization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mono {
    /// Value does not depend on the variable.
    Constant,
    /// Non-decreasing in the variable.
    Increasing,
    /// Non-increasing in the variable.
    Decreasing,
    /// Direction unknown (or genuinely non-monotonic).
    Unknown,
}

impl Mono {
    fn flip(self) -> Mono {
        match self {
            Mono::Increasing => Mono::Decreasing,
            Mono::Decreasing => Mono::Increasing,
            m => m,
        }
    }

    fn join(self, other: Mono) -> Mono {
        use Mono::*;
        match (self, other) {
            (Constant, m) | (m, Constant) => m,
            (Increasing, Increasing) => Increasing,
            (Decreasing, Decreasing) => Decreasing,
            _ => Unknown,
        }
    }
}

/// An arithmetic expression over variables of type `V`.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<V> {
    /// A literal constant.
    Const(f64),
    /// A variable reference.
    Var(V),
    /// `a + b`
    Add(Box<Expr<V>>, Box<Expr<V>>),
    /// `a - b`
    Sub(Box<Expr<V>>, Box<Expr<V>>),
    /// `a * b`
    Mul(Box<Expr<V>>, Box<Expr<V>>),
    /// `a / b`
    Div(Box<Expr<V>>, Box<Expr<V>>),
    /// `min(a, b)`
    Min(Box<Expr<V>>, Box<Expr<V>>),
    /// `max(a, b)`
    Max(Box<Expr<V>>, Box<Expr<V>>),
    /// `-a`
    Neg(Box<Expr<V>>),
}

impl<V> Expr<V> {
    /// Constant helper.
    pub fn c(v: f64) -> Self {
        Expr::Const(v)
    }

    /// Variable helper.
    pub fn var(v: V) -> Self {
        Expr::Var(v)
    }

    /// Point evaluation under an environment.
    pub fn eval(&self, env: &mut impl FnMut(&V) -> f64) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(v) => env(v),
            Expr::Add(a, b) => a.eval(env) + b.eval(env),
            Expr::Sub(a, b) => a.eval(env) - b.eval(env),
            Expr::Mul(a, b) => a.eval(env) * b.eval(env),
            Expr::Div(a, b) => a.eval(env) / b.eval(env),
            Expr::Min(a, b) => a.eval(env).min(b.eval(env)),
            Expr::Max(a, b) => a.eval(env).max(b.eval(env)),
            Expr::Neg(a) => -a.eval(env),
        }
    }

    /// Range evaluation under an interval environment.
    pub fn eval_interval(&self, env: &mut impl FnMut(&V) -> Interval) -> Interval {
        match self {
            Expr::Const(c) => Interval::point(*c),
            Expr::Var(v) => env(v),
            Expr::Add(a, b) => a.eval_interval(env).add(&b.eval_interval(env)),
            Expr::Sub(a, b) => a.eval_interval(env).sub(&b.eval_interval(env)),
            Expr::Mul(a, b) => a.eval_interval(env).mul(&b.eval_interval(env)),
            Expr::Div(a, b) => a.eval_interval(env).div(&b.eval_interval(env)),
            Expr::Min(a, b) => a.eval_interval(env).min_i(&b.eval_interval(env)),
            Expr::Max(a, b) => a.eval_interval(env).max_i(&b.eval_interval(env)),
            Expr::Neg(a) => a.eval_interval(env).neg(),
        }
    }

    /// Visit every variable reference (with repetition).
    pub fn for_each_var(&self, f: &mut impl FnMut(&V)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(v),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => {
                a.for_each_var(f);
                b.for_each_var(f);
            }
            Expr::Neg(a) => a.for_each_var(f),
        }
    }

    /// Rewrite every variable, producing an expression over a new type.
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Expr<W> {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Var(v) => Expr::Var(f(v)),
            Expr::Add(a, b) => Expr::Add(Box::new(a.map_vars(f)), Box::new(b.map_vars(f))),
            Expr::Sub(a, b) => Expr::Sub(Box::new(a.map_vars(f)), Box::new(b.map_vars(f))),
            Expr::Mul(a, b) => Expr::Mul(Box::new(a.map_vars(f)), Box::new(b.map_vars(f))),
            Expr::Div(a, b) => Expr::Div(Box::new(a.map_vars(f)), Box::new(b.map_vars(f))),
            Expr::Min(a, b) => Expr::Min(Box::new(a.map_vars(f)), Box::new(b.map_vars(f))),
            Expr::Max(a, b) => Expr::Max(Box::new(a.map_vars(f)), Box::new(b.map_vars(f))),
            Expr::Neg(a) => Expr::Neg(Box::new(a.map_vars(f))),
        }
    }

    /// Total number of AST nodes (used by spec-size statistics).
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Div(a, b)
            | Expr::Min(a, b)
            | Expr::Max(a, b) => 1 + a.size() + b.size(),
            Expr::Neg(a) => 1 + a.size(),
        }
    }
}

impl<V: PartialEq> Expr<V> {
    /// Syntactic monotonicity of the expression in `var`, assuming all
    /// variables are non-negative. This is the "automatic syntactic
    /// analysis" the paper mentions for deriving degradability information.
    pub fn monotonicity(&self, var: &V) -> Mono {
        match self {
            Expr::Const(_) => Mono::Constant,
            Expr::Var(v) => {
                if v == var {
                    Mono::Increasing
                } else {
                    Mono::Constant
                }
            }
            Expr::Add(a, b) | Expr::Min(a, b) | Expr::Max(a, b) => {
                a.monotonicity(var).join(b.monotonicity(var))
            }
            Expr::Sub(a, b) => a.monotonicity(var).join(b.monotonicity(var).flip()),
            Expr::Neg(a) => a.monotonicity(var).flip(),
            Expr::Mul(a, b) => {
                // Sound only under the nonneg-variables assumption when the
                // constant factor is nonneg; otherwise give up.
                match (a.as_ref(), b.as_ref()) {
                    (Expr::Const(c), e) | (e, Expr::Const(c)) => {
                        let m = e.monotonicity(var);
                        if *c >= 0.0 {
                            m
                        } else {
                            m.flip()
                        }
                    }
                    (a, b) => {
                        let (ma, mb) = (a.monotonicity(var), b.monotonicity(var));
                        // product of nonneg monotone factors keeps direction
                        ma.join(mb)
                    }
                }
            }
            Expr::Div(a, b) => match b.as_ref() {
                Expr::Const(c) => {
                    let m = a.monotonicity(var);
                    if *c > 0.0 {
                        m
                    } else {
                        m.flip()
                    }
                }
                _ => {
                    let (ma, mb) = (a.monotonicity(var), b.monotonicity(var));
                    ma.join(mb.flip())
                }
            },
        }
    }
}

impl<V: fmt::Display> fmt::Display for Expr<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Min(a, b) => write!(f, "min({a}, {b})"),
            Expr::Max(a, b) => write!(f, "max({a}, {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

// Operator-overload sugar so domain builders read like the paper's formulas.
macro_rules! expr_binop {
    ($trait:ident, $method:ident, $ctor:ident) => {
        impl<V> std::ops::$trait for Expr<V> {
            type Output = Expr<V>;
            fn $method(self, rhs: Expr<V>) -> Expr<V> {
                Expr::$ctor(Box::new(self), Box::new(rhs))
            }
        }
    };
}
expr_binop!(Add, add, Add);
expr_binop!(Sub, sub, Sub);
expr_binop!(Mul, mul, Mul);
expr_binop!(Div, div, Div);

impl<V> Expr<V> {
    /// `min(self, rhs)` builder.
    pub fn min_e(self, rhs: Expr<V>) -> Expr<V> {
        Expr::Min(Box::new(self), Box::new(rhs))
    }

    /// `max(self, rhs)` builder.
    pub fn max_e(self, rhs: Expr<V>) -> Expr<V> {
        Expr::Max(Box::new(self), Box::new(rhs))
    }
}

/// Comparison operators for conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `==`
    Eq,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Eq => "==",
        };
        f.write_str(s)
    }
}

/// A boolean condition `lhs op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond<V> {
    /// Left-hand expression.
    pub lhs: Expr<V>,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand expression.
    pub rhs: Expr<V>,
}

impl<V> Cond<V> {
    /// Build a condition.
    pub fn new(lhs: Expr<V>, op: CmpOp, rhs: Expr<V>) -> Self {
        Cond { lhs, op, rhs }
    }

    /// Point satisfaction.
    pub fn holds(&self, env: &mut impl FnMut(&V) -> f64) -> bool {
        let l = self.lhs.eval(env);
        let r = self.rhs.eval(env);
        match self.op {
            CmpOp::Le => l <= r + EPS,
            CmpOp::Lt => l < r - EPS,
            CmpOp::Ge => l >= r - EPS,
            CmpOp::Gt => l > r + EPS,
            CmpOp::Eq => (l - r).abs() <= EPS.max(1e-9 * l.abs().max(r.abs())),
        }
    }

    /// True iff *some* assignment within the interval environment satisfies
    /// the condition (optimistic / possible satisfaction). Sound for
    /// pruning: `false` proves no point assignment can satisfy it.
    pub fn possibly(&self, env: &mut impl FnMut(&V) -> Interval) -> bool {
        let l = self.lhs.eval_interval(env);
        let r = self.rhs.eval_interval(env);
        if l.is_empty() || r.is_empty() {
            return false;
        }
        match self.op {
            CmpOp::Le => l.lo <= r.hi + EPS,
            CmpOp::Lt => l.lo < r.hi + EPS,
            CmpOp::Ge => l.hi >= r.lo - EPS,
            CmpOp::Gt => l.hi > r.lo - EPS,
            CmpOp::Eq => l.intersects(&r),
        }
    }

    /// True iff *every* assignment within the environment satisfies the
    /// condition (necessary satisfaction).
    pub fn certainly(&self, env: &mut impl FnMut(&V) -> Interval) -> bool {
        let l = self.lhs.eval_interval(env);
        let r = self.rhs.eval_interval(env);
        if l.is_empty() || r.is_empty() {
            return false;
        }
        match self.op {
            CmpOp::Le => l.hi <= r.lo + EPS,
            CmpOp::Lt => l.hi < r.lo - EPS,
            CmpOp::Ge => l.lo >= r.hi - EPS,
            CmpOp::Gt => l.lo > r.hi + EPS,
            CmpOp::Eq => l.width() <= EPS && r.width() <= EPS && (l.lo - r.lo).abs() <= EPS,
        }
    }

    /// Rewrite variables.
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Cond<W> {
        Cond { lhs: self.lhs.map_vars(f), op: self.op, rhs: self.rhs.map_vars(f) }
    }

    /// Visit every variable reference.
    pub fn for_each_var(&self, f: &mut impl FnMut(&V)) {
        self.lhs.for_each_var(f);
        self.rhs.for_each_var(f);
    }
}

impl<V: fmt::Display> fmt::Display for Cond<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

/// Assignment flavour of an effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `target := value`
    Set,
    /// `target -= value` (resource consumption)
    Sub,
    /// `target += value` (resource release / accumulation, e.g. latency)
    Add,
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AssignOp::Set => ":=",
            AssignOp::Sub => "-=",
            AssignOp::Add => "+=",
        };
        f.write_str(s)
    }
}

/// An effect `target (:=|-=|+=) value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Effect<V> {
    /// The variable being written.
    pub target: V,
    /// The assignment flavour.
    pub op: AssignOp,
    /// The value expression, evaluated in the *pre*-state.
    pub value: Expr<V>,
}

impl<V> Effect<V> {
    /// Build an effect.
    pub fn new(target: V, op: AssignOp, value: Expr<V>) -> Self {
        Effect { target, op, value }
    }

    /// Rewrite variables.
    pub fn map_vars<W>(&self, f: &mut impl FnMut(&V) -> W) -> Effect<W> {
        Effect { target: f(&self.target), op: self.op, value: self.value.map_vars(f) }
    }

    /// Visit every variable reference (target and value).
    pub fn for_each_var(&self, f: &mut impl FnMut(&V)) {
        f(&self.target);
        self.value.for_each_var(f);
    }
}

impl<V: fmt::Display> fmt::Display for Effect<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.target, self.op, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type E = Expr<&'static str>;

    fn env<'a>(pairs: &'a [(&'static str, f64)]) -> impl FnMut(&&'static str) -> f64 + 'a {
        move |v| pairs.iter().find(|(n, _)| n == v).map(|(_, x)| *x).unwrap()
    }

    #[test]
    fn eval_point() {
        // (T + I) / 5 — the Merger CPU formula
        let e = (E::var("T") + E::var("I")) / E::c(5.0);
        assert_eq!(e.eval(&mut env(&[("T", 63.0), ("I", 27.0)])), 18.0);
    }

    #[test]
    fn eval_min_max_neg() {
        let e = E::var("M").min_e(E::var("lbw"));
        assert_eq!(e.eval(&mut env(&[("M", 90.0), ("lbw", 70.0)])), 70.0);
        let e2 = E::var("M").max_e(E::c(10.0));
        assert_eq!(e2.eval(&mut env(&[("M", 5.0)])), 10.0);
        let e3 = Expr::Neg(Box::new(E::var("M")));
        assert_eq!(e3.eval(&mut env(&[("M", 5.0)])), -5.0);
    }

    #[test]
    fn eval_interval_matches_range() {
        let e = (E::var("T") + E::var("I")) / E::c(5.0);
        let mut ienv = |v: &&'static str| match *v {
            "T" => Interval::new(0.0, 70.0),
            "I" => Interval::new(0.0, 30.0),
            _ => unreachable!(),
        };
        let r = e.eval_interval(&mut ienv);
        assert_eq!(r, Interval::new(0.0, 20.0));
    }

    #[test]
    fn interval_eval_contains_point_eval() {
        // soundness on a sample expression and a sample of points
        let e = (E::var("a") * E::c(0.7)).min_e(E::var("b") - E::var("a") / E::c(2.0));
        for &(a, b) in &[(0.0, 0.0), (10.0, 5.0), (100.0, 70.0), (3.5, 200.0)] {
            let p = e.eval(&mut env(&[("a", a), ("b", b)]));
            let r = e.eval_interval(&mut |v: &&str| match *v {
                "a" => Interval::new(0.0, 100.0),
                _ => Interval::new(0.0, 200.0),
            });
            if (0.0..=100.0).contains(&a) && (0.0..=200.0).contains(&b) {
                assert!(r.contains(p), "{p} not in {r}");
            }
        }
    }

    #[test]
    fn monotonicity_analysis() {
        let e = (E::var("T") + E::var("I")) / E::c(5.0);
        assert_eq!(e.monotonicity(&"T"), Mono::Increasing);
        assert_eq!(e.monotonicity(&"X"), Mono::Constant);
        let e2 = E::c(30.0) - E::var("T");
        assert_eq!(e2.monotonicity(&"T"), Mono::Decreasing);
        let e3 = E::var("T") * E::c(-2.0);
        assert_eq!(e3.monotonicity(&"T"), Mono::Decreasing);
        let e4 = E::var("T").min_e(E::var("lbw"));
        assert_eq!(e4.monotonicity(&"T"), Mono::Increasing);
        let e5 = E::var("T") - E::var("T");
        assert_eq!(e5.monotonicity(&"T"), Mono::Unknown);
        let e6 = E::c(10.0) / E::var("T");
        assert_eq!(e6.monotonicity(&"T"), Mono::Decreasing);
    }

    #[test]
    fn cond_point_and_interval() {
        // Node.cpu >= (T + I)/5
        let c = Cond::new(E::var("cpu"), CmpOp::Ge, (E::var("T") + E::var("I")) / E::c(5.0));
        assert!(c.holds(&mut env(&[("cpu", 30.0), ("T", 63.0), ("I", 27.0)])));
        assert!(!c.holds(&mut env(&[("cpu", 10.0), ("T", 63.0), ("I", 27.0)])));

        let mut wide = |v: &&'static str| match *v {
            "cpu" => Interval::point(30.0),
            "T" => Interval::new(0.0, 140.0),
            "I" => Interval::new(0.0, 60.0),
            _ => unreachable!(),
        };
        // some assignment fits (T=0, I=0) even though max load (40) exceeds cpu
        assert!(c.possibly(&mut wide));
        assert!(!c.certainly(&mut wide));

        let mut heavy = |v: &&'static str| match *v {
            "cpu" => Interval::point(30.0),
            "T" => Interval::new(140.0, 140.0),
            "I" => Interval::new(60.0, 60.0),
            _ => unreachable!(),
        };
        assert!(!c.possibly(&mut heavy));
    }

    #[test]
    fn eq_cond_with_tolerance() {
        // T*3 == I*7 — the Merger ratio constraint
        let c = Cond::new(E::var("T") * E::c(3.0), CmpOp::Eq, E::var("I") * E::c(7.0));
        assert!(c.holds(&mut env(&[("T", 63.0), ("I", 27.0)])));
        assert!(!c.holds(&mut env(&[("T", 63.0), ("I", 28.0)])));
    }

    #[test]
    fn map_vars_roundtrip() {
        let e = (E::var("T") + E::var("I")) / E::c(5.0);
        let mapped: Expr<usize> = e.map_vars(&mut |v| if *v == "T" { 0 } else { 1 });
        assert_eq!(mapped.eval(&mut |i: &usize| [63.0, 27.0][*i]), 18.0);
        let mut count = 0;
        mapped.for_each_var(&mut |_| count += 1);
        assert_eq!(count, 2);
        assert_eq!(mapped.size(), 5);
    }

    #[test]
    fn display_forms() {
        let e = (E::var("T") + E::var("I")) / E::c(5.0);
        assert_eq!(e.to_string(), "((T + I) / 5)");
        let c = Cond::new(E::var("T") * E::c(3.0), CmpOp::Eq, E::var("I") * E::c(7.0));
        assert_eq!(c.to_string(), "(T * 3) == (I * 7)");
        let eff = Effect::new("cpu", AssignOp::Sub, E::var("T") / E::c(10.0));
        assert_eq!(eff.to_string(), "cpu -= (T / 10)");
    }

    #[test]
    fn certainly_on_points() {
        let c = Cond::new(E::var("x"), CmpOp::Eq, E::c(5.0));
        assert!(c.certainly(&mut |_: &&str| Interval::point(5.0)));
        assert!(!c.certainly(&mut |_: &&str| Interval::new(4.0, 6.0)));
    }
}
