//! Closed real intervals `[lo, hi]` with `hi` possibly `+inf`.
//!
//! Interval arithmetic is the planner's reasoning substrate: component and
//! link formulas are *non-reversible* point functions, but they can always be
//! evaluated conservatively over intervals (range semantics). The planner
//! prunes a partial plan exactly when a required interval becomes empty.
//!
//! Resource *levels* (paper §3.1) are half-open `[c_i, c_{i+1})` partitions;
//! [`crate::levels::LevelSpec`] handles the half-open classification while
//! arithmetic here treats intervals as closed. The distinction only matters
//! at cutpoints and is resolved in favour of feasibility (the paper's
//! "optimistic" maps), never soundness: plans are re-validated by concrete
//! execution before being returned.

use std::fmt;

/// Comparison slack for emptiness / containment checks. Resource formulas
/// chain a handful of multiplications; 1e-9 absolute slack is far below any
/// meaningful bandwidth or CPU quantum while absorbing float noise.
pub const EPS: f64 = 1e-9;

/// A closed interval of reals, possibly unbounded above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound (`f64::INFINITY` for unbounded).
    pub hi: f64,
}

impl Interval {
    /// `[lo, hi]`. Does not require `lo <= hi`; an inverted pair is the
    /// canonical empty interval.
    #[inline]
    pub const fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// The degenerate interval `[x, x]`.
    #[inline]
    pub const fn point(x: f64) -> Self {
        Interval { lo: x, hi: x }
    }

    /// `[0, +inf)` — the default range of every resource variable.
    #[inline]
    pub const fn nonneg() -> Self {
        Interval { lo: 0.0, hi: f64::INFINITY }
    }

    /// The canonical empty interval.
    #[inline]
    pub const fn empty() -> Self {
        Interval { lo: 1.0, hi: 0.0 }
    }

    /// `(-inf, +inf)`.
    #[inline]
    pub const fn all() -> Self {
        Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY }
    }

    /// True iff the interval contains no point (up to [`EPS`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi + EPS
    }

    /// True iff `x` lies within (up to [`EPS`]).
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo - EPS && x <= self.hi + EPS
    }

    /// True iff `other` is entirely within `self` (empty ⊆ anything).
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.is_empty() || (other.lo >= self.lo - EPS && other.hi <= self.hi + EPS)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval { lo: self.lo.max(other.lo), hi: self.hi.min(other.hi) }
    }

    /// Smallest interval containing both (convex hull).
    pub fn hull(&self, other: &Interval) -> Interval {
        if self.is_empty() {
            *other
        } else if other.is_empty() {
            *self
        } else {
            Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
        }
    }

    /// True iff the intervals share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Width (`hi - lo`), 0 for empty, `inf` for unbounded.
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.hi - self.lo
        }
    }

    /// Clamp the interval into `[0, +inf)` — used after subtracting
    /// consumption from an availability, where negative *lower* bounds just
    /// mean "possibly exhausted", not "negative resource".
    pub fn clamp_nonneg(&self) -> Interval {
        Interval { lo: self.lo.max(0.0), hi: self.hi }
    }

    // ----------------------------------------------------------------- //
    // Arithmetic (range semantics: result ⊇ { f(x, y) | x ∈ a, y ∈ b }). //
    // ----------------------------------------------------------------- //

    /// Pointwise `a + b`.
    #[inline]
    pub fn add(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval { lo: self.lo + other.lo, hi: self.hi + other.hi }
    }

    /// Pointwise `a - b`.
    #[inline]
    pub fn sub(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval { lo: self.lo - other.hi, hi: self.hi - other.lo }
    }

    /// Pointwise negation.
    #[inline]
    pub fn neg(&self) -> Interval {
        if self.is_empty() {
            return Interval::empty();
        }
        Interval { lo: -self.hi, hi: -self.lo }
    }

    /// Pointwise product (general sign handling via the four corner
    /// products; `0 * inf` is resolved to `0`, the conservative choice for
    /// resource formulas where `inf` only arises from unbounded *ranges*,
    /// not actual values).
    pub fn mul(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        #[inline]
        fn m(a: f64, b: f64) -> f64 {
            let p = a * b;
            if p.is_nan() {
                0.0
            } else {
                p
            }
        }
        let c = [
            m(self.lo, other.lo),
            m(self.lo, other.hi),
            m(self.hi, other.lo),
            m(self.hi, other.hi),
        ];
        Interval {
            lo: c.iter().copied().fold(f64::INFINITY, f64::min),
            hi: c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Pointwise quotient. If the divisor straddles or touches zero the
    /// result is widened to the full real line (a sound over-approximation;
    /// CPP resource formulas always divide by positive constants, so this
    /// path never fires in practice).
    pub fn div(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        if other.contains(0.0) {
            return Interval::all();
        }
        let inv = Interval { lo: 1.0 / other.hi, hi: 1.0 / other.lo };
        self.mul(&inv)
    }

    /// Pointwise `min(a, b)`.
    #[inline]
    pub fn min_i(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval { lo: self.lo.min(other.lo), hi: self.hi.min(other.hi) }
    }

    /// Pointwise `max(a, b)`.
    #[inline]
    pub fn max_i(&self, other: &Interval) -> Interval {
        if self.is_empty() || other.is_empty() {
            return Interval::empty();
        }
        Interval { lo: self.lo.max(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Finite stand-in for the upper bound: used by greedy concretization,
    /// which pushes "as much as available" (`cap` bounds unbounded levels).
    pub fn finite_hi(&self, cap: f64) -> f64 {
        if self.hi.is_finite() {
            self.hi
        } else {
            cap.max(self.lo)
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        if self.hi.is_finite() {
            write!(f, "[{}, {}]", self.lo, self.hi)
        } else {
            write!(f, "[{}, ∞)", self.lo)
        }
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::nonneg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empties() {
        assert!(Interval::empty().is_empty());
        assert!(!Interval::nonneg().is_empty());
        assert!(!Interval::point(3.0).is_empty());
        assert!(Interval::new(5.0, 2.0).is_empty());
    }

    #[test]
    fn intersect_basic() {
        let a = Interval::new(90.0, 100.0);
        let b = Interval::new(95.0, 200.0);
        let c = a.intersect(&b);
        assert_eq!(c, Interval::new(95.0, 100.0));
        assert!(a.intersects(&b));
        let d = Interval::new(0.0, 70.0);
        assert!(a.intersect(&d).is_empty());
        assert!(!a.intersects(&d));
    }

    #[test]
    fn hull_and_width() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(5.0, 9.0);
        assert_eq!(a.hull(&b), Interval::new(1.0, 9.0));
        assert_eq!(a.hull(&Interval::empty()), a);
        assert_eq!(Interval::empty().hull(&b), b);
        assert!((b.width() - 4.0).abs() < EPS);
        assert_eq!(Interval::empty().width(), 0.0);
        assert_eq!(Interval::nonneg().width(), f64::INFINITY);
    }

    #[test]
    fn arithmetic() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(10.0, 20.0);
        assert_eq!(a.add(&b), Interval::new(11.0, 22.0));
        assert_eq!(b.sub(&a), Interval::new(8.0, 19.0));
        assert_eq!(a.mul(&b), Interval::new(10.0, 40.0));
        assert_eq!(b.div(&a), Interval::new(5.0, 20.0));
        assert_eq!(a.neg(), Interval::new(-2.0, -1.0));
        assert_eq!(a.min_i(&b), Interval::new(1.0, 2.0));
        assert_eq!(a.max_i(&b), b);
    }

    #[test]
    fn arithmetic_with_negative_operands() {
        let a = Interval::new(-3.0, 2.0);
        let b = Interval::new(-1.0, 4.0);
        let p = a.mul(&b);
        // corners: 3, -12, -2, 8
        assert_eq!(p, Interval::new(-12.0, 8.0));
    }

    #[test]
    fn div_by_zero_straddle_widens() {
        let a = Interval::new(1.0, 2.0);
        let b = Interval::new(-1.0, 1.0);
        assert_eq!(a.div(&b), Interval::all());
    }

    #[test]
    fn unbounded_mul() {
        let a = Interval::new(0.0, f64::INFINITY);
        let b = Interval::point(0.3);
        let p = a.mul(&b);
        assert_eq!(p.lo, 0.0);
        assert_eq!(p.hi, f64::INFINITY);
    }

    #[test]
    fn empty_propagates() {
        let e = Interval::empty();
        let a = Interval::new(1.0, 2.0);
        assert!(e.add(&a).is_empty());
        assert!(a.sub(&e).is_empty());
        assert!(e.mul(&a).is_empty());
        assert!(a.div(&e).is_empty());
        assert!(e.min_i(&a).is_empty());
        assert!(e.max_i(&a).is_empty());
        assert!(e.neg().is_empty());
    }

    #[test]
    fn clamp_nonneg() {
        let a = Interval::new(-5.0, 3.0);
        assert_eq!(a.clamp_nonneg(), Interval::new(0.0, 3.0));
        let b = Interval::new(-5.0, -1.0);
        assert!(b.clamp_nonneg().is_empty());
    }

    #[test]
    fn contains_checks() {
        let a = Interval::new(90.0, 100.0);
        assert!(a.contains(90.0));
        assert!(a.contains(100.0));
        assert!(!a.contains(89.9));
        assert!(a.contains_interval(&Interval::new(91.0, 99.0)));
        assert!(a.contains_interval(&Interval::empty()));
        assert!(!a.contains_interval(&Interval::new(80.0, 95.0)));
    }

    #[test]
    fn finite_hi() {
        assert_eq!(Interval::new(90.0, 100.0).finite_hi(200.0), 100.0);
        assert_eq!(Interval::new(100.0, f64::INFINITY).finite_hi(200.0), 200.0);
        // cap below lo: lo wins (never shrink below the interval)
        assert_eq!(Interval::new(100.0, f64::INFINITY).finite_hi(50.0), 100.0);
    }

    #[test]
    fn display() {
        assert_eq!(Interval::new(30.0, 70.0).to_string(), "[30, 70]");
        assert_eq!(Interval::new(100.0, f64::INFINITY).to_string(), "[100, ∞)");
        assert_eq!(Interval::empty().to_string(), "∅");
    }
}
