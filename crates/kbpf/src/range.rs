//! Shared signed-interval range analysis.
//!
//! One interval domain serves three consumers:
//!
//! * the [kbpf verifier](crate::verifier) — the framework's `Checker`,
//!   proving division safety and bounding `r0` for every candidate;
//! * the eBPF **emitter** (`crates/ebpf`) — which must additionally prove
//!   that no intermediate value can *saturate*, because kbpf arithmetic
//!   saturates while real eBPF wraps: a program is only emitted when the
//!   two semantics provably coincide on every reachable input;
//! * the eBPF **model verifier** (`crates/ebpf`) — an abstract
//!   interpretation over the *emitted* bytecode that re-proves division
//!   safety and memory bounds in the target ISA, standing in for the
//!   kernel's verifier inside the container.
//!
//! The transfer functions mirror the DSL/VM saturating semantics
//! bit-for-bit ([`mod@policysmith_dsl::eval`]'s `div_sat`/`rem_sat`/`shl_sat`/
//! `shr_arith`); the refinement functions implement the branch-edge
//! narrowing that lets `x / max(y, 1)` verify while `x / y` is rejected.

use policysmith_dsl::eval::{div_sat, rem_sat, shl_sat, shr_arith};

/// A signed interval. ⊥ (unreachable / uninitialized) is `None` at the
/// *register* level for consumers: the verifier keeps an uninitialized
/// register as an empty interval (`lo > hi`) inside its states and hands it
/// out only as `None` ([`AbsState::reg`](crate::AbsState::reg)), so every
/// `Interval` a consumer sees is a valid `lo <= hi` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    pub lo: i64,
    pub hi: i64,
}

// The transfer functions deliberately shadow the `std::ops` names: they
// are saturating *interval* transfers, not element-wise operators, and
// call sites read best as `a.add(b)` next to `a.jlt(b)` etc.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The full `i64` range (no information).
    pub const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };

    /// The singleton interval `[v, v]`.
    pub fn exact(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// A checked constructor; panics (debug) on an inverted pair.
    pub fn new(lo: i64, hi: i64) -> Interval {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// Least upper bound.
    pub fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Greatest lower bound; `None` if disjoint.
    pub fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    pub fn contains(self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Does this interval touch either saturation rail? A saturating
    /// operation whose *result* interval stays clear of both rails cannot
    /// have saturated on any input, so wrapping arithmetic computes the
    /// same value — the emitter's provability gate.
    pub fn touches_rails(self) -> bool {
        self.lo == i64::MIN || self.hi == i64::MAX
    }

    /// Saturating addition transfer.
    pub fn add(self, o: Interval) -> Interval {
        Interval { lo: self.lo.saturating_add(o.lo), hi: self.hi.saturating_add(o.hi) }
    }

    /// Saturating subtraction transfer.
    pub fn sub(self, o: Interval) -> Interval {
        Interval { lo: self.lo.saturating_sub(o.hi), hi: self.hi.saturating_sub(o.lo) }
    }

    /// Saturating multiplication transfer (corner evaluation).
    pub fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval { lo: *c.iter().min().unwrap(), hi: *c.iter().max().unwrap() }
    }

    /// Division transfer; caller guarantees `o` excludes 0 (so `o` is
    /// entirely positive or entirely negative, making corner evaluation
    /// sound).
    pub fn div(self, o: Interval) -> Interval {
        debug_assert!(!o.contains(0));
        let c = [
            div_sat(self.lo, o.lo),
            div_sat(self.lo, o.hi),
            div_sat(self.hi, o.lo),
            div_sat(self.hi, o.hi),
        ];
        Interval { lo: *c.iter().min().unwrap(), hi: *c.iter().max().unwrap() }
    }

    /// Remainder transfer; caller guarantees `o` excludes 0. The result
    /// magnitude is strictly below `max(|o|)` and its sign follows the
    /// dividend.
    pub fn rem(self, o: Interval) -> Interval {
        debug_assert!(!o.contains(0));
        let m = o.lo.saturating_abs().max(o.hi.saturating_abs()).saturating_sub(1);
        // rem_sat(i64::MIN, -1) == 0, covered by [−m, m] since m ≥ 0.
        let _ = rem_sat; // semantics anchor; bounds do not need exact corners
        let lo = if self.lo >= 0 { 0 } else { -m };
        let hi = if self.hi <= 0 { 0 } else { m };
        Interval { lo, hi }
    }

    /// Saturating negation transfer.
    pub fn neg(self) -> Interval {
        Interval { lo: self.hi.saturating_neg(), hi: self.lo.saturating_neg() }
    }

    /// Left shift with the DSL/VM clamping semantics (amount clamped to
    /// `[0, 63]`, saturating result).
    pub fn shl(self, o: Interval) -> Interval {
        let amts = [o.lo.clamp(0, 63), o.hi.clamp(0, 63)];
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for v in [self.lo, self.hi] {
            for a in amts {
                let r = shl_sat(v, a);
                lo = lo.min(r);
                hi = hi.max(r);
            }
        }
        // value interval spanning 0 contributes 0 itself
        if self.contains(0) {
            lo = lo.min(0);
            hi = hi.max(0);
        }
        Interval { lo, hi }
    }

    /// Arithmetic right shift with clamping semantics.
    pub fn shr(self, o: Interval) -> Interval {
        let amts = [o.lo.clamp(0, 63), o.hi.clamp(0, 63)];
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for v in [self.lo, self.hi] {
            for a in amts {
                let r = shr_arith(v, a);
                lo = lo.min(r);
                hi = hi.max(r);
            }
        }
        if self.contains(0) {
            lo = lo.min(0);
            hi = hi.max(0);
        }
        Interval { lo, hi }
    }
}

/// Branch refinement result: the narrowed `(dst, operand)` intervals on an
/// edge, or `None` when the edge is statically dead.
pub type Refined = Option<(Interval, Interval)>;

/// `d == o`: both collapse to the intersection.
pub fn refine_eq(d: Interval, o: Interval) -> Refined {
    d.meet(o).map(|m| (m, m))
}

/// `d != o`: only excludes singleton endpoints.
pub fn refine_ne(d: Interval, o: Interval) -> Refined {
    if o.lo == o.hi {
        let v = o.lo;
        if d.lo == d.hi && d.lo == v {
            return None; // d is exactly v: branch impossible
        }
        let mut nd = d;
        if nd.lo == v {
            nd.lo = v.saturating_add(1);
        }
        if nd.hi == v {
            nd.hi = v.saturating_sub(1);
        }
        if nd.lo > nd.hi {
            return None;
        }
        return Some((nd, o));
    }
    Some((d, o))
}

/// `d < o`: `d ≤ o.hi − 1`, `o ≥ d.lo + 1`.
pub fn refine_lt(d: Interval, o: Interval) -> Refined {
    let d_hi = d.hi.min(o.hi.saturating_sub(1));
    let o_lo = o.lo.max(d.lo.saturating_add(1));
    (d.lo <= d_hi && o_lo <= o.hi).then(|| (Interval::new(d.lo, d_hi), Interval::new(o_lo, o.hi)))
}

/// `d <= o`.
pub fn refine_le(d: Interval, o: Interval) -> Refined {
    let d_hi = d.hi.min(o.hi);
    let o_lo = o.lo.max(d.lo);
    (d.lo <= d_hi && o_lo <= o.hi).then(|| (Interval::new(d.lo, d_hi), Interval::new(o_lo, o.hi)))
}

/// `d > o`.
pub fn refine_gt(d: Interval, o: Interval) -> Refined {
    let d_lo = d.lo.max(o.lo.saturating_add(1));
    let o_hi = o.hi.min(d.hi.saturating_sub(1));
    (d_lo <= d.hi && o.lo <= o_hi).then(|| (Interval::new(d_lo, d.hi), Interval::new(o.lo, o_hi)))
}

/// `d >= o`.
pub fn refine_ge(d: Interval, o: Interval) -> Refined {
    let d_lo = d.lo.max(o.lo);
    let o_hi = o.hi.min(d.hi);
    (d_lo <= d.hi && o.lo <= o_hi).then(|| (Interval::new(d_lo, d.hi), Interval::new(o.lo, o_hi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: i64 = i64::MIN;
    const MAX: i64 = i64::MAX;

    // ---- lattice operations at the rails --------------------------------

    #[test]
    fn join_is_commutative_and_absorbs_top() {
        let a = Interval::new(-5, 10);
        let b = Interval::new(3, 40);
        assert_eq!(a.join(b), b.join(a));
        assert_eq!(a.join(b), Interval::new(-5, 40));
        assert_eq!(a.join(Interval::TOP), Interval::TOP);
        assert_eq!(Interval::TOP.join(a), Interval::TOP);
        assert_eq!(a.join(a), a, "join is idempotent");
    }

    #[test]
    fn join_at_extremes() {
        let lo = Interval::exact(MIN);
        let hi = Interval::exact(MAX);
        assert_eq!(lo.join(hi), Interval::TOP);
        assert_eq!(Interval::new(MIN, MIN + 5).join(Interval::new(MAX - 5, MAX)), Interval::TOP);
    }

    #[test]
    fn meet_overlap_disjoint_and_touching() {
        let a = Interval::new(0, 10);
        assert_eq!(a.meet(Interval::new(5, 20)), Some(Interval::new(5, 10)));
        // touching at one point: the singleton survives
        assert_eq!(a.meet(Interval::new(10, 20)), Some(Interval::exact(10)));
        // empty meet: disjoint intervals
        assert_eq!(a.meet(Interval::new(11, 20)), None);
        assert_eq!(Interval::exact(MIN).meet(Interval::exact(MAX)), None);
        // TOP is the meet identity
        assert_eq!(a.meet(Interval::TOP), Some(a));
    }

    // ---- arithmetic transfer functions at i64::MIN / i64::MAX -----------

    #[test]
    fn add_saturates_at_both_rails() {
        assert_eq!(Interval::exact(MAX).add(Interval::exact(1)), Interval::exact(MAX));
        assert_eq!(Interval::exact(MIN).add(Interval::exact(-1)), Interval::exact(MIN));
        let wide = Interval::new(MIN, MAX).add(Interval::new(-1, 1));
        assert_eq!(wide, Interval::TOP);
        // no saturation inside the rails
        assert_eq!(Interval::new(-3, 4).add(Interval::new(10, 20)), Interval::new(7, 24));
    }

    #[test]
    fn sub_saturates_and_orders_corners() {
        assert_eq!(Interval::exact(MIN).sub(Interval::exact(1)), Interval::exact(MIN));
        assert_eq!(Interval::exact(MAX).sub(Interval::exact(-1)), Interval::exact(MAX));
        // lo comes from self.lo − o.hi, hi from self.hi − o.lo
        assert_eq!(Interval::new(0, 10).sub(Interval::new(2, 5)), Interval::new(-5, 8));
    }

    #[test]
    fn mul_corner_evaluation_at_extremes() {
        assert_eq!(Interval::exact(MIN).mul(Interval::exact(-1)), Interval::exact(MAX));
        assert_eq!(Interval::exact(MAX).mul(Interval::exact(2)), Interval::exact(MAX));
        let m = Interval::new(-2, 3).mul(Interval::new(-7, 5));
        // corners: 14, −10, −21, 15 → [−21, 15]
        assert_eq!(m, Interval::new(-21, 15));
        // sign-spanning times the rails covers everything
        assert_eq!(Interval::new(-1, 1).mul(Interval::TOP), Interval::TOP);
    }

    #[test]
    fn div_at_min_by_minus_one_saturates() {
        // div_sat(i64::MIN, −1) = i64::MAX, the saturating convention.
        let d = Interval::exact(MIN).div(Interval::exact(-1));
        assert_eq!(d, Interval::exact(MAX));
        let d = Interval::new(MIN, MIN + 1).div(Interval::new(-2, -1));
        assert!(d.contains(MAX) && d.contains((MIN + 1) / -2));
    }

    #[test]
    fn rem_bounds_follow_dividend_sign() {
        let r = Interval::new(-100, -1).rem(Interval::new(1, 8));
        assert_eq!(r, Interval::new(-7, 0));
        let r = Interval::new(1, 100).rem(Interval::new(-8, -2));
        assert_eq!(r, Interval::new(0, 7));
        // MIN % −1 == 0 is inside the [−m, m] envelope
        let r = Interval::exact(MIN).rem(Interval::exact(-1));
        assert!(r.contains(0));
    }

    #[test]
    fn neg_saturates_min() {
        assert_eq!(Interval::exact(MIN).neg(), Interval::exact(MAX));
        assert_eq!(Interval::new(MIN, 5).neg(), Interval::new(-5, MAX));
        assert_eq!(Interval::new(-3, 7).neg(), Interval::new(-7, 3));
    }

    #[test]
    fn shl_clamps_amounts_and_saturates() {
        // amounts outside [0, 63] clamp, result saturates
        assert_eq!(Interval::exact(1).shl(Interval::exact(100)), Interval::exact(MAX));
        assert_eq!(Interval::exact(1).shl(Interval::exact(-5)), Interval::exact(1));
        assert_eq!(Interval::exact(-1).shl(Interval::exact(63)), Interval::exact(MIN));
        // zero-spanning base keeps 0 in the result
        let s = Interval::new(-1, 2).shl(Interval::exact(2));
        assert!(s.contains(0) && s.contains(-4) && s.contains(8));
    }

    #[test]
    fn shr_is_exact_at_extremes() {
        assert_eq!(Interval::exact(MIN).shr(Interval::exact(63)), Interval::exact(-1));
        assert_eq!(Interval::exact(MAX).shr(Interval::exact(63)), Interval::exact(0));
        assert_eq!(Interval::exact(-16).shr(Interval::exact(2)), Interval::exact(-4));
        // amount clamped: >> 100 behaves as >> 63
        assert_eq!(Interval::exact(MIN).shr(Interval::exact(100)), Interval::exact(-1));
    }

    #[test]
    fn touches_rails_flags_possible_saturation() {
        assert!(Interval::TOP.touches_rails());
        assert!(Interval::exact(MAX).touches_rails());
        assert!(Interval::exact(MIN).touches_rails());
        assert!(!Interval::new(MIN + 1, MAX - 1).touches_rails());
        // the gate in action: a provably-unsaturated add
        let safe = Interval::new(0, 1 << 24).add(Interval::new(0, 1 << 24));
        assert!(!safe.touches_rails());
        // …and one that may have saturated
        let unsafe_ = Interval::new(0, MAX).add(Interval::exact(1));
        assert!(unsafe_.touches_rails());
    }

    // ---- refinements: empty edges and singleton collapse ----------------

    #[test]
    fn refine_eq_is_meet() {
        assert_eq!(
            refine_eq(Interval::new(0, 10), Interval::new(5, 20)),
            Some((Interval::new(5, 10), Interval::new(5, 10)))
        );
        assert_eq!(refine_eq(Interval::new(0, 10), Interval::new(11, 20)), None);
    }

    #[test]
    fn refine_ne_trims_singletons_only() {
        // d = [0,10], o = {0}: lo bumps to 1
        assert_eq!(
            refine_ne(Interval::new(0, 10), Interval::exact(0)),
            Some((Interval::new(1, 10), Interval::exact(0)))
        );
        // both exact and equal: dead edge
        assert_eq!(refine_ne(Interval::exact(7), Interval::exact(7)), None);
        // singleton d trimmed to empty from both ends is impossible; the
        // hi-trim path:
        assert_eq!(
            refine_ne(Interval::new(0, 10), Interval::exact(10)),
            Some((Interval::new(0, 9), Interval::exact(10)))
        );
        // non-singleton o: no refinement
        assert_eq!(
            refine_ne(Interval::new(0, 10), Interval::new(3, 4)),
            Some((Interval::new(0, 10), Interval::new(3, 4)))
        );
        // saturating trim at the rails must not wrap
        assert_eq!(
            refine_ne(Interval::new(MIN, MIN), Interval::exact(MIN)),
            None,
            "exact MIN vs MIN is a dead edge, not a wrapped interval"
        );
    }

    #[test]
    fn refine_lt_gt_saturate_at_rails() {
        // d < o with o.hi = MIN: impossible (nothing is < MIN)
        assert_eq!(refine_lt(Interval::TOP, Interval::exact(MIN)), None);
        // d > o with o.lo = MAX: impossible
        assert_eq!(refine_gt(Interval::TOP, Interval::exact(MAX)), None);
        // d < MAX keeps everything except MAX itself on the taken edge
        let (d, o) = refine_lt(Interval::TOP, Interval::exact(MAX)).unwrap();
        assert_eq!(d, Interval::new(MIN, MAX - 1));
        assert_eq!(o, Interval::exact(MAX));
    }

    #[test]
    fn refine_le_ge_tighten_both_sides() {
        let (d, o) = refine_le(Interval::new(0, 100), Interval::new(-5, 10)).unwrap();
        assert_eq!(d, Interval::new(0, 10));
        assert_eq!(o, Interval::new(0, 10));
        let (d, o) = refine_ge(Interval::new(0, 100), Interval::new(50, 200)).unwrap();
        assert_eq!(d, Interval::new(50, 100));
        assert_eq!(o, Interval::new(50, 100));
        // dead edges
        assert_eq!(refine_le(Interval::new(11, 20), Interval::new(0, 10)), None);
        assert_eq!(refine_ge(Interval::new(0, 10), Interval::new(11, 20)), None);
    }
}
