"""Closed-form loads, cut-set converse bounds and gap checks.

Everything here is exact rational arithmetic; no floats. The optimal
uncoded-placement load has two parameter regimes split by the sign of
b*(K-1) - 2a: below the threshold the three corner points (0, K),
(a+b, (K-1)/2) and (2a+b, 0) are all active, at or above it coded
delivery stops helping and only the outer corners remain.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ringcache.model import InvalidInstanceError, ProblemInstance


def coded_gain_regime(inst: ProblemInstance) -> bool:
    """True when b(K-1) < 2a, i.e. the MAN t=1 corner is on the optimal curve."""
    return inst.b * (inst.K - 1) < 2 * inst.a


def corner_memories(inst: ProblemInstance) -> list:
    """Cache sizes of the optimal curve's corners: 0, a+b in the coded regime, 2a+b."""
    middle = [Fraction(inst.a + inst.b)] if coded_gain_regime(inst) else []
    return [Fraction(0), *middle, Fraction(inst.m_max)]


def grid_points(lo, hi, n: int) -> list:
    """n >= 2 evenly spaced exact points from lo to hi, both ends included."""
    lo = Fraction(lo)
    step = (Fraction(hi) - lo) / (n - 1)
    return [lo + j * step for j in range(n)]


def rstar_u(inst: ProblemInstance) -> Fraction:
    """Optimal worst-case load under uncoded placement at the instance's M."""
    K, a, b, M = inst.K, inst.a, inst.b, inst.M
    if coded_gain_regime(inst):
        if M <= a + b:
            return Fraction(K) - Fraction(K + 1, 2 * (a + b)) * M
        return Fraction((K - 1) * (2 * a + b), 2 * a) - Fraction(K - 1, 2 * a) * M
    return Fraction(K) - Fraction(K, 2 * a + b) * M


def cutset_bound(inst: ProblemInstance) -> Fraction:
    """Cut-set lower bound on the unrestricted optimal load, clamped at 0.

    The cut takes every second cache node plus 2a+b transmissions; with K
    even the cut covers K/2 nodes, with K odd only (K-1)/2 fit.
    """
    K, M = inst.K, inst.M
    half = Fraction(K, 2) if K % 2 == 0 else Fraction(K - 1, 2)
    return max(Fraction(0), half * (1 - M / inst.m_max))


def rstar_multiaccess(inst: ProblemInstance) -> Fraction:
    """Optimal load when every user reads L >= 2 consecutive caches."""
    if inst.L < 2:
        raise InvalidInstanceError("multiaccess optimum requires L >= 2")
    K, a, b, M = inst.K, inst.a, inst.b, inst.M
    return max(Fraction(0), Fraction(K) - Fraction(K, a + b) * M)


def closed_form_points(inst: ProblemInstance, grid) -> list:
    """Per grid point, the closed-form loads [R*_u, cut-set], plus R_multi at L >= 2."""
    curves = [rstar_u, cutset_bound] + ([rstar_multiaccess] if inst.L >= 2 else [])
    return [[curve(sub) for curve in curves] for sub in map(inst.with_m, grid)]


class GapReport(NamedTuple):
    ratio: Fraction
    bound: int
    passed: bool
    ratio_at_zero: Fraction


def gap_check(inst: ProblemInstance) -> GapReport:
    """Worst ratio rstar_u / cutset_bound over the memory range.

    Both curves are piecewise linear with breakpoints in {0, a+b, 2a+b},
    so evaluating there suffices; an 11-point grid per segment guards the
    breakpoint argument. Points where the cut-set bound is 0 are skipped
    (both curves vanish together only at M = 2a+b).
    """
    K = inst.K
    bound = 2 if K % 2 == 0 else 3
    mid = inst.a + inst.b
    points = set(grid_points(0, mid, 11) + grid_points(mid, inst.m_max, 11))
    worst = Fraction(0)
    for m in sorted(points):
        sub = inst.with_m(m)
        cut = cutset_bound(sub)
        if cut == 0:
            continue
        worst = max(worst, rstar_u(sub) / cut)
    at_zero = rstar_u(inst.with_m(0)) / cutset_bound(inst.with_m(0))
    return GapReport(ratio=worst, bound=bound, passed=worst <= bound, ratio_at_zero=at_zero)
