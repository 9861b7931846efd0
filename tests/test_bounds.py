"""Closed forms, cut-set bounds, gap checks -- exact values only."""

from fractions import Fraction

import pytest

from ringcache.bounds import (
    GapReport,
    cutset_bound,
    gap_check,
    grid_points,
    rstar_multiaccess,
    rstar_u,
)
from ringcache.model import InvalidInstanceError, ProblemInstance


def inst(K, a, b, L=1, M=0):
    return ProblemInstance(K, a, b, L, Fraction(M))


class TestRstarU:
    def test_running_example_at_corner(self):
        assert rstar_u(inst(3, 2, 1, M=3)) == 1

    def test_zero_memory_gives_k(self):
        assert rstar_u(inst(3, 2, 1, M=0)) == 3

    def test_uncoded_regime_line(self):
        assert rstar_u(inst(4, 1, 2, M=2)) == 2

    def test_upper_segment(self):
        assert rstar_u(inst(3, 2, 1, M=4)) == Fraction(1, 2)

    @pytest.mark.parametrize("K", range(2, 9))
    @pytest.mark.parametrize("a", range(0, 6))
    @pytest.mark.parametrize("b", range(0, 6))
    def test_continuity_at_segment_break(self, K, a, b):
        if a + b < 1 or b * (K - 1) >= 2 * a:
            return
        low = Fraction(K) - Fraction(K + 1, 2 * (a + b)) * (a + b)
        high = Fraction((K - 1) * (2 * a + b), 2 * a) - Fraction(K - 1, 2 * a) * (a + b)
        assert low == high == Fraction(K - 1, 2)
        assert rstar_u(inst(K, a, b, M=a + b)) == Fraction(K - 1, 2)

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (4, 1, 2), (5, 4, 3), (4, 4, 2)])
    def test_monotone_convex_and_above_cutset(self, K, a, b):
        mmax = 2 * a + b
        grid = [Fraction(j * mmax, 24) for j in range(25)]
        vals = [rstar_u(inst(K, a, b, M=m)) for m in grid]
        for prev, nxt in zip(vals, vals[1:]):
            assert nxt <= prev
        for left, mid, right in zip(vals, vals[1:], vals[2:]):
            assert mid * 2 <= left + right  # convexity on the uniform grid
        for m, v in zip(grid, vals):
            assert cutset_bound(inst(K, a, b, M=m)) <= v

    def test_endpoints(self):
        assert rstar_u(inst(5, 4, 3, M=0)) == 5
        assert rstar_u(inst(5, 4, 3, M=11)) == 0


class TestCutset:
    def test_even_K_at_zero(self):
        assert cutset_bound(inst(4, 4, 2, M=0)) == 2

    def test_hits_zero_at_full_memory(self):
        assert cutset_bound(inst(3, 2, 1, M=5)) == 0

    def test_odd_K_at_zero(self):
        assert cutset_bound(inst(3, 2, 1, M=0)) == 1

    def test_no_negative_values(self):
        assert cutset_bound(inst(3, 2, 1, M=5)) == 0
        assert cutset_bound(inst(4, 1, 1, M=3)) == 0


class TestMultiaccess:
    def test_zero_beyond_local_corner(self):
        assert rstar_multiaccess(inst(4, 1, 1, 2, M=2)) == 0

    def test_zero_memory(self):
        assert rstar_multiaccess(inst(4, 1, 1, 3, M=0)) == 4

    def test_midpoint(self):
        assert rstar_multiaccess(inst(3, 2, 1, 2, M=Fraction(3, 2))) == Fraction(3, 2)

    def test_requires_multiaccess(self):
        with pytest.raises(InvalidInstanceError):
            rstar_multiaccess(inst(4, 1, 1, 1, M=0))

    @pytest.mark.parametrize("K,a,b", [(3, 2, 1), (4, 1, 2), (5, 3, 2)])
    def test_never_above_single_access_optimum(self, K, a, b):
        for j in range(9):
            m = Fraction(j * (2 * a + b), 8)
            assert rstar_multiaccess(inst(K, a, b, 2, M=m)) <= rstar_u(inst(K, a, b, M=m))


def tradeoff_grid(lo, hi, steps):
    """The evenly spaced grid ``tradeoff --m-steps`` built before grid_points."""
    return [lo + (hi - lo) * j / (steps - 1) for j in range(steps)]


def battery_grid(lo, hi, n=11):
    """The acceptance battery's ``_grid`` before grid_points."""
    step = (Fraction(hi) - Fraction(lo)) / (n - 1)
    return [Fraction(lo) + j * step for j in range(n)]


def gap_segment_grid(s_lo, s_hi, grid=11):
    """gap_check's per-segment loop before grid_points."""
    step = (s_hi - s_lo) / (grid - 1)
    return [s_lo + j * step for j in range(grid)]


def oracle_gap_check(inst, grid=11):
    """gap_check with its own grid loop, as it was before grid_points."""
    K = inst.K
    bound = 2 if K % 2 == 0 else 3
    lo, mid, hi = Fraction(0), Fraction(inst.a + inst.b), Fraction(inst.m_max)
    points = {lo, mid, hi}
    for s_lo, s_hi in ((lo, mid), (mid, hi)):
        points.update(gap_segment_grid(s_lo, s_hi, grid))
    worst = Fraction(0)
    for m in sorted(points):
        sub = inst.with_m(m)
        cut = cutset_bound(sub)
        if cut == 0:
            continue
        worst = max(worst, rstar_u(sub) / cut)
    at_zero = rstar_u(inst.with_m(0)) / cutset_bound(inst.with_m(0))
    return GapReport(ratio=worst, bound=bound, passed=worst <= bound, ratio_at_zero=at_zero)


@pytest.mark.parametrize("lo,hi,n", [
    (0, 5, 11), (3, 5, 11), (0, 11, 2), (Fraction(1, 3), Fraction(7, 2), 6),
    (2, 2, 3), (0, 0, 11),  # lo == hi
    (5, 1, 4), (Fraction(9, 2), 0, 11),  # lo > hi
])
def test_grid_points_match_the_grids_they_replaced(lo, hi, n):
    got = grid_points(lo, hi, n)
    assert got == battery_grid(lo, hi, n)
    assert got == tradeoff_grid(Fraction(lo), Fraction(hi), n)
    assert got == gap_segment_grid(Fraction(lo), Fraction(hi), n)
    assert all(type(m) is Fraction for m in got)
    assert (len(got), got[0], got[-1]) == (n, lo, hi)


class TestGapCheck:
    def test_even_K_exact_two_at_zero(self):
        report = gap_check(inst(4, 4, 2))
        assert report.ratio_at_zero == 2
        assert report.passed and report.bound == 2

    def test_odd_K_ratio(self):
        report = gap_check(inst(3, 2, 1))
        assert report.ratio_at_zero == Fraction(2 * 3, 3 - 1) == 3
        assert report.passed and report.bound == 3

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("a,b", [(0, 1), (1, 1), (2, 1), (4, 2), (3, 3)])
    def test_sweep_passes(self, K, a, b):
        report = gap_check(inst(K, a, b))
        assert report.passed
        assert report.ratio <= report.bound
        assert report == oracle_gap_check(inst(K, a, b))
