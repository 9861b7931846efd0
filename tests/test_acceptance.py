"""The acceptance battery: one test per criterion, exact tolerances.

Every criterion prints its own pass/fail line (visible with `pytest -s`
or in the captured output of a failure). All comparisons are exact
rational equalities; nothing here is tuned or approximate.
"""

from fractions import Fraction

import pytest

from ringcache import verify
from ringcache.bounds import corner_memories
from ringcache.model import BudgetExceededError, ProblemInstance
from test_bounds import battery_grid


def battery_corners(K, a, b):
    """The battery's ``corner_memories`` before it moved into bounds."""
    if b * (K - 1) < 2 * a:
        return [Fraction(0), Fraction(a + b), Fraction(2 * a + b)]
    return [Fraction(0), Fraction(2 * a + b)]


def battery_memory_grid(K, a, b):
    """The battery's ``memory_grid`` before grid_points and corner_memories."""
    if b * (K - 1) < 2 * a:
        points = battery_grid(0, a + b) + battery_grid(a + b, 2 * a + b)
    else:
        points = battery_grid(0, 2 * a + b)
    return sorted(set(points))


def test_corners_and_memory_grid_match_the_battery_versions():
    for K, a, b in verify.sweep_instances() + [(4, 1, 2), (4, 10, 2), (6, 1, 1)]:
        inst = ProblemInstance(K, a, b)
        assert corner_memories(inst) == battery_corners(K, a, b)
        assert verify.memory_grid(inst) == battery_memory_grid(K, a, b)


def _report(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_scheme_optimality():
    _report(verify.criterion_1_achievability())


def test_criterion_2_running_example():
    _report(verify.criterion_2_example_reproduction())


def test_criterion_3_lp_converse_tightness():
    _report(verify.criterion_3_lp_tightness())


def test_criterion_4_certificate_verification():
    _report(verify.criterion_4_certificates())


def test_criterion_5_order_optimality_gap():
    _report(verify.criterion_5_gap())


def test_criterion_6_multiaccess_optimality():
    _report(verify.criterion_6_multiaccess())


def test_criterion_7_bit_exact_roundtrip():
    _report(verify.criterion_7_roundtrip())


def test_criterion_7_checks_the_demand_budget_before_it_enumerates(monkeypatch):
    # (3, 1000, 1) has 2001^3 demand vectors; the sweep is refused before any.
    def no_enumeration(ds):
        raise AssertionError("criterion 7 enumerated past the budget")

    monkeypatch.setattr(verify, "enumerate_demands", no_enumeration)
    with pytest.raises(BudgetExceededError, match=r"^8012006001 demand vectors exceed "):
        verify.criterion_7_roundtrip([(3, 1000, 1)], trials=0)


def test_criterion_8_loose_bound_probe():
    _report(verify.criterion_8_loose_bound())


def test_criterion_8_lists_the_full_family_rows_once(monkeypatch):
    built = []
    full_family, block_rows = verify.cv.full_family, verify.cv._block_rows

    def counted(ds):
        built.append("family")
        return full_family(ds)

    def counted_rows(ds, block):
        built.append("rows")
        return block_rows(ds, block)

    monkeypatch.setattr(verify.cv, "full_family", counted)
    monkeypatch.setattr(verify.cv, "_block_rows", counted_rows)
    assert verify.criterion_8_loose_bound().passed
    # One family serves the loose bound, which lists no row, and the LP, which lists them once.
    assert built == ["family", "rows"]
