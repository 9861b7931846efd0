"""Demand-structure construction, index arithmetic, enumeration."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringcache import model
from ringcache.model import (
    DemandError,
    InvalidInstanceError,
    ProblemInstance,
    build_demand_structure,
    count_text,
    cyclic_mod,
    enumerate_demands,
    mask_of,
    nodes_of,
)


def structure(K, a, b, L=1, M=0):
    inst = ProblemInstance(K, a, b, L, Fraction(M))
    return inst, build_demand_structure(inst)


def assert_invariants(ds):
    """Every structural invariant of a demand structure, in work linear in N."""
    K, a, b = ds.inst.K, ds.inst.a, ds.inst.b
    holders = {}  # file -> the regions whose demand set holds it, in ascending order
    for k in range(1, K + 1):
        d1, d2, d3 = (set(part[k - 1]) for part in (ds.part1, ds.part2, ds.part3))
        assert len(d1) == len(d3) == a and len(d2) == b
        right = cyclic_mod(k + 1, K)
        assert d3 == set(ds.part1[right - 1]), f"D3[{k}] is not D1[{right}]"
        # the demand set is the disjoint union of its three parts
        assert len(d1 | d2 | d3) == len(d1) + len(d2) + len(d3) == 2 * a + b
        assert d1 | d2 | d3 == ds.demand_sets[k - 1] == set(ds.demands[k - 1])
        assert list(ds.demands[k - 1]) == sorted(ds.demand_sets[k - 1])
        if K >= 3:
            assert len(ds.demand_sets[k - 1] & ds.demand_sets[right - 1]) == a
        for i in ds.demand_sets[k - 1]:
            holders.setdefault(i, []).append(k)
    # regions that are not ring neighbours share no file
    for ks in holders.values():
        assert len(ks) <= 2
        assert len(ks) == 1 or cyclic_mod(ks[1] - ks[0], K) in (1, K - 1), \
            f"non-neighbouring D[{ks[0]}], D[{ks[1]}] intersect"
    assert set(holders) == set(range(1, ds.inst.N + 1))
    shared = {i for part in ds.part1 for i in part}
    assert not shared & ds.class2
    assert len(shared) == a * K and len(ds.class2) == b * K


class TestCyclicMod:
    def test_divisible_maps_to_modulus(self):
        assert cyclic_mod(4, 4) == 4

    def test_wraparound_by_one(self):
        assert cyclic_mod(5, 4) == 1

    def test_zero_maps_to_modulus(self):
        assert cyclic_mod(0, 3) == 3

    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            cyclic_mod(3, 0)

    @given(st.integers(-1000, 1000), st.integers(1, 60))
    def test_range_and_congruence(self, x, m):
        r = cyclic_mod(x, m)
        assert 1 <= r <= m
        assert (r - x) % m == 0


class TestCountText:
    @pytest.mark.parametrize("n, text", [
        (0, "0"),
        (14348907, "14348907"),
        (10**4300 - 1, "9" * 4300),  # str()'s default limit is 4,300 digits
        (10**4300, "at least 10^4300"),
        (2 * 10**5000 - 1, "at least 10^5000"),
        (3**10000, "at least 10^4771"),
        (2**100000, "at least 10^30102"),
        (3**1_000_000, "at least 10^477121"),  # the estimate is one short of the exponent
    ], ids=["zero", "sweep-refusal", "4300-digits", "4301-digits", "5001-digits", "3^10000",
            "2^100000", "3^1000000"])
    def test_renders_the_exact_power_of_ten_past_the_digit_limit(self, n, text):
        assert count_text(n) == text


class TestMasks:
    def test_roundtrip(self):
        assert nodes_of(mask_of([1, 3])) == (1, 3)
        assert mask_of([2]) == 2
        assert nodes_of(0) == ()


class TestBuildDemandStructure:
    def test_paper_running_example(self):
        # K=3, a=2, b=1: the nine files split into three overlapping sets.
        _, ds = structure(3, 2, 1)
        assert set(ds.demand_sets[0]) == {1, 2, 3, 4, 5}
        assert set(ds.demand_sets[1]) == {4, 5, 6, 7, 8}
        assert set(ds.demand_sets[2]) == {7, 8, 9, 1, 2}
        assert {i for part in ds.part1 for i in part} == {1, 2, 4, 5, 7, 8}
        assert ds.class2 == {3, 6, 9}
        assert ds.part1[0] == (1, 2) and ds.part2[0] == (3,) and ds.part3[0] == (4, 5)

    def test_four_regions_unit_overlap(self):
        _, ds = structure(4, 1, 1)
        assert set(ds.demand_sets[0]) == {1, 2, 3}
        assert set(ds.demand_sets[1]) == {3, 4, 5}
        assert set(ds.demand_sets[2]) == {5, 6, 7}
        assert set(ds.demand_sets[3]) == {7, 8, 1}

    def test_no_overlap_when_a_is_zero(self):
        _, ds = structure(2, 0, 2)
        assert set(ds.demand_sets[0]) == {1, 2}
        assert set(ds.demand_sets[1]) == {3, 4}
        assert ds.demand_sets[0].isdisjoint(ds.demand_sets[1])
        assert not any(ds.part1)

    def test_two_regions_share_both_sides(self):
        # For K=2 the left and right neighbour coincide; the interval
        # formula still yields disjoint parts of the stated sizes.
        _, ds = structure(2, 1, 1)
        assert set(ds.demand_sets[0]) == {1, 2, 3}
        assert set(ds.demand_sets[1]) == {1, 3, 4}
        assert ds.part3[0] == (3,) == ds.part1[1]
        assert ds.part3[1] == (1,) == ds.part1[0]
        assert ds.demand_sets[0] & ds.demand_sets[1] == {1, 3}

    def test_rejects_single_region(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(1, 1, 1)

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("b", [0, 1, 2, 3, 4])
    def test_invariants_sweep(self, K, a, b):
        if a + b < 1:
            return
        _, ds = structure(K, a, b)
        assert_invariants(ds)
        assert all(len(s) == ds.inst.m_max for s in ds.demands)

    def test_deterministic(self):
        _, first = structure(5, 2, 3)
        _, second = structure(5, 2, 3)
        assert first.demands == second.demands

    def test_mutation_is_caught_by_named_invariant(self):
        """The invariants' check is not vacuous: a shifted D3 fails it."""
        _, ds = structure(3, 2, 1)
        shifted = tuple(tuple(x + 1 for x in part) for part in ds.part3)
        broken = ds._replace(part3=shifted)
        with pytest.raises(AssertionError, match="D3"):
            assert_invariants(broken)

    @pytest.mark.parametrize("k, donors", [(1, (3, 5)), (1, (5, 3)), (2, (5, 5)), (4, (1, 6)),
                                           (7, (2, 7)), (3, (3, 6))])
    def test_non_neighbours_sharing_a_file_are_caught(self, k, donors):
        """Region k's two unique files are replaced by those of the donor
        regions; the invariants' check names a non-neighbouring pair that
        holds one of them."""
        _, ds = structure(7, 1, 2)
        part2 = list(ds.part2)
        part2[k - 1] = tuple(ds.part2[d - 1][j] for j, d in enumerate(donors))
        sets = list(ds.demand_sets)
        sets[k - 1] = frozenset(ds.part1[k - 1] + part2[k - 1] + ds.part3[k - 1])
        demands = list(ds.demands)
        demands[k - 1] = tuple(sorted(sets[k - 1]))
        broken = ds._replace(part2=tuple(part2), demand_sets=tuple(sets), demands=tuple(demands))
        with pytest.raises(AssertionError) as caught:
            assert_invariants(broken)
        found = re.search(r"non-neighbouring D\[(\d+)\], D\[(\d+)\] intersect", str(caught.value))
        assert found, str(caught.value)
        pair = {int(found[1]), int(found[2])}
        assert k in pair and pair - {k} <= set(donors) and 2 <= cyclic_mod(max(pair) - min(pair), 7) <= 5

    def test_large_ring_is_checked_in_linear_work(self, monkeypatch):
        """The build and the invariants' check both take linear work; a scan
        over every region pair would make K^2 = 4*10^8 calls."""
        K, calls = 20000, []
        real = model.cyclic_mod

        def counted(x, m):
            calls.append(None)
            if len(calls) > 20 * K:
                raise AssertionError("cyclic_mod called more than 20 K times")
            return real(x, m)

        monkeypatch.setattr(model, "cyclic_mod", counted)
        ds = build_demand_structure(ProblemInstance(K, 1, 1))
        assert len(ds.demands) == K and ds.part3[-1] == (1,)
        assert_invariants(ds)

    def test_home_and_demand_regions(self):
        _, ds = structure(3, 2, 1)
        assert ds.home_region(4) == 2  # file 4 sits in D1[2] = D3[1]
        assert ds.demand_regions(4) == (1, 2)
        assert ds.demand_regions(3) == (1,)
        assert ds.demand_regions(1) == (1, 3)


class TestProblemInstance:
    def test_clamps_large_m(self):
        inst = ProblemInstance(3, 2, 1, 1, Fraction(99))
        assert inst.M == 5

    def test_rejects_negative_m(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(3, 2, 1, 1, Fraction(-1))

    def test_rejects_bad_l(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(3, 2, 1, 4)
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(3, 2, 1, 0)

    def test_rejects_empty_library(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(3, 0, 0)

    def test_n_derivation(self):
        assert ProblemInstance(4, 1, 1).N == 8
        assert ProblemInstance(3, 2, 1).N == 9

    def test_json_roundtrip(self):
        inst = ProblemInstance(4, 1, 2, 2, Fraction(5, 2))
        doc = inst.to_json_dict()
        assert doc == {"K": 4, "a": 1, "b": 2, "L": 2, "M": "5/2"}
        assert ProblemInstance.from_json_dict(doc) == inst
        strings = {"K": "4", "a": " 1", "b": "2", "L": "2", "M": 2.5}
        assert ProblemInstance.from_json_dict(strings) == inst

    @pytest.mark.parametrize("field", ["K", "a", "b", "L"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, Fraction(3), "3", None])
    def test_refuses_a_non_integer(self, field, value):
        fields = {"K": 3, "a": 2, "b": 1, "L": 1, field: value}
        with pytest.raises(InvalidInstanceError, match=f"^{field} must be an integer, got "):
            ProblemInstance(**fields)

    @pytest.mark.parametrize("m", [0.1, 2.0, True, "1/2", None])
    def test_refuses_an_inexact_cache_size(self, m):
        with pytest.raises(InvalidInstanceError, match="^M must be an int or a Fraction, got "):
            ProblemInstance(3, 2, 1, M=m)
        with pytest.raises(InvalidInstanceError, match="^M must be an int or a Fraction, got "):
            ProblemInstance(3, 2, 1).with_m(m)

    @pytest.mark.parametrize("field", ["K", "a", "b", "L"])
    @pytest.mark.parametrize("value", [3.7, 3.0, True, "1.5", None, [3]])
    def test_json_refuses_a_non_integer(self, field, value):
        doc = {"K": 3, "a": 2, "b": 1, "L": 1, field: value}
        with pytest.raises(InvalidInstanceError, match=f"^{field} must be an integer, got "):
            ProblemInstance.from_json_dict(doc)


def oracle_count_distinct(demand_sets):
    """Independent brute-force count over explicitly given demand sets."""
    from itertools import product

    return sum(1 for d in product(*demand_sets) if len(set(d)) == len(demand_sets))


class TestEnumerateDemands:
    def test_total_count_is_product(self):
        _, ds = structure(3, 2, 1)
        assert sum(1 for _ in enumerate_demands(ds)) == 125

    def test_distinct_count_running_example(self):
        # Oracle over the paper-stated sets, independent of the builder:
        # 30 vectors repeat a shared file (10 per adjacent pair), no overlaps.
        oracle = oracle_count_distinct(
            [{1, 2, 3, 4, 5}, {4, 5, 6, 7, 8}, {7, 8, 9, 1, 2}]
        )
        assert oracle == 95
        _, ds = structure(3, 2, 1)
        assert sum(1 for d in enumerate_demands(ds) if len(set(d)) == len(d)) == oracle

    def test_distinct_count_two_regions(self):
        # D1={1,2,3}, D2={1,3,4} share files 1 and 3, so 9 - 2 = 7 remain.
        oracle = oracle_count_distinct([{1, 2, 3}, {1, 3, 4}])
        assert oracle == 7
        _, ds = structure(2, 1, 1)
        assert sum(1 for d in enumerate_demands(ds) if len(set(d)) == len(d)) == oracle

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 1, 1)])
    def test_power_law_and_order(self, K, a, b):
        _, ds = structure(K, a, b)
        seen = list(enumerate_demands(ds))
        assert len(seen) == (2 * a + b) ** K
        assert seen == sorted(seen)
        for d in seen:
            assert type(d) is tuple
            for k, f in enumerate(d, start=1):
                assert f in ds.demand_sets[k - 1]

    def test_validate_demand(self):
        _, ds = structure(3, 2, 1)
        assert ds.validate_demand((1, 6, 7)) == (1, 6, 7)
        assert ds.validate_demand([4, 4, 9]) == (4, 4, 9)  # repeats are admissible
        with pytest.raises(DemandError):
            ds.validate_demand((9, 6, 7))
        with pytest.raises(DemandError):
            ds.validate_demand((1, 6))
