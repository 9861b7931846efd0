"""Acceptance battery: every stated criterion as one exact check.

Each criterion function returns a CriterionResult; `run_acceptance` runs
them all over the standard parameter sweep (K in 2..5, a in 0..4,
b in 1..3). All comparisons are exact rational equalities -- there are no
tolerances to tune anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from ringcache import converse as cv
from ringcache.bounds import (
    coded_gain_regime,
    corner_memories,
    gap_check,
    grid_points,
    rstar_multiaccess,
    rstar_u,
)
from ringcache.model import ProblemInstance, build_demand_structure, enumerate_demands
from ringcache.schemes import (
    accessible_nodes,
    check_demands,
    decode,
    deliver,
    deliver_bits,
    fill_caches,
    make_scheme,
    min_file_size,
    random_library,
    worst_case_load,
)

SWEEP_K = (2, 3, 4, 5)
SWEEP_A = (0, 1, 2, 3, 4)
SWEEP_B = (1, 2, 3)

TIGHTNESS_INSTANCES = ((2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 1, 1), (4, 1, 2))
ROUNDTRIP_SEED = 20240915

CRITERIA = {
    1: "Scheme optimality",
    2: "Running example (3,2,1)",
    3: "LP converse tightness",
    4: "Certificate verification",
    5: "Order-optimality gap",
    6: "Multiaccess optimality",
    7: "Bit-exact round-trip",
    8: "Loose-bound probe",
}


class CriterionResult(NamedTuple):
    number: int
    passed: bool
    detail: str

    @property
    def name(self) -> str:
        return CRITERIA[self.number]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[criterion {self.number}] {status} - {self.name}: {self.detail}"


def sweep_instances() -> list:
    return [(K, a, b) for K in SWEEP_K for a in SWEEP_A for b in SWEEP_B]


def memory_grid(inst: ProblemInstance) -> list:
    """11 rational grid points per segment between the optimal curve's corners."""
    corners = corner_memories(inst)
    return sorted({m for lo, hi in zip(corners, corners[1:]) for m in grid_points(lo, hi, 11)})


def _structures(instances) -> list:
    out = []
    for K, a, b in instances:
        base = ProblemInstance(K, a, b)
        out.append((base, build_demand_structure(base)))
    return out


def criterion_1_achievability(instances=None) -> CriterionResult:
    """worst_case_load(make_scheme) equals rstar_u across the sweep grid."""
    checked = 0
    for base, ds in _structures(instances or sweep_instances()):
        for m in memory_grid(base):
            inst = base.with_m(m)
            ach = worst_case_load(inst, ds, make_scheme(inst))
            want = rstar_u(inst)
            if ach != want:
                detail = f"(K,a,b,M)=({base.K},{base.a},{base.b},{m}): load {ach} != {want}"
                return CriterionResult(1, False, detail)
            checked += 1
    return CriterionResult(1, True, f"worst-case load = R*_u at {checked} (instance, M) points")


def criterion_2_example_reproduction() -> CriterionResult:
    """(3,2,1): R*_u = 5/2 - M/2 on [3,5] and the full-family LP hits 1 at M=3."""
    base = ProblemInstance(3, 2, 1)
    ds = build_demand_structure(base)
    for m in grid_points(3, 5, 11):
        want = Fraction(5, 2) - m / 2
        got = rstar_u(base.with_m(m))
        if got != want:
            return CriterionResult(2, False, f"R*_u({m}) = {got} != {want}")
    lp = cv.build_lp(base.with_m(Fraction(3)), cv.full_family(ds))
    opt = cv.solve_lp(lp).value
    if opt != 1:
        return CriterionResult(2, False, f"LP optimum {opt} != 1 at M=3")
    return CriterionResult(2, True, "R*_u = 5/2 - M/2 on [3,5]; full-family LP optimum = 1 at M=3")


def criterion_3_lp_tightness() -> CriterionResult:
    """solve_lp(full_family) = rstar_u at every corner of the five instances."""
    checked = 0
    for base, ds in _structures(TIGHTNESS_INSTANCES):
        lp = cv.build_lp(base, cv.full_family(ds))
        corners = corner_memories(base)
        for m, outcome in zip(corners, cv.solve_lp_grid(lp, corners)):
            opt, want = outcome.value, rstar_u(base.with_m(m))
            if opt != want:
                detail = f"(K,a,b,M)=({base.K},{base.a},{base.b},{m}): LP {opt} != {want}"
                return CriterionResult(3, False, detail)
            checked += 1
    return CriterionResult(3, True, f"LP optimum = R*_u at all {checked} corner points")


def criterion_4_certificates(instances=None) -> CriterionResult:
    """Certificates verify exactly on matching regimes and error otherwise."""
    for base, ds in _structures(instances or sweep_instances()):
        coded = coded_gain_regime(base)
        for regime, report in cv.certificate_reports(ds).items():
            matching = coded if regime in (cv.Regime.HIGH_M, cv.Regime.LOW_M) else not coded
            raised = isinstance(report, cv.RegimeMismatchError)
            passed = isinstance(report, cv.CertificateReport) and report.ok
            if (passed, raised) != (matching, not matching):
                want = "pass" if matching else "mismatch error"
                detail = f"({base.K},{base.a},{base.b}) {regime.value}: expected {want}"
                return CriterionResult(4, False, detail)
    return CriterionResult(
        4, True, "matching regimes verified, mismatched regimes rejected, full sweep"
    )


def criterion_5_gap(instances=None) -> CriterionResult:
    """Gap to the cut-set bound within 2 (even K) / 3 (odd K); exact at M=0."""
    for K, a, b in instances or sweep_instances():
        report = gap_check(ProblemInstance(K, a, b))
        if not report.passed:
            return CriterionResult(5, False, f"({K},{a},{b}): ratio {report.ratio}")
        want_zero = Fraction(2) if K % 2 == 0 else Fraction(2 * K, K - 1)
        if report.ratio_at_zero != want_zero:
            detail = f"({K},{a},{b}): ratio at M=0 is {report.ratio_at_zero}, want {want_zero}"
            return CriterionResult(5, False, detail)
    return CriterionResult(
        5, True, "ratio <= 2 (even K) / 3 (odd K); equals 2 resp. 2K/(K-1) at M=0"
    )


def criterion_6_multiaccess(instances=None) -> CriterionResult:
    """Multiaccess: zero load at M=a+b for every L >= 2, L-independence,
    and the memory-sharing curve matching K - KM/(a+b) on the grid."""
    for K, a, b in instances or sweep_instances():
        for L in range(2, K + 1):
            inst = ProblemInstance(K, a, b, L, Fraction(a + b))
            ds = build_demand_structure(inst)
            scheme = make_scheme(inst)
            if worst_case_load(inst, ds, scheme) != 0:
                return CriterionResult(6, False, f"({K},{a},{b},L={L}): load != 0")
        base2 = ProblemInstance(K, a, b, 2)
        ds = build_demand_structure(base2)
        probe = next(enumerate_demands(ds))
        for m in grid_points(0, a + b, 11):
            schemes = [
                make_scheme(ProblemInstance(K, a, b, L, m)) for L in range(2, K + 1)
            ]
            transcripts = {
                tuple((msg.components, msg.size) for msg in deliver(base2.with_m(m), ds, s, probe).messages)
                for s in schemes
            }
            # identical schemes send identical delivery plans, so the load
            # is L-free for every demand and one worst-case load covers all L
            if len({s.segments for s in schemes}) != 1 or len(transcripts) != 1:
                detail = f"({K},{a},{b},M={m}): scheme or transcript varies with L"
                return CriterionResult(6, False, detail)
            load = worst_case_load(base2.with_m(m), ds, schemes[0])
            want = rstar_multiaccess(ProblemInstance(K, a, b, 2, m))
            if load != want:
                return CriterionResult(6, False, f"({K},{a},{b},M={m}): load {load} want {want}")
    return CriterionResult(
        6, True, "zero load at M=a+b for all demands and L; load grid matches K-KM/(a+b), L-free"
    )


def _roundtrip_once(inst, ds, rng, demand=None) -> str | None:
    scheme = make_scheme(inst)
    size_b = min_file_size(inst, scheme)
    library = random_library(rng, range(1, inst.N + 1), size_b)  # every file: full placement
    d = demand or tuple(rng.choice(s) for s in ds.demands)
    transcript = deliver_bits(inst, ds, scheme, d, library)
    symbolic = deliver(inst, ds, scheme, d)
    if transcript.total_bits != 8 * size_b * symbolic.total_size:
        return f"bits {transcript.total_bits} != B*load for d={d}"
    caches = fill_caches(inst, ds, scheme, library)
    for k in range(1, inst.K + 1):
        reachable = {n: caches[n] for n in accessible_nodes(inst, k)}
        got = decode(inst, ds, scheme, d, k, reachable, transcript)
        if got != library[d[k - 1]]:
            return f"user {k} decoded wrong bytes for d={d}"
    return None


def criterion_7_roundtrip(instances=None, trials: int = 100) -> CriterionResult:
    """Bit-exact decode round-trips: randomized everywhere, exhaustive K<=3."""
    rng = random.Random(ROUNDTRIP_SEED)
    for K, a, b in instances or sweep_instances():
        base = ProblemInstance(K, a, b)
        ds = build_demand_structure(base)
        grid = memory_grid(base)
        for _ in range(trials):
            m = rng.choice(grid)
            ell = 1 if rng.random() < 0.5 else rng.randrange(2, K + 1)
            inst = ProblemInstance(K, a, b, ell, m)
            err = _roundtrip_once(inst, ds, rng)
            if err:
                return CriterionResult(7, False, f"({K},{a},{b},L={ell},M={m}): {err}")
        if K <= 3:
            check_demands(base)
            for m in (Fraction(0), Fraction(a + b), Fraction(2 * a + b)):
                inst = base.with_m(m)
                for d in enumerate_demands(ds):
                    err = _roundtrip_once(inst, ds, rng, demand=d)
                    if err:
                        return CriterionResult(7, False, f"exhaustive ({K},{a},{b},M={m}): {err}")
    return CriterionResult(
        7, True, f"{trials} randomized trials per instance; exhaustive demand sweeps for K<=3"
    )


# The paper's loose-bound example: averaging the full family at (3,2,1),
# M = 3, gives 54/95.
LOOSE_REFERENCE = ProblemInstance(3, 2, 1, 1, Fraction(3))
LOOSE_REFERENCE_VALUE = Fraction(54, 95)


def criterion_8_loose_bound() -> CriterionResult:
    """Loose-bound probe: sum_all_bound vs the paper-reported 54/95 and the LP."""
    inst, reference = LOOSE_REFERENCE, LOOSE_REFERENCE_VALUE
    ds = build_demand_structure(inst)
    family = cv.full_family(ds)
    loose = cv.sum_all_bound(inst, family)
    opt = cv.solve_lp(cv.build_lp(inst, family)).value
    ok = loose <= opt and loose == reference
    detail = f"sum_all_bound = {loose} (reference 54/95 = {reference}), LP optimum = {opt}"
    return CriterionResult(8, ok, detail)


def run_acceptance(instances=None, trials: int = 100) -> list:
    return [
        criterion_1_achievability(instances),
        criterion_2_example_reproduction(),
        criterion_3_lp_tightness(),
        criterion_4_certificates(instances),
        criterion_5_gap(instances),
        criterion_6_multiaccess(instances),
        criterion_7_roundtrip(instances, trials=trials),
        criterion_8_loose_bound(),
    ]
