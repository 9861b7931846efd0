"""Converse machinery under uncoded placement.

A genie-aided super user that decodes the K distinct demanded files in a
chosen order yields one linear lower bound on the load per (demand vector,
user permutation) pair. Together with per-file partition equalities and
the memory budget these form an exact-rational LP whose optimum equals the
optimal uncoded-placement load. This module generates the inequality
families (the full one and the hand-picked per-regime selections), solves
the LP exactly, collapses it by the ring's full symmetry group (rotations,
reflections and relabelling of files inside one part), and rebuilds the
weighted-sum certificates that give the closed forms.

Variable keys are (file, node-mask) pairs; symmetrised programs use
("orbit", file, mask) keys naming the orbit representative.

A genie row R >= sum(y[k] for k in row) has every coefficient one, so a
row is stored as the sorted tuple of the keys it covers: its users' (file,
mask) key tuples in ascending file order, each user's masks read from one
template per decoding order (``_order_masks``). A symmetrised row repeats
each orbit key once per raw key it stands for, so its coefficients are
multiplicities; ``row_value`` evaluates both kinds. Rows are ordered by
their (key, multiplicity) pairs (``_row_order``): the order fixes the
constraint order the simplex sees, hence its pivot path. On a raw row,
whose keys are distinct, that order is plain tuple order, so only
symmetrised rows are sorted with ``_row_order`` as key.
"""

from __future__ import annotations

import enum
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, groupby, permutations, product, repeat
from math import factorial, lcm

from ringcache import exactlp
from ringcache.bounds import coded_gain_regime
from ringcache.model import (
    BudgetExceededError,
    DemandError,
    DemandStructure,
    ProblemInstance,
    count_demands,
    cyclic_mod,
    enumerate_demands,
)

FAMILY_BUDGET = 10**6
_ROWGEN_THRESHOLD = 192
_ROWGEN_SEED = 96
_ROWGEN_BATCH = 64

AGGREGATE = "aggregate"
PER_NODE = "per_node"


class Regime(enum.Enum):
    HIGH_M = "high_m"
    LOW_M = "low_m"
    LARGE_B = "large_b"


class FamilyError(ValueError):
    """Requested inequality family is not constructible for the parameters."""


class RegimeMismatchError(ValueError):
    """Certificate regime contradicts the instance's parameter condition."""


def row_value(row, x):
    """The right-hand side sum(x[k] for k in row) of a genie row at point x."""
    return sum(map(x.get, row, repeat(0)))


def _row_order(row) -> tuple:
    """The row's (key, multiplicity) pairs; rows are sorted by these."""
    return tuple((k, sum(1 for _ in g)) for k, g in groupby(row))


def _order_masks(K: int, u, full_masks: bool) -> list:
    """Per user (index user-1), its ascending masks under decoding order u.

    The i-th decoded user u_i reads the node sets that avoid the consumed
    users u_1..u_i: all of them with ``full_masks``, else the empty set
    and the singletons (the weakened form the per-regime selections sum
    up).
    """
    out = [()] * K
    rest = (1 << K) - 1  # mask of the users not yet consumed
    for uk in u:
        rest ^= 1 << (uk - 1)
        subs = (m for m in range(rest + 1) if m & rest == m)
        out[uk - 1] = tuple(m for m in subs if full_masks or m.bit_count() <= 1)
    return out


class _KeyMemo(dict):
    """(file, masks) -> the key tuple ((file, m) for m in masks), made once."""

    def __missing__(self, pair):
        keys = self[pair] = tuple([(pair[0], m) for m in pair[1]])
        return keys


def _genie_row(files, masks, memo: _KeyMemo) -> tuple:
    """The row of distinct files through aligned masks, sorted by file then mask."""
    return tuple(chain.from_iterable(map(memo.__getitem__, sorted(zip(files, masks)))))


def genie_inequality(ds: DemandStructure, d, u, full_masks: bool = False) -> tuple:
    """The genie row for demand vector d decoded in permutation order u.

    Each user contributes its demanded file over its ``_order_masks``
    masks; the families build rows the same way but check inputs once.
    """
    K = ds.inst.K
    d = tuple(getattr(d, "files", d))
    u = tuple(u)
    if sorted(u) != list(range(1, K + 1)):
        raise DemandError(f"u={u} is not a permutation of [1..{K}]")
    if not ds.validate_demand(d).distinct:
        raise DemandError("genie rows need pairwise-distinct demands")
    return _genie_row(d, _order_masks(K, u, full_masks), _KeyMemo())


def dedup_rows(rows) -> list:
    """The distinct raw rows, sorted (plain tuple order is their ``_row_order``)."""
    return sorted(set(rows))


def full_family(ds: DemandStructure, dedup: bool = True) -> list:
    """One full-mask genie row per (distinct-demand vector, permutation) pair.

    Undeduplicated, rows come vector by vector, orders in ``permutations``
    order. The K! order templates are made and each vector checked once.
    """
    K = ds.inst.K
    n_all = count_demands(ds)
    if n_all > FAMILY_BUDGET:  # listing distinct vectors walks the whole product
        raise BudgetExceededError(
            f"{n_all} demand vectors exceed the row budget {FAMILY_BUDGET}"
        )
    distinct = list(enumerate_demands(ds, distinct_only=True))
    n_rows = len(distinct) * factorial(K)
    if n_rows > FAMILY_BUDGET:
        raise BudgetExceededError(f"{n_rows} genie rows exceed budget {FAMILY_BUDGET}")
    if not all(ds.validate_demand(d.files).distinct for d in distinct):
        raise DemandError("genie rows need pairwise-distinct demands")
    templates = [_order_masks(K, u, True) for u in permutations(range(1, K + 1))]
    memo = _KeyMemo()
    rows = [_genie_row(d.files, masks, memo) for d in distinct for masks in templates]
    return dedup_rows(rows) if dedup else rows


def _chain_permutations(K: int, k: int) -> tuple:
    """The leftward and rightward user orderings anchored at region k."""
    left = tuple(cyclic_mod(k - j, K) for j in range(K))
    right = tuple(cyclic_mod(k + j, K) for j in range(K))
    return left, right


def selected_family(ds: DemandStructure, regime: Regime) -> list:
    """The hand-picked non-redundant rows backing one regime's certificate.

    HIGH_M: per anchor k, both ring orderings, the first K-1 users demand
    from their shared part along the ordering's direction and the last
    user from its unique part (a^(K-1) * b rows each). LOW_M: same
    orderings with every demand from the directional shared part (a^K
    rows each). LARGE_B: all demand vectors drawn from the unique parts,
    bound by the no-genie cut rows R >= sum_k y[d_k, empty] (b^K rows).

    Each chain (an ordering, one pool and mask template per user) is checked
    once: pools inside their users' demand sets and pairwise disjoint make
    every vector drawn from them admissible and pairwise distinct.
    """
    K, a, b = ds.inst.K, ds.inst.a, ds.inst.b
    if regime is Regime.LARGE_B:
        if b < 1:
            raise FamilyError("LARGE_B family needs b >= 1")
        chains = [(tuple(range(1, K + 1)), ds.part2, [(0,)] * K)]
    elif a < 1:
        raise FamilyError(f"{regime.value} family needs a >= 1")
    elif regime is Regime.HIGH_M and b < 1:
        raise FamilyError("HIGH_M family needs b >= 1")
    else:
        chains = []
        for k in range(1, K + 1):
            for perm, parts in zip(_chain_permutations(K, k), (ds.part1, ds.part3)):
                pools = [parts[uk - 1] for uk in perm]
                if regime is Regime.HIGH_M:
                    pools[-1] = ds.part2[perm[-1] - 1]
                template = _order_masks(K, perm, False)
                chains.append((perm, pools, [template[uk - 1] for uk in perm]))
    rows: list = []
    memo = _KeyMemo()
    for perm, pools, masks in chains:  # pools[j] and masks[j] belong to user perm[j]
        if sorted(perm) != list(range(1, K + 1)):
            raise DemandError(f"u={perm} is not a permutation of [1..{K}]")
        for pool, uk in zip(pools, perm):
            if not ds.demand_sets[uk - 1].issuperset(pool):
                raise DemandError(f"a pool is not demandable in region {uk}")
        if len(set(chain.from_iterable(pools))) != sum(map(len, pools)):
            raise DemandError("genie rows need pairwise-distinct demands")
        rows += [_genie_row(choice, masks, memo) for choice in product(*pools)]
    return rows


@dataclass
class LinearProgram:
    """min R subject to genie rows, per-file partition and memory rows.

    A symmetrised program names its orbits in ``orbit_members`` and keeps
    the program it collapses in ``raw``.
    """

    inst: ProblemInstance
    ds: DemandStructure
    var_keys: tuple
    genie_rows: tuple
    partition_rows: tuple  # (coeffs, rhs) equalities
    memory_rows: tuple  # (coeffs, rhs) upper bounds
    memory_mode: str = AGGREGATE
    orbit_members: dict | None = field(default=None, repr=False)
    raw: LinearProgram | None = field(default=None, repr=False)

    @property
    def n_rows(self) -> int:
        return len(self.genie_rows) + len(self.partition_rows) + len(self.memory_rows)

    def with_m(self, M) -> LinearProgram:
        """The same program at cache size M; only the memory bounds move."""
        inst = self.inst.with_m(M)
        rhs = _memory_rhs(inst, self.memory_mode)
        return replace(
            self,
            inst=inst,
            memory_rows=tuple((coeffs, rhs) for coeffs, _ in self.memory_rows),
            raw=None if self.raw is None else self.raw.with_m(M),
        )


def _memory_rhs(inst: ProblemInstance, memory_mode: str) -> Fraction:
    """K*M for the one aggregate memory row, M for each per-node row."""
    return Fraction(inst.K) * inst.M if memory_mode == AGGREGATE else Fraction(inst.M)


def build_lp(
    inst: ProblemInstance,
    ds: DemandStructure,
    family,
    memory_mode: str = AGGREGATE,
) -> LinearProgram:
    """Assemble the raw LP over all (file, mask) variables."""
    if memory_mode not in (AGGREGATE, PER_NODE):
        raise ValueError(f"unknown memory mode {memory_mode!r}")
    K, N = inst.K, inst.N
    var_keys = tuple((i, m) for i in range(1, N + 1) for m in range(1 << K))
    partition = tuple(
        ({(i, m): Fraction(1) for m in range(1 << K)}, Fraction(1)) for i in range(1, N + 1)
    )
    rhs = _memory_rhs(inst, memory_mode)
    if memory_mode == AGGREGATE:
        coeffs = {
            (i, m): Fraction(m.bit_count())
            for i in range(1, N + 1)
            for m in range(1 << K)
            if m
        }
        memory = ((coeffs, rhs),)
    else:
        memory = tuple(
            (
                {
                    (i, m): Fraction(1)
                    for i in range(1, N + 1)
                    for m in range(1 << K)
                    if m >> (k - 1) & 1
                },
                rhs,
            )
            for k in range(1, K + 1)
        )
    return LinearProgram(
        inst=inst,
        ds=ds,
        var_keys=var_keys,
        genie_rows=tuple(sorted(family)),
        partition_rows=partition,
        memory_rows=memory,
        memory_mode=memory_mode,
    )


@dataclass
class LpOutcome:
    value: Fraction
    assignment: dict


def _structural_constraints(lp: LinearProgram, col: dict) -> list:
    """The partition equalities and memory bounds as simplex constraints."""
    return [
        exactlp.Constraint(coeffs={col[k]: c for k, c in coeffs.items()}, sense=sense, rhs=rhs)
        for rows, sense in ((lp.partition_rows, exactlp.EQUAL), (lp.memory_rows, exactlp.LESS_EQ))
        for coeffs, rhs in rows
    ]


def _solve_subset(lp: LinearProgram, genie_subset):
    col = {key: j for j, key in enumerate(lp.var_keys)}
    r_col = len(lp.var_keys)
    cons = []
    for row in genie_subset:
        coeffs = {col[k]: c for k, c in _row_order(row)}
        coeffs[r_col] = -1
        cons.append(exactlp.Constraint(coeffs=coeffs, sense=exactlp.LESS_EQ, rhs=Fraction(0)))
    cons += _structural_constraints(lp, col)
    sol = exactlp.solve({r_col: Fraction(1)}, cons, n_vars=r_col + 1)
    assignment = {key: sol.x[j] for key, j in col.items() if sol.x[j]}
    return sol.value, assignment


def solve_lp(lp: LinearProgram, use_symmetry: bool | None = None) -> LpOutcome:
    """Exact optimum of min R, with the witness checked against every row.

    Raw programs whose genie family is closed under the ring's full
    symmetry group are solved through their orbit collapse: restricting to
    invariant placements preserves the optimum (group-averaging a feasible
    point is feasible and keeps R). A program ``symmetrize`` returned,
    possibly moved to another M by ``with_m``, is solved the same way
    without collapsing again. Either way the expanded witness is verified
    exactly against every raw row and the raw structural rows. Pass
    ``use_symmetry=False`` to force the direct route on a raw program;
    non-closed families fall back to it. Large families are handled by
    row generation either way.
    """
    if lp.orbit_members is None and use_symmetry is not False:
        try:
            lp = symmetrize(lp)
        except FamilyError:
            if use_symmetry:
                raise
    value, assignment = _solve_iterative(lp)
    if lp.orbit_members is not None:
        assignment = {
            member: val
            for rep, val in assignment.items()
            if val
            for member in lp.orbit_members[rep]
        }
        lp = lp.raw
        if not _witness_ok(lp.genie_rows, value, assignment):
            raise exactlp.LpError("expanded symmetric witness fails a raw row")
    _verify_structural(lp, assignment)
    return LpOutcome(value=value, assignment=assignment)


def _solve_iterative(lp: LinearProgram):
    """Row generation over the genie family; returns (value, assignment)."""
    rows = list(lp.genie_rows)
    if len(rows) <= _ROWGEN_THRESHOLD:
        value, assignment = _solve_subset(lp, rows)
        if rows and not _witness_ok(rows, value, assignment):
            raise exactlp.LpError("witness fails a row it was solved under")
        return value, assignment
    active = rows[:_ROWGEN_SEED]
    active_set = set(active)
    while True:
        value, assignment = _solve_subset(lp, active)
        scaled_value, scaled = _scaled_point(value, assignment)
        violated = []
        for row in rows:
            slack = scaled_value - row_value(row, scaled)  # den times the true slack
            if slack < 0:
                violated.append((slack, _row_order(row), row))
        if not violated:
            return value, assignment
        violated.sort(key=lambda t: (t[0], t[1]))
        for _, _, row in violated[:_ROWGEN_BATCH]:
            if row not in active_set:
                active.append(row)
                active_set.add(row)


def _scaled_point(value, assignment):
    """(value * den, {key: x * den}) in ints, den the lcm of their denominators."""
    den = lcm(value.denominator, *(v.denominator for v in assignment.values()))
    return int(value * den), {k: int(v * den) for k, v in assignment.items()}


def _witness_ok(rows, value, assignment) -> bool:
    scaled_value, scaled = _scaled_point(value, assignment)
    return all(scaled_value >= row_value(r, scaled) for r in rows)


def _verify_structural(lp: LinearProgram, assignment) -> None:
    """Partition and memory rows at a point whose omitted keys are zero."""
    for rows, holds, kind in (
        (lp.partition_rows, operator.eq, "partition"),
        (lp.memory_rows, operator.le, "memory"),
    ):
        for coeffs, rhs in rows:
            total = sum(c * assignment[k] for k, c in coeffs.items() if k in assignment)
            if not holds(total, rhs):
                raise exactlp.LpError(f"witness violates a {kind} row")


def _ring_generators(ds: DemandStructure) -> dict:
    """Key maps, by name, generating the ring's symmetry group.

    The shift, the reflection k -> K+1-k (part1[k] -> part3[K+1-k],
    part2[k] -> part2[K+1-k], mask bits reversed), and a transposition and
    a cycle of the files inside part1[1] and inside part2[1]. A part too
    small for one of them leaves it out: a transposition needs two files,
    a cycle distinct from it three.
    """
    K, N = ds.inst.K, ds.inst.N
    masks = range(1 << K)
    same = list(masks)
    flip: dict = {}
    for k in range(K):
        flip.update(zip(ds.part1[k], ds.part3[K - 1 - k]))
        flip.update(zip(ds.part2[k], ds.part2[K - 1 - k]))
    maps = {  # name -> (file map, mask image by mask); files a map omits stay put
        "shift": ({i: ds.shift_file(i) for i in range(1, N + 1)}, list(map(ds.shift_mask, masks))),
        "reflection": (flip, [int(f"{m:0{K}b}"[::-1], 2) for m in masks]),
    }
    for name, part in (("part1[1]", ds.part1[0]), ("part2[1]", ds.part2[0])):
        if len(part) >= 2:
            maps[f"transposition in {name}"] = ({part[0]: part[1], part[1]: part[0]}, same)
        if len(part) >= 3:
            maps[f"cycle in {name}"] = (dict(zip(part, part[1:] + part[:1])), same)
    return {
        name: {(i, m): (files.get(i, i), mask_map[m]) for i in range(1, N + 1) for m in masks}
        for name, (files, mask_map) in maps.items()
    }


def symmetrize(lp: LinearProgram) -> LinearProgram:
    """Collapse the LP onto orbits of the ring's full symmetry group.

    The group is generated by ``_ring_generators``. The genie family must be
    closed under every generator (each image of a row is again a row),
    else FamilyError; then restricting to invariant placements keeps the
    optimum, and the variables collapse from N * 2^K to one per orbit,
    named ("orbit", *least member). Each raw row projects to the sorted
    tuple of its keys' orbit names; the distinct projections, sorted by
    ``_row_order``, are the genie rows of the result.
    """
    if lp.orbit_members is not None:
        raise ValueError("program is already symmetrised")
    keys = lp.var_keys  # ascending, as build_lp lists them
    pos = {key: j for j, key in enumerate(keys)}
    rows = [tuple(map(pos.__getitem__, row)) for row in lp.genie_rows]
    row_sets = set(map(frozenset, rows))  # a raw row's keys are distinct
    generators = []
    for name, image in _ring_generators(lp.ds).items():
        moved = [pos[image[key]] for key in keys]
        if not row_sets.issuperset(frozenset(map(moved.__getitem__, row)) for row in rows):
            raise FamilyError(f"genie family is not closed under the {name}")
        generators.append(moved)

    index = [-1] * len(keys)  # key position -> position of its orbit's name
    names: list = []
    members: dict = {}
    for j, key in enumerate(keys):
        if index[j] >= 0:
            continue
        orbit = [j]  # keys come in order, so key is the orbit's least
        index[j] = len(names)
        for mem in orbit:
            for moved in generators:
                if index[moved[mem]] < 0:
                    index[moved[mem]] = len(names)
                    orbit.append(moved[mem])
        names.append(("orbit", *key))
        members[names[-1]] = tuple(sorted(keys[mem] for mem in orbit))

    def project(coeffs) -> tuple:
        out: dict = {}
        for key, c in coeffs.items():
            name = names[index[pos[key]]]
            out[name] = out.get(name, Fraction(0)) + c
        return tuple(sorted(out.items()))

    projected = {tuple(sorted(map(index.__getitem__, row))) for row in rows}
    genie = sorted((tuple(names[j] for j in row) for row in projected), key=_row_order)
    partition = {project(coeffs): rhs for coeffs, rhs in lp.partition_rows}
    memory: dict = {}
    for coeffs, rhs in lp.memory_rows:
        proj = project(coeffs)
        memory[proj] = min(memory.get(proj, rhs), rhs)
    return LinearProgram(
        inst=lp.inst,
        ds=lp.ds,
        var_keys=tuple(names),
        genie_rows=tuple(genie),
        partition_rows=tuple((dict(p), rhs) for p, rhs in sorted(partition.items())),
        memory_rows=tuple((dict(p), rhs) for p, rhs in sorted(memory.items())),
        memory_mode=lp.memory_mode,
        orbit_members=members,
        raw=lp,
    )


def average_rows(rows) -> dict:
    """Uniform average of the rows' coefficients, multiplicity included."""
    rows = list(rows)
    total = Counter(chain.from_iterable(rows))
    return {key: Fraction(v, len(rows)) for key, v in total.items()}


def _aggregate_map(ds: DemandStructure, c1_empty, c2_empty, c1_single) -> dict:
    out = {}
    for i in ds.class1:
        if c1_empty:
            out[(i, 0)] = c1_empty
        if c1_single:
            for j in range(ds.inst.K):
                out[(i, 1 << j)] = c1_single
    if c2_empty:
        for i in ds.class2:
            out[(i, 0)] = c2_empty
    return out


@dataclass
class CertificateReport:
    """Everything the weighted-sum certificate of one regime consists of."""

    regime: Regime
    weights: dict
    multipliers: tuple  # (mu_file_shared, mu_file_unique, mu_memory)
    bound_const: Fraction
    bound_m_coeff: Fraction
    expected_const: Fraction
    expected_m_coeff: Fraction
    aggregate_matches: bool
    residuals: dict
    ok: bool

    def bound_at(self, M: Fraction) -> Fraction:
        return self.bound_const + self.bound_m_coeff * M

    def to_json_dict(self) -> dict:
        worst = min(self.residuals.values()) if self.residuals else Fraction(0)
        mu1, mu2, mum = self.multipliers
        return {
            "regime": self.regime.value,
            "weights": {k: str(v) for k, v in self.weights.items()},
            "weighted_rows": {
                "shared_file_size": str(mu1),
                "unique_file_size": str(mu2),
                "memory_budget": str(mum),
            },
            "bound": f"{self.bound_const} + ({self.bound_m_coeff})*M",
            "aggregate_matches": self.aggregate_matches,
            "min_residual": str(worst),
            "residuals": {_key_name(k): str(v) for k, v in sorted(self.residuals.items())},
            "ok": self.ok,
        }


def certificate_report(inst: ProblemInstance, ds: DemandStructure, regime: Regime) -> CertificateReport:
    """Rebuild one regime's weighted-sum certificate and verify it.

    The selected family is averaged into the aggregate inequality, mixed
    with the complementary family at the regime's weight, and combined
    with the two file-size equalities and the memory budget at the
    regime's multipliers. The certificate stands when the mixing weights
    are admissible, the aggregate matches its closed form, every residual
    coefficient is non-negative, and the resulting bound is the regime's
    straight line. A regime whose parameter condition fails raises
    RegimeMismatchError.
    """
    K, a, b = inst.K, inst.a, inst.b
    aK, bK = Fraction(a * K), Fraction(b * K)
    weights: dict = {}

    if regime in (Regime.HIGH_M, Regime.LOW_M):
        if not coded_gain_regime(inst):
            raise RegimeMismatchError(
                f"{regime.value} needs b(K-1) < 2a; got b(K-1)={b * (K - 1)}, 2a={2 * a}"
            )
        if regime is Regime.HIGH_M:
            agg = average_rows(selected_family(ds, Regime.HIGH_M))
            expected_agg = _aggregate_map(
                ds, Fraction(K - 1, a * K), Fraction(1, b * K), Fraction(K - 1, 2 * a * K)
            )
            # the beta0 coefficient may be lowered to the multiplier level
            weights["beta_slack"] = Fraction(1, b * K) - Fraction(K - 1, 2 * a * K)
            mu = (Fraction(K - 1, a * K), Fraction(K - 1, 2 * a * K), Fraction(K - 1, 2 * a * K))
            expected_const = Fraction((K - 1) * (2 * a + b), 2 * a)
            expected_m = -Fraction(K - 1, 2 * a)
        else:
            w = Fraction((K + 1) * b, 2 * (a + b))
            weights["mix"] = w
            agg = average_rows(selected_family(ds, Regime.LOW_M))
            expected_agg = _aggregate_map(
                ds, Fraction(1, a), Fraction(0), Fraction(K - 1, 2 * a * K)
            )
            if w:
                high = average_rows(selected_family(ds, Regime.HIGH_M))
                expected_high = _aggregate_map(
                    ds, Fraction(K - 1, a * K), Fraction(1, b * K), Fraction(K - 1, 2 * a * K)
                )
                agg = _mix_maps(w, high, agg)
                expected_agg = _mix_maps(w, expected_high, expected_agg)
            mu = (
                Fraction(2 * a * K + b * (K - 1), 2 * (a + b) * a * K),
                Fraction(K + 1, 2 * (a + b) * K),
                Fraction(K + 1, 2 * (a + b) * K),
            )
            expected_const = Fraction(K)
            expected_m = -Fraction(K + 1, 2 * (a + b))
    else:
        if coded_gain_regime(inst):
            w = Fraction(2 * a * K, (K - 1) * (2 * a + b))
            raise RegimeMismatchError(
                f"large_b needs b(K-1) >= 2a; mixing weight {w} falls outside [0, 1]"
            )
        w = Fraction(2 * a * K, (K - 1) * (2 * a + b))
        weights["mix"] = w
        beta = average_rows(selected_family(ds, Regime.LARGE_B))
        expected_beta = _aggregate_map(ds, Fraction(0), Fraction(1, b), Fraction(0))
        if w:
            high = average_rows(selected_family(ds, Regime.HIGH_M))
            expected_high = _aggregate_map(
                ds, Fraction(K - 1, a * K), Fraction(1, b * K), Fraction(K - 1, 2 * a * K)
            )
            agg = _mix_maps(w, high, beta)
            expected_agg = _mix_maps(w, expected_high, expected_beta)
        else:
            agg = beta
            expected_agg = expected_beta
        mu = (
            Fraction(2, 2 * a + b),
            Fraction(1, 2 * a + b),
            Fraction(1, 2 * a + b),
        )
        expected_const = Fraction(K)
        expected_m = -Fraction(K, 2 * a + b)

    weights_ok = all(0 <= v <= 1 for v in weights.values())
    aggregate_matches = _maps_equal(agg, expected_agg)
    mu1, mu2, mum = mu
    residuals: dict = {}
    ok_residuals = True
    for i in range(1, inst.N + 1):
        mu_class = mu1 if i in ds.class1 else mu2
        for m in range(1 << K):
            combo = mu_class - mum * m.bit_count()
            r = agg.get((i, m), Fraction(0)) - combo
            if r:
                residuals[(i, m)] = r
            if r < 0:
                ok_residuals = False
    bound_const = mu1 * aK + mu2 * bK
    bound_m = -mum * K
    ok = (
        weights_ok
        and aggregate_matches
        and ok_residuals
        and bound_const == expected_const
        and bound_m == expected_m
    )
    return CertificateReport(
        regime=regime,
        weights=weights,
        multipliers=mu,
        bound_const=bound_const,
        bound_m_coeff=bound_m,
        expected_const=expected_const,
        expected_m_coeff=expected_m,
        aggregate_matches=aggregate_matches,
        residuals=residuals,
        ok=ok,
    )


def certificate_check(inst: ProblemInstance, ds: DemandStructure, regime: Regime) -> bool:
    """True when the regime's weighted-sum certificate verifies exactly."""
    return certificate_report(inst, ds, regime).ok


def _mix_maps(w: Fraction, first: dict, second: dict) -> dict:
    out: dict = {}
    for key, v in first.items():
        out[key] = w * v
    for key, v in second.items():
        out[key] = out.get(key, Fraction(0)) + (1 - w) * v
    return {k: v for k, v in out.items() if v}


def _maps_equal(x: dict, y: dict) -> bool:
    keys = set(x) | set(y)
    return all(x.get(k, Fraction(0)) == y.get(k, Fraction(0)) for k in keys)


def sum_all_bound(inst: ProblemInstance, ds: DemandStructure) -> Fraction:
    """The loose bound from averaging the whole family into a single row.

    All full-mask genie rows are summed with multiplicity and normalised;
    the bound is the minimum of that one averaged expression over
    placements satisfying the per-file partition and the aggregate memory
    budget. Aggregation can only weaken the LP, so this never exceeds the
    family's LP optimum.
    """
    avg = average_rows(full_family(ds, dedup=False))
    lp = build_lp(inst, ds, (), AGGREGATE)
    col = {key: j for j, key in enumerate(lp.var_keys)}
    objective = {col[k]: c for k, c in avg.items()}
    sol = exactlp.solve(objective, _structural_constraints(lp, col), n_vars=len(col))
    return max(Fraction(0), sol.value)


def _key_name(key) -> str:
    if isinstance(key, tuple) and key and key[0] == "orbit":
        return f"o[{key[1]},{key[2]}]"
    return f"y[{key[0]},{key[1]}]"


def lp_to_text(lp: LinearProgram) -> str:
    """Plain-text exact-rational dump: one row per line, `sense rhs coeffs`."""
    lines = ["min R"]
    for row in lp.genie_rows:
        parts = [f"{exactlp.GREATER_EQ} 0", "R:1"]
        parts += [f"{_key_name(k)}:{-c}" for k, c in _row_order(row)]
        lines.append(" ".join(parts))
    for coeffs, rhs in lp.partition_rows:
        parts = [f"{exactlp.EQUAL} {rhs}"]
        parts += [f"{_key_name(k)}:{c}" for k, c in sorted(coeffs.items())]
        lines.append(" ".join(parts))
    for coeffs, rhs in lp.memory_rows:
        parts = [f"{exactlp.LESS_EQ} {rhs}"]
        parts += [f"{_key_name(k)}:{c}" for k, c in sorted(coeffs.items())]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
