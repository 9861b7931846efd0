"""Converse machinery under uncoded placement.

A genie-aided super user that decodes the K distinct demanded files in a
chosen order yields one linear lower bound on the load per (demand vector,
user permutation) pair. Together with per-file partition equalities and
the memory budget these form an exact-rational LP whose optimum equals the
optimal uncoded-placement load. This module builds the inequality
families (the full one and the per-regime selections) from blocks of
decoding-order templates and per-user file pools (``Block``), solves the
LP exactly, collapses it by the ring's full symmetry group (rotations,
the reflection and relabelling of files inside one part, each generator
a file and a node permutation), proving closure block by block, and
rebuilds the weighted-sum certificates that give the closed forms.

Column j of a program is ``var_keys[j]``, a (file, node-mask) key (i, m)
at j = (i-1) << K | m, or an orbit ("orbit", *least member) numbered in
that member's order; every row but a raw program's genie rows is keyed by it.

A genie row R >= sum(y[k] for k in row) has every coefficient one. Its
i-th decoded user covers its file over every submask of ``top``, the
users not yet consumed (``_order_masks``), or, in the weakened per-regime
rows, over the empty mask and the singletons of ``top``. A raw row is the
sorted tuple of its K links, one int per user holding file, ``top`` and
rule (``_link``), and denotes the disjoint union of their key sets; only
the raw text export expands it (``_expand``), printing rows in expanded
key order. A symmetrised row is the sorted tuple of its (column,
multiplicity) pairs; rows in plain order are the constraint order the
simplex pivots through. A ``Family`` holds its blocks
and its counted length and lists rows only when iterated; a raw program's
genie rows are its family, held once. Blocks are the only form a family
takes: closure is proved block by block, the orbit rows come from one
(block, template) pair per orbit of the group on pairs
(``_representatives``; K!/(2K) of the full family's K! templates for
K >= 3, one pair of a selected family), each from a pattern-reduced copy
of its block (``_reduced``), witnesses are checked block by block and
averages are counted from blocks, so raw rows are listed only by the raw
text export.
"""

from __future__ import annotations

import enum
import operator
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate, chain, permutations, product, repeat
from math import factorial, lcm, prod
from typing import NamedTuple

from ringcache import exactlp
from ringcache.bounds import coded_gain_regime, corner_memories, rstar_u
from ringcache.model import (
    BudgetExceededError,
    DemandError,
    DemandStructure,
    ProblemInstance,
    count_text,
    cyclic_mod,
)

FAMILY_BUDGET = 10**6
VARIABLE_BUDGET = 2**21  # (file, mask) variables, N * 2^K; (16,1,1) has exactly this many
_ROWGEN_SEED = 16
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


class _Memo(dict):
    """key -> fn(key), computed once per key."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _link(K: int, file: int, top: int, full) -> int:
    """One user's share of a row: ``file`` over every submask of ``top`` if
    full, else over the empty mask and singletons; a top of at most one bit,
    where the rules agree, takes the weakened one, so equal key sets have
    equal links."""
    return (file << K | top) << 1 | (full and top & (top - 1) > 0)


def _link_keys(K: int) -> _Memo:
    """link -> its (file, mask) keys in ascending mask order."""

    def keys(link):
        file, top = link >> K + 1, link >> 1 & ~(-1 << K)
        if link & 1:
            subs = [m for m in range(top + 1) if m & top == m]
        else:  # the empty mask and top's bits, without scanning every mask below top
            subs = [0, *(1 << j for j in range(K) if top >> j & 1)]
        return tuple([(file, m) for m in subs])

    return _Memo(keys)


def _expand(link_keys: _Memo, row) -> tuple:
    """The sorted (file, mask) key tuple a link row denotes."""
    return tuple(chain.from_iterable(map(link_keys.__getitem__, row)))


def row_value(row, x: dict):
    """A symmetrised genie row's right-hand side at x: the sum of c * x[j]
    over its (column, multiplicity) pairs, omitted columns zero."""
    return sum(c * x.get(j, 0) for j, c in row)


def _order_masks(K: int, u) -> tuple:
    """Per user (index user-1), its ``top`` under decoding order u: the mask
    of the users still unconsumed once it and the users before it are."""
    out = [0] * K
    rest = (1 << K) - 1  # mask of the users not yet consumed
    for uk in u:
        rest ^= 1 << (uk - 1)
        out[uk - 1] = rest
    return tuple(out)


class Block(NamedTuple):
    """Genie rows: each pairwise-distinct choice of one file per user from
    its pool, under each template, by the mask rule ``full``. A pool, and a
    template's ``top``, per user (index user-1)."""

    pools: tuple
    tops: tuple
    full: bool


class Family:
    """Genie rows as the blocks ``_block_rows`` derives them from, with their
    number, counted before any block was built; the rows are listed only
    when the family is iterated."""

    def __init__(self, ds: DemandStructure, blocks, n_rows: int):
        self.ds, self.blocks, self.n_rows = ds, tuple(blocks), n_rows

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self):
        return chain.from_iterable(_block_rows(self.ds, block) for block in self.blocks)


def _check_pools(ds: DemandStructure, block: Block) -> None:
    """Pools inside their users' demand sets, and pairwise disjoint, make
    every choice an admissible demand vector of distinct files; a selected
    block is checked once, where it is made."""
    for uk, pool in enumerate(block.pools, 1):
        if not ds.demand_sets[uk - 1].issuperset(pool):
            raise DemandError(f"a pool is not demandable in region {uk}")
    if not _disjoint(block.pools):
        raise DemandError("genie rows need pairwise-distinct demands")


def _disjoint(pools) -> bool:
    """Whether no file lies in two of the pools, so no choice repeats a file."""
    return len(set(chain.from_iterable(pools))) == sum(map(len, pools))


def _choices(block: Block) -> list:
    """The block's pairwise-distinct choices, files by user, in ``product`` order."""
    n_all = prod(map(len, block.pools))
    if n_all > FAMILY_BUDGET:  # listing the distinct choices walks the whole product
        raise BudgetExceededError(
            f"{count_text(n_all)} demand vectors exceed the row budget {FAMILY_BUDGET}")
    disjoint = _disjoint(block.pools)
    return [c for c in product(*block.pools) if disjoint or len(set(c)) == len(c)]


def _check_rows(n_rows: int) -> None:
    if n_rows > FAMILY_BUDGET:
        raise BudgetExceededError(f"{count_text(n_rows)} genie rows exceed budget {FAMILY_BUDGET}")


def check_variables(inst: ProblemInstance) -> None:
    """Refuse an LP over more than VARIABLE_BUDGET (file, mask) variables
    without computing 2^K for a K past the budget's bit length."""
    if inst.K >= VARIABLE_BUDGET.bit_length() or inst.N << inst.K > VARIABLE_BUDGET:
        raise BudgetExceededError(
            f"{inst.N} * 2^{inst.K} LP variables exceed the variable budget {VARIABLE_BUDGET}")


def _block_rows(ds: DemandStructure, block: Block) -> list:
    """The block's rows: choices in ``product`` order, each under every
    template. Its family's rows were counted, and refused past the budget,
    before any block was built."""
    choices = _choices(block)
    K = ds.inst.K
    tables = _Memo(lambda p: {f: _link(K, f, p[1], block.full) for f in ds.demand_sets[p[0] - 1]})
    templates = [[tables[uk, top] for uk, top in enumerate(tops, 1)] for tops in block.tops]
    return [tuple(sorted(map(dict.__getitem__, t, c))) for c in choices for t in templates]


def dedup_rows(rows) -> list:
    """The distinct rows, sorted: link rows, or ``symmetrize``'s link-id shapes."""
    return sorted(set(rows))


def full_family(ds: DemandStructure) -> Family:
    """One full-rule genie row per (distinct-demand vector, permutation) pair,
    vector by vector, orders in ``permutations`` order: one block of the K!
    order templates over the demand sets. No row repeats: a row's tops form
    a strict chain, which names the decoding order, and the file at each
    top names the demand. With at least one distinct-demand vector there
    are K! rows or more, refused first; then the rows are counted, and
    refused, before any order is listed."""
    K = ds.inst.K
    if factorial(K) > FAMILY_BUDGET:
        raise BudgetExceededError(f"{K}! decoding orders exceed the row budget {FAMILY_BUDGET}")
    n_rows = len(_choices(Block(ds.demands, (), True))) * factorial(K)
    _check_rows(n_rows)
    tops = tuple(_order_masks(K, u) for u in permutations(range(1, K + 1)))
    return Family(ds, [Block(ds.demands, tops, True)], n_rows)


def _chain_permutations(K: int, k: int) -> tuple:
    """The leftward and rightward user orderings anchored at region k."""
    left = tuple(cyclic_mod(k - j, K) for j in range(K))
    right = tuple(cyclic_mod(k + j, K) for j in range(K))
    return left, right


def selected_family(ds: DemandStructure, regime: Regime) -> Family:
    """The hand-picked non-redundant rows backing one regime's certificate,
    from the blocks of ``_selected_blocks``, refused past the row budget
    before any block is built."""
    n_rows = _selected_rows(ds.inst, regime)
    _check_rows(n_rows)
    return Family(ds, _selected_blocks(ds, regime), n_rows)


def _selected_rows(inst: ProblemInstance, regime: Regime) -> int:
    """The number of rows of one regime's selected family, from the instance
    alone: 2K*a^(K-1)*b for HIGH_M, 2K*a^K for LOW_M and b^K for LARGE_B;
    FamilyError where the family is not constructible."""
    K, a, b = inst.K, inst.a, inst.b
    if regime is Regime.LARGE_B:
        if b < 1:
            raise FamilyError("LARGE_B family needs b >= 1")
        return b**K
    if a < 1:
        raise FamilyError(f"{regime.value} family needs a >= 1")
    if regime is Regime.HIGH_M:
        if b < 1:
            raise FamilyError("HIGH_M family needs b >= 1")
        return 2 * K * a ** (K - 1) * b
    return 2 * K * a**K


def _selected_blocks(ds: DemandStructure, regime: Regime) -> list:
    """The blocks of one regime's selected family.

    HIGH_M: per anchor k, both ring orderings, the first K-1 users demand
    from their shared part along the ordering's direction and the last
    user from its unique part (a^(K-1) * b rows each). LOW_M: same
    orderings with every demand from the directional shared part (a^K
    rows each). LARGE_B: all demand vectors drawn from the unique parts,
    bound by the no-genie cut rows R >= sum_k y[d_k, empty] (b^K rows).

    Each chain (an ordering, one pool and ``top`` per user), and the cut,
    is one block with one template and pairwise disjoint pools.
    """
    K = ds.inst.K
    _selected_rows(ds.inst, regime)  # FamilyError where there is no family
    if regime is Regime.LARGE_B:
        blocks = [Block(ds.part2, ((0,) * K,), False)]
    else:
        blocks = []
        for k in range(1, K + 1):
            for perm, parts in zip(_chain_permutations(K, k), (ds.part1, ds.part3)):
                pools = list(parts)  # user uk's pool is parts[uk - 1]
                if regime is Regime.HIGH_M:
                    pools[perm[-1] - 1] = ds.part2[perm[-1] - 1]
                blocks.append(Block(tuple(pools), (_order_masks(K, perm),), False))
    for block in blocks:
        _check_pools(ds, block)
    return blocks


class LinearProgram(NamedTuple):
    """min R subject to genie rows, per-file partition and memory rows.

    A raw program's genie rows are its ``Family``, listed only when
    iterated. A symmetrised program's are its distinct orbit rows in sorted
    order, each its sorted (column, multiplicity) pairs; it names its orbits'
    members in ``orbit_members`` and keeps the program it collapses in
    ``raw``. The partition and memory rows are {column: coeff} dicts, column
    j being ``var_keys[j]``; their senses and right-hand sides come from
    ``_structural_rows``.
    """

    inst: ProblemInstance
    var_keys: tuple
    genie_rows: Family | tuple
    partition_rows: tuple  # per file, its coefficients
    memory_rows: tuple  # the aggregate row's coefficients, or each node's
    memory_mode: str = AGGREGATE
    orbit_members: dict | None = None
    raw: LinearProgram | None = None

    @property
    def n_rows(self) -> int:
        return len(self.genie_rows) + len(self.partition_rows) + len(self.memory_rows)


def _structural_rows(lp: LinearProgram, M) -> list:
    """(coeffs, sense, rhs) of each partition row, ``== 1``, then of each
    memory row at cache size M, clamped as ``ProblemInstance`` clamps it:
    ``<= K*M`` for the aggregate row, ``<= M`` for each per-node row."""
    M = lp.inst.with_m(M).M
    memory = lp.inst.K * M if lp.memory_mode == AGGREGATE else M
    return [*((coeffs, exactlp.EQUAL, Fraction(1)) for coeffs in lp.partition_rows),
            *((coeffs, exactlp.LESS_EQ, memory) for coeffs in lp.memory_rows)]


def build_lp(inst: ProblemInstance, family: Family, memory_mode: str = AGGREGATE) -> LinearProgram:
    """The raw LP over all (file, mask) variables and the family's rows,
    which it holds as the family and does not list."""
    if memory_mode not in (AGGREGATE, PER_NODE):
        raise ValueError(f"unknown memory mode {memory_mode!r}")
    K, N = inst.K, inst.N
    var_keys = tuple((i, m) for i in range(1, N + 1) for m in range(1 << K))  # (i-1) << K | m
    partition = tuple(dict.fromkeys(range(i << K, i + 1 << K), 1) for i in range(N))
    if memory_mode == AGGREGATE:
        memory = ({j: m.bit_count() for j, (_, m) in enumerate(var_keys) if m},)
    else:
        memory = tuple({j: 1 for j, (_, m) in enumerate(var_keys) if m >> k & 1} for k in range(K))
    return LinearProgram(
        inst=inst,
        var_keys=var_keys,
        genie_rows=family,
        partition_rows=partition,
        memory_rows=memory,
        memory_mode=memory_mode,
    )


class LpOutcome(NamedTuple):
    value: Fraction
    assignment: dict


def _structural_constraints(lp: LinearProgram, M) -> list:
    """The structural rows at cache size M as simplex constraints, a
    partition row as its ``<=`` row followed by that row's negation."""
    out = []
    for coeffs, sense, rhs in _structural_rows(lp, M):
        out.append(exactlp.Constraint(coeffs, rhs))
        if sense == exactlp.EQUAL:
            out.append(exactlp.Constraint({j: -c for j, c in coeffs.items()}, -rhs))
    return out


def _genie_constraint(row, n_vars: int) -> exactlp.Constraint:
    """The genie row as the simplex constraint sum(c * y[j]) - R <= 0, R in column n_vars."""
    coeffs = dict(row)
    coeffs[n_vars] = -1
    return exactlp.Constraint(coeffs, 0)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Exact optimum of min R, solved on the orbits of the ring's full symmetry
    group: group-averaging a feasible point keeps it feasible and keeps R. A
    raw program is collapsed by ``symmetrize``, which raises FamilyError on a
    family it does not close; a program it returned is solved as it is. The
    expanded witness is checked exactly against every raw row and the raw
    structural rows. The one-point case of ``solve_lp_grid``."""
    (outcome,) = solve_lp_grid(lp, [lp.inst.M])
    return outcome


def solve_lp_grid(lp: LinearProgram, memories) -> list:
    """``solve_lp`` of the program at each cache size M of memories, in
    order: one collapse, and one tableau that walks the grid by moving its
    memory bounds, each point starting from the last point's optimal basis
    and active rows. Each expanded witness is checked at its own M."""
    if lp.orbit_members is None:
        lp = symmetrize(lp)
    out = []
    for M, (value, x) in zip(memories, _solve_iterative(lp, memories)):
        assignment = {
            member: val for j, val in x.items() for member in lp.orbit_members[lp.var_keys[j]]
        }
        if not _witness_ok(lp.raw.genie_rows, value, assignment):
            raise exactlp.LpError("expanded symmetric witness fails a raw row")
        _verify_structural(lp.raw, assignment, M)
        out.append(LpOutcome(value=value, assignment=assignment))
    return out


def _solve_iterative(lp: LinearProgram, memories):
    """(value, x), x by column, of the symmetrised program at each cache
    size M of memories in turn, by row generation over its genie rows in
    order on one tableau: it starts from the first rows at the first M of
    memories, moves every structural constraint to its
    ``_structural_constraints`` bound from point to point (a partition
    pair's move is a no-op), and re-optimises after each move and after
    each batch of the most violated rows is added. A violated active row,
    by index, is a solver fault."""
    rows, n_vars = lp.genie_rows, len(lp.var_keys)
    cons = [_genie_constraint(row, n_vars) for row in rows[:_ROWGEN_SEED]]
    first = len(cons)  # the structural constraints' first index
    active = set(range(first))
    cons += _structural_constraints(lp, memories[0])
    tab = exactlp.optimal_tableau({n_vars: 1}, cons, n_vars=n_vars + 1)
    for M in memories:
        for i, con in enumerate(_structural_constraints(lp, M), first):
            tab.move_rhs(i, con.rhs)
        tab.reoptimize()
        while True:
            value, x = _tableau_point(tab)
            scaled_value, scaled = _scaled(value, x)
            # den times the true slack; ties go by position
            slacks = ((scaled_value - row_value(row, scaled), j) for j, row in enumerate(rows))
            violated = sorted(t for t in slacks if t[0] < 0)
            if not violated:
                break
            if not active.isdisjoint(j for _, j in violated):
                raise exactlp.LpError("witness fails a row it was solved under")
            for _, j in violated[:_ROWGEN_BATCH]:
                active.add(j)
                tab.add_row(_genie_constraint(rows[j], n_vars))
            tab.reoptimize()
        yield value, x


def _tableau_point(tab):
    """(value, x) at the tableau's optimum, x by column, R's and zeros omitted."""
    sol = tab.solution()
    return sol.value, {j: v for j, v in enumerate(sol.x[:-1]) if v}


def _scaled(value, assignment):
    """(value * den, assignment * den) in integers, den the lcm of all denominators."""
    den = lcm(value.denominator, *(v.denominator for v in assignment.values()))
    return int(value * den), {k: int(v * den) for k, v in assignment.items()}


def _witness_ok(family: Family, value, assignment) -> bool:
    """True when (value, assignment) satisfies every row of the family,
    checked template by template: the sum over users of the largest link
    value in the user's pool bounds every row of the (block, template),
    exactly so over disjoint pools, where the maximising choice is a row.
    Each (user, top)'s largest value is found once per block; a template
    whose bound exceeds R is checked row by row when its pools overlap.
    """
    scaled_value, x = _scaled(value, assignment)
    K = family.ds.inst.K
    link_keys = _link_keys(K)
    sums = _Memo(lambda link: sum(map(x.get, link_keys[link], repeat(0))))
    for block in family.blocks:
        if not all(block.pools):  # no choice, no row
            continue
        # (user index, top) -> the largest link value in the user's pool
        largest = _Memo(lambda p: max(sums[_link(K, f, p[1], block.full)]
                                      for f in block.pools[p[0]]))
        choices = None
        for tops in block.tops:
            if sum(map(largest.__getitem__, enumerate(tops))) <= scaled_value:
                continue
            if _disjoint(block.pools):
                return False
            if choices is None:
                choices = _choices(block)
            links = [
                {f: sums[_link(K, f, top, block.full)] for f in pool}
                for pool, top in zip(block.pools, tops)
            ]
            if any(sum(map(dict.__getitem__, links, c)) > scaled_value for c in choices):
                return False
    return True


def _verify_structural(lp: LinearProgram, assignment, M) -> None:
    """The structural rows at cache size M at a point whose omitted keys are
    zero, in integers: the point is scaled by den (``_scaled``), and a row's
    total times rhs's denominator is held against rhs's numerator times den."""
    den, scaled = _scaled(Fraction(1), assignment)
    x = list(map(scaled.get, lp.var_keys, repeat(0)))  # by column
    for coeffs, sense, rhs in _structural_rows(lp, M):
        equal = sense == exactlp.EQUAL
        holds, kind = (operator.eq, "partition") if equal else (operator.le, "memory")
        total = sum(map(operator.mul, coeffs.values(), map(x.__getitem__, coeffs)))
        if not holds(total * rhs.denominator, rhs.numerator * den):
            raise exactlp.LpError(f"witness violates a {kind} row")


def _ring_generators(ds: DemandStructure) -> dict:
    """Pairs (phi, sigma), by name, generating the ring's symmetry group:
    phi maps each file, ``sigma[k-1]`` is node k's image, and a mask's image
    has its bits moved by sigma.

    The shift, the reflection k -> K+1-k (part1[k] -> part3[K+1-k],
    part2[k] -> part2[K+1-k]), and a transposition and a cycle of the
    files inside part1[1] and inside part2[1]. A part too small for one of
    them leaves it out: a transposition needs two files, a cycle distinct
    from it three.
    """
    K, N = ds.inst.K, ds.inst.N
    same, nodes = {i: i for i in range(1, N + 1)}, tuple(range(1, K + 1))
    flip: dict = {}
    for k in range(K):
        flip.update(zip(ds.part1[k], ds.part3[K - 1 - k]))
        flip.update(zip(ds.part2[k], ds.part2[K - 1 - k]))
    gens = {
        "shift": ({i: ds.shift_file(i) for i in same}, nodes[1:] + nodes[:1]),
        "reflection": (flip, nodes[::-1]),
    }
    for name, part in (("part1[1]", ds.part1[0]), ("part2[1]", ds.part2[0])):
        if len(part) >= 2:
            gens[f"transposition in {name}"] = ({**same, part[0]: part[1], part[1]: part[0]}, nodes)
        if len(part) >= 3:
            gens[f"cycle in {name}"] = ({**same, **dict(zip(part, part[1:] + part[:1]))}, nodes)
    return gens


def _block_image(block: Block, phi, sigma, masks) -> tuple:
    """(key, tops): the block's image under (phi, sigma) as template set,
    pools by user and rule, and each template's image in template order;
    user k's pool and top go to user sigma(k). Equal keys, equal rows."""
    moved_from = sorted(range(len(sigma)), key=sigma.__getitem__)  # user sigma(k) <- user k
    tops = [tuple(masks[t[k]] for k in moved_from) for t in block.tops]
    pools = tuple(frozenset(map(phi.__getitem__, block.pools[k])) for k in moved_from)
    return (frozenset(tops), pools, block.full), tops


def _orbits(n: int, generators) -> tuple:
    """(index, orbits) of the positions range(n) under ``generators``, each a
    list mapping a position to its image: each position's orbit number and
    each orbit's positions, least first, orbits numbered by their least."""
    index, orbits = [-1] * n, []
    for j in range(n):
        if index[j] >= 0:
            continue
        orbit = [j]
        index[j] = len(orbits)
        for mem in orbit:
            for moved in generators:
                if index[moved[mem]] < 0:
                    index[moved[mem]] = len(orbits)
                    orbit.append(moved[mem])
        orbits.append(orbit)
    return index, orbits


def _representatives(blocks, images) -> list:
    """The blocks cut to the least (block, template) pair of each orbit, a
    block left with none dropped. Pairs are numbered block by block,
    template by template, and ``images`` maps them per generator; a pair's
    image has its rows' images as rows, so its rows project alike."""
    _, orbits = _orbits(sum(len(b.tops) for b in blocks), images)
    reps, start, out = {orbit[0] for orbit in orbits}, 0, []
    for block in blocks:
        tops = tuple(t for p, t in enumerate(block.tops, start) if p in reps)
        if tops:
            out.append(block._replace(tops=tops))
        start += len(block.tops)
    return out


def _reduced(block: Block, cls: dict) -> Block:
    """The block with each pool cut to its first n files of each class, n
    the number of pools meeting the class, when every pool meeting a class
    holds the same files of it; else the block itself.

    A file's class (``cls``) is its keys' orbit ids, mask by mask, so a
    link's projection reads its file only through the class. A row takes
    at most n distinct files of a class, one per pool meeting it, so each
    class pattern of the block's rows is a pattern of the cut block's.
    """
    held = defaultdict(list)  # class -> its files in each pool meeting it
    for pool in block.pools:
        by_class = defaultdict(list)
        for f in pool:
            by_class[cls[f]].append(f)
        for c, files in by_class.items():
            held[c].append(files)
    keep = set()
    for pools in held.values():
        if any(set(files) != set(pools[0]) for files in pools[1:]):
            return block
        keep.update(pools[0][:len(pools)])
    return block._replace(pools=tuple(tuple(f for f in pool if f in keep) for pool in block.pools))


def symmetrize(lp: LinearProgram) -> LinearProgram:
    """Collapse the LP onto orbits of the ring's full symmetry group.

    Every generator of ``_ring_generators`` must map each block of the
    family onto a block of it (``_block_image``), else FamilyError naming the
    first that does not, whose image of the rows may still be the rows. A
    block's image is then a block whose rows are the images of the block's,
    so the family is closed, and as a row's key set is the disjoint union
    of its links' and equal key sets have equal links, so is the expanded
    family. Restricting to invariant placements then keeps the optimum,
    and the variables collapse to one per orbit, named ("orbit", *least
    member) and numbered in its order. A row projects to its keys' orbits'
    sorted (column, multiplicity) pairs; the distinct projections, sorted,
    are the genie rows of the result, and the structural rows' projections
    are {column: coeff} dicts. A generator maps the rows of a (block,
    template) pair onto those of its image pair, and a projection is
    constant on orbits, so only the rows of the least pair of each orbit
    are projected (``_representatives``): K!/(2K) of the full family's K!
    templates for K >= 3 (1 of 2 at K = 2), one pair of a selected family.
    Each pair's rows are those of its block reduced by its files' classes
    (``_reduced``), which project onto the same rows as the block's, so no
    raw row is listed; at (6,1,1) the full family lists 19,320 rows.
    """
    if lp.orbit_members is not None:
        raise ValueError("program is already symmetrised")
    K, family = lp.inst.K, lp.genie_rows
    keys = lp.var_keys  # key (i, m) at position (i - 1) << K | m, as build_lp lists them
    link_keys = _link_keys(K)
    identity = range(lp.inst.N + 1), range(1, K + 1), range(1 << K)  # phi, sigma, masks
    block_at = {_block_image(b, *identity)[0]: j for j, b in enumerate(family.blocks)}
    template_at = [{tops: t for t, tops in enumerate(b.tops)} for b in family.blocks]
    first = list(accumulate((len(b.tops) for b in family.blocks), initial=0))  # block j's 1st pair
    generators, images = [], []
    for name, (phi, sigma) in _ring_generators(family.ds).items():
        masks = [sum(1 << s - 1 for j, s in enumerate(sigma) if m >> j & 1) for m in range(1 << K)]
        image = []
        for b in family.blocks:
            key, tops = _block_image(b, phi, sigma, masks)
            j = block_at.get(key)
            if j is None:
                raise FamilyError(
                    f"the {name} maps a block of the genie family onto no block of it")
            image += [first[j] + template_at[j][t] for t in tops]
        images.append(image)
        generators.append([(phi[i] - 1) << K | masks[m] for i, m in keys])

    index, orbits = _orbits(len(keys), generators)
    names = [("orbit", *keys[orbit[0]]) for orbit in orbits]
    members = {name: tuple(sorted(keys[mem] for mem in orbit))
               for name, orbit in zip(names, orbits)}

    def project(coeffs) -> tuple:
        counts: Counter = Counter()
        for j, c in coeffs.items():
            counts[index[j]] += c
        return tuple(sorted(counts.items()))

    width = 1 << K  # file i's keys are var_keys[(i-1) * width : i * width]
    cls = {i: tuple(index[(i - 1) * width:i * width]) for i in range(1, lp.inst.N + 1)}
    rows = chain.from_iterable(_block_rows(family.ds, _reduced(b, cls))
                               for b in _representatives(family.blocks, images))
    # A link's projection is the sorted orbit positions of its keys, named
    # by an id; rows with equal id multisets project alike, so each such
    # multiset is concatenated and sorted once.
    ids: dict = {}
    link_id = _Memo(lambda link: ids.setdefault(
        tuple(sorted(index[(i - 1) << K | m] for i, m in link_keys[link])), len(ids)))
    shapes = dedup_rows(tuple(sorted(map(link_id.__getitem__, row))) for row in rows)
    by_id = list(ids)
    projected = {tuple(sorted(chain.from_iterable(map(by_id.__getitem__, s)))) for s in shapes}
    genie = sorted(tuple(Counter(row).items()) for row in projected)  # a sorted row counts in order
    partition, memory = ({project(coeffs) for coeffs in rows}
                         for rows in (lp.partition_rows, lp.memory_rows))
    return LinearProgram(
        inst=lp.inst,
        var_keys=tuple(names),
        genie_rows=tuple(genie),
        partition_rows=tuple(map(dict, sorted(partition))),
        memory_rows=tuple(map(dict, sorted(memory))),
        memory_mode=lp.memory_mode,
        orbit_members=members,
        raw=lp,
    )


def _block_counts(ds: DemandStructure, blocks) -> tuple:
    """(counts, n_rows): the number of the blocks' rows covering each (file,
    mask) key, zeros omitted, and of rows, from no row: a block pairs each
    choice with each template, so user u's link occurs (choices giving u its
    file) x (templates giving u its top) times. Disjoint pools admit every
    choice and list none; overlapping ones count ``_choices``."""
    K = ds.inst.K
    link_keys, total, n_rows = _link_keys(K), defaultdict(int), 0
    for block in blocks:
        if not all(block.pools):  # no choice, no row
            continue
        if _disjoint(block.pools):
            n_choices = prod(map(len, block.pools))
            chosen = [dict.fromkeys(pool, n_choices // len(pool)) for pool in block.pools]
        else:
            choices = _choices(block)
            n_choices = len(choices)
            chosen = [Counter(c[uk] for c in choices) for uk in range(K)]
        n_rows += n_choices * len(block.tops)
        for uk, files in enumerate(chosen):
            for top, n_top in Counter(t[uk] for t in block.tops).items():
                masks = [m for _, m in link_keys[_link(K, 0, top, block.full)]]
                for f, n_f in files.items():
                    n = n_f * n_top
                    for m in masks:
                        total[f, m] += n
    return total, n_rows


class CertificateReport(NamedTuple):
    """Everything the weighted-sum certificate of one regime consists of.

    Residuals are scaled by ``denominator``: ``narrow`` maps each file, in
    ascending order, to those on its empty mask and singletons, ascending;
    ``wide`` maps it to its class's by popcount, all that a mask of two
    bits or more sees. Only the JSON expands them key by key.
    """

    regime: Regime
    weights: dict
    multipliers: tuple  # (mu_file_shared, mu_file_unique, mu_memory)
    bound_const: Fraction
    bound_m_coeff: Fraction
    aggregate_matches: bool
    denominator: int
    narrow: dict
    wide: dict
    min_residual: Fraction  # the least nonzero residual, 0 when there is none
    ok: bool

    def _scaled_residuals(self):
        """((file, mask), denominator * residual) of each nonzero residual, in key order."""
        for i, near in self.narrow.items():
            by_popcount = self.wide[i]
            for m in range(1 << len(near) - 1):
                r = by_popcount[m.bit_count()] if m & (m - 1) else near[m.bit_length()]
                if r:
                    yield (i, m), r

    def to_json_dict(self) -> dict:
        mu1, mu2, mum = self.multipliers
        text = _Memo(lambda r: str(Fraction(r, self.denominator)))  # each distinct value once
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
            "min_residual": str(self.min_residual),
            "residuals": {f"y[{i},{m}]": text[r] for (i, m), r in self._scaled_residuals()},
            "ok": self.ok,
        }


def certificate_reports(ds: DemandStructure) -> dict:
    """Regime -> its CertificateReport, or the error refusing it; each
    selected family's rows are counted from its blocks at most once, and
    no row is built."""
    counts, out = _Memo(lambda regime: _block_counts(ds, _selected_blocks(ds, regime))), {}
    for regime in Regime:
        try:
            out[regime] = certificate_report(ds, regime, counts)
        except (RegimeMismatchError, FamilyError) as exc:
            out[regime] = exc
    return out


def certificate_report(ds: DemandStructure, regime: Regime, counts: _Memo) -> CertificateReport:
    """Rebuild one regime's weighted-sum certificate, a line in M, and verify it.

    The selected family is averaged into the aggregate inequality, mixed
    with the complementary family at the regime's weight, and combined
    with the two file-size equalities and the memory budget at the
    regime's multipliers. The certificate stands when the mixing weights
    are admissible, the aggregate matches its closed form, every residual
    coefficient is non-negative, and the resulting bound meets ``rstar_u``
    at both ends of the regime's segment of ``corner_memories``: the upper
    segment for high_m, the lower (or only) one otherwise; only K, a and b
    of ``ds.inst`` are read. A regime whose parameter condition fails
    raises RegimeMismatchError. ``counts`` maps a regime to its selected
    family's (key counts, rows), as ``certificate_reports`` counts them
    from the family's blocks.

    All is compared in integers over one denominator D, the lcm of each
    family's weight per row, the multipliers' and the closed form's (on a
    shared file's empty mask and singletons, a unique file's empty mask).
    """
    inst = ds.inst
    K, a, b = inst.K, inst.a, inst.b
    weights: dict = {}
    if regime is Regime.LARGE_B and coded_gain_regime(inst):
        w = Fraction(2 * a * K, (K - 1) * (2 * a + b))
        raise RegimeMismatchError(
            f"large_b needs b(K-1) >= 2a; mixing weight {w} falls outside [0, 1]"
        )
    if regime is not Regime.LARGE_B and not coded_gain_regime(inst):
        raise RegimeMismatchError(
            f"{regime.value} needs b(K-1) < 2a; got b(K-1)={b * (K - 1)}, 2a={2 * a}"
        )
    terms = [(Fraction(1), counts[regime])]  # (weight, (counts, rows)) per averaged family

    def high_m_form() -> tuple:
        return Fraction(K - 1, a * K), Fraction(K - 1, 2 * a * K), Fraction(1, b * K)

    if regime is Regime.HIGH_M:
        form = high_m_form()
        # the beta0 coefficient may be lowered to the multiplier level
        weights["beta_slack"] = Fraction(1, b * K) - Fraction(K - 1, 2 * a * K)
        mu = (Fraction(K - 1, a * K), Fraction(K - 1, 2 * a * K), Fraction(K - 1, 2 * a * K))
    else:  # the regime's own family, mixed with HIGH_M's at weight w
        if regime is Regime.LOW_M:
            w = Fraction((K + 1) * b, 2 * (a + b))
            form = (Fraction(1, a), Fraction(K - 1, 2 * a * K), Fraction(0))
            mu = (Fraction(2 * a * K + b * (K - 1), 2 * (a + b) * a * K),
                  Fraction(K + 1, 2 * (a + b) * K), Fraction(K + 1, 2 * (a + b) * K))
        else:
            w = Fraction(2 * a * K, (K - 1) * (2 * a + b))
            form = (Fraction(0), Fraction(0), Fraction(1, b))
            mu = (Fraction(2, 2 * a + b), Fraction(1, 2 * a + b), Fraction(1, 2 * a + b))
        weights["mix"] = w
        if w:
            terms = [(1 - w, terms[0][1]), (w, counts[Regime.HIGH_M])]
            form = tuple(w * h + (1 - w) * f for h, f in zip(high_m_form(), form))

    D = lcm(*(f.denominator for f in (*mu, *form)),
            *((weight / n_rows).denominator for weight, (_, n_rows) in terms))
    agg: defaultdict = defaultdict(int)
    for weight, (family, n_rows) in terms:
        scale = int(weight * D / n_rows)
        for key, n in family.items():
            agg[key] += scale * n
    mu1, mu2, mum = mu
    # The selected rows are weakened, so agg is zero on masks of two bits or
    # more; there a residual depends only on the file's class and popcount.
    masks = (0, *(1 << j for j in range(K)))
    classes = []  # per class: D * (mu - mum * p) by popcount p, D * agg's closed form, wide
    for mu_class, empty, single in ((mu1, *form[:2]), (mu2, form[2], 0)):
        combos = [int(D * (mu_class - mum * p)) for p in range(K + 1)]
        want = [int(D * empty), *repeat(int(D * single), K)]
        classes.append((combos, want, tuple(-c for c in combos)))
    narrow, wide, aggregate_matches = {}, {}, True
    for i in range(1, inst.N + 1):
        combos, want, wide[i] = classes[i in ds.class2]
        got = [agg.get((i, m), 0) for m in masks]
        aggregate_matches = aggregate_matches and got == want
        narrow[i] = tuple(g - combos[m.bit_count()] for g, m in zip(got, masks))
    values = set(chain.from_iterable(narrow.values())).union(*(w[2:] for w in wide.values()))
    bound_const, bound_m = mu1 * a * K + mu2 * b * K, -mum * K
    corners = corner_memories(inst)
    ends = corners[1:] if regime is Regime.HIGH_M else corners[:2]
    on_curve = all(bound_const + bound_m * m == rstar_u(inst.with_m(m)) for m in ends)
    ok = all(0 <= v <= 1 for v in weights.values()) and aggregate_matches and min(values) >= 0
    worst = Fraction(min((v for v in values if v), default=0), D)
    return CertificateReport(regime, weights, mu, bound_const, bound_m, aggregate_matches, D,
                             narrow, wide, worst, ok and on_curve)


def sum_all_bound(inst: ProblemInstance, family: Family) -> Fraction:
    """The loose bound from averaging the full family into one row.

    The rows are counted from the blocks of ``family``, the full family
    the caller built, without building a row (``_block_counts``); the
    bound is the minimum of their summed row over placements satisfying
    the per-file partition and the aggregate memory budget, divided once
    by the number of rows. Aggregation only weakens the LP, so this never
    exceeds the family's LP optimum. The optimum is checked outside the
    simplex: its point against the structural rows, and its value against
    the summed row at that point, exactly.
    """
    total, n_rows = _block_counts(family.ds, family.blocks)
    lp = build_lp(inst, family, AGGREGATE)
    objective = {(i - 1) << inst.K | m: c for (i, m), c in total.items()}
    sol = exactlp.solve(objective, _structural_constraints(lp, inst.M), n_vars=len(lp.var_keys))
    _verify_structural(lp, {key: v for key, v in zip(lp.var_keys, sol.x) if v}, inst.M)
    if sum(c * sol.x[j] for j, c in objective.items()) != sol.value:
        raise exactlp.LpError("the loose bound's value is not the average at its point")
    return max(Fraction(0), sol.value / n_rows)


def _key_name(key) -> str:
    if isinstance(key, tuple) and key and key[0] == "orbit":
        return f"o[{key[1]},{key[2]}]"
    return f"y[{key[0]},{key[1]}]"


def lp_to_text(lp: LinearProgram) -> str:
    """Plain-text exact-rational dump: one row per line, `sense rhs coeffs`."""
    lines, K, rows = ["min R"], lp.inst.K, lp.genie_rows
    if lp.orbit_members is None:  # the family's distinct rows print expanded, in expanded order
        link_keys = _link_keys(K)
        rows = sorted(tuple(((i - 1) << K | m, 1) for i, m in _expand(link_keys, row))
                      for row in dedup_rows(rows))
    for row in rows:
        terms = (f"{_key_name(lp.var_keys[j])}:{-c}" for j, c in row)
        lines.append(" ".join((f"{exactlp.GREATER_EQ} 0", "R:1", *terms)))
    for coeffs, sense, rhs in _structural_rows(lp, lp.inst.M):
        terms = (f"{_key_name(lp.var_keys[j])}:{c}" for j, c in sorted(coeffs.items()))
        lines.append(" ".join((f"{sense} {rhs}", *terms)))
    return "\n".join(lines) + "\n"
