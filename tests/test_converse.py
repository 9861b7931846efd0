"""Genie families, exact LP, symmetrisation, certificates, loose bound."""

import hashlib
import inspect
import operator
import re
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, groupby, permutations, product, repeat
from math import factorial, lcm
from pathlib import Path

import pytest

from ringcache import converse as cv
from ringcache.bounds import coded_gain_regime, corner_memories, rstar_u
from ringcache.model import (
    BudgetExceededError,
    DemandError,
    ProblemInstance,
    build_demand_structure,
    enumerate_demands,
    mask_of,
    nodes_of,
)
from ringcache.schemes import make_scheme, worst_case_load
from ringcache.verify import memory_grid, sweep_instances
from test_schemes import scheme_placement


def setup(K, a, b, L=1, M=0):
    inst = ProblemInstance(K, a, b, L, Fraction(M))
    return inst, build_demand_structure(inst)


GOLDEN = Path(__file__).resolve().parent / "golden"

_FAMILY_CACHE = {}


def family_for(ds):
    key = (ds.inst.K, ds.inst.a, ds.inst.b)
    if key not in _FAMILY_CACHE:
        _FAMILY_CACHE[key] = cv.full_family(ds)
    return _FAMILY_CACHE[key]


def expand(K, row):
    """A link row's sorted (file, mask) key tuple, through the product's one expansion."""
    return cv._expand(cv._link_keys(K), row)


def expanded(ds, rows):
    return [expand(ds.inst.K, row) for row in rows]


def raw_rows(lp):
    """A raw program's distinct link rows, sorted: its family's rows, listed."""
    return cv.dedup_rows(lp.genie_rows)


def row_order(row) -> tuple:
    """A row of names' (name, multiplicity) pairs: the order orbit rows
    were sorted in while they were stored as names."""
    return tuple((k, sum(1 for _ in g)) for k, g in groupby(row))


def column_rows(var_keys, rows) -> tuple:
    """Rows of names, a name once per unit of its coefficient, as the
    (column, multiplicity) pairs of a program whose column j is
    ``var_keys[j]``, in the rows' order."""
    col = {key: j for j, key in enumerate(var_keys)}
    return tuple(tuple(sorted(Counter(map(col.__getitem__, row)).items())) for row in rows)


def by_column(var_keys, coeffs) -> dict:
    """A name-keyed coefficient dict as {column: coeff} through ``var_keys``."""
    col = {key: j for j, key in enumerate(var_keys)}
    return {col[key]: c for key, c in coeffs.items()}


def named_coeffs(lp, coeffs) -> dict:
    """A {column: coeff} row of lp keyed by name, through ``var_keys``."""
    return {lp.var_keys[j]: c for j, c in coeffs.items()}


def named_rows(lp) -> list:
    """A symmetrised program's genie rows as sorted tuples of names, each
    name once per unit of its multiplicity, through ``var_keys``."""
    return [tuple(chain.from_iterable(repeat(lp.var_keys[j], c) for j, c in row))
            for row in lp.genie_rows]


def direct_solve(lp):
    """The direct route, the orbit route's oracle: lp solved as its collapse
    under the trivial group, one orbit per key and the expanded key rows in
    sorted order, through the same row generation and the same witness
    check against every raw row."""
    key_rows = sorted(expanded(lp.genie_rows.ds, raw_rows(lp)))
    trivial = lp._replace(genie_rows=column_rows(lp.var_keys, key_rows),
                          orbit_members={key: (key,) for key in lp.var_keys}, raw=lp)
    return cv.solve_lp(trivial)


def with_m(lp, M):
    """The same program at cache size M; only the instance moves, and with
    it the memory bounds ``cv._structural_rows`` reads. The oracles solve
    such copies; the solver makes none, moving its tableau's memory bounds
    instead."""
    return lp._replace(inst=lp.inst.with_m(M), raw=None if lp.raw is None else with_m(lp.raw, M))


def rebuilt_structural_rows(lp, M):
    """(partition, memory): lp's structural rows rebuilt from its instance
    at cache size M as (coeffs, rhs) pairs, coeffs keyed by name, the
    oracle of ``cv._structural_rows``. A file's row sums its keys to 1; the
    aggregate row weighs each key by its mask's popcount against K*M, a
    per-node row sums the keys on its node against M; M is clamped to
    2a+b. A symmetrised program's rows are projected onto its orbits, in
    sorted order."""
    inst = lp.inst.with_m(M)
    K, N = inst.K, inst.N
    keys = [(i, m) for i in range(1, N + 1) for m in range(1 << K)]
    partition = [({(i, m): 1 for m in range(1 << K)}, Fraction(1)) for i in range(1, N + 1)]
    if lp.memory_mode == cv.AGGREGATE:
        memory = [({(i, m): m.bit_count() for i, m in keys if m}, K * inst.M)]
    else:
        memory = [({(i, m): 1 for i, m in keys if m & 1 << k}, inst.M) for k in range(K)]
    if lp.orbit_members is None:
        return partition, memory
    orbit = {key: name for name, members in lp.orbit_members.items() for key in members}

    def project(rows):
        out = {}
        for coeffs, rhs in rows:
            counts = Counter()
            for key, c in coeffs.items():
                counts[orbit[key]] += c
            out[tuple(sorted(counts.items()))] = rhs
        return [(dict(p), rhs) for p, rhs in sorted(out.items())]

    return project(partition), project(memory)


def distinct_demands(ds):
    """The demand vectors with pairwise-distinct files, in lexicographic order."""
    return [d for d in enumerate_demands(ds) if len(set(d)) == len(d)]


def genie_inequality(ds, d, u, full_masks=False):
    """The genie row for demand vector d decoded in permutation order u: the
    row of a block with one choice and one template."""
    K = ds.inst.K
    u = tuple(u)
    if sorted(u) != list(range(1, K + 1)):
        raise DemandError(f"u={u} is not a permutation of [1..{K}]")
    d = ds.validate_demand(d)
    if len(set(d)) != K:
        raise DemandError("genie rows need pairwise-distinct demands")
    block = cv.Block(tuple((f,) for f in d), (cv._order_masks(K, u),), full_masks)
    (row,) = cv._block_rows(ds, block)
    return row


def certificate(ds, regime):
    """One regime's certificate report; raises the error that refuses it."""
    report = cv.certificate_reports(ds)[regime]
    if isinstance(report, Exception):
        raise report
    return report


def certificate_check(ds, regime):
    return certificate(ds, regime).ok


def block_average(ds, blocks):
    """The blocks' average row: the integer counts the certificates and the
    loose bound use, divided by the number of rows."""
    total, n_rows = cv._block_counts(ds, blocks)
    return {key: Fraction(v, n_rows) for key, v in total.items()}


def counted_average(ds, regime):
    """The average the certificates use: counted from the selected blocks."""
    return block_average(ds, cv._selected_blocks(ds, regime))


def count_rows(K, rows):
    """(key counts, number of rows) of the rows: links are counted, then
    each count is spread over the link's keys."""
    rows = list(rows)
    link_keys, total = cv._link_keys(K), Counter()
    for link, n in Counter(chain.from_iterable(rows)).items():
        total.update(dict.fromkeys(link_keys[link], n))
    return total, len(rows)


def average_rows(K, rows):
    """Uniform average of the rows' key coefficients."""
    total, n_rows = count_rows(K, rows)
    return {key: Fraction(v, n_rows) for key, v in total.items()}


def block_family(ds, blocks):
    """The family of any blocks, its rows counted by listing them."""
    return cv.Family(ds, blocks, sum(len(cv._block_rows(ds, block)) for block in blocks))


def row_blocks(ds, rows):
    """Each link row as a block with one choice and one template. The row's
    tops form a strict chain, so each link's user is the one bit of the
    previous top that its own top drops; the rule is full when any link's
    rule bit is set, as ``cv._link`` sets it only past one bit of top."""
    K = ds.inst.K
    blocks = []
    for row in rows:
        links = sorted(((ln >> 1 & ~(-1 << K), ln >> K + 1) for ln in row), reverse=True)
        pools, tops, prev = [()] * K, [0] * K, (1 << K) - 1
        for top, file in links:
            uk = (prev & ~top).bit_length()
            assert prev & ~top == 1 << uk - 1 and top & ~prev == 0, "tops form no strict chain"
            pools[uk - 1], tops[uk - 1], prev = (file,), top, top
        blocks.append(cv.Block(tuple(pools), (tuple(tops),), any(ln & 1 for ln in row)))
    return blocks


def row_built_counts(ds, blocks):
    """The counting's oracle: every row of the blocks built and counted."""
    return count_rows(ds.inst.K, block_family(ds, blocks))


def mixed_average(counts, regime, weights):
    """The per-key Fraction aggregate a certificate checks: the regime's
    average, mixed with HIGH_M's at the weight ``mix`` when it is nonzero."""

    def average(r):
        total, n_rows = counts[r]
        return {key: Fraction(v, n_rows) for key, v in total.items()}

    agg, w = average(regime), weights.get("mix")
    if not w:
        return agg
    high = average(cv.Regime.HIGH_M)
    return {k: w * high.get(k, 0) + (1 - w) * agg.get(k, 0) for k in high.keys() | agg.keys()}


def expanded_residuals(report):
    """The report's compact residuals, key by key, as Fractions."""
    return {key: Fraction(r, report.denominator) for key, r in report._scaled_residuals()}


def oracle_residuals(ds, agg, mu):
    """The per-key residual loop the per-class one replaced."""
    mu1, mu2, mum = mu
    shared, out = set(chain.from_iterable(ds.part1)), {}
    for i in range(1, ds.inst.N + 1):
        mu_class = mu1 if i in shared else mu2
        for m in range(1 << ds.inst.K):
            r = agg.get((i, m), Fraction(0)) - (mu_class - mum * m.bit_count())
            if r:
                out[(i, m)] = r
    return out


def outcome(fn):
    """fn(), or the type and text of the family error it raised."""
    try:
        return fn()
    except (cv.FamilyError, DemandError) as exc:
        return type(exc), str(exc)


def report_outcomes(ds):
    """Regime -> its certificate report, or the type and text of its refusal."""
    return {
        regime: (type(report), str(report)) if isinstance(report, Exception) else report
        for regime, report in cv.certificate_reports(ds).items()
    }


def shift_mask(K, mask):
    """A node mask rotated by one region: node k's bit to node k+1's."""
    return (mask << 1 | mask >> (K - 1)) & ((1 << K) - 1)


def reference_genie_row(K, d, u, full_masks):
    """``genie_inequality``'s keys over subsets of node lists rather than submasks."""
    keys, consumed = [], set()
    for uk in u:
        consumed.add(uk)
        rest = [j for j in range(1, K + 1) if j not in consumed]
        sizes = range(len(rest) + 1) if full_masks else (0, 1)
        keys += [(d[uk - 1], mask_of(c)) for r in sizes for c in combinations(rest, r)]
    return tuple(sorted(keys))


def key_masks(K, u, full_masks):
    """Per user (index user-1), its ascending masks under decoding order u.

    The key-tuple template the link rows replaced: the i-th decoded user
    reads the node sets avoiding u_1..u_i, all of them with ``full_masks``,
    else the empty set and the singletons.
    """
    out = [()] * K
    rest = (1 << K) - 1
    for uk in u:
        rest ^= 1 << (uk - 1)
        subs = (m for m in range(rest + 1) if m & rest == m)
        out[uk - 1] = tuple(m for m in subs if full_masks or m.bit_count() <= 1)
    return out


class KeyMemo(dict):
    """(file, masks) -> the key tuple ((file, m) for m in masks), made once."""

    def __missing__(self, pair):
        keys = self[pair] = tuple([(pair[0], m) for m in pair[1]])
        return keys


def key_row(files, masks, memo):
    """The key-tuple row of distinct files through aligned masks, sorted by file then mask."""
    return tuple(chain.from_iterable(map(memo.__getitem__, sorted(zip(files, masks)))))


def key_full_family(ds):
    """The key-tuple ``full_family(ds)`` the link rows replaced."""
    K = ds.inst.K
    templates = [key_masks(K, u, True) for u in permutations(range(1, K + 1))]
    memo = KeyMemo()
    return [
        key_row(d, masks, memo)
        for d in distinct_demands(ds)
        for masks in templates
    ]


def oracle_genie_row(ds, d, u, full_masks):
    """The per-row ``genie_inequality`` the mask templates replaced (key tuples)."""
    K = ds.inst.K
    u = tuple(u)
    if sorted(u) != list(range(1, K + 1)):
        raise DemandError(f"u={u} is not a permutation of [1..{K}]")
    d = ds.validate_demand(d)
    if len(set(d)) != K:
        raise DemandError("genie rows need pairwise-distinct demands")
    keys = []
    rest = (1 << K) - 1  # mask of the users not yet consumed
    for uk in u:
        rest ^= 1 << (uk - 1)
        if full_masks:  # every submask of rest, walked downwards
            masks, sub = [0], rest
            while sub:
                masks.append(sub)
                sub = (sub - 1) & rest
        else:
            masks = [0] + [1 << j for j in range(K) if rest >> j & 1]
        keys += [(d[uk - 1], m) for m in masks]
    return tuple(sorted(keys))


def oracle_full_family(ds):
    """The per-row construction ``full_family(ds)`` replaced."""
    K = ds.inst.K
    return [
        oracle_genie_row(ds, d, u, full_masks=True)
        for d in distinct_demands(ds)
        for u in permutations(range(1, K + 1))
    ]


def oracle_selected_family(ds, regime):
    """The per-row chain loop ``selected_family`` replaced."""
    K, a, b = ds.inst.K, ds.inst.a, ds.inst.b
    if regime is cv.Regime.LARGE_B:
        if b < 1:
            raise cv.FamilyError("LARGE_B family needs b >= 1")
        rows = []
        for d in product(*ds.part2):  # the no-genie cut rows
            ds.validate_demand(d)
            if len(set(d)) != len(d):
                raise DemandError("cut rows need pairwise-distinct demands")
            rows.append(tuple(sorted((di, 0) for di in d)))
        return rows
    if a < 1 or (regime is cv.Regime.HIGH_M and b < 1):
        raise cv.FamilyError(f"{regime.value} family is not constructible")
    rows = []
    for k in range(1, K + 1):
        left, right = cv._chain_permutations(K, k)
        for perm, parts in ((left, ds.part1), (right, ds.part3)):
            if regime is cv.Regime.HIGH_M:
                pools = [parts[perm[j] - 1] for j in range(K - 1)]
                pools.append(ds.part2[perm[K - 1] - 1])
            else:
                pools = [parts[perm[j] - 1] for j in range(K)]
            for choice in product(*pools):
                d = [0] * K
                for j, uk in enumerate(perm):
                    d[uk - 1] = choice[j]
                rows.append(oracle_genie_row(ds, tuple(d), perm, full_masks=False))
    return rows


def cyclic_symmetrize(lp):
    """Collapse the LP onto orbits of the cyclic shift alone.

    The oracle for ``cv.symmetrize``, which collapses by the ring's full
    group: both must give the same optimum, and the ``_sym`` goldens pin
    this collapse's export bytes and orbit-row order.
    """
    ds = lp.genie_rows.ds
    shift = {(i, m): (ds.shift_file(i), shift_mask(ds.inst.K, m)) for i, m in lp.var_keys}
    key_rows = expanded(ds, raw_rows(lp))
    rows = set(key_rows)
    for row in key_rows:
        if tuple(sorted(shift[k] for k in row)) not in rows:
            raise cv.FamilyError("genie family is not closed under the cyclic shift")
    orbit_rep: dict = {}
    members: dict = {}
    for key in lp.var_keys:
        if key in orbit_rep:
            continue
        orbit = [key]
        while shift[orbit[-1]] != key:
            orbit.append(shift[orbit[-1]])
        rep = ("orbit", *min(orbit))
        for mem in orbit:
            orbit_rep[mem] = rep
        members[rep] = tuple(sorted(orbit))

    def project(coeffs) -> tuple:
        out: dict = {}
        for key, c in coeffs.items():
            out[orbit_rep[key]] = out.get(orbit_rep[key], 0) + c
        return tuple(sorted(out.items()))

    genie = {tuple(sorted(orbit_rep[k] for k in row)) for row in key_rows}
    partition, memory = ({project(named_coeffs(lp, coeffs)) for coeffs in rows}
                         for rows in (lp.partition_rows, lp.memory_rows))
    var_keys = tuple(sorted(members))
    return lp._replace(
        var_keys=var_keys,
        genie_rows=column_rows(var_keys, sorted(genie, key=row_order)),
        partition_rows=tuple(by_column(var_keys, dict(row)) for row in sorted(partition)),
        memory_rows=tuple(by_column(var_keys, dict(row)) for row in sorted(memory)),
        orbit_members=members,
        raw=lp,
    )


def key_ring_generators(ds):
    """The generators as the (file, mask) key maps ``cv._ring_generators``
    returned before it returned (phi, sigma) pairs: the oracle for them."""
    K, N = ds.inst.K, ds.inst.N
    masks = range(1 << K)
    same = list(masks)
    flip = {}
    for k in range(K):
        flip.update(zip(ds.part1[k], ds.part3[K - 1 - k]))
        flip.update(zip(ds.part2[k], ds.part2[K - 1 - k]))
    maps = {
        "shift": ({i: ds.shift_file(i) for i in range(1, N + 1)}, [shift_mask(K, m) for m in masks]),
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


def oracle_closure(lp):
    """The link-by-link, row-by-row closure check ``cv.symmetrize`` made
    before it checked blocks: the first generator that maps a link's keys
    onto no link or a row onto no row, or None when the rows are closed."""
    K = lp.inst.K
    link_keys = cv._link_keys(K)
    rows = raw_rows(lp)
    row_set = set(rows)
    links = set(chain.from_iterable(rows))
    for name, image in key_ring_generators(lp.genie_rows.ds).items():
        link_image = {}
        for link in links:
            link_image[link] = cv._link(K, *image[link >> K + 1, link >> 1 & ~(-1 << K)], link & 1)
            if set(map(image.__getitem__, link_keys[link])) != set(link_keys[link_image[link]]):
                return name
        if not all(tuple(sorted(map(link_image.__getitem__, row))) in row_set for row in rows):
            return name
    return None


def named_generator(exc, ds):
    """The one ring generator a FamilyError's text names."""
    (name,) = [n for n in cv._ring_generators(ds) if f"the {n} " in f"{exc} "]
    return name


def closure_verdict(lp, collapse=None):
    """The generator named by the FamilyError that collapse(lp), by default
    ``cv.symmetrize(lp)``, raises, or None when it collapses lp."""
    try:
        (collapse or cv.symmetrize)(lp)
    except cv.FamilyError as exc:
        return named_generator(exc, lp.genie_rows.ds)
    return None


def key_symmetrize(lp):
    """The full-group collapse ``cv.symmetrize`` made on expanded key rows.

    The oracle for the link collapse: closure is checked on every row's
    key set, and each row is projected key by key. Returns the fields the
    link collapse must reproduce.
    """
    keys = lp.var_keys
    pos = {key: j for j, key in enumerate(keys)}
    ds = lp.genie_rows.ds
    rows = [tuple(map(pos.__getitem__, row)) for row in expanded(ds, raw_rows(lp))]
    row_sets = set(map(frozenset, rows))
    generators = []
    for name, image in key_ring_generators(ds).items():
        moved = [pos[image[key]] for key in keys]
        if not row_sets.issuperset(frozenset(map(moved.__getitem__, row)) for row in rows):
            raise cv.FamilyError(f"genie family is not closed under the {name}")
        generators.append(moved)
    index = [-1] * len(keys)
    names, members = [], {}
    for j, key in enumerate(keys):
        if index[j] >= 0:
            continue
        orbit = [j]
        index[j] = len(names)
        for mem in orbit:
            for moved in generators:
                if index[moved[mem]] < 0:
                    index[moved[mem]] = len(names)
                    orbit.append(moved[mem])
        names.append(("orbit", *key))
        members[names[-1]] = tuple(sorted(keys[mem] for mem in orbit))

    def project(coeffs):
        out = {}
        for key, c in coeffs.items():
            name = names[index[pos[key]]]
            out[name] = out.get(name, 0) + c
        return tuple(sorted(out.items()))

    projected = {tuple(sorted(map(index.__getitem__, row))) for row in rows}
    genie = sorted((tuple(names[j] for j in row) for row in projected), key=row_order)
    partition, memory = ({project(named_coeffs(lp, coeffs)) for coeffs in rows}
                         for rows in (lp.partition_rows, lp.memory_rows))
    return (
        tuple(names),
        column_rows(names, genie),
        tuple(by_column(names, dict(row)) for row in sorted(partition)),
        tuple(by_column(names, dict(row)) for row in sorted(memory)),
        members,
    )


def orbit_fields(sym):
    return sym.var_keys, sym.genie_rows, sym.partition_rows, sym.memory_rows, sym.orbit_members


def key_witness_ok(key_rows, value, assignment):
    """The witness scan on expanded key rows: every row's key sum at most R."""
    den = lcm(value.denominator, *(v.denominator for v in assignment.values()))
    scaled = {k: int(v * den) for k, v in assignment.items()}
    return all(int(value * den) >= sum(scaled.get(k, 0) for k in row) for row in key_rows)


SMALL_INSTANCES = [(K, a, b) for K in (2, 3, 4) for a in (0, 1, 2) for b in (0, 1, 2) if a + b]


def every_family(ds) -> list:
    """(name, rows) for the full family and every constructible selection."""
    out = [("full", family_for(ds))]
    for regime in cv.Regime:
        try:
            out.append((regime.value, cv.selected_family(ds, regime)))
        except cv.FamilyError:
            pass
    return out


class TestGenieInequality:
    def test_example_row_after_drop(self):
        _, ds = setup(3, 2, 1)
        row = expand(3, genie_inequality(ds, (1, 6, 7), (1, 3, 2)))
        assert row == tuple(sorted({(1, 0), (1, 0b10), (1, 0b100), (7, 0), (7, 0b10), (6, 0)}))

    def test_full_masks_add_the_pair(self):
        _, ds = setup(3, 2, 1)
        row = expand(3, genie_inequality(ds, (1, 6, 7), (1, 3, 2), full_masks=True))
        assert set(row) == {
            (1, 0), (1, 0b10), (1, 0b100), (1, 0b110), (7, 0), (7, 0b10), (6, 0),
        }

    def test_smallest_case(self):
        _, ds = setup(2, 1, 1)
        row = expand(2, genie_inequality(ds, (2, 4), (1, 2)))
        assert set(row) == {(2, 0), (2, 0b10), (4, 0)}

    def test_second_strategy_row(self):
        _, ds = setup(3, 2, 1)
        row = expand(3, genie_inequality(ds, (1, 4, 7), (1, 3, 2)))
        assert set(row) == {(1, 0), (1, 0b10), (1, 0b100), (7, 0), (7, 0b10), (4, 0)}

    def test_rejects_repeats_and_bad_permutation(self):
        _, ds = setup(3, 2, 1)
        with pytest.raises(DemandError):
            genie_inequality(ds, (4, 4, 9), (1, 2, 3))
        with pytest.raises(DemandError):
            genie_inequality(ds, (1, 6, 7), (1, 1, 2))


    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (3, 1, 2), (4, 1, 1)])
    def test_matches_subset_reference(self, K, a, b):
        _, ds = setup(K, a, b)
        for d in distinct_demands(ds):
            for u in permutations(range(1, K + 1)):
                for full in (False, True):
                    want = reference_genie_row(K, d, u, full)
                    assert expand(K, genie_inequality(ds, d, u, full)) == want
                    assert want == key_row(d, key_masks(K, u, full), KeyMemo())


class TestFullFamily:
    def test_running_example_row_count(self):
        _, ds = setup(3, 2, 1)
        rows = cv.full_family(ds)
        assert len(rows) == 95 * 6 == 570

    def test_two_region_row_count(self):
        _, ds = setup(2, 1, 1)
        assert len(cv.full_family(ds)) == 7 * 2 == 14

    def test_dedup_is_sound(self):
        inst, ds = setup(3, 1, 1)
        deduped = cv.dedup_rows(cv.full_family(ds))
        every = {
            genie_inequality(ds, d, u, full_masks=True)
            for d in distinct_demands(ds)
            for u in permutations(range(1, 4))
        }
        assert list(deduped) == sorted(every)
        family = cv.full_family(ds)
        assert cv.build_lp(inst, family).genie_rows is family  # held, not listed

    @pytest.mark.parametrize("K", range(2, 7))
    def test_no_family_repeats_a_row(self, K):
        # A row's tops form a strict chain naming the order; each top's file names the demand.
        for a, b in product(range(4), range(3)):
            if not a + b:
                continue
            _, ds = setup(K, a, b)
            for regime in (None, *cv.Regime):
                try:
                    rows = cv.full_family(ds) if regime is None else cv.selected_family(ds, regime)
                except (cv.FamilyError, BudgetExceededError):
                    continue
                assert len(set(rows)) == len(rows), (K, a, b, regime)

    @pytest.mark.parametrize("K,a,b", SMALL_INSTANCES)
    def test_plain_sort_is_row_order_on_raw_rows(self, K, a, b):
        # lp_to_text and the direct route sort expanded rows without a key on this equality.
        _, ds = setup(K, a, b)
        for name, rows in every_family(ds):
            rows = expanded(ds, rows)
            assert all(len(set(row)) == len(row) for row in rows), name
            assert sorted(rows) == sorted(rows, key=row_order), name

    def test_budget_guard(self):
        _, ds = setup(8, 4, 3)
        with pytest.raises(BudgetExceededError, match="exceed the row budget 1000000"):
            cv.full_family(ds)

    @pytest.mark.parametrize("K, budget, message", [
        (5, 100, "5! decoding orders exceed the row budget 100"),  # 5! = 120 orders
        (9, cv.FAMILY_BUDGET, "2096720640 genie rows exceed budget 1000000"),  # 5778 x 9!
    ])
    def test_orders_past_the_budget_are_refused_before_any_template(self, monkeypatch, K,
                                                                     budget, message):
        def no_template(*_args):
            raise AssertionError("an order template was built")

        _, ds = setup(K, 1, 1)
        monkeypatch.setattr(cv, "FAMILY_BUDGET", budget)
        monkeypatch.setattr(cv, "_order_masks", no_template)
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
            cv.full_family(ds)  # the loose bound's family too: its callers build it


class TestSelectedFamily:
    def test_high_m_reproduces_first_selection(self):
        _, ds = setup(3, 2, 1)
        rows = cv.selected_family(ds, cv.Regime.HIGH_M)
        assert len(rows) == 2 * 3 * (2 ** 2 * 1)  # 2K * a^(K-1) b
        # anchor k=1, leftward ordering: d1 in {1,2}, d2 = 6, d3 in {7,8}
        for d in [(1, 6, 7), (1, 6, 8), (2, 6, 7), (2, 6, 8)]:
            assert genie_inequality(ds, d, (1, 3, 2)) in rows
        # anchor k=1, rightward ordering: d1 in {4,5}, d2 in {7,8}, d3 = 9
        for d in [(4, 7, 9), (5, 8, 9)]:
            assert genie_inequality(ds, d, (1, 2, 3)) in rows

    def test_low_m_reproduces_second_selection(self):
        _, ds = setup(3, 2, 1)
        rows = cv.selected_family(ds, cv.Regime.LOW_M)
        assert len(rows) == 2 * 3 * 2 ** 3  # 2K * a^K
        assert genie_inequality(ds, (1, 4, 7), (1, 3, 2)) in rows
        assert genie_inequality(ds, (4, 7, 1), (1, 2, 3)) in rows

    def test_large_b_unique_demand_cut(self):
        _, ds = setup(3, 2, 1)
        rows = cv.selected_family(ds, cv.Regime.LARGE_B)
        assert len(rows) == 1  # b^K
        assert expanded(ds, rows) == [((3, 0), (6, 0), (9, 0))]

    def test_errors_on_unbuildable_family(self):
        _, ds = setup(3, 0, 2)
        with pytest.raises(cv.FamilyError):
            cv.selected_family(ds, cv.Regime.LOW_M)
        with pytest.raises(cv.FamilyError):
            cv.selected_family(ds, cv.Regime.HIGH_M)

    @pytest.mark.parametrize("K", range(2, 7))
    def test_rows_are_counted_from_the_instance(self, K):
        for a, b in product(range(4), range(3)):
            if not a + b:
                continue
            inst, ds = setup(K, a, b)
            for regime in cv.Regime:
                try:
                    rows = cv.selected_family(ds, regime)
                except cv.FamilyError as exc:
                    with pytest.raises(cv.FamilyError, match=f"^{re.escape(str(exc))}$"):
                        cv._selected_rows(inst, regime)
                    continue
                assert len(rows) == cv._selected_rows(inst, regime), (K, a, b, regime)

    @pytest.mark.parametrize("K, a, b, regime, message", [
        (9, 4, 1, cv.Regime.HIGH_M, "1179648 genie rows exceed budget 1000000"),  # 2K a^(K-1) b
        (9, 4, 0, cv.Regime.LOW_M, "4718592 genie rows exceed budget 1000000"),  # 2K a^K
        (13, 0, 3, cv.Regime.LARGE_B, "1594323 genie rows exceed budget 1000000"),  # b^K
        (10000, 0, 3, cv.Regime.LARGE_B, "at least 10^4771 genie rows exceed budget 1000000"),
    ])
    def test_rows_past_the_budget_are_refused_before_any_block(self, monkeypatch, K, a, b,
                                                               regime, message):
        def no_block(*_args):
            raise AssertionError("a block was built")

        _, ds = setup(K, a, b)
        monkeypatch.setattr(cv, "_selected_blocks", no_block)
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
            cv.selected_family(ds, regime)

    def test_family_error_comes_before_the_row_budget(self):
        _, ds = setup(9, 4, 0)  # its low_m family is over the budget
        with pytest.raises(cv.FamilyError, match="^HIGH_M family needs b >= 1$"):
            cv.selected_family(ds, cv.Regime.HIGH_M)

    def test_certificates_have_no_row_budget(self):
        _, ds = setup(9, 5, 1)  # 2K a^(K-1) b = 7,031,250 high_m rows
        reports = cv.certificate_reports(ds)
        assert all(reports[r].ok for r in (cv.Regime.HIGH_M, cv.Regime.LOW_M))

    def test_variable_budget(self):
        cv.check_variables(ProblemInstance(16, 1, 1))  # N * 2^K = 2^21, the budget
        with pytest.raises(BudgetExceededError,
                           match=r"^34 \* 2\^17 LP variables exceed the variable budget 2097152$"):
            cv.check_variables(ProblemInstance(17, 1, 1))


ORACLE_FAMILIES = [
    (K, a, b, regime) for K, a, b in SMALL_INSTANCES for regime in (None, *cv.Regime)
] + [(5, 1, 1, None), (5, 3, 1, cv.Regime.HIGH_M), (5, 3, 1, cv.Regime.LOW_M)]


class TestFamiliesMatchPerRowOracles:
    @pytest.mark.parametrize("K,a,b,regime", ORACLE_FAMILIES)
    def test_same_rows_in_the_same_order(self, K, a, b, regime):
        _, ds = setup(K, a, b)
        if regime is None:
            want = oracle_full_family(ds)
            assert key_full_family(ds) == want
            assert expanded(ds, cv.full_family(ds)) == want
            assert expanded(ds, [
                genie_inequality(ds, d, u, full_masks=True)
                for d in distinct_demands(ds)
                for u in permutations(range(1, K + 1))
            ]) == want
            # equal key sets have equal links, so dedup on links is dedup on key sets
            rows = raw_rows(cv.build_lp(ds.inst, cv.full_family(ds)))
            assert sorted(expanded(ds, rows)) == sorted(set(want))
            return
        try:
            want = oracle_selected_family(ds, regime)
        except cv.FamilyError:
            with pytest.raises(cv.FamilyError):
                cv.selected_family(ds, regime)
            return
        # A block lists its choices user by user, the chain loop chain by chain.
        assert sorted(expanded(ds, cv.selected_family(ds, regime))) == sorted(want)

    @pytest.mark.parametrize("regime", list(cv.Regime))
    def test_chain_checks_refuse_what_the_row_checks_refused(self, regime):
        _, ds = setup(3, 2, 1)
        outside = ds._replace(demand_sets=(frozenset(),) + ds.demand_sets[1:])
        same = (ds.part1[0],) * 3  # every user's pool is the same two files
        overlap = ds._replace(part1=same, part2=same, part3=same,
                              demand_sets=tuple(s | set(same[0]) for s in ds.demand_sets))
        for bad in (outside, overlap):
            with pytest.raises(DemandError):
                oracle_selected_family(bad, regime)
            with pytest.raises(DemandError):
                cv.selected_family(bad, regime)
            with pytest.raises(DemandError):
                counted_average(bad, regime)


class TestSoundness:
    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (3, 1, 1), (4, 1, 2)])
    def test_every_row_holds_for_achievable_schemes(self, K, a, b):
        base, ds = setup(K, a, b)
        rows = list(family_for(ds))
        for regime in cv.Regime:
            try:
                rows += cv.selected_family(ds, regime)
            except cv.FamilyError:
                pass
        for j in range(5):
            m = Fraction(j * (2 * a + b), 4)
            inst = base.with_m(m)
            scheme = make_scheme(inst)
            placement = scheme_placement(inst, ds, scheme)
            load = worst_case_load(inst, ds, scheme)
            for row in rows:
                assert sum(placement.get(key, 0) for key in expand(K, row)) <= load


class TestSolveLp:
    def test_running_example_value(self):
        inst, ds = setup(3, 2, 1, M=3)
        out = cv.solve_lp(cv.build_lp(inst, family_for(ds)))
        assert out.value == 1
        for i in range(1, 10):
            assert sum(v for (f, _), v in out.assignment.items() if f == i) == 1

    def test_full_local_memory_reaches_zero(self):
        inst, ds = setup(3, 2, 1, M=5)
        assert cv.solve_lp(cv.build_lp(inst, family_for(ds))).value == 0

    def test_no_memory_trivial_case(self):
        inst, ds = setup(2, 0, 1, M=0)
        assert cv.solve_lp(cv.build_lp(inst, cv.full_family(ds))).value == 2

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 1, 1), (4, 1, 2)])
    def test_tightness_on_memory_grid(self, K, a, b):
        base, ds = setup(K, a, b)
        grid = [Fraction(0), Fraction(a + b, 2), Fraction(a + b), Fraction(2 * a + b)]
        if coded_gain_regime(base):
            grid.append(Fraction(3 * a + 2 * b, 2))
        family = family_for(ds)
        for m in grid:
            inst = base.with_m(m)
            out = cv.solve_lp(cv.build_lp(inst, family))
            assert out.value == rstar_u(inst), f"M={m}"

    @pytest.mark.parametrize("M", [Fraction(2), Fraction(5, 2)])  # a + b, (3a + 2b) / 2
    def test_tightness_at_k5(self, M):
        inst, ds = setup(5, 1, 1, M=M)
        assert cv.solve_lp(cv.build_lp(inst, family_for(ds))).value == rstar_u(inst)

    @pytest.mark.parametrize("K,a,b,M,want", [(5, 1, 2, 3, Fraction(5, 4)), (6, 1, 1, 2, 2)])
    def test_tightness_at_the_frontier(self, K, a, b, M, want):
        inst, ds = setup(K, a, b, M=M)
        # Not cached: the (6,1,1) family has 231,840 rows.
        out = cv.solve_lp(cv.build_lp(inst, cv.full_family(ds)))
        assert out.value == rstar_u(inst) == want

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (4, 1, 1), (4, 1, 2)])
    def test_selected_rows_suffice_at_corners(self, K, a, b):
        # The low-memory and uncoded-regime certificates mix their family
        # with the high-memory one, so dominance holds for that union.
        base, ds = setup(K, a, b)
        if coded_gain_regime(base):
            plan = [
                (cv.Regime.LOW_M, [Fraction(0), Fraction(a + b)]),
                (cv.Regime.HIGH_M, [Fraction(a + b), Fraction(2 * a + b)]),
            ]
        else:
            plan = [(cv.Regime.LARGE_B, [Fraction(0), Fraction(2 * a + b)])]
        for regime, corners in plan:
            blocks = list(cv.selected_family(ds, regime).blocks)
            if regime is not cv.Regime.HIGH_M and a > 0 and b > 0:
                blocks += cv.selected_family(ds, cv.Regime.HIGH_M).blocks
            family = block_family(ds, blocks)
            for m in corners:
                inst = base.with_m(m)
                got = cv.solve_lp(cv.build_lp(inst, family)).value
                want = cv.solve_lp(cv.build_lp(inst, family_for(ds))).value
                assert got == want == rstar_u(inst)

    def test_per_node_at_least_aggregate(self):
        base, ds = setup(3, 2, 1)
        for m in (Fraction(0), Fraction(3, 2), Fraction(3), Fraction(5)):
            inst = base.with_m(m)
            agg = cv.solve_lp(cv.build_lp(inst, family_for(ds), cv.AGGREGATE)).value
            per = cv.solve_lp(cv.build_lp(inst, family_for(ds), cv.PER_NODE)).value
            assert per >= agg
            if m in (Fraction(0), Fraction(3), Fraction(5)):
                assert per == agg

    def test_row_generation_refuses_a_point_failing_an_active_row(self, monkeypatch):
        sym = symmetric_511()
        assert len(sym.genie_rows) == 360 > cv._ROWGEN_SEED  # rows are generated
        rounds, error = faulty_rounds(monkeypatch, sym, [Fraction(2)], fault_from=1)
        assert error == "witness fails a row it was solved under"
        # a partition row enters the simplex as a pair of <= rows
        assert rounds == [cv._ROWGEN_SEED + 2 * len(sym.partition_rows) + len(sym.memory_rows)]

    # The same fault met warm: in the first round after rows were added,
    # and in the first round at the next M, reached by moving the bounds.
    @pytest.mark.parametrize("fault", ["rows added", "bounds moved"])
    def test_row_generation_refuses_a_warm_point_failing_an_active_row(self, monkeypatch, fault):
        sym = symmetric_511()
        memories = [Fraction(2), Fraction(5, 2)]
        first, _ = faulty_rounds(monkeypatch, sym, memories[:1])
        clean, error = faulty_rounds(monkeypatch, sym, memories)
        assert error is None and len(first) > 1 and clean[:len(first)] == first
        assert len(clean) > len(first) and clean[len(first)] == first[-1]  # no row added
        fault_from = 2 if fault == "rows added" else len(first) + 1
        rounds, error = faulty_rounds(monkeypatch, sym, memories, fault_from)
        assert error == "witness fails a row it was solved under"
        assert rounds == clean[:fault_from]


def symmetric_511():
    inst, ds = setup(5, 1, 1, M=2)
    return cv.symmetrize(cv.build_lp(inst, family_for(ds)))


def faulty_rounds(monkeypatch, sym, memories, fault_from=None):
    """Walk memories with R lowered by 1 from round fault_from on, a solver
    fault: R below the rows it is tight on. Returns each round's count of
    constraints the tableau was solved under, and the LpError's text."""
    point, rounds = cv._tableau_point, []

    def faulty(tab):
        rounds.append(len(tab.rhs))
        if len(rounds) > 50:
            raise AssertionError("row generation does not stop")
        value, x = point(tab)
        return value - (fault_from is not None and len(rounds) >= fault_from), x

    with monkeypatch.context() as patch:
        patch.setattr(cv, "_tableau_point", faulty)
        try:
            cv.solve_lp_grid(sym, memories)
        except cv.exactlp.LpError as exc:
            return rounds, str(exc)
    return rounds, None


class TestSymmetrize:
    def test_orbit_counts(self):
        inst, ds = setup(3, 2, 1, M=3)
        lp = cv.build_lp(inst, family_for(ds))
        sym = cyclic_symmetrize(lp)
        assert len(lp.var_keys) == 72
        assert len(sym.var_keys) == 24

    def test_orbit_count_bound_k4(self):
        inst, ds = setup(4, 1, 1, M=2)
        sym = cyclic_symmetrize(cv.build_lp(inst, family_for(ds)))
        assert len(sym.var_keys) == 32 <= 40

    @pytest.mark.parametrize(
        "K,a,b,n_vars,n_genie",
        [(3, 2, 1, 12, 12), (4, 1, 2, 22, 52), (4, 2, 2, 22, 52), (5, 1, 1, 40, 360),
         (5, 1, 2, 40, 360)],
    )
    def test_full_group_orbit_sizes(self, K, a, b, n_vars, n_genie):
        inst, ds = setup(K, a, b, M=1)
        # Not cached: the (5,1,2) family has 86,880 rows.
        sym = cv.symmetrize(cv.build_lp(inst, cv.full_family(ds)))
        assert len(sym.var_keys) == n_vars
        assert len(sym.genie_rows) == n_genie
        assert sorted(k for orbit in sym.orbit_members.values() for k in orbit) == sorted(
            sym.raw.var_keys
        )

    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_structural_coefficients_are_ints(self, mode):
        inst, ds = setup(3, 2, 1, M=3)
        lp = cv.build_lp(inst, family_for(ds), mode)
        for program in (lp, cv.symmetrize(lp)):
            rows = program.partition_rows + program.memory_rows
            assert {type(c) for coeffs in rows for c in coeffs.values()} == {int}

    @pytest.mark.parametrize("K,a,b,M", [(2, 1, 1, 1), (3, 1, 1, 2), (3, 2, 1, 3)])
    def test_preserves_optimum(self, K, a, b, M):
        inst, ds = setup(K, a, b, M=M)
        lp = cv.build_lp(inst, family_for(ds))
        raw = direct_solve(lp)
        orbit = cv.solve_lp(cv.symmetrize(lp))
        assert raw.value == orbit.value

    def test_rejects_unclosed_family(self):
        inst, ds = setup(3, 2, 1, M=3)
        lone = row_blocks(ds, [genie_inequality(ds, (1, 6, 7), (1, 3, 2))])
        with pytest.raises(cv.FamilyError):
            cv.symmetrize(cv.build_lp(inst, block_family(ds, lone)))

    def test_unclosed_family_is_refused_not_solved(self):
        inst, ds = setup(3, 2, 1, M=3)
        lone = row_blocks(ds, [genie_inequality(ds, (1, 6, 7), (1, 3, 2))])
        lp = cv.build_lp(inst, block_family(ds, lone))
        with pytest.raises(cv.FamilyError):
            cv.solve_lp(lp)
        # The row covers files 1, 6 and 7 on the empty mask and some
        # singletons: at M = 3 all three fit outside it, at M = 0 none does.
        assert direct_solve(lp).value == 0
        assert direct_solve(with_m(lp, 0)).value == 3

    def test_solve_lp_has_one_route(self):
        assert list(inspect.signature(cv.solve_lp).parameters) == ["lp"]

    def test_rejects_family_closed_under_the_shift_only(self):
        # The leftward chains of HIGH_M: the shift maps them onto each
        # other, the reflection onto the rightward chains, which are absent.
        inst, ds = setup(3, 2, 1, M=3)
        rows = []
        for k in range(1, 4):
            left, _ = cv._chain_permutations(3, k)
            pools = [ds.part1[left[0] - 1], ds.part1[left[1] - 1], ds.part2[left[2] - 1]]
            for choice in product(*pools):
                d = [0] * 3
                for j, uk in enumerate(left):
                    d[uk - 1] = choice[j]
                rows.append(genie_inequality(ds, tuple(d), left))
        lp = cv.build_lp(inst, block_family(ds, row_blocks(ds, rows)))
        cyclic_symmetrize(lp)
        with pytest.raises(cv.FamilyError, match="reflection"):
            cv.symmetrize(lp)

    def test_rejects_family_closed_under_the_dihedral_group_only(self):
        # One fixed file per pool at a = 2: rotations and the reflection keep
        # each file's position in its part, relabelling inside a part does not.
        inst, ds = setup(3, 2, 1, M=3)
        rows = []
        for k in range(1, 4):
            for perm, parts in zip(cv._chain_permutations(3, k), (ds.part1, ds.part3)):
                pools = [parts[perm[0] - 1], parts[perm[1] - 1], ds.part2[perm[2] - 1]]
                d = [0] * 3
                for j, uk in enumerate(perm):
                    d[uk - 1] = pools[j][0]
                rows.append(genie_inequality(ds, tuple(d), perm))
        lp = cv.build_lp(inst, block_family(ds, row_blocks(ds, rows)))
        cyclic_symmetrize(lp)
        reflect = key_ring_generators(ds)["reflection"]
        key_rows = expanded(ds, rows)
        assert {tuple(sorted(reflect[k] for k in row)) for row in key_rows} == set(key_rows)
        with pytest.raises(cv.FamilyError, match="transposition in part1"):
            cv.symmetrize(lp)

    def test_selected_families_are_closed(self):
        inst, ds = setup(3, 2, 1, M=3)
        for regime in cv.Regime:
            lp = cv.build_lp(inst, cv.selected_family(ds, regime))
            sym = cv.symmetrize(lp)
            assert cv.solve_lp(sym).value == direct_solve(lp).value

    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_with_m_equals_a_fresh_build(self, mode):
        # The tests' ``with_m``, through which the oracles solve at other M.
        base, ds = setup(3, 2, 1)
        lp = cv.build_lp(base, family_for(ds), mode)
        sym = cv.symmetrize(lp)
        for m in (Fraction(0), Fraction(3, 2), Fraction(5), Fraction(7)):
            fresh = cv.build_lp(base.with_m(m), family_for(ds), mode)
            assert with_m(lp, m) == fresh
            moved = with_m(sym, m)
            assert moved == cv.symmetrize(fresh)
            assert moved.raw == fresh

    @pytest.mark.parametrize("K,a,b", SMALL_INSTANCES)
    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_full_group_matches_cyclic_oracle_and_direct_route(self, K, a, b, mode):
        base, ds = setup(K, a, b)
        corners = corner_memories(base)
        grid = corners + [(lo + hi) / 2 for lo, hi in zip(corners, corners[1:])]
        for name, rows in every_family(ds):
            lp = cv.build_lp(base, rows, mode)
            full, cyclic = cv.symmetrize(lp), cyclic_symmetrize(lp)
            # Up to (4,1,2)'s 4,656 rows; past that the direct route needs
            # 2 to 40 s per point (dense pivots on about 600 active rows).
            direct = len(rows) <= 5000
            for m in grid:
                want = cv.solve_lp(with_m(cyclic, m)).value
                assert cv.solve_lp(with_m(full, m)).value == want, (name, m)
                if direct:
                    assert direct_solve(with_m(lp, m)).value == want


def oracle_family(ds, regime):
    return family_for(ds) if regime is None else cv.selected_family(ds, regime)


def cold_solve_value(sym):
    """The collapsed program solved cold with every genie row at once, the
    warm walk's oracle."""
    n = len(sym.var_keys)
    cons = [cv._genie_constraint(row, n) for row in sym.genie_rows]
    cons += cv._structural_constraints(sym, sym.inst.M)
    return cv.exactlp.solve({n: 1}, cons, n_vars=n + 1).value


class TestGridWalk:
    @pytest.mark.parametrize("K,a,b,regime", ORACLE_FAMILIES)
    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_warm_walk_equals_cold_solves(self, K, a, b, regime, mode):
        base, ds = setup(K, a, b)
        try:
            sym = cv.symmetrize(cv.build_lp(base, oracle_family(ds, regime), mode))
        except cv.FamilyError:
            return
        corners = corner_memories(base)
        grid = corners + [(lo + hi) / 2 for lo, hi in zip(corners, corners[1:])]  # up, then down
        walked = [outcome.value for outcome in cv.solve_lp_grid(sym, grid)]
        assert walked == [cold_solve_value(with_m(sym, m)) for m in grid]
        assert walked == [cv.solve_lp(with_m(sym, m)).value for m in grid]

    @pytest.mark.parametrize("K,a,b", [(3, 1, 1), (3, 2, 1)])
    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_unsorted_repeating_grid_equals_a_build_per_memory(self, K, a, b, mode):
        # The walk starts at the program's own M and moves its bounds; a
        # program built at each M is solved cold. On the full family both
        # end at the same expanded witness here (a degenerate selected
        # family may end at another vertex, and the values still agree).
        base, ds = setup(K, a, b, M=a + b)
        top = 2 * a + b
        grid = [Fraction(top - 1), Fraction(0), Fraction(top - 1), Fraction(a + b, 2), Fraction(0),
                Fraction(top)]
        walked = cv.solve_lp_grid(cv.build_lp(base, family_for(ds), mode), grid)
        assert walked == [cv.solve_lp(cv.build_lp(base.with_m(m), family_for(ds), mode))
                          for m in grid]

    def test_walk_cold_starts_at_the_first_memory(self, monkeypatch):
        # tradeoff --K 4 --a 1 --b 2 --lp --m-grid 4,0,2,4,1/2: the walk
        # pivots as many times whether its program was built at the grid's
        # first M or elsewhere, and reaches the same values.
        grid = [Fraction(4), Fraction(0), Fraction(2), Fraction(4), Fraction(1, 2)]
        pivots = []
        pivot = cv.exactlp._Tableau.pivot
        monkeypatch.setattr(cv.exactlp._Tableau, "pivot",
                            lambda tab, r, c: pivots.append((r, c)) or pivot(tab, r, c))
        walks = {}
        for built_at in (grid[0], Fraction(0)):
            inst, ds = setup(4, 1, 2, M=built_at)
            pivots.clear()
            values = [o.value for o in cv.solve_lp_grid(cv.build_lp(inst, cv.full_family(ds)), grid)]
            walks[built_at] = (len(pivots), values)
        assert walks[grid[0]] == walks[Fraction(0)]
        assert walks[grid[0]][0] == 12

    def test_one_point_is_solve_lp(self, monkeypatch):
        inst, ds = setup(3, 2, 1, M=3)
        lp = cv.build_lp(inst, family_for(ds))
        walked = []
        grid = cv.solve_lp_grid
        monkeypatch.setattr(cv, "solve_lp_grid", lambda lp, ms: walked.append(ms) or grid(lp, ms))
        assert cv.solve_lp(lp).value == 1 and walked == [[3]]


class TestLinkRowsMatchKeyOracles:
    @pytest.mark.parametrize("K,a,b,regime", ORACLE_FAMILIES)
    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_same_orbit_program(self, K, a, b, regime, mode):
        inst, ds = setup(K, a, b, M=a + b)
        try:
            rows = oracle_family(ds, regime)
        except cv.FamilyError:
            return
        lp = cv.build_lp(inst, rows, mode)
        try:
            want = key_symmetrize(lp)
        except cv.FamilyError as exc:
            assert closure_verdict(lp) == named_generator(exc, ds)
            return
        assert orbit_fields(cv.symmetrize(lp)) == want

    @pytest.mark.parametrize("K,a,b,regime", ORACLE_FAMILIES)
    def test_same_witness_verdicts(self, K, a, b, regime):
        inst, ds = setup(K, a, b, M=Fraction(a + b, 2))
        try:
            rows = oracle_family(ds, regime)
        except cv.FamilyError:
            return
        lp = cv.build_lp(inst, rows)
        key_rows = expanded(ds, raw_rows(lp))
        out = cv.solve_lp(lp)
        value, x = out.value, out.assignment
        points = [(value, x), (value - Fraction(1, 97), x), (value + Fraction(1, 97), x)]
        for key in sorted(x)[:: max(1, len(x) // 6)]:  # move mass onto one key at a time
            points.append((value, {**x, key: x[key] + Fraction(1, 5)}))
            points.append((value + Fraction(1, 5), {**x, key: x[key] + Fraction(1, 5)}))
        verdicts = [key_witness_ok(key_rows, v, pt) for v, pt in points]
        assert verdicts[:3] == [True, False, True]
        assert [cv._witness_ok(rows, v, pt) for v, pt in points] == verdicts
        try:
            sym = cv.symmetrize(lp)
        except cv.FamilyError:
            return
        # The orbit rows are scanned as _solve_iterative scans them.
        value, x = next(cv._solve_iterative(sym, [sym.inst.M]))
        named = {sym.var_keys[j]: val for j, val in x.items()}
        for v in (value, value - Fraction(1, 97)):
            scaled, xs = cv._scaled(v, x)
            scan = all(scaled >= cv.row_value(row, xs) for row in sym.genie_rows)
            assert scan == key_witness_ok(named_rows(sym), v, named)

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 1, 2)])
    def test_same_verdicts_where_a_template_bound_exceeds_r(self, monkeypatch, K, a, b):
        inst, ds = setup(K, a, b, M=1)
        family = family_for(ds)
        lp = cv.build_lp(inst, family)
        key_rows = expanded(ds, raw_rows(lp))
        (block,) = family.blocks
        assert not cv._disjoint(block.pools)
        choices, listed = cv._choices, []
        monkeypatch.setattr(cv, "_choices", lambda b: listed.append(b) or choices(b))
        # Mass on one shared file: both users that may demand it read it
        # under every template, which bounds each template by 2 > R = 1,
        # yet no row decodes it twice, so every row holds.
        x = {(ds.part1[0][0], 0): Fraction(1)}
        assert key_witness_ok(key_rows, Fraction(1), x)
        assert cv._witness_ok(family, Fraction(1), x) and listed
        # Distinct powers of two give every key set its own sum, so one
        # row is the largest, and R just below it fails that row alone.
        n = len(lp.var_keys)
        x = {key: Fraction(2**i, 2**n) for i, key in enumerate(lp.var_keys)}
        sums = sorted(sum(x[k] for k in row) for row in key_rows)
        r = sums[-1] - Fraction(1, 2 ** (n + 1))
        assert sums[-2] < r < sums[-1]
        assert not key_witness_ok(key_rows, r, x)
        listed.clear()
        assert not cv._witness_ok(family, r, x) and listed

    @pytest.mark.parametrize("K,a,b", [(3, 2, 1), (4, 1, 2)])
    def test_same_closure_verdicts_on_partial_families(self, K, a, b):
        # Each row as its own block: block closure is then row closure.
        inst, ds = setup(K, a, b, M=1)
        rows = tuple(family_for(ds))
        for part in (rows[: len(rows) // 2], rows[1:], rows[::3]):
            lp = cv.build_lp(inst, block_family(ds, row_blocks(ds, part)))
            # Both refuse, naming the same generator; only the texts differ.
            name = closure_verdict(lp, key_symmetrize)
            assert name is not None and closure_verdict(lp) == name
        whole = cv.build_lp(inst, block_family(ds, row_blocks(ds, rows)))
        want = cv.symmetrize(cv.build_lp(inst, family_for(ds)))
        assert orbit_fields(cv.symmetrize(whole)) == orbit_fields(want)

    def test_average_matches_the_key_count(self):
        _, ds = setup(4, 1, 2)
        for rows in (cv.full_family(ds), cv.selected_family(ds, cv.Regime.LARGE_B)):
            keys = Counter(chain.from_iterable(expanded(ds, rows)))
            want = {key: Fraction(n, len(rows)) for key, n in keys.items()}
            assert average_rows(4, rows) == want
            assert block_average(ds, rows.blocks) == want


def fraction_structural_ok(lp, assignment, M):
    """The Fraction sums the integer-scaled structural check replaced, over
    the rows ``rebuilt_structural_rows`` gives at cache size M."""
    partition, memory = rebuilt_structural_rows(lp, M)
    for rows, holds in ((partition, operator.eq), (memory, operator.le)):
        for coeffs, rhs in rows:
            if not holds(sum(c * assignment[k] for k, c in coeffs.items() if k in assignment), rhs):
                return False
    return True


def structural_ok(lp, assignment, M):
    try:
        cv._verify_structural(lp, assignment, M)
    except cv.exactlp.LpError:
        return False
    return True


class TestStructuralRows:
    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (3, 0, 2), (4, 1, 2)])
    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_rows_at_every_m_are_the_rebuilt_rows(self, K, a, b, mode):
        # Every memory_grid point, and one M past 2a+b, which is clamped.
        base, ds = setup(K, a, b, M=a + b)
        lp = cv.build_lp(base, family_for(ds), mode)
        top = Fraction(2 * a + b)
        for program in (lp, cv.symmetrize(lp)):
            for m in memory_grid(base) + [top + Fraction(3, 2)]:
                partition, memory = rebuilt_structural_rows(program, m)
                keys = program.var_keys
                want = [(by_column(keys, coeffs), cv.exactlp.EQUAL, rhs) for coeffs, rhs in partition]
                want += [(by_column(keys, coeffs), cv.exactlp.LESS_EQ, rhs) for coeffs, rhs in memory]
                assert cv._structural_rows(program, m) == want, (m, mode)
            assert cv._structural_rows(program, top + 1) == cv._structural_rows(program, top)


class TestStructuralCheck:
    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (4, 1, 2)])
    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_same_verdicts_as_fraction_sums(self, K, a, b, mode):
        base, ds = setup(K, a, b)
        lp = cv.build_lp(base, family_for(ds), mode)
        full = (1 << K) - 1
        seen = Counter()
        for m in (Fraction(0), Fraction(a + b, 2), Fraction(3 * a + 2 * b, 2), Fraction(2 * a + b)):
            moved = with_m(lp, m)
            x = cv.solve_lp(moved).assignment
            points = [("optimum", x)]
            for i, j in sorted(x)[:: max(1, len(x) // 5)]:
                points.append(("oversized", {**x, (i, j): x[i, j] + Fraction(1, 7)}))
                # a third of the piece moved onto every node, or off every node:
                # the file keeps its size, and uses more memory, or less
                for kind, mask in (("more memory", full), ("less memory", 0)):
                    point = {**x, (i, j): x[i, j] * 2 / 3}
                    point[i, mask] = point.get((i, mask), 0) + x[i, j] / 3
                    points.append((kind, point))
            for kind, point in points:
                want = fraction_structural_ok(lp, point, m)
                assert structural_ok(lp, point, m) == want, (m, kind)
                seen[kind, want] += 1
        assert seen["optimum", True] and seen["oversized", False] and seen["more memory", False]

    @pytest.mark.parametrize("mode", [cv.AGGREGATE, cv.PER_NODE])
    def test_memory_rows_are_checked_at_the_m_given(self, mode):
        # R*_u = 5/2 - M/2 on [3, 5], so the optimum at M = 4 fits no
        # memory of 3, whichever cache size the program was built at.
        base, ds = setup(3, 2, 1)
        x = cv.solve_lp(cv.build_lp(base.with_m(4), family_for(ds), mode)).assignment
        for built_at in (3, 4):
            lp = cv.build_lp(base.with_m(built_at), family_for(ds), mode)
            assert structural_ok(lp, x, Fraction(4)) and structural_ok(lp, x, Fraction(5))
            assert not structural_ok(lp, x, Fraction(3)), (built_at, mode)


REDUCTION_INSTANCES = [
    (K, a, b) for K in (2, 3, 4, 5) for a in range(4) for b in range(4) if a + b
]


def constructible_families(ds):
    """(name, family) for the full family and every selection the budgets admit."""
    out = []
    for regime in (None, *cv.Regime):
        try:
            family = cv.full_family(ds) if regime is None else cv.selected_family(ds, regime)
        except (cv.FamilyError, BudgetExceededError):
            continue
        out.append(("full" if regime is None else regime.value, family))
    return out


def file_classes(sym):
    """File -> the orbit of each of its keys, mask by mask: the class that
    ``symmetrize`` reduces pools by, up to the names of the orbits."""
    orbit = {key: name for name, members in sym.orbit_members.items() for key in members}
    K = sym.inst.K
    return {i: tuple(orbit[i, m] for m in range(1 << K)) for i in range(1, sym.inst.N + 1)}


class TestReducedCollapse:
    """The orbit program from pattern-reduced blocks against the collapse of
    every listed row, the route it replaced."""

    @pytest.mark.parametrize("K,a,b", REDUCTION_INSTANCES)
    def test_same_orbit_program_as_the_listed_rows(self, monkeypatch, K, a, b):
        # Whole blocks project every row of the representative pairs, which
        # TestRepresentativePairs holds against every pair; closure is
        # proved block by block on both sides, and against the rows in
        # TestBlockClosure and TestLinkRowsMatchKeyOracles.
        inst, ds = setup(K, a, b, M=a + b)
        for name, family in constructible_families(ds):
            assert len(family) == sum(1 for _ in family), name
            for mode in (cv.AGGREGATE, cv.PER_NODE):
                lp = cv.build_lp(inst, family, mode)
                got = cv.symmetrize(lp)
                with monkeypatch.context() as patch:
                    patch.setattr(cv, "_reduced", lambda block, cls: block)
                    want = cv.symmetrize(lp)
                assert orbit_fields(got) == orbit_fields(want), (name, mode)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_per_node_memory_is_the_aggregate_row_on_orbits(self, K):
        # A shift-invariant point uses the same memory at every node, so the
        # K per-node rows project onto one row, the aggregate row over K.
        for a, b in product(range(4), range(4)):
            if not a + b:
                continue
            inst, ds = setup(K, a, b, M=a + b)
            for name, family in constructible_families(ds):
                agg = cv.symmetrize(cv.build_lp(inst, family, cv.AGGREGATE))
                per = cv.symmetrize(cv.build_lp(inst, family, cv.PER_NODE))
                assert agg.var_keys == per.var_keys, (a, b, name)
                assert agg.genie_rows == per.genie_rows, (a, b, name)
                assert agg.partition_rows == per.partition_rows, (a, b, name)
                *_, (agg_coeffs, _, agg_rhs) = cv._structural_rows(agg, inst.M)
                *_, (per_coeffs, _, per_rhs) = cv._structural_rows(per, inst.M)
                assert (agg.memory_rows, per.memory_rows) == ((agg_coeffs,), (per_coeffs,))
                assert agg_coeffs == {k: K * c for k, c in per_coeffs.items()}, (a, b, name)
                assert agg_rhs == K * per_rhs, (a, b, name)

    def test_pools_reduce_to_as_many_files_as_pools_meet_a_class(self):
        inst, ds = setup(3, 3, 1, M=1)
        cls = file_classes(cv.symmetrize(cv.build_lp(inst, cv.full_family(ds))))
        (block,) = cv.full_family(ds).blocks
        assert [len(pool) for pool in block.pools] == [7, 7, 7]
        reduced = cv._reduced(block, cls)
        # a shared part meets two pools and keeps two files, a unique part one
        assert [len(pool) for pool in reduced.pools] == [5, 5, 5]
        assert reduced._replace(pools=block.pools) == block

    def test_pools_with_different_files_of_a_class_keep_the_block_whole(self):
        inst, ds = setup(3, 3, 1, M=1)
        cls = file_classes(cv.symmetrize(cv.build_lp(inst, cv.full_family(ds))))
        shared = ds.part1[0]  # one class: the relabelling inside part1[1] moves no mask
        assert len({cls[f] for f in shared}) == 1
        block = cv.Block((shared, shared[:2], ds.part2[2]), (cv._order_masks(3, (1, 2, 3)),), False)
        assert cv._reduced(block, cls) is block
        same = block._replace(pools=(shared, shared, ds.part2[2]))
        assert cv._reduced(same, cls).pools == (shared[:2], shared[:2], ds.part2[2][:1])


def every_pair(blocks, images):
    """``_representatives`` keeping every template of every block: the route it replaced."""
    return list(blocks)


def kept_by_representatives(monkeypatch, lp):
    """The blocks ``_representatives`` returns while ``lp`` is symmetrised."""
    pick, kept = cv._representatives, []

    def keep(blocks, images):
        kept.extend(pick(blocks, images))
        return kept

    with monkeypatch.context() as patch:
        patch.setattr(cv, "_representatives", keep)
        cv.symmetrize(lp)
    return kept


class TestRepresentativePairs:
    """The orbit program from one (block, template) pair per orbit against
    the projection of every pair's rows."""

    @pytest.mark.parametrize("K,a,b", REDUCTION_INSTANCES)
    def test_same_orbit_program_as_every_pair(self, monkeypatch, K, a, b):
        inst, ds = setup(K, a, b, M=a + b)
        for name, family in constructible_families(ds):
            for mode in (cv.AGGREGATE, cv.PER_NODE):
                lp = cv.build_lp(inst, family, mode)
                got = cv.symmetrize(lp)
                with monkeypatch.context() as patch:
                    patch.setattr(cv, "_representatives", every_pair)
                    want = cv.symmetrize(lp)
                assert orbit_fields(got) == orbit_fields(want), (name, mode)

    @pytest.mark.parametrize("K,a,b", [(6, 1, 1), (5, 2, 2)])
    def test_same_full_orbit_program_as_every_pair(self, monkeypatch, K, a, b):
        inst, ds = setup(K, a, b, M=1)
        lp = cv.build_lp(inst, cv.full_family(ds))
        got = cv.symmetrize(lp)
        monkeypatch.setattr(cv, "_representatives", every_pair)
        assert orbit_fields(got) == orbit_fields(cv.symmetrize(lp))

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    def test_full_family_keeps_one_order_per_dihedral_orbit(self, monkeypatch, K):
        # Only the shift and the reflection move nodes; from K = 3 the 2K
        # node maps they generate move every decoding order, at K = 2 both
        # are the one swap.
        inst, ds = setup(K, 1, 1, M=1)
        (block,) = kept_by_representatives(monkeypatch, cv.build_lp(inst, cv.full_family(ds)))
        assert len(block.tops) == (1 if K == 2 else factorial(K) // (2 * K))
        assert set(block.tops) <= set(cv.full_family(ds).blocks[0].tops)

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (4, 1, 2), (5, 3, 1)])
    def test_selected_family_keeps_one_pair(self, monkeypatch, K, a, b):
        inst, ds = setup(K, a, b, M=1)
        for regime in cv.Regime:
            try:
                family = cv.selected_family(ds, regime)
            except cv.FamilyError:
                continue
            kept = kept_by_representatives(monkeypatch, cv.build_lp(inst, family))
            assert [len(block.tops) for block in kept] == [1], regime
            assert kept[0] in family.blocks, regime

    def test_full_family_at_611_lists_a_twelfth_of_its_reduced_rows(self, monkeypatch):
        inst, ds = setup(6, 1, 1, M=2)
        lp = cv.build_lp(inst, cv.full_family(ds))
        listed = []
        block_rows = cv._block_rows
        monkeypatch.setattr(cv, "_block_rows", lambda ds, block: listed.append(
            len(rows := block_rows(ds, block))) or rows)
        cv.symmetrize(lp)
        assert sum(listed) == 19_320
        monkeypatch.setattr(cv, "_representatives", every_pair)
        cv.symmetrize(lp)
        assert sum(listed) == 19_320 + 231_840


class TestColumnRows:
    """Every program row is keyed by column; the orbit rows' plain order is
    the order of their names' (name, multiplicity) pairs."""

    @pytest.mark.parametrize("K,a,b", REDUCTION_INSTANCES)
    def test_orbit_rows_are_sorted_by_row_order(self, K, a, b):
        # Structural rows are held by column in TestStructuralRows.
        inst, ds = setup(K, a, b, M=a + b)
        keys = tuple((i, m) for i in range(1, inst.N + 1) for m in range(1 << K))
        for name, family in constructible_families(ds):
            for mode in (cv.AGGREGATE, cv.PER_NODE):
                lp = cv.build_lp(inst, family, mode)
                assert lp.var_keys == keys  # key (i, m) at column (i-1) << K | m
                sym = cv.symmetrize(lp)
                assert list(sym.var_keys) == sorted(sym.var_keys), (name, mode)
                named = named_rows(sym)
                assert named == sorted(named, key=row_order), (name, mode)
                assert column_rows(sym.var_keys, named) == sym.genie_rows, (name, mode)

    @pytest.mark.parametrize("K,a,b,M", [(3, 2, 1, 3), (5, 1, 1, 2)])
    def test_witness_reads_each_user_and_top_once_per_block(self, monkeypatch, K, a, b, M):
        # Every template's bound holds at the optimum, so no choice is listed,
        # and each (user, top) pair's largest link is found once.
        inst, ds = setup(K, a, b, M=M)
        family = family_for(ds)
        out = cv.solve_lp(cv.build_lp(inst, family))
        (block,) = family.blocks
        pairs = {(uk, top) for tops in block.tops for uk, top in enumerate(tops)}
        links, link = [], cv._link
        monkeypatch.setattr(cv, "_link", lambda *args: links.append(args) or link(*args))
        monkeypatch.setattr(cv, "_choices", None)  # listing a choice would fail
        assert cv._witness_ok(family, out.value, out.assignment)
        assert len(links) == sum(len(block.pools[uk]) for uk, _ in pairs)
        assert len(pairs) == K << K - 1 < factorial(K) * K


def perturbed_blocks(ds, blocks):
    """(name, blocks) for block lists a little off the family's own."""
    out = [("a block dropped", blocks[1:]), ("the last block dropped", blocks[:-1])]
    first = blocks[0]
    out.append(("a template dropped", [first._replace(tops=first.tops[1:])] + blocks[1:]))
    shrunk = (first.pools[0][:1],) + first.pools[1:]
    out.append(("a pool shrunk", [first._replace(pools=shrunk)] + blocks[1:]))
    out.append(("every pool shrunk", [
        block._replace(pools=tuple(pool[:1] for pool in block.pools)) for block in blocks
    ]))
    for j, k in permutations(range(len(first.pools)), 2):  # the first admissible move
        if ds.demand_sets[k].issuperset(first.pools[j]):
            pools = list(first.pools)
            pools[k] = pools[j]
            out.append(("a pool moved", [first._replace(pools=tuple(pools))] + blocks[1:]))
            break
    return out


class TestBlockClosure:
    @pytest.mark.parametrize("K,a,b", SMALL_INSTANCES + [(5, 1, 1), (5, 3, 1)])
    def test_pairs_reproduce_the_key_maps(self, K, a, b):
        _, ds = setup(K, a, b)
        want = key_ring_generators(ds)
        got = cv._ring_generators(ds)
        assert list(got) == list(want)
        for name, (phi, sigma) in got.items():
            image = {
                (i, m): (phi[i], mask_of(sigma[k - 1] for k in nodes_of(m)))
                for i in range(1, ds.inst.N + 1) for m in range(1 << K)
            }
            assert image == want[name], name

    @pytest.mark.parametrize("K,a,b", SMALL_INSTANCES + [(5, 3, 1)])
    def test_generators_permute_nodes_files_and_parts(self, K, a, b):
        _, ds = setup(K, a, b)
        files = list(range(1, ds.inst.N + 1))
        parts = {frozenset(p) for p in chain(ds.part1, ds.part2, ds.part3)}
        for name, (phi, sigma) in cv._ring_generators(ds).items():
            assert sorted(sigma) == list(range(1, K + 1)), name
            assert sorted(phi) == sorted(phi.values()) == files, name
            assert {frozenset(map(phi.__getitem__, p)) for p in parts} == parts, name
            for k in range(1, K + 1):  # region k's demand set onto region sigma(k)'s
                image = set(map(phi.__getitem__, ds.demand_sets[k - 1]))
                assert image == ds.demand_sets[sigma[k - 1] - 1]

    @pytest.mark.parametrize("K,a,b,regime", ORACLE_FAMILIES)
    def test_same_verdict_as_the_row_check(self, K, a, b, regime):
        inst, ds = setup(K, a, b, M=1)
        try:
            family = oracle_family(ds, regime)
        except cv.FamilyError:
            return
        lp = cv.build_lp(inst, family)
        assert lp.genie_rows is family
        assert closure_verdict(lp) == oracle_closure(lp)

    @pytest.mark.parametrize("K,a,b", SMALL_INSTANCES)
    def test_same_verdict_on_perturbed_block_families(self, K, a, b):
        # Block closure implies row closure, not the converse: a family of
        # blocks without a row is closed, though its blocks may not map
        # onto blocks. Both refuse where the first generator they name differs.
        inst, ds = setup(K, a, b, M=1)
        seen = Counter()
        for name, family in every_family(ds):
            for change, blocks in perturbed_blocks(ds, list(family.blocks)):
                perturbed = block_family(ds, blocks)
                lp = cv.build_lp(inst, perturbed)
                want, got = oracle_closure(lp), closure_verdict(lp)
                assert got is not None or want is None, (name, change)
                if len(perturbed):
                    assert (got is None) == (want is None), (name, change)
                seen[want is None] += 1
        assert seen[False]  # some perturbation leaves the family unclosed

    @pytest.mark.parametrize("K,a,b", SMALL_INSTANCES + [(5, 1, 1), (5, 3, 1)])
    def test_cli_families_close_block_by_block(self, K, a, b):
        inst, ds = setup(K, a, b, M=1)
        families = every_family(ds) if K < 5 else [
            (r.value, cv.selected_family(ds, r)) for r in (cv.Regime.HIGH_M, cv.Regime.LOW_M)
        ]
        for name, family in families:
            cv.symmetrize(cv.build_lp(inst, family))


class TestCertificates:
    def test_high_m_bound_matches_closed_form(self):
        inst, ds = setup(3, 2, 1, M=4)
        report = certificate(ds, cv.Regime.HIGH_M)
        assert report.ok
        assert report.bound_const == Fraction((3 - 1) * 5, 2 * 2)
        assert report.bound_m_coeff == -Fraction(3 - 1, 2 * 2)
        assert report.bound_const + report.bound_m_coeff * inst.M == rstar_u(inst)

    def test_low_m_weight_is_papers_two_thirds(self):
        inst, ds = setup(3, 2, 1, M=1)
        report = certificate(ds, cv.Regime.LOW_M)
        assert report.ok
        assert report.weights["mix"] == Fraction(2, 3)
        assert report.bound_const + report.bound_m_coeff * inst.M == rstar_u(inst)

    def test_large_b_weight(self):
        inst, ds = setup(4, 1, 2, M=2)
        report = certificate(ds, cv.Regime.LARGE_B)
        assert report.ok
        assert report.weights["mix"] == Fraction(8, 12)
        assert report.bound_const + report.bound_m_coeff * inst.M == rstar_u(inst)

    def test_reports_read_no_cache_size(self):
        # A certificate is a line in M, checked at the corners: the
        # structure's own M is never read.
        for K, a, b in ((3, 2, 1), (4, 1, 2)):
            want = report_outcomes(setup(K, a, b)[1])
            for M in (Fraction(1, 3), 2, 2 * a + b):
                assert report_outcomes(setup(K, a, b, M=M)[1]) == want

    def test_mismatch_raises(self):
        _, ds = setup(3, 2, 1)
        with pytest.raises(cv.RegimeMismatchError):
            certificate_check(ds, cv.Regime.LARGE_B)
        _, ds2 = setup(4, 1, 2)
        for regime in (cv.Regime.HIGH_M, cv.Regime.LOW_M):
            with pytest.raises(cv.RegimeMismatchError):
                certificate_check(ds2, regime)

    def test_boundary_counts_as_uncoded_regime(self):
        # b(K-1) == 2a sits in the uncoded-regime case split
        _, ds = setup(3, 1, 1)
        assert certificate_check(ds, cv.Regime.LARGE_B)
        with pytest.raises(cv.RegimeMismatchError):
            certificate_check(ds, cv.Regime.HIGH_M)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    @pytest.mark.parametrize("a", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_matches_regime_case_split_across_sweep(self, K, a, b):
        inst, ds = setup(K, a, b, M=1)
        coded = coded_gain_regime(inst)
        for regime in cv.Regime:
            matching = coded if regime is not cv.Regime.LARGE_B else not coded
            if matching:
                assert certificate_check(ds, regime)
            else:
                with pytest.raises(cv.RegimeMismatchError):
                    certificate_check(ds, regime)


class TestCountedCertificates:
    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_counted_average_equals_the_row_average(self, K, a, b):
        _, ds = setup(K, a, b)
        for regime in cv.Regime:
            want = outcome(lambda: average_rows(K, cv.selected_family(ds, regime)))
            assert outcome(lambda: counted_average(ds, regime)) == want

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 1, 1), (3, 2, 1), (4, 0, 2), (4, 1, 2),
                                       (5, 3, 1)])
    def test_reports_build_no_row(self, K, a, b, monkeypatch):
        _, ds = setup(K, a, b)
        with monkeypatch.context() as patch:
            patch.setattr(cv, "_block_counts", row_built_counts)
            want = report_outcomes(ds)

        def no_rows(*_args):
            raise AssertionError("a certificate built a row")

        monkeypatch.setattr(cv, "_block_rows", no_rows)
        assert report_outcomes(ds) == want

    @staticmethod
    def per_key_verdicts(K, a, b) -> Counter:
        """Each report, from the counts and from halved averages, against
        the per-key loop: its expanded residuals, its least nonzero one and
        its verdict. Counts the reports by whether every residual is
        non-negative."""
        _, ds = setup(K, a, b)
        counts = cv._Memo(lambda regime: cv._block_counts(ds, cv._selected_blocks(ds, regime)))
        halved = cv._Memo(lambda regime: (counts[regime][0], 2 * counts[regime][1]))
        checked = Counter()
        for regime, family_counts in product(cv.Regime, (counts, halved)):
            try:
                report = cv.certificate_report(ds, regime, family_counts)
            except (cv.RegimeMismatchError, cv.FamilyError):
                continue
            agg = mixed_average(family_counts, regime, report.weights)
            want = oracle_residuals(ds, agg, report.multipliers)
            assert expanded_residuals(report) == want
            assert report.min_residual == min(want.values(), default=0)
            residuals_ok = min(want.values(), default=0) >= 0
            assert report.ok == (residuals_ok and report.aggregate_matches)
            checked[residuals_ok] += 1
        return checked

    @pytest.mark.parametrize("K,a,b", [(3, 1, 1), (3, 2, 1), (4, 0, 2), (4, 1, 2), (5, 3, 1),
                                       (6, 3, 1)])
    def test_residuals_match_the_per_key_loop(self, K, a, b):
        checked = self.per_key_verdicts(K, a, b)
        assert checked[True] and checked[False]

    @pytest.mark.parametrize("K,a,b", sweep_instances())
    def test_compact_residuals_match_the_per_key_loop_across_the_sweep(self, K, a, b):
        _, ds = setup(K, a, b)
        self.per_key_verdicts(K, a, b)
        for regime in cv.Regime:
            want = outcome(lambda: average_rows(K, cv.selected_family(ds, regime)))
            assert outcome(lambda: counted_average(ds, regime)) == want

    @pytest.mark.parametrize("K,a,b", [(3, 2, 1), (5, 3, 1)])
    def test_a_moved_singleton_count_breaks_the_aggregate(self, K, a, b):
        # The empty mask, each file's total and the row count stay; only two
        # singletons of one shared file leave the closed form.
        _, ds = setup(K, a, b)
        counts = cv._Memo(lambda regime: cv._block_counts(ds, cv._selected_blocks(ds, regime)))

        def moved(regime):
            total, n_rows = counts[regime]
            total, i = dict(total), min(chain.from_iterable(ds.part1))
            total[i, 1], total[i, 2] = total[i, 1] - 1, total[i, 2] + 1
            return total, n_rows

        for regime in (cv.Regime.HIGH_M, cv.Regime.LOW_M):
            assert cv.certificate_report(ds, regime, counts).aggregate_matches
            report = cv.certificate_report(ds, regime, cv._Memo(moved))
            assert not report.aggregate_matches and not report.ok

    @pytest.mark.parametrize("K", range(6, 13))
    def test_paper_regimes_hold_up_to_k12(self, K):
        self.check_paper_regimes(K)

    @pytest.mark.parametrize("K", [16, 20, 30])
    def test_paper_regimes_hold_up_to_k30(self, K):
        # (30,15,1) has 480 files: its per-key residual map would hold 480 * 2^30 keys.
        self.check_paper_regimes(K)

    @staticmethod
    def check_paper_regimes(K):
        # With the achievable side, which reaches its closed form at every
        # corner (criterion 1), these certificates prove R*_u at these instances.
        memories = {cv.Regime.LOW_M: slice(0, 2), cv.Regime.HIGH_M: slice(1, 3),
                    cv.Regime.LARGE_B: slice(0, 2)}
        for a, b in ((K // 2, 1), (1, 2)):
            inst, ds = setup(K, a, b)
            coded = coded_gain_regime(inst)
            for regime, report in cv.certificate_reports(ds).items():
                if (regime is not cv.Regime.LARGE_B) != coded:
                    assert isinstance(report, cv.RegimeMismatchError), regime
                    continue
                assert report.ok, regime
                for M in corner_memories(inst)[memories[regime]]:
                    line = report.bound_const + report.bound_m_coeff * M
                    assert line == rstar_u(inst.with_m(M)), (regime, M)


class TestSumAllBound:
    def test_reproduces_papers_loose_value(self):
        inst, ds = setup(3, 2, 1, M=3)
        assert cv.sum_all_bound(inst, cv.full_family(ds)) == Fraction(54, 95)

    def test_builds_no_row(self, monkeypatch):
        def no_rows(*_args):
            raise AssertionError("the loose bound built a row")

        inst, ds = setup(3, 2, 1, M=3)
        monkeypatch.setattr(cv, "_block_rows", no_rows)
        assert cv.sum_all_bound(inst, cv.full_family(ds)) == Fraction(54, 95)

    def test_weaker_than_lp(self):
        inst, ds = setup(3, 2, 1, M=3)
        loose = cv.sum_all_bound(inst, cv.full_family(ds))
        opt = cv.solve_lp(cv.build_lp(inst, family_for(ds))).value
        assert loose <= opt == 1

    def test_zero_at_full_memory(self):
        inst, ds = setup(3, 2, 1, M=5)
        assert cv.sum_all_bound(inst, cv.full_family(ds)) == 0

    @pytest.mark.parametrize("fault", ["value", "point off the partition", "point over memory"])
    def test_optimum_is_checked_outside_the_simplex(self, monkeypatch, fault):
        inst, ds = setup(3, 2, 1, M=3)
        solve = cv.exactlp.solve

        def perturbed(objective, constraints, n_vars):
            sol = solve(objective, constraints, n_vars)
            x = list(sol.x)
            if fault == "value":
                return sol._replace(value=sol.value + Fraction(1, 95))
            (j,) = [j for j in range(8) if x[j]]  # columns 0..7 are file 1's masks
            if fault == "point off the partition":
                x[j] += Fraction(1, 7)  # file 1 no longer sums to one
            else:  # file 1's piece moves onto every node: still whole, using more memory
                x[j], x[7] = 0, x[7] + x[j]
            return sol._replace(x=x)

        monkeypatch.setattr(cv.exactlp, "solve", perturbed)
        with pytest.raises(cv.exactlp.LpError):
            cv.sum_all_bound(inst, cv.full_family(ds))

    def test_zero_memory_stays_k(self):
        inst, ds = setup(2, 1, 1, M=0)
        assert cv.sum_all_bound(inst, cv.full_family(ds)) == 2

    # (3,0,2) and (4,0,1) have disjoint pools; the rest overlap.
    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (2, 2, 1), (3, 0, 2), (3, 1, 1), (3, 2, 1),
                                       (4, 0, 1), (4, 1, 1), (4, 1, 2), (4, 2, 1), (5, 1, 1)])
    def test_counted_average_equals_the_row_average(self, K, a, b):
        _, ds = setup(K, a, b)
        blocks = cv.full_family(ds).blocks
        assert cv._disjoint(blocks[0].pools) == (a == 0)
        assert block_average(ds, blocks) == average_rows(K, cv.full_family(ds))


class TestLpExport:
    def test_text_shape(self):
        inst, ds = setup(2, 1, 1, M=1)
        lp = cv.build_lp(inst, cv.full_family(ds))
        text = cv.lp_to_text(lp)
        lines = text.strip().split("\n")
        assert lines[0] == "min R"
        assert len(lines) == 1 + lp.n_rows
        genie_lines = [ln for ln in lines[1:] if ln.startswith(">=")]
        assert len(genie_lines) == len(lp.genie_rows)
        assert all("R:1" in ln for ln in genie_lines)
        eq_lines = [ln for ln in lines if ln.startswith("==")]
        assert len(eq_lines) == inst.N

    @pytest.mark.parametrize(
        "name,K,a,b,M,family,mode,raw",
        [
            ("lp_211_m1_full_aggregate_raw", 2, 1, 1, 1, "full", cv.AGGREGATE, True),
            ("lp_211_m1_full_aggregate_sym", 2, 1, 1, 1, "full", cv.AGGREGATE, False),
            ("lp_321_m3_high_m_per_node_raw", 3, 2, 1, 3, "high_m", cv.PER_NODE, True),
            ("lp_321_m3_high_m_per_node_sym", 3, 2, 1, 3, "high_m", cv.PER_NODE, False),
            ("lp_311_m2_full_per_node_sym", 3, 1, 1, 2, "full", cv.PER_NODE, False),
        ],
    )
    def test_text_matches_golden(self, name, K, a, b, M, family, mode, raw):
        # Pins the export bytes and, for symmetrised programs, the orbit-row
        # order, which sets the constraint order the simplex pivots through.
        inst, ds = setup(K, a, b, M=M)
        if family == "full":
            rows = cv.full_family(ds)
        else:
            rows = cv.selected_family(ds, cv.Regime(family))
        lp = cv.build_lp(inst, rows, mode)
        text = cv.lp_to_text(lp if raw else cyclic_symmetrize(lp))
        assert text == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")

    def test_orbit_program_matches_golden(self):
        # The program symmetrize hands the simplex, rows in constraint order.
        inst, ds = setup(4, 1, 2, M=2)
        text = cv.lp_to_text(cv.symmetrize(cv.build_lp(inst, cv.full_family(ds))))
        assert text == (GOLDEN / "lp_412_m2_full_aggregate_orbit.txt").read_text(encoding="utf-8")

    def test_611_per_node_orbit_program_is_pinned(self):
        inst, ds = setup(6, 1, 1, M=2)
        text = cv.lp_to_text(cv.symmetrize(cv.build_lp(inst, cv.full_family(ds), cv.PER_NODE)))
        assert text.count("\n") == 3141
        assert hashlib.sha256(text.encode()).hexdigest().startswith(
            "11a4bf08e855be09515662f025129f23afb1e534c0796ff4305f5d4278ac566d")
