"""Placements, memory sharing, delivery, decode round-trips, worst case."""

import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ringcache.bounds import rstar_u
from ringcache.model import (
    BudgetExceededError,
    DemandError,
    InvalidInstanceError,
    ProblemInstance,
    build_demand_structure,
    enumerate_demands,
)
from ringcache.schemes import (
    LIBRARY_BUDGET,
    SchemeSpec,
    Segment,
    SegmentKind,
    SubpacketizationError,
    accessible_nodes,
    decode,
    deliver,
    deliver_bits,
    fill_caches,
    make_scheme,
    min_file_size,
    random_library,
    subfile_layout,
    worst_case_load,
)
from ringcache.schemes import _xor
from ringcache.verify import memory_grid, sweep_instances


def setup(K, a, b, L=1, M=0):
    inst = ProblemInstance(K, a, b, L, Fraction(M))
    return inst, build_demand_structure(inst)


def scheme_placement(inst, ds, scheme):
    """(file, node mask) -> fraction of the file cached exactly there: the
    per-segment placements, each scaled by its segment's fraction."""
    sizes = {}
    for seg in scheme.segments:
        for i in range(1, inst.N + 1):
            for mask, frac in seg.kind.placement(inst, ds, i):
                sizes[i, mask] = sizes.get((i, mask), Fraction(0)) + seg.fraction * frac
    return sizes


def kind_placement(kind, inst, ds):
    """The placement of a scheme made of one segment of this kind."""
    return scheme_placement(inst, ds, SchemeSpec(segments=(Segment(Fraction(1), kind),)))


def validate_placement(placement, inst):
    """Exact partition, memory and non-negativity checks of a placement."""
    totals = {i: Fraction(0) for i in range(1, inst.N + 1)}
    for (i, mask), v in placement.items():
        assert v >= 0, f"negative fraction for file {i}, mask {mask}"
        assert 0 <= mask < (1 << inst.K), f"mask {mask} outside [0, 2^K)"
        totals[i] += v
    for i, tot in totals.items():
        assert tot == 1, f"file {i} fractions sum to {tot}, not 1"
    for k in range(1, inst.K + 1):
        used = node_usage(placement, k)
        assert used <= inst.M, f"node {k} uses {used} > M = {inst.M}"


def node_usage(placement, k):
    """The fraction of the library node k caches under the placement."""
    return sum((v for (_, m), v in placement.items() if m >> (k - 1) & 1), Fraction(0))


def memory_used(inst, ds, scheme):
    """The largest cache any node fills under the scheme's placement."""
    placement = scheme_placement(inst, ds, scheme)
    return max(node_usage(placement, k) for k in range(1, inst.K + 1))


class TestPlacements:
    def test_local_full_shared_file_lives_at_both_neighbours(self):
        inst, ds = setup(3, 2, 1, M=5)
        placement = kind_placement(SegmentKind.LOCAL_FULL, inst, ds)
        assert placement.get((4, 0b011), 0) == 1  # nodes {1, 2}
        assert placement.get((3, 0b001), 0) == 1  # unique file, one home
        validate_placement(placement, inst)

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (4, 1, 2), (5, 3, 2), (3, 0, 2)])
    def test_local_full_usage_is_full_demand_set(self, K, a, b):
        inst, ds = setup(K, a, b, M=2 * a + b)
        placement = kind_placement(SegmentKind.LOCAL_FULL, inst, ds)
        for k in range(1, K + 1):
            assert node_usage(placement, k) == 2 * a + b

    def test_man_t1_equal_split(self):
        inst, ds = setup(3, 2, 1, M=3)
        placement = kind_placement(SegmentKind.MAN_T1, inst, ds)
        assert placement.get((5, 0b010), 0) == Fraction(1, 3)
        for k in range(1, 4):
            assert node_usage(placement, k) == 3  # a+b = N/K
        validate_placement(placement, inst)

    def test_man_t1_usage_eight_files(self):
        inst, ds = setup(4, 1, 1, M=2)
        placement = kind_placement(SegmentKind.MAN_T1, inst, ds)
        for k in range(1, 5):
            assert node_usage(placement, k) == 2

    def test_multiaccess_unique_home(self):
        inst, ds = setup(4, 1, 1, 2, M=2)
        placement = kind_placement(SegmentKind.MULTIACCESS_LOCAL, inst, ds)
        assert placement.get((3, 0b0010), 0) == 1  # file 3 cached only at node 2
        for k in range(1, 5):
            assert node_usage(placement, k) == 2
        validate_placement(placement, inst)

    def test_multiaccess_partitions_library(self):
        inst, ds = setup(3, 2, 1, 2, M=3)
        placement = kind_placement(SegmentKind.MULTIACCESS_LOCAL, inst, ds)
        assert len(placement) == inst.N
        assert all(v == 1 for v in placement.values())

    def test_multiaccess_rejects_single_access(self):
        inst, ds = setup(3, 2, 1, 1, M=3)
        with pytest.raises(InvalidInstanceError):
            kind_placement(SegmentKind.MULTIACCESS_LOCAL, inst, ds)


class TestMakeScheme:
    def test_pure_man_at_corner(self):
        inst, ds = setup(3, 2, 1, M=3)
        scheme = make_scheme(inst)
        assert [(s.fraction, s.kind) for s in scheme.segments] == [
            (Fraction(1), SegmentKind.MAN_T1)
        ]

    def test_upper_segment_mixture(self):
        inst, ds = setup(3, 2, 1, M=4)
        scheme = make_scheme(inst)
        assert {s.kind: s.fraction for s in scheme.segments} == {
            SegmentKind.LOCAL_FULL: Fraction(1, 2),
            SegmentKind.MAN_T1: Fraction(1, 2),
        }

    def test_uncoded_regime_mixture_and_load(self):
        inst, ds = setup(4, 1, 2, M=1)
        scheme = make_scheme(inst)
        assert {s.kind: s.fraction for s in scheme.segments} == {
            SegmentKind.UNCODED_DIRECT: Fraction(3, 4),
            SegmentKind.LOCAL_FULL: Fraction(1, 4),
        }
        assert worst_case_load(inst, ds, scheme) == 3

    def test_multiaccess_clamp_above_corner(self):
        inst, ds = setup(3, 2, 1, 2, M=4)
        scheme = make_scheme(inst)
        assert [s.kind for s in scheme.segments] == [SegmentKind.MULTIACCESS_LOCAL]
        assert memory_used(inst, ds, scheme) == 3  # only a+b actually used

    @pytest.mark.parametrize("K,a,b,L", [(3, 2, 1, 1), (4, 1, 2, 1), (4, 1, 1, 2), (5, 3, 2, 1)])
    def test_memory_budget_respected(self, K, a, b, L):
        for j in range(11):
            m = Fraction(j * (2 * a + b), 10)
            inst, ds = setup(K, a, b, L, m)
            scheme = make_scheme(inst)
            assert memory_used(inst, ds, scheme) <= inst.M
            if L == 1:
                assert memory_used(inst, ds, scheme) == inst.M
            validate_placement(scheme_placement(inst, ds, scheme), inst)

    def test_rejects_m_out_of_range(self):
        with pytest.raises(InvalidInstanceError):
            ProblemInstance(3, 2, 1, 1, Fraction(-1))


def four_branch_scheme(inst):
    """Oracle: the segments of the scheme that spelled out each regime's corners."""
    a, b, M = inst.a, inst.b, inst.M

    def mix(f, kind, other):
        segs = []
        if f < 1:
            segs.append(Segment(1 - f, other))
        if f > 0:
            segs.append(Segment(f, kind))
        return tuple(segs)

    if inst.L >= 2:
        if M >= a + b:
            return (Segment(Fraction(1), SegmentKind.MULTIACCESS_LOCAL),)
        return mix(M / (a + b), SegmentKind.MULTIACCESS_LOCAL, SegmentKind.UNCODED_DIRECT)
    if b * (inst.K - 1) >= 2 * a:
        return mix(M / inst.m_max, SegmentKind.LOCAL_FULL, SegmentKind.UNCODED_DIRECT)
    if M <= a + b:
        return mix(M / (a + b), SegmentKind.MAN_T1, SegmentKind.UNCODED_DIRECT)
    return mix((M - (a + b)) / a, SegmentKind.LOCAL_FULL, SegmentKind.MAN_T1)


@pytest.mark.parametrize("K,a,b", sweep_instances())
def test_corner_scheme_matches_the_four_branch_oracle(K, a, b):
    """Every memory_grid point for L = 1, 2 and K, and M above a+b for L >= 2."""
    above = [a + b + Fraction(j, 4) * a for j in range(1, 5)]
    for L in sorted({1, 2, K}):
        inst, ds = setup(K, a, b, L)
        grid = memory_grid(inst) + (above if L >= 2 else [])
        for m in grid:
            sub = inst.with_m(m)
            scheme = make_scheme(sub)
            assert scheme.segments == four_branch_scheme(sub), (L, m)
            assert all(type(s.fraction) is Fraction for s in scheme.segments)
            assert min_file_size(sub, scheme) == min_file_size(
                sub, SchemeSpec(four_branch_scheme(sub)))


class TestDeliver:
    def test_man_t1_three_pair_messages(self):
        inst, ds = setup(3, 2, 1, M=3)
        scheme = make_scheme(inst)
        t = deliver(inst, ds, scheme, (1, 6, 7))
        assert [m.components for m in t.messages] == [
            ((0, 1, 0b010), (0, 6, 0b001)),
            ((0, 1, 0b100), (0, 7, 0b001)),
            ((0, 6, 0b100), (0, 7, 0b010)),
        ]
        assert all(m.size == Fraction(1, 3) for m in t.messages)
        assert t.total_size == 1

    def test_zero_memory_sends_whole_files(self):
        inst, ds = setup(3, 2, 1, M=0)
        t = deliver(inst, ds, make_scheme(inst), (1, 6, 7))
        assert len(t.messages) == 3
        assert t.total_size == 3

    def test_multiaccess_corner_is_silent(self):
        inst, ds = setup(4, 1, 1, 2, M=2)
        t = deliver(inst, ds, make_scheme(inst), (3, 5, 7, 1))
        assert t.messages == ()
        assert t.total_size == 0

    def test_rejects_demand_outside_region(self):
        inst, ds = setup(3, 2, 1, M=3)
        with pytest.raises(DemandError):
            deliver(inst, ds, make_scheme(inst), (9, 6, 7))


class TestBitExact:
    def test_subpacketization_divisibility(self):
        inst, ds = setup(3, 2, 1, M=3)
        scheme = make_scheme(inst)
        assert min_file_size(inst, scheme) == 3
        library = dict.fromkeys(range(1, inst.N + 1), bytes(5))
        with pytest.raises(SubpacketizationError):
            deliver_bits(inst, ds, scheme, (1, 6, 7), library)

    @pytest.mark.parametrize("K,a,b,L,M", [
        (3, 2, 1, 1, 3), (3, 2, 1, 1, Fraction(3, 2)), (4, 1, 2, 1, 2),
        (5, 4, 1, 1, 3), (4, 2, 1, 2, Fraction(5, 2)), (3, 1, 1, 2, Fraction(1, 3)),
    ])
    def test_file_size_check_matches_delivery(self, K, a, b, L, M):
        # The layout of all N files, and of the demanded files alone, raises
        # exactly what deliver_bits, then fill_caches, raise.
        inst, ds = setup(K, a, b, L, M)
        scheme = make_scheme(inst)
        demand = next(iter(enumerate_demands(ds)))
        for size_b in range(1, 2 * min_file_size(inst, scheme) + 2):
            library = dict.fromkeys(range(1, inst.N + 1), bytes(size_b))
            try:
                deliver_bits(inst, ds, scheme, demand, library)
                fill_caches(inst, ds, scheme, library)
                want = None
            except SubpacketizationError as exc:
                want = str(exc)
            for files in (range(1, inst.N + 1), sorted(set(demand))):
                try:
                    subfile_layout(inst, ds, scheme, size_b, files)
                    got = None
                except SubpacketizationError as exc:
                    got = str(exc)
                assert got == want, (size_b, files)

    @pytest.mark.parametrize("K,a,b,M,given,smallest", [
        (3, 1, 2, 1, 12, 4),  # 3/4 direct, 1/4 local
        (4, 1, 1, Fraction(1, 2), 24, 6),  # 5/6 direct, 1/6 local
    ])
    def test_min_file_size_is_not_always_the_smallest(self, K, a, b, M, given, smallest):
        inst, ds = setup(K, a, b, M=M)
        scheme = make_scheme(inst)
        files = range(1, inst.N + 1)
        assert min_file_size(inst, scheme) == given

        def accepted(size_b):
            try:
                subfile_layout(inst, ds, scheme, size_b, files)
            except SubpacketizationError:
                return False
            return True

        assert [s for s in range(1, given + 1) if accepted(s)] == list(range(smallest, given + 1, smallest))

    @pytest.mark.parametrize("K,a,b", sweep_instances())
    def test_layout_places_each_subfile_at_its_exact_share(self, K, a, b):
        """Every multiple of min_file_size is accepted, and each subfile starts
        at B times the fractions before it and spans B times its own, so each
        file's subfiles tile it; checked in Fractions, per L and memory_grid point."""
        for L in sorted({1, 2, K}):
            inst, ds = setup(K, a, b, L)
            for m in memory_grid(inst):
                sub = inst.with_m(m)
                scheme = make_scheme(sub)
                for size_b in (min_file_size(sub, scheme), 3 * min_file_size(sub, scheme)):
                    layout = subfile_layout(sub, ds, scheme, size_b, range(1, sub.N + 1))
                    want, seg_start = {}, Fraction(0)
                    for seg_idx, seg in enumerate(scheme.segments):
                        for i in range(1, sub.N + 1):
                            start = seg_start
                            for mask, frac in seg.kind.placement(sub, ds, i):
                                end = start + seg.fraction * frac
                                want[seg_idx, i, mask] = slice(size_b * start, size_b * end)
                                start = end
                        seg_start += seg.fraction
                    assert seg_start == 1
                    assert layout == want, (L, m, size_b)

    def test_example_decode_uses_both_pair_messages(self):
        inst, ds = setup(3, 2, 1, M=3)
        scheme = make_scheme(inst)
        rng = random.Random(1)
        library = {i: bytes(rng.randrange(256) for _ in range(3)) for i in range(1, 10)}
        transcript = deliver_bits(inst, ds, scheme, (1, 6, 7), library)
        caches = fill_caches(inst, ds, scheme, library)
        got = decode(inst, ds, scheme, (1, 6, 7), 2, {2: caches[2]}, transcript)
        assert got == library[6]

    @pytest.mark.parametrize(
        "K,a,b,L,M",
        [
            (2, 1, 1, 1, Fraction(1, 2)),
            (3, 2, 1, 1, Fraction(7, 2)),
            (3, 2, 1, 1, 3),
            (3, 1, 1, 2, 1),
            (2, 0, 2, 1, 1),
        ],
    )
    def test_roundtrip_exhaustive(self, K, a, b, L, M):
        inst, ds = setup(K, a, b, L, M)
        scheme = make_scheme(inst)
        rng = random.Random(42)
        size_b = min_file_size(inst, scheme)
        library = {i: bytes(rng.randrange(256) for _ in range(size_b))
                   for i in range(1, inst.N + 1)}
        caches = fill_caches(inst, ds, scheme, library)
        for d in enumerate_demands(ds):
            transcript = deliver_bits(inst, ds, scheme, d, library)
            assert transcript.total_bits == 8 * size_b * deliver(inst, ds, scheme, d).total_size
            for k in range(1, K + 1):
                reachable = {n: caches[n] for n in accessible_nodes(inst, k)}
                got = decode(inst, ds, scheme, d, k, reachable, transcript)
                assert got == library[d[k - 1]]

    @pytest.mark.parametrize(
        "K,a,b,L,M",
        [
            (2, 1, 1, 1, Fraction(1, 2)),
            (3, 2, 1, 1, Fraction(7, 2)),
            (3, 0, 2, 1, 1),
            (4, 1, 1, 3, 1),
            (4, 2, 1, 2, 3),
        ],
    )
    def test_cache_bytes_match_node_usage(self, K, a, b, L, M):
        inst, ds = setup(K, a, b, L, M)
        scheme = make_scheme(inst)
        size_b = 2 * min_file_size(inst, scheme)
        library = {i: bytes([i - 1]) * size_b for i in range(1, inst.N + 1)}
        caches = fill_caches(inst, ds, scheme, library)
        placement = scheme_placement(inst, ds, scheme)
        for k in range(1, K + 1):
            stored = sum(len(data) for data in caches[k].values())
            assert stored == size_b * node_usage(placement, k)

    def test_roundtrip_random_larger(self):
        rng = random.Random(99)
        for _ in range(25):
            K = rng.randrange(2, 6)
            a = rng.randrange(0, 4)
            b = rng.randrange(1, 4)
            L = rng.choice([1, 1, rng.randrange(2, K + 1)])
            m = Fraction(rng.randrange(0, 10 * (2 * a + b) + 1), 10)
            inst, ds = setup(K, a, b, L, m)
            scheme = make_scheme(inst)
            size_b = min_file_size(inst, scheme)
            library = {i: bytes(rng.randrange(256) for _ in range(size_b))
                       for i in range(1, inst.N + 1)}
            caches = fill_caches(inst, ds, scheme, library)
            d = tuple(rng.choice(s) for s in ds.demands)
            transcript = deliver_bits(inst, ds, scheme, d, library)
            for k in range(1, K + 1):
                reachable = {n: caches[n] for n in accessible_nodes(inst, k)}
                assert decode(inst, ds, scheme, d, k, reachable, transcript) == library[d[k - 1]]


def xor_per_byte(parts) -> bytes:
    """Reference XOR, one byte at a time."""
    out = bytearray(parts[0])
    for p in parts[1:]:
        for idx, byte in enumerate(p):
            out[idx] ^= byte
    return bytes(out)


@st.composite
def equal_length_parts(draw):
    size = draw(st.integers(0, 64))
    return draw(st.lists(st.binary(min_size=size, max_size=size), min_size=1, max_size=4))


class TestXor:
    @given(equal_length_parts())
    @example([b"\x00\x12\x34\x00", b"\x00\x21\x43\x00"])  # zero bytes at both ends
    @example([b"\x05\x00\x07", b"\x05\x00\x07"])  # all zero
    @example([b""])
    def test_matches_per_byte_oracle(self, parts):
        got = _xor(parts)
        assert type(got) is bytes
        assert got == xor_per_byte(parts)


class TestRandomLibrary:
    def test_shape_and_seed_determinism(self):
        library = random_library(random.Random(3), [4, 1, 7], 11)
        assert list(library) == [4, 1, 7]
        assert all(type(f) is bytes and len(f) == 11 for f in library.values())
        assert random_library(random.Random(3), [4, 1, 7], 11) == library
        assert random_library(random.Random(4), [4, 1, 7], 11) != library

    def test_draws_one_randbytes_per_file_in_the_given_order(self):
        rng = random.Random(3)
        draws = [rng.randbytes(11) for _ in range(3)]
        assert list(random_library(random.Random(3), [4, 1, 7], 11).values()) == draws
        assert list(random_library(random.Random(3), range(1, 4), 11).values()) == draws

    def test_refuses_over_budget_before_drawing(self):
        class NoDraws(random.Random):
            def randbytes(self, n):
                raise AssertionError("drew library bytes past the budget")

        with pytest.raises(BudgetExceededError, match="exceeds"):
            random_library(NoDraws(0), range(1, 26), LIBRARY_BUDGET // 25 + 1)

    def test_budget_is_inclusive(self):
        drawn = []

        class Counting(random.Random):
            def randbytes(self, n):
                drawn.append(n)
                return b""

        random_library(Counting(0), [3, 9], LIBRARY_BUDGET // 2)
        assert drawn == [LIBRARY_BUDGET // 2] * 2


class TestLibraryChecks:
    """A library is {file: bytes}: some files of 1..N, all of one length."""

    @pytest.mark.parametrize("library,message", [
        ({}, "library holds no files"),
        ({0: b"abc"}, "library file 0 outside 1..9"),
        ({1: b"abc", 10: b"abc"}, "library file 10 outside 1..9"),
        ({1: b"abc", 6: b"abcdef"}, "library files must have identical length"),
    ])
    @pytest.mark.parametrize("route", ["deliver_bits", "fill_caches"])
    def test_malformed_library_is_refused(self, library, message, route):
        inst, ds = setup(3, 2, 1, M=3)
        scheme = make_scheme(inst)
        with pytest.raises(ValueError, match=f"^{message}$"):
            if route == "deliver_bits":
                deliver_bits(inst, ds, scheme, (1, 6, 7), library)
            else:
                fill_caches(inst, ds, scheme, library)

    def test_missing_demanded_file_is_a_value_error(self):
        inst, ds = setup(3, 2, 1, M=3)
        scheme = make_scheme(inst)
        library = {1: b"abc", 7: b"abc", 8: b"abc"}
        with pytest.raises(ValueError, match="^library lacks demanded file 6$"):
            deliver_bits(inst, ds, scheme, (1, 6, 7), library)

    def test_caches_hold_only_the_library_files(self):
        inst, ds = setup(3, 2, 1, M=4)
        scheme = make_scheme(inst)
        caches = fill_caches(inst, ds, scheme, {2: b"abcdef", 6: b"ghijkl"})
        assert {i for node in caches.values() for _, i, _ in node} == {2, 6}


def run_round(inst, ds, scheme, d, library, caches):
    """The bit-exact transcript for d and every user's decoded file."""
    transcript = deliver_bits(inst, ds, scheme, d, library)
    decoded = [
        decode(inst, ds, scheme, d, k, {n: caches[n] for n in accessible_nodes(inst, k)}, transcript)
        for k in range(1, inst.K + 1)
    ]
    return transcript, decoded


class TestDemandedLibraryMatchesFullLibrary:
    """The full library stays the reference: a library of only the demanded
    files gives the same transcript, payloads included, and the same decodes."""

    def check(self, inst, ds, demands, seed):
        scheme = make_scheme(inst)
        full = random_library(random.Random(seed), range(1, inst.N + 1), min_file_size(inst, scheme))
        full_caches = fill_caches(inst, ds, scheme, full)
        for d in demands:
            part = {i: full[i] for i in set(d)}
            want = run_round(inst, ds, scheme, d, full, full_caches)
            got = run_round(inst, ds, scheme, d, part, fill_caches(inst, ds, scheme, part))
            assert got == want, d
            assert got[1] == [full[i] for i in d], d

    @pytest.mark.parametrize("K,a,b,L,M", [
        (2, 1, 1, 1, Fraction(1, 2)),
        (3, 2, 1, 1, Fraction(7, 2)),
        (3, 2, 1, 1, 3),
        (3, 1, 1, 2, 1),
        (2, 0, 2, 1, 1),
    ])
    def test_every_demand(self, K, a, b, L, M):
        inst, ds = setup(K, a, b, L, M)
        self.check(inst, ds, enumerate_demands(ds), seed=42)

    @pytest.mark.parametrize("L,M", [(1, 3), (1, 5), (2, 5)])
    def test_benchmark_instance(self, L, M):
        inst, ds = setup(5, 4, 1, L, M)
        rng = random.Random(7)
        demands = [tuple(rng.choice(s) for s in ds.demands) for _ in range(40)]
        assert any(len(set(d)) < inst.K for d in demands)  # some users share a file
        self.check(inst, ds, demands, seed=8)


class TestTranscriptDump:
    def test_golden_bytes_for_pair_message(self):
        # (2,1,1) at M=a+b=2 is a pure coded segment with B=2 bytes; the
        # single message is W_{d1,{2}} xor W_{d2,{1}} = second byte of W1
        # xor first byte of W3.
        inst, ds = setup(2, 1, 1, M=2)
        scheme = make_scheme(inst)
        library = {1: b"\x10\x11", 2: b"\x20\x21", 3: b"\x30\x31", 4: b"\x40\x41"}
        transcript = deliver_bits(inst, ds, scheme, (1, 3), library)
        assert len(transcript.messages) == 1
        payload = bytes([0x11 ^ 0x30])
        expected = (
            struct.pack(">I", 1)
            + struct.pack(">H", 2)
            + struct.pack(">BII", 0, 1, 0b10)
            + struct.pack(">BII", 0, 3, 0b01)
            + struct.pack(">I", 1)
            + payload
        )
        assert transcript.to_bytes() == expected

    def test_dump_deterministic(self):
        inst, ds = setup(3, 2, 1, M=4)
        scheme = make_scheme(inst)
        rng = random.Random(5)
        size_b = min_file_size(inst, scheme)
        library = {i: bytes(rng.randrange(256) for _ in range(size_b)) for i in range(1, 10)}
        one = deliver_bits(inst, ds, scheme, (2, 6, 8), library).to_bytes()
        two = deliver_bits(inst, ds, scheme, (2, 6, 8), library).to_bytes()
        assert one == two


class TestWorstCase:
    def test_man_corner(self):
        inst, ds = setup(4, 4, 2, M=6)
        assert worst_case_load(inst, ds, make_scheme(inst)) == Fraction(3, 2)

    def test_multiaccess_corner(self):
        inst, ds = setup(4, 1, 1, 2, M=2)
        assert worst_case_load(inst, ds, make_scheme(inst)) == 0

    def test_running_example(self):
        inst, ds = setup(3, 2, 1, M=3)
        assert worst_case_load(inst, ds, make_scheme(inst)) == 1

    def test_budget_guard(self):
        inst, ds = setup(9, 4, 3, M=0)
        with pytest.raises(BudgetExceededError):
            worst_case_load(inst, ds, make_scheme(inst))

    @pytest.mark.parametrize("K,a,b", [(2, 1, 1), (3, 2, 1), (4, 1, 2), (4, 2, 1)])
    def test_achieves_rstar_u_on_grid(self, K, a, b):
        for j in range(11):
            m = Fraction(j * (2 * a + b), 10)
            inst, ds = setup(K, a, b, M=m)
            assert worst_case_load(inst, ds, make_scheme(inst)) == rstar_u(inst)

    @pytest.mark.parametrize(
        "K,a,b,L,M",
        [
            (2, 1, 1, 1, 1),  # direct + pair-XOR
            (3, 2, 1, 1, 3),  # pure pair-XOR
            (3, 2, 1, 1, 4),  # pair-XOR + local
            (3, 0, 2, 1, 1),  # direct + local
            (3, 1, 1, 2, 1),  # direct + multiaccess
            (2, 1, 1, 2, 2),  # pure multiaccess
        ],
    )
    def test_exhaustive_oracle_matches_plan_load(self, K, a, b, L, M):
        # worst_case_load reads the delivery plan without enumerating; the
        # symbolic delivery of every demand vector must give that same load.
        inst, ds = setup(K, a, b, L, M)
        scheme = make_scheme(inst)
        loads = {deliver(inst, ds, scheme, d).total_size for d in enumerate_demands(ds)}
        assert loads == {worst_case_load(inst, ds, scheme)}

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_multiaccess_load_free_of_l(self, L):
        inst, ds = setup(4, 1, 1, L, M=1)
        scheme = make_scheme(inst)
        assert worst_case_load(inst, ds, scheme) == 2
