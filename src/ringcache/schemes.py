"""Achievable schemes: placement, delivery, decode, worst-case load.

Memory sharing splits every file into contiguous segments with exact
rational fractions, one segment per constituent scheme. Each segment kind
owns a placement (the subfiles of each file) and a delivery plan (a
demand-free list of multicast messages); cache fill, delivery, decoding
and the worst-case load are derived from those two alone. Delivery and
decoding run segment-by-segment and independently of each other. For the
bit-exact path the file size B (in bytes) must make every subfile a whole
number of bytes; every multiple of `min_file_size` does.

Subfiles are addressed by (segment index, file index, node mask), where the
mask names the nodes that cache the subfile (0 for none). `subfile_layout`
alone places their bytes: inside a segment a file's subfiles sit back to
back in ascending mask order, so in a pair-XOR segment node k's subfile is
the k-th of K equal chunks. Cache fill, bit-exact delivery and the CLI's
file-size check all read it.
"""

from __future__ import annotations

import enum
import functools
import struct
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import NamedTuple

from ringcache.bounds import corner_memories
from ringcache.model import (
    BudgetExceededError,
    DemandStructure,
    InvalidInstanceError,
    ProblemInstance,
    count_text,
    cyclic_mod,
    mask_of,
    nodes_of,
)

WORST_CASE_BUDGET = 10**7
LIBRARY_BUDGET = 2**28  # bytes of random library drawn at once
_WHOLE = Fraction(1)


class SubpacketizationError(ValueError):
    """File size not divisible by the scheme's subpacketization."""


class DecodeError(RuntimeError):
    """A user failed to reconstruct its file; always a scheme bug."""


@functools.cache
def _one_per_node(K: int) -> tuple:
    """The pair-XOR placement of every file; cached, as cache fill asks once per file."""
    share = Fraction(1, K)
    return tuple([(1 << k, share) for k in range(K)])


class SegmentKind(enum.Enum):
    UNCODED_DIRECT = "uncoded_direct"
    MAN_T1 = "man_t1"
    LOCAL_FULL = "local_full"
    MULTIACCESS_LOCAL = "multiaccess_local"

    def placement(self, inst: ProblemInstance, ds: DemandStructure, i: int) -> tuple:
        """Subfiles of file i as (node mask, fraction of the segment) pairs.

        Pairs come in ascending mask order and their fractions sum to 1.
        Direct delivery caches nothing; pair-XOR splits the file into K
        equal subfiles, one per node; local caching stores the whole file
        at every node whose region demands it; multiaccess stores it only
        at its home node, which users reach when L >= 2.
        """
        if self is SegmentKind.UNCODED_DIRECT:
            return ((0, _WHOLE),)
        if self is SegmentKind.MAN_T1:
            return _one_per_node(inst.K)
        if self is SegmentKind.LOCAL_FULL:
            return ((mask_of(ds.demand_regions(i)), _WHOLE),)
        if inst.L < 2:
            raise InvalidInstanceError("multiaccess placement requires L >= 2")
        return ((1 << (ds.home_region(i) - 1), _WHOLE),)

    @functools.cache
    def plan(self, K: int) -> tuple:
        """Demand-free delivery template: (((user, mask), ...), size) per message.

        A component (user, mask) stands for the subfile with that mask of
        the file the user demands; a message is the XOR of its components
        and its size is per unit of segment fraction. Cached per (kind, K),
        as every delivery reads it.
        """
        if self is SegmentKind.UNCODED_DIRECT:
            return tuple([(((k, 0),), _WHOLE) for k in range(1, K + 1)])
        if self is SegmentKind.MAN_T1:
            size = Fraction(1, K)
            return tuple([
                (((j, 1 << (k - 1)), (k, 1 << (j - 1))), size)
                for j, k in combinations(range(1, K + 1), 2)
            ])
        return ()


class Segment(NamedTuple):
    fraction: Fraction
    kind: SegmentKind


class SchemeSpec:
    """A memory-sharing mixture of segment schemes; fractions sum to 1."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[Segment, ...]) -> None:
        if sum((s.fraction for s in segments), Fraction(0)) != 1:
            raise InvalidInstanceError("segment fractions must sum to 1")
        if any(s.fraction <= 0 for s in segments):
            raise InvalidInstanceError("segment fractions must be positive")
        self.segments = segments


def make_scheme(inst: ProblemInstance) -> SchemeSpec:
    """Memory-share the two corners of the optimal curve that bracket M.

    With one cache per user the corners sit at ``bounds.corner_memories``:
    direct delivery at 0, pair-XOR (MAN t=1) at a+b when b(K-1) < 2a, and
    local caching at 2a+b. With L >= 2 they are direct delivery at 0 and
    multiaccess local caching at a+b, and any M > a+b uses the latter alone.
    """
    M = inst.M
    if inst.L >= 2:
        corners = [Fraction(0), Fraction(inst.a + inst.b)]
        kinds = (SegmentKind.UNCODED_DIRECT, SegmentKind.MULTIACCESS_LOCAL)
        M = min(M, corners[1])
    else:
        corners = corner_memories(inst)
        middle = (SegmentKind.MAN_T1,) if len(corners) == 3 else ()
        kinds = (SegmentKind.UNCODED_DIRECT, *middle, SegmentKind.LOCAL_FULL)
    hi = next(j for j in range(1, len(corners)) if M <= corners[j])
    f = (M - corners[hi - 1]) / (corners[hi] - corners[hi - 1])
    shares = (Segment(1 - f, kinds[hi - 1]), Segment(f, kinds[hi]))
    return SchemeSpec(segments=tuple(s for s in shares if s.fraction > 0))


class Message(NamedTuple):
    """One multicast message: XOR of the named component subfiles."""

    components: tuple
    size: Fraction
    payload: bytes | None = None


class BroadcastTranscript(NamedTuple):
    messages: tuple[Message, ...]

    @property
    def total_size(self) -> Fraction:
        """Broadcast size in units of the file size B."""
        return sum((m.size for m in self.messages), Fraction(0))

    @property
    def total_bits(self) -> int:
        if any(m.payload is None for m in self.messages):
            raise ValueError("transcript has no payloads (symbolic mode)")
        return 8 * sum(len(m.payload) for m in self.messages)

    def to_bytes(self) -> bytes:
        """Deterministic binary dump.

        Layout (big-endian): u32 message count; per message a u16
        component count, then per component u8 segment / u32 file /
        u32 mask, then u32 payload length and the payload bytes. A mask
        past 32 bits does not fit; ``check_dump_masks`` refuses its scheme.
        """
        out = [struct.pack(">I", len(self.messages))]
        for m in self.messages:
            if m.payload is None:
                raise ValueError("cannot dump a symbolic transcript")
            out.append(struct.pack(">H", len(m.components)))
            for seg, i, mask in m.components:
                out.append(struct.pack(">BII", seg, i, mask))
            out.append(struct.pack(">I", len(m.payload)))
            out.append(m.payload)
        return b"".join(out)


def check_dump_masks(K: int, scheme: SchemeSpec) -> None:
    """Refuse, from the scheme alone, a run whose transcript dump would name a
    mask past the u32 field: a delivery sends every message of each plan.
    Direct delivery names mask 0, so only a pair-XOR component of a node
    past 32 is refused; a larger ring without pair-XOR segments dumps."""
    plans = (seg.kind.plan(K) for seg in scheme.segments)
    widest = max((mask for plan in plans for comps, _ in plan for _, mask in comps), default=0)
    if widest >> 32:
        raise ValueError(f"mask {widest:#x} does not fit the dump's u32 mask field (K <= 32)")


def _messages(inst: ProblemInstance, scheme: SchemeSpec, d):
    """Yield (message components, size): each segment's plan with demand d put in."""
    for seg_idx, seg in enumerate(scheme.segments):
        unit = scaled = None
        for comps, size in seg.kind.plan(inst.K):
            if size is not unit:  # a plan shares one size object; scale it once
                unit, scaled = size, seg.fraction * size
            yield tuple([(seg_idx, d[user - 1], mask) for user, mask in comps]), scaled


def deliver(inst: ProblemInstance, ds: DemandStructure, scheme: SchemeSpec, d) -> BroadcastTranscript:
    """Symbolic delivery: the multicast messages with exact rational sizes."""
    d = ds.validate_demand(d)
    msgs = tuple(Message(components=comps, size=size) for comps, size in _messages(inst, scheme, d))
    return BroadcastTranscript(messages=msgs)


def min_file_size(inst: ProblemInstance, scheme: SchemeSpec) -> int:
    """K times the lcm of the segment fractions' denominators: every multiple of
    it gives whole-byte subfiles everywhere, though a smaller size may too."""
    dens = [seg.fraction.denominator for seg in scheme.segments]
    return inst.K * lcm(*dens) if dens else inst.K


def subfile_layout(inst: ProblemInstance, ds: DemandStructure, scheme: SchemeSpec, size_b: int,
                   files) -> dict:
    """{(segment, file, mask): slice} of the named files' subfiles in size_b-byte
    files: segments back to back in scheme order, inside each a file's subfiles
    in ascending mask order. The first segment, then subfile, that is not a
    whole number of bytes raises SubpacketizationError."""

    def whole(total: int, frac: Fraction, kind: SegmentKind) -> int:
        n, rest = divmod(total * frac.numerator, frac.denominator)
        if rest:
            raise SubpacketizationError(f"file size {size_b} not divisible for segment {kind.value}")
        return n

    lengths = [whole(size_b, seg.fraction, seg.kind) for seg in scheme.segments]
    layout, offset = {}, 0
    for seg_idx, (seg, length) in enumerate(zip(scheme.segments, lengths)):
        unit = n = None
        for i in files:
            start = offset
            for mask, frac in seg.kind.placement(inst, ds, i):
                if frac is not unit:  # placements share fraction objects; divide once each
                    unit, n = frac, whole(length, frac, seg.kind)
                layout[seg_idx, i, mask] = slice(start, start + n)
                start += n
        offset += length
    return layout


def _check_library(inst: ProblemInstance, library) -> int:
    """The common file length of a {file: bytes} library of files in 1..N."""
    if not library:
        raise ValueError("library holds no files")
    lo, hi = min(library), max(library)
    if lo < 1 or hi > inst.N:
        raise ValueError(f"library file {lo if lo < 1 else hi} outside 1..{inst.N}")
    sizes = {len(f) for f in library.values()}
    if len(sizes) != 1:
        raise ValueError("library files must have identical length")
    return sizes.pop()


def check_library_budget(n_files: int, size_b: int) -> None:
    """Refuse a library larger than LIBRARY_BUDGET bytes."""
    if n_files * size_b > LIBRARY_BUDGET:
        raise BudgetExceededError(
            f"library of {n_files} x {size_b} bytes exceeds {LIBRARY_BUDGET} bytes"
        )


def random_library(rng, files, size_b: int) -> dict:
    """{file: bytes}: one rng.randbytes(size_b) per named file, in the given order.

    A run reads only the files it names, so `simulate` names the demanded
    files and acceptance criterion 7 names all N. Refuses, before drawing
    anything, a library larger than LIBRARY_BUDGET bytes.
    """
    check_library_budget(len(files), size_b)
    return {i: rng.randbytes(size_b) for i in files}


def _xor(parts) -> bytes:
    """XOR of equal-length byte strings, computed on Python ints."""
    if len(parts) == 1:
        return bytes(parts[0])
    acc = 0
    for p in parts:
        acc ^= int.from_bytes(p, "little")
    return acc.to_bytes(len(parts[0]), "little")  # the fixed length keeps zero bytes


def deliver_bits(
    inst: ProblemInstance,
    ds: DemandStructure,
    scheme: SchemeSpec,
    d,
    library,
) -> BroadcastTranscript:
    """Bit-exact delivery: payloads are XORs of the component subfiles.

    ``library`` maps file to bytes and must hold every demanded file;
    every message component is a subfile of one.
    """
    d = ds.validate_demand(d)
    size_b = _check_library(inst, library)
    missing = set(d) - library.keys()
    if missing:
        raise ValueError(f"library lacks demanded file {min(missing)}")
    layout = subfile_layout(inst, ds, scheme, size_b, sorted(set(d)))
    msgs = []
    for comps, size in _messages(inst, scheme, d):
        payload = _xor([library[i][layout[seg, i, mask]] for seg, i, mask in comps])
        msgs.append(Message(components=comps, size=size, payload=payload))
    return BroadcastTranscript(messages=tuple(msgs))


def fill_caches(
    inst: ProblemInstance,
    ds: DemandStructure,
    scheme: SchemeSpec,
    library,
) -> dict:
    """Cache contents per node: node -> {(segment, file, mask): bytes}.

    Every node in a subfile's mask stores that subfile, for each file the
    {file: bytes} library holds. Decoding a demand reads only the subfiles
    of demanded files, so a library of the demanded files fills enough.
    """
    size_b = _check_library(inst, library)
    caches: dict[int, dict] = {k: {} for k in range(1, inst.K + 1)}
    stores_of: dict = {}  # node mask -> the caches of its nodes
    for sub, span in subfile_layout(inst, ds, scheme, size_b, sorted(library)).items():
        _, i, mask = sub
        if mask not in stores_of:
            stores_of[mask] = [caches[k] for k in nodes_of(mask)]
        for store in stores_of[mask]:
            store[sub] = library[i][span]
    return caches


def accessible_nodes(inst: ProblemInstance, k: int) -> tuple[int, ...]:
    """The L consecutive cache nodes user k can read, starting at its own."""
    return tuple(cyclic_mod(k + j, inst.K) for j in range(inst.L))


def decode(
    inst: ProblemInstance,
    ds: DemandStructure,
    scheme: SchemeSpec,
    d,
    k: int,
    caches: dict,
    transcript: BroadcastTranscript,
) -> bytes:
    """Reconstruct user k's file from the broadcast and its reachable caches.

    Each subfile of the wanted file comes from a reachable cache, or from a
    message whose other components user k holds. ``caches`` maps node index
    to that node's subfile store and needs to cover exactly the nodes
    `accessible_nodes` returns. Any missing piece raises DecodeError:
    decoding failure is a scheme bug, never expected.
    """
    want = ds.validate_demand(d)[k - 1]
    held: dict = {}
    for node in accessible_nodes(inst, k):
        held.update(caches.get(node, {}))
    parts = []
    for seg_idx, seg in enumerate(scheme.segments):
        for mask, _ in seg.kind.placement(inst, ds, want):
            sub = (seg_idx, want, mask)
            data = held.get(sub)
            if data is None:
                for m in transcript.messages:
                    if sub in m.components:
                        side = [held.get(c) for c in m.components if c != sub]
                        if m.payload is not None and None not in side:
                            data = _xor([m.payload, *side])
                            break
                else:
                    raise DecodeError(f"user {k}: no reachable cache or decodable message holds {sub}")
            parts.append(data)
    return b"".join(parts)


def check_demands(inst: ProblemInstance) -> None:
    """Refuse more than WORST_CASE_BUDGET demand vectors, (2a+b)^K, from the
    instance alone, so before any demand structure is built."""
    n_vectors = inst.m_max ** inst.K
    if n_vectors > WORST_CASE_BUDGET:
        raise BudgetExceededError(
            f"{count_text(n_vectors)} demand vectors exceed {WORST_CASE_BUDGET}")


def worst_case_load(inst: ProblemInstance, ds: DemandStructure, scheme: SchemeSpec) -> Fraction:
    """Worst-case delivery size over all demand vectors, in units of B.

    Every demand vector has this same load. Each segment's delivery plan
    is a template whose message sizes depend only on the segment fraction;
    a demand vector only chooses which file each component carries. So the
    worst case is the total size of the plans, with no enumeration. The
    budget still refuses demand structures too large to enumerate.
    """
    check_demands(inst)
    return sum(
        (seg.fraction * size for seg in scheme.segments for _, size in seg.kind.plan(inst.K)),
        Fraction(0),
    )
