"""Cyclic location-based demand model.

K cache nodes sit on a ring; the library holds N = K*(a+b) files. Region k
can demand 2a+b of them: `a` files shared with the left neighbour, `b` files
unique to the region, and `a` files shared with the right neighbour. Region
and file indices are 1-based in the public API; node subsets travel as
K-bit masks with bit j-1 standing for node j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterator


class InvalidInstanceError(ValueError):
    """Parameter combination outside the model."""


class DemandError(ValueError):
    """Demand vector not admissible for its demand structure."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its guard budget."""


def cyclic_mod(x: int, m: int) -> int:
    """Reduce ``x`` modulo ``m`` into [1, m]; multiples of m map to m, not 0."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    r = x % m
    return m if r == 0 else r


def mask_of(nodes) -> int:
    """Encode an iterable of 1-based node indices as a bitmask."""
    m = 0
    for k in nodes:
        m |= 1 << (k - 1)
    return m


def nodes_of(mask: int) -> tuple[int, ...]:
    """Decode a bitmask into the sorted tuple of 1-based node indices."""
    out = []
    k = 1
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return tuple(out)


@dataclass(frozen=True)
class ProblemInstance:
    """The (K, a, b, L, M) tuple every operation is parameterised on.

    M is an exact rational number of file-units in [0, 2a+b]; anything
    larger is clamped to 2a+b because the load is already 0 there.
    """

    K: int
    a: int
    b: int
    L: int = 1
    M: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.K < 2:
            raise InvalidInstanceError(f"K must be >= 2, got {self.K}")
        if self.a < 0 or self.b < 0:
            raise InvalidInstanceError("a and b must be non-negative")
        if self.a + self.b < 1:
            raise InvalidInstanceError("need a + b >= 1")
        if not 1 <= self.L <= self.K:
            raise InvalidInstanceError(f"L must lie in [1, K]={self.K}, got {self.L}")
        m = Fraction(self.M)
        if m < 0:
            raise InvalidInstanceError(f"cache size M must be non-negative, got {m}")
        object.__setattr__(self, "M", min(m, Fraction(self.m_max)))

    @property
    def N(self) -> int:
        """Library size K*(a+b)."""
        return self.K * (self.a + self.b)

    @property
    def m_max(self) -> int:
        """Cache size 2a+b at which the load reaches 0."""
        return 2 * self.a + self.b

    def with_m(self, m) -> "ProblemInstance":
        return ProblemInstance(self.K, self.a, self.b, self.L, Fraction(m))

    def to_json_dict(self) -> dict:
        return {"K": self.K, "a": self.a, "b": self.b, "L": self.L, "M": str(self.M)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProblemInstance":
        return cls(
            K=int(doc["K"]),
            a=int(doc["a"]),
            b=int(doc["b"]),
            L=int(doc.get("L", 1)),
            M=Fraction(str(doc.get("M", "0"))),
        )


@dataclass(frozen=True)
class DemandStructure:
    """Per-region demand sets and their three cyclic parts.

    ``part1[k-1]`` holds the `a` files region k shares with its left
    neighbour, ``part2[k-1]`` the `b` files unique to region k, and
    ``part3[k-1]`` the `a` files shared with the right neighbour (which
    equal ``part1`` of that neighbour). ``class1`` collects all shared
    files, ``class2`` all unique ones.
    """

    inst: ProblemInstance
    part1: tuple[tuple[int, ...], ...]
    part2: tuple[tuple[int, ...], ...]
    part3: tuple[tuple[int, ...], ...]
    demands: tuple[tuple[int, ...], ...]
    demand_sets: tuple[frozenset, ...] = field(repr=False)
    class1: frozenset
    class2: frozenset
    _home: dict = field(repr=False, compare=False)

    def d1(self, k: int) -> tuple[int, ...]:
        return self.part1[k - 1]

    def d2(self, k: int) -> tuple[int, ...]:
        return self.part2[k - 1]

    def d3(self, k: int) -> tuple[int, ...]:
        return self.part3[k - 1]

    def demand_set(self, k: int) -> frozenset:
        return self.demand_sets[k - 1]

    def home_region(self, i: int) -> int:
        """The unique region k with i in D1[k] or D2[k]."""
        return self._home[i]

    def demand_regions(self, i: int) -> tuple[int, ...]:
        """Sorted regions whose users may demand file i (1 or 2 of them)."""
        home = self._home[i]
        if i in self.class2:
            return (home,)
        left = cyclic_mod(home - 1, self.inst.K)
        return tuple(sorted({home, left}))

    def validate_demand(self, d) -> "DemandVector":
        """Wrap a demand tuple after checking each entry against its region."""
        d = tuple(d)
        if len(d) != self.inst.K:
            raise DemandError(f"demand vector must have {self.inst.K} entries")
        for k, di in enumerate(d, start=1):
            if di not in self.demand_sets[k - 1]:
                raise DemandError(f"file {di} is not demandable in region {k}")
        return DemandVector(files=d, distinct=len(set(d)) == len(d))

    def shift_file(self, i: int, steps: int = 1) -> int:
        """Image of file i under `steps` one-region rotations of the ring."""
        return cyclic_mod(i + steps * (self.inst.a + self.inst.b), self.inst.N)


@dataclass(frozen=True)
class DemandVector:
    """One file index per region; ``distinct`` records pairwise distinctness."""

    files: tuple[int, ...]
    distinct: bool

    def __iter__(self):
        return iter(self.files)

    def __getitem__(self, idx: int) -> int:
        return self.files[idx]

    def __len__(self) -> int:
        return len(self.files)


def build_demand_structure(inst: ProblemInstance) -> DemandStructure:
    """Materialise the demand sets of all K regions as sorted tuples.

    D1[k] = [(k-1)(a+b)+1 : ka+(k-1)b], D2[k] = [ka+(k-1)b+1 : k(a+b)],
    and D3[k] is the length-a cyclic interval starting right after D2[k],
    which coincides with D1 of the right-hand neighbour. All structural
    invariants are asserted; a violating combination is rejected rather
    than silently merged (relevant only to hypothetical degenerate inputs,
    every K >= 2 integer instance passes).
    """
    K, a, b, N = inst.K, inst.a, inst.b, inst.N
    part1, part2, part3, demands, demand_sets = [], [], [], [], []
    home: dict[int, int] = {}
    for k in range(1, K + 1):
        d1 = tuple((k - 1) * (a + b) + j for j in range(1, a + 1))
        d2 = tuple(k * a + (k - 1) * b + j for j in range(1, b + 1))
        d3 = tuple(cyclic_mod(k * (a + b) + j, N) for j in range(1, a + 1))
        part1.append(d1)
        part2.append(d2)
        part3.append(d3)
        full = sorted(set(d1) | set(d2) | set(d3))
        demands.append(tuple(full))
        demand_sets.append(frozenset(full))
        for i in d1 + d2:
            home[i] = k

    class1 = frozenset(i for p in part1 for i in p)
    class2 = frozenset(i for p in part2 for i in p)
    ds = DemandStructure(
        inst=inst,
        part1=tuple(part1),
        part2=tuple(part2),
        part3=tuple(part3),
        demands=tuple(demands),
        demand_sets=tuple(demand_sets),
        class1=class1,
        class2=class2,
        _home=home,
    )
    validate_structure(ds)
    return ds


def validate_structure(ds: DemandStructure) -> None:
    """Re-check every structural invariant; raises naming the violated one."""
    inst = ds.inst
    K, a, b, N = inst.K, inst.a, inst.b, inst.N

    def reject(msg: str) -> None:
        raise InvalidInstanceError(f"demand structure invariant violated: {msg}")

    for k in range(1, K + 1):
        if len(set(ds.d1(k))) != a or len(set(ds.d3(k))) != a:
            reject(f"|D1[{k}]| or |D3[{k}]| != a")
        if len(set(ds.d2(k))) != b:
            reject(f"|D2[{k}]| != b")
        right = cyclic_mod(k + 1, K)
        if set(ds.d3(k)) != set(ds.d1(right)):
            reject(f"D3[{k}] != D1[{right}]")
        full = set(ds.d1(k)) | set(ds.d2(k)) | set(ds.d3(k))
        if len(full) != 2 * a + b or full != set(ds.demand_set(k)):
            reject(f"parts of D[{k}] collide")
    for k1 in range(1, K + 1):
        for k2 in range(1, K + 1):
            if 2 <= cyclic_mod(k1 - k2, K) <= K - 2:
                if ds.demand_set(k1) & ds.demand_set(k2):
                    reject(f"non-neighbouring D[{k1}], D[{k2}] intersect")
    if ds.class1 & ds.class2:
        reject("C1 and C2 intersect")
    universe = frozenset().union(*ds.demand_sets)
    if universe != frozenset(range(1, N + 1)):
        reject("union of demand sets is not [N]")
    if len(ds.class1) != a * K or len(ds.class2) != b * K:
        reject("|C1| != aK or |C2| != bK")


def enumerate_demands(ds: DemandStructure, distinct_only: bool = False) -> Iterator[DemandVector]:
    """Yield every demand vector in lexicographic order.

    The stream runs over the cartesian product of the K demand sets;
    with ``distinct_only`` vectors with a repeated file index are skipped.
    """
    K = ds.inst.K
    for d in product(*ds.demands):
        distinct = len(set(d)) == K
        if distinct_only and not distinct:
            continue
        yield DemandVector(files=d, distinct=distinct)


def count_demands(ds: DemandStructure) -> int:
    """Count demand vectors without enumerating them."""
    return prod(len(s) for s in ds.demands)
