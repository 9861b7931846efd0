"""Cyclic location-based demand model.

K cache nodes sit on a ring; the library holds N = K*(a+b) files. Region k
can demand 2a+b of them: `a` files shared with the left neighbour, `b` files
unique to the region, and `a` files shared with the right neighbour. Region
and file indices are 1-based in the public API; node subsets travel as
K-bit masks with bit j-1 standing for node j.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple


class InvalidInstanceError(ValueError):
    """Parameter combination outside the model."""


class DemandError(ValueError):
    """Demand vector not admissible for its demand structure."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its guard budget."""


def count_text(n: int) -> str:
    """A count for a message: ``n`` in decimal, or "at least 10^e" when
    ``str`` refuses that many digits (``sys.get_int_max_str_digits``)."""
    try:
        return str(n)
    except ValueError:
        e = (n.bit_length() - 1) * 30102999566 // 10**11  # 30102999566/10^11 < log10(2): 10^e <= n
        while 10 ** (e + 1) <= n:
            e += 1
        return f"at least 10^{e}"


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


class ProblemInstance:
    """The (K, a, b, L, M) tuple every operation is parameterised on.

    K, a, b and L are ints. M is an exact rational number of file-units,
    given as an int or a Fraction, in [0, 2a+b]; anything larger is
    clamped to 2a+b because the load is already 0 there.
    """

    __slots__ = ("K", "a", "b", "L", "M")

    def __init__(self, K: int, a: int, b: int, L: int = 1, M=Fraction(0)) -> None:
        for name, value in (("K", K), ("a", a), ("b", b), ("L", L)):
            if type(value) is not int:
                raise InvalidInstanceError(f"{name} must be an integer, got {value!r}")
        if type(M) not in (int, Fraction):
            raise InvalidInstanceError(f"M must be an int or a Fraction, got {M!r}")
        if K < 2:
            raise InvalidInstanceError(f"K must be >= 2, got {K}")
        if a < 0 or b < 0:
            raise InvalidInstanceError("a and b must be non-negative")
        if a + b < 1:
            raise InvalidInstanceError("need a + b >= 1")
        if not 1 <= L <= K:
            raise InvalidInstanceError(f"L must lie in [1, K]={K}, got {L}")
        m = Fraction(M)
        if m < 0:
            raise InvalidInstanceError(f"cache size M must be non-negative, got {m}")
        self.K, self.a, self.b, self.L, self.M = K, a, b, L, min(m, Fraction(2 * a + b))

    def _key(self) -> tuple:
        return self.K, self.a, self.b, self.L, self.M

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is ProblemInstance else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "ProblemInstance(K=%r, a=%r, b=%r, L=%r, M=%r)" % self._key()

    @property
    def N(self) -> int:
        """Library size K*(a+b)."""
        return self.K * (self.a + self.b)

    @property
    def m_max(self) -> int:
        """Cache size 2a+b at which the load reaches 0."""
        return 2 * self.a + self.b

    def with_m(self, m) -> "ProblemInstance":
        return ProblemInstance(self.K, self.a, self.b, self.L, m)

    def to_json_dict(self) -> dict:
        return {"K": self.K, "a": self.a, "b": self.b, "L": self.L, "M": str(self.M)}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ProblemInstance":
        """Read K, a, b and L as JSON integers or integer strings, and M as a rational."""
        return cls(
            K=_json_int(doc, "K"),
            a=_json_int(doc, "a"),
            b=_json_int(doc, "b"),
            L=_json_int(doc, "L", 1),
            M=_json_m(doc),
        )


def _json_m(doc: dict) -> Fraction:
    """doc["M"] (default 0) as a rational; a zero denominator is refused."""
    text = str(doc.get("M", "0"))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidInstanceError(f"M has a zero denominator: {text!r}") from None


def _json_int(doc: dict, key: str, default=None) -> int:
    """doc[key] as an int; a float, a boolean or an unparsable string is refused."""
    value = doc.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidInstanceError(f"{key} must be an integer, got {value!r}")


class DemandStructure(NamedTuple):
    """Per-region demand sets and their three cyclic parts.

    ``part1[k-1]`` holds the `a` files region k shares with its left
    neighbour, ``part2[k-1]`` the `b` files unique to region k, and
    ``part3[k-1]`` the `a` files shared with the right neighbour (which
    equal ``part1`` of that neighbour). ``class2`` collects all unique
    files.
    """

    inst: ProblemInstance
    part1: tuple[tuple[int, ...], ...]
    part2: tuple[tuple[int, ...], ...]
    part3: tuple[tuple[int, ...], ...]
    demands: tuple[tuple[int, ...], ...]
    demand_sets: tuple[frozenset, ...]
    class2: frozenset

    def home_region(self, i: int) -> int:
        """The unique region k with i in D1[k] or D2[k]: files (k-1)(a+b)+1..k(a+b)."""
        if not 1 <= i <= self.inst.N:
            raise KeyError(i)
        return (i - 1) // (self.inst.a + self.inst.b) + 1

    def demand_regions(self, i: int) -> tuple[int, ...]:
        """Sorted regions whose users may demand file i (1 or 2 of them)."""
        home = self.home_region(i)
        if i in self.class2:
            return (home,)
        left = cyclic_mod(home - 1, self.inst.K)
        return tuple(sorted({home, left}))

    def validate_demand(self, d) -> tuple[int, ...]:
        """The demand vector d as a tuple, after checking each entry against its region."""
        d = tuple(d)
        if len(d) != self.inst.K:
            raise DemandError(f"demand vector must have {self.inst.K} entries")
        for k, di in enumerate(d, start=1):
            if di not in self.demand_sets[k - 1]:
                raise DemandError(f"file {di} is not demandable in region {k}")
        return d

    def shift_file(self, i: int) -> int:
        """Image of file i when the ring turns by one region."""
        return cyclic_mod(i + self.inst.a + self.inst.b, self.inst.N)


def build_demand_structure(inst: ProblemInstance) -> DemandStructure:
    """Materialise the demand sets of all K regions as sorted tuples.

    D1[k] = [(k-1)(a+b)+1 : ka+(k-1)b], D2[k] = [ka+(k-1)b+1 : k(a+b)],
    and D3[k] is the length-a cyclic interval starting right after D2[k],
    which coincides with D1 of the right-hand neighbour. The formula meets
    every structural invariant for any valid instance; the tests check them
    (``test_invariants_sweep``), so nothing is re-checked here.
    """
    K, a, b, N = inst.K, inst.a, inst.b, inst.N
    part1, part2, part3, demands, demand_sets = [], [], [], [], []
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

    class2 = frozenset(i for p in part2 for i in p)
    ds = DemandStructure(
        inst=inst,
        part1=tuple(part1),
        part2=tuple(part2),
        part3=tuple(part3),
        demands=tuple(demands),
        demand_sets=tuple(demand_sets),
        class2=class2,
    )
    return ds


def enumerate_demands(ds: DemandStructure) -> Iterator[tuple[int, ...]]:
    """Every demand vector, one file per region, in lexicographic order."""
    return product(*ds.demands)
