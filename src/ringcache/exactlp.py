"""Exact linear programming via an integer-preserving two-phase simplex.

Solves  min c.x  subject to  A x (<=|==|>=) b,  x >= 0  with no rounding.
The tableau holds Python ints over one shared denominator D > 0. A pivot
at (r, c) with p = a_rc sets every other entry to
(a_ij*p - a_ic*a_rj) // D, a division that is exact by Sylvester's
identity (E. H. Bareiss, Math. Comp. 1968), and then D = p; the pivot row
is negated first when p < 0, so D stays positive. Coefficients may be
ints or `fractions.Fraction`s; an int enters the tableau as it is. The rhs
column is scaled once by the lcm of its denominators and the cost by the
lcm of its, and a constraint with a fractional coefficient is multiplied
through by the lcm of its denominators before its slack is added; the
optimum value and point are returned as `fractions.Fraction`s.

The pivot rule is Dantzig's (most negative reduced cost, lowest column
index on ties) with an automatic switch to Bland's rule after a run of
degenerate pivots, which makes the method both fast in practice and
provably cycle-free. Reduced costs and ratios are compared on the scaled
integers, so on a program with integer coefficients the pivot path is
the one a `Fraction` tableau takes. Fully deterministic for a fixed input.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

_ZERO = Fraction(0)

LESS_EQ = "<="
GREATER_EQ = ">="
EQUAL = "=="

_SENSES = (LESS_EQ, GREATER_EQ, EQUAL)


class LpError(RuntimeError):
    pass


class InfeasibleError(LpError):
    pass


class UnboundedError(LpError):
    pass


class Constraint:
    """Sparse row: sum(coeffs[j] * x_j) <sense> rhs."""

    __slots__ = ("coeffs", "sense", "rhs")

    def __init__(self, coeffs: dict, sense: str, rhs) -> None:
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        self.coeffs, self.sense, self.rhs = coeffs, sense, Fraction(rhs)


class LpSolution(NamedTuple):
    value: Fraction
    x: list


class _Tableau:
    """Dense simplex tableau of ints over one shared denominator."""

    def __init__(self, rows, basis, n_cols, rhs_scale):
        self.rows = rows  # m x (n_cols + 1), rhs last; an entry means entry / denom
        self.basis = basis  # basic variable per row
        self.n_cols = n_cols
        self.denom = 1
        self.rhs_scale = rhs_scale  # the rhs column is also scaled by this

    def pivot(self, r: int, c: int, obj=None) -> None:
        """Pivot at (r, c); ``obj``, a reduced-cost row, takes the same step."""
        rows = self.rows
        piv_row = rows[r]
        p = piv_row[c]
        if p < 0:
            p = -p
            rows[r] = piv_row = [-v for v in piv_row]
        d = self.denom
        nonzero = [(j, q) for j, q in enumerate(piv_row) if q]
        for idx, row in enumerate(rows if obj is None else rows + [obj]):
            if idx == r:
                continue
            f = row[c]
            if p == d:  # zero columns of the pivot row keep their entries
                if f:
                    for j, q in nonzero:
                        row[j] -= f * q // p
            elif f:
                row[:] = [(v * p - f * q) // d for v, q in zip(row, piv_row)]
            else:
                row[:] = [v * p // d for v in row]
        self.denom = p
        self.basis[r] = c

    def solve(self, cost, allowed) -> Fraction:
        """Minimise cost over the current basis; returns the optimum.

        `cost` is a dense objective row (length n_cols) of ints or
        Fractions; `allowed[c]` marks columns that may enter the basis.
        Raises UnboundedError when a column of non-positive entries has
        negative reduced cost.
        """
        rows, basis, n = self.rows, self.basis, self.n_cols
        cden = lcm(*(v.denominator for v in cost))
        cost = [v.numerator * (cden // v.denominator) for v in cost]
        # Reduced-cost row c_j - z_j over denom * cden, so negatives enter.
        obj = [self.denom * v for v in cost] + [0]
        for r, bv in enumerate(basis):
            f = cost[bv]
            if f:
                obj = [v - f * a for v, a in zip(obj, rows[r])]
        degenerate_run = 0
        bland_after = 4 * (len(rows) + n) + 32
        while True:
            use_bland = degenerate_run >= bland_after
            enter = -1
            if use_bland:
                for c in range(n):
                    if allowed[c] and obj[c] < 0:
                        enter = c
                        break
            else:
                best = 0
                for c in range(n):
                    if allowed[c] and obj[c] < best:
                        best = obj[c]
                        enter = c
            if enter < 0:
                return Fraction(-obj[-1], self.denom * cden * self.rhs_scale)
            # Ratio test b_r / a_r, compared as b_r * a_s < b_s * a_r.
            leave = -1
            for r, row in enumerate(rows):
                a = row[enter]
                if a > 0:
                    b = row[-1]
                    if (
                        leave < 0
                        or b * best_a < best_b * a
                        or (b * best_a == best_b * a and basis[r] < basis[leave])
                    ):
                        leave, best_a, best_b = r, a, b
            if leave < 0:
                raise UnboundedError("objective unbounded below")
            degenerate_run = degenerate_run + 1 if best_b == 0 else 0
            self.pivot(leave, enter, obj)


def solve(objective, constraints, n_vars: int) -> LpSolution:
    """Minimise `objective` (sparse dict col->coeff) subject to `constraints`.

    All variables are non-negative. Raises InfeasibleError or
    UnboundedError accordingly.
    """
    m = len(constraints)
    # Column layout: structural | slack/surplus | artificial.
    art_cols: list[int] = []
    n_slack = sum(1 for c in constraints if c.sense != EQUAL)
    first_slack = n_vars
    first_art = n_vars + n_slack

    rows = []
    basis = [-1] * m
    slack_seen = 0
    art_seen = 0
    for r, con in enumerate(constraints):
        coeffs = {}
        for j, v in con.coeffs.items():
            if not 0 <= j < n_vars:
                raise ValueError(f"variable index {j} out of range")
            coeffs[j] = v if isinstance(v, int) else Fraction(v)
        scale = lcm(*(v.denominator for v in coeffs.values()))  # makes the row integral
        rhs = con.rhs * scale
        sense = con.sense
        if rhs < 0:  # normalise to rhs >= 0
            scale = -scale
            rhs = -rhs
            sense = {LESS_EQ: GREATER_EQ, GREATER_EQ: LESS_EQ, EQUAL: EQUAL}[sense]
        dense = [0] * (n_vars + n_slack)
        for j, v in coeffs.items():
            dense[j] = v.numerator * (scale // v.denominator)
        if sense != EQUAL:
            col = first_slack + slack_seen
            dense[col] = 1 if sense == LESS_EQ else -1
            slack_seen += 1
            if sense == LESS_EQ:
                basis[r] = col
        rows.append((dense, rhs))
        if basis[r] < 0:
            art_seen += 1

    n_cols = n_vars + n_slack + art_seen
    rhs_scale = lcm(*(rhs.denominator for _, rhs in rows))
    tab_rows = []
    art_seen = 0
    for r, (dense, rhs) in enumerate(rows):
        row = dense + [0] * (n_cols - len(dense)) + [int(rhs * rhs_scale)]
        if basis[r] < 0:
            col = first_art + art_seen
            art_cols.append(col)
            row[col] = 1
            basis[r] = col
            art_seen += 1
        tab_rows.append(row)

    tab = _Tableau(tab_rows, basis, n_cols, rhs_scale)

    if art_cols:
        phase1_cost = [0] * n_cols
        for c in art_cols:
            phase1_cost[c] = 1
        allowed = [True] * n_cols
        value = tab.solve(phase1_cost, allowed)
        if value != 0:
            raise InfeasibleError(f"phase 1 optimum {value} > 0")
        art_set = set(art_cols)
        # Pivot leftover artificial basics out, dropping redundant rows.
        keep = []
        for r in range(len(tab.rows)):
            if tab.basis[r] not in art_set:
                keep.append(r)
                continue
            row = tab.rows[r]
            enter = next(
                (c for c in range(first_art) if row[c] != 0),
                -1,
            )
            if enter >= 0:
                tab.pivot(r, enter)
                keep.append(r)
            # else: redundant all-zero row, drop it
        tab.rows = [tab.rows[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]

    allowed = [True] * first_art + [False] * (n_cols - first_art)
    cost = [0] * n_cols
    for j, v in objective.items():
        if not 0 <= j < n_vars:
            raise ValueError(f"objective index {j} out of range")
        cost[j] += v if isinstance(v, int) else Fraction(v)
    value = tab.solve(cost, allowed)

    x = [_ZERO] * n_vars
    for r, bv in enumerate(tab.basis):
        if bv < n_vars:
            x[bv] = Fraction(tab.rows[r][-1], tab.denom * rhs_scale)
    return LpSolution(value=value, x=x)
