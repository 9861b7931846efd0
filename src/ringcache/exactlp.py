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

`solve` is the cold path. `optimal_tableau` returns the optimal tableau
itself, which re-optimises after two moves that keep its basis dual
feasible: a `<=` row added (`add_row`) and a right-hand side moved
(`move_rhs`). Both can leave a basic variable negative, and `reoptimize`
restores primal feasibility by Lemke's dual simplex (Naval Res. Logist.
Q. 1954): the most negative basic row leaves, the column of least ratio
of reduced cost to the row's negative entry enters, and after a run of
dual-degenerate pivots the row with the lowest basic index leaves
instead, the dual of Bland's rule. Every move stays in integers.
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


def _bland_after(n_rows: int, n_cols: int) -> int:
    """The length of a degenerate run after which a pivot rule turns to Bland's."""
    return 4 * (n_rows + n_cols) + 32


def _integral(con: Constraint, n_vars: int) -> tuple:
    """The constraint's coefficients as ints and the positive lcm of their
    denominators the row was multiplied through by."""
    coeffs = {}
    for j, v in con.coeffs.items():
        if not 0 <= j < n_vars:
            raise ValueError(f"variable index {j} out of range")
        coeffs[j] = v if isinstance(v, int) else Fraction(v)
    scale = lcm(*(v.denominator for v in coeffs.values()))
    return {j: v.numerator * (scale // v.denominator) for j, v in coeffs.items()}, scale


class _Tableau:
    """Dense simplex tableau of ints over one shared denominator.

    Every basic column is ``denom`` times a unit vector. Once ``solve`` has
    run, ``obj`` is its reduced-cost row, over ``denom * cden``, with the
    negated optimum, also scaled by ``rhs_scale``, last.
    """

    def __init__(self, rows, basis, n_cols, rhs_scale, n_vars, rhs, slack):
        self.rows = rows  # m x (n_cols + 1), rhs last; an entry means entry / denom
        self.basis = basis  # basic variable per row
        self.n_cols = n_cols
        self.denom = 1
        self.rhs_scale = rhs_scale  # the rhs column is also scaled by this
        self.n_vars = n_vars  # the structural columns come first
        self.obj = None
        self.cden = 1
        self.allowed = None  # allowed[c]: column c may enter the basis
        # Per constraint: its rhs, and the column of its slack with the
        # signed factor the row was multiplied by, when that slack was in
        # the starting basis (a <= row after sign normalisation), else None.
        self.rhs = rhs
        self.slack = slack

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
        """Minimise cost over the current basis by the primal simplex; returns
        the optimum.

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
        self.obj, self.cden, self.allowed = obj, cden, allowed
        degenerate_run = 0
        bland_after = _bland_after(len(rows), n)
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
                return self.value()
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

    def value(self) -> Fraction:
        return Fraction(-self.obj[-1], self.denom * self.cden * self.rhs_scale)

    def solution(self) -> LpSolution:
        """The optimum and the basic point of the structural variables."""
        scale = self.denom * self.rhs_scale
        x = [_ZERO] * self.n_vars
        for r, bv in enumerate(self.basis):
            if bv < self.n_vars:
                x[bv] = Fraction(self.rows[r][-1], scale)
        return LpSolution(value=self.value(), x=x)

    def _rhs_int(self, value: Fraction) -> int:
        """value * rhs_scale as an int, first multiplying the rhs column, and
        the optimum, by whatever makes it one."""
        f = (value * self.rhs_scale).denominator
        if f > 1:
            for row in self.rows:
                row[-1] *= f
            self.obj[-1] *= f
            self.rhs_scale *= f
        return int(value * self.rhs_scale)

    def add_row(self, con: Constraint) -> None:
        """Add a ``<=`` row with a new basic slack. In the current basis it is
        D*a - sum_i a[basis[i]]*row_i, exact in ints as every basic column
        is D*e_i; the reduced costs keep their signs. Call ``reoptimize``
        after the last row."""
        if con.sense != LESS_EQ:
            raise ValueError(f"only {LESS_EQ} rows are added, not {con.sense!r}")
        coeffs, scale = _integral(con, self.n_vars)
        d, n = self.denom, self.n_cols
        rhs = self._rhs_int(con.rhs * scale)
        for row in self.rows + [self.obj]:  # the new slack's column, zero outside its row
            row.insert(n, 0)
        new = [0] * (n + 2)
        for j, v in coeffs.items():
            new[j] = d * v
        new[n], new[-1] = d, d * rhs
        for r, bv in enumerate(self.basis):
            f = coeffs.get(bv)
            if f:
                new = [v - f * q for v, q in zip(new, self.rows[r])]
        self.rows.append(new)
        self.basis.append(n)
        self.allowed.append(True)
        self.n_cols = n + 1
        self.rhs.append(con.rhs)
        self.slack.append((n, scale))

    def move_rhs(self, i: int, rhs) -> None:
        """Set constraint i's right-hand side. The move goes through the
        column of its starting slack, which holds D*B^-1*e_i; the reduced
        costs do not change. Call ``reoptimize`` after the last move."""
        if self.slack[i] is None:
            raise ValueError(f"constraint {i} has no starting slack to move its bound through")
        col, scale = self.slack[i]
        rhs = Fraction(rhs)
        k = self._rhs_int((rhs - self.rhs[i]) * scale)
        self.rhs[i] = rhs
        if k:
            for row in self.rows + [self.obj]:
                row[-1] += k * row[col]

    def reoptimize(self) -> Fraction:
        """Restore primal feasibility of a dual-feasible tableau by the dual
        simplex; returns the optimum. Raises InfeasibleError when a row with
        a negative basic value has no negative entry that may enter."""
        rows, basis, obj, allowed = self.rows, self.basis, self.obj, self.allowed
        degenerate_run = 0
        bland_after = _bland_after(len(rows), self.n_cols)
        while True:
            use_bland = degenerate_run >= bland_after
            leave = -1
            for r, row in enumerate(rows):
                b = row[-1]
                if b < 0 and (
                    leave < 0
                    or (not use_bland and b < low)
                    or ((use_bland or b == low) and basis[r] < basis[leave])
                ):
                    leave, low = r, b
            if leave < 0:
                return self.value()
            # Ratio test obj_c / -a_c over negative a_c, compared as
            # obj_c * a_s > obj_s * a_c; ties go to the lowest column.
            enter = -1
            for c, a in enumerate(rows[leave][:-1]):
                if a < 0 and allowed[c] and (enter < 0 or obj[c] * best_a > best_o * a):
                    enter, best_a, best_o = c, a, obj[c]
            if enter < 0:
                raise InfeasibleError("a basic variable cannot be made non-negative")
            degenerate_run = degenerate_run + 1 if best_o == 0 else 0
            self.pivot(leave, enter, obj)


def optimal_tableau(objective, constraints, n_vars: int) -> _Tableau:
    """The optimal tableau of min `objective` (sparse dict col->coeff)
    subject to `constraints`, by the two phases, ready for ``add_row``,
    ``move_rhs`` and ``reoptimize``.

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
    slack = [None] * m
    slack_seen = 0
    art_seen = 0
    for r, con in enumerate(constraints):
        coeffs, scale = _integral(con, n_vars)  # makes the row integral
        rhs = con.rhs * scale
        sense = con.sense
        if rhs < 0:  # normalise to rhs >= 0
            scale = -scale
            rhs = -rhs
            sense = {LESS_EQ: GREATER_EQ, GREATER_EQ: LESS_EQ, EQUAL: EQUAL}[sense]
        dense = [0] * (n_vars + n_slack)
        for j, v in coeffs.items():
            dense[j] = v if scale > 0 else -v
        if sense != EQUAL:
            col = first_slack + slack_seen
            dense[col] = 1 if sense == LESS_EQ else -1
            slack_seen += 1
            if sense == LESS_EQ:
                basis[r] = col
                slack[r] = (col, scale)
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

    tab = _Tableau(tab_rows, basis, n_cols, rhs_scale, n_vars,
                   [con.rhs for con in constraints], slack)

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
    tab.solve(cost, allowed)
    return tab


def solve(objective, constraints, n_vars: int) -> LpSolution:
    """Minimise `objective` (sparse dict col->coeff) subject to `constraints`.

    All variables are non-negative. Raises InfeasibleError or
    UnboundedError accordingly.
    """
    return optimal_tableau(objective, constraints, n_vars).solution()
