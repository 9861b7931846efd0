"""Exact linear programming via an integer-preserving dual simplex.

Solves  min c.x  subject to  A x <= b,  x >= 0,  c >= 0  with no
rounding, A and c in ints and b rational. Constraint i is tableau row i,
and its slack is column n_vars + i; an equality enters as two ``<=``
rows, itself and its negation. With c >= 0 the all-slack basis is dual
feasible, so Lemke's dual simplex (Naval Res. Logist. Q. 1954) solves
the program from it, and the objective is bounded below by 0: the most
negative basic row leaves, the column of least ratio of reduced cost to
the row's negative entry enters, and after a run of dual-degenerate
pivots the row with the lowest basic index leaves instead, the dual of
Bland's rule. A negative basic row with no negative entry proves the
program infeasible. Fully deterministic for a fixed input.

The tableau holds Python ints over one shared denominator D > 0. A pivot
at (r, c) with p = a_rc sets every other entry to
(a_ij*p - a_ic*a_rj) // D, a division that is exact by Sylvester's
identity (E. H. Bareiss, Math. Comp. 1968), and then D = p; the pivot row
is negated first when p < 0, so D stays positive. Coefficients and costs
are ints and enter the tableau as they are, and a right-hand side is an
int or a Fraction; anything else, a float included, is refused with
ValueError. Only the rhs column is scaled, by the lcm of its denominators,
grown as rows arrive; the optimum value and point are returned as
`fractions.Fraction`s.

A tableau starts with no row, and every row enters it the one way,
``add_row``, with a new basic slack. `optimal_tableau` adds each
constraint to the empty tableau and solves it from the all-slack basis;
`solve` returns its optimum. The optimal tableau re-optimises after two
moves that keep its basis dual feasible: a row added (`add_row`) and a
right-hand side moved (`move_rhs`). Both can leave a basic variable
negative, and `reoptimize` restores primal feasibility. Every move stays
in integers. At an optimum, constraint i's multiplier is
-obj[n_vars + i] / D <= 0, and the multipliers times the right-hand
sides sum to the optimum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

_ZERO = Fraction(0)

LESS_EQ = "<="
GREATER_EQ = ">="  # the sense of a genie row in the text export; no Constraint has it
EQUAL = "=="  # the sense of a partition row in the text export; no Constraint has it


class LpError(RuntimeError):
    pass


class InfeasibleError(LpError):
    pass


class Constraint:
    """Sparse row: sum(coeffs[j] * x_j) <= rhs, rhs an int or a Fraction."""

    __slots__ = ("coeffs", "rhs")
    sense = LESS_EQ

    def __init__(self, coeffs: dict, rhs) -> None:
        self.coeffs, self.rhs = coeffs, rhs


class LpSolution(NamedTuple):
    value: Fraction
    x: list


def _bland_after(n_rows: int, n_cols: int) -> int:
    """The length of a degenerate run after which the pivot rule turns to Bland's."""
    return 4 * (n_rows + n_cols) + 32


def _integral(con: Constraint, n_vars: int) -> None:
    """Refuse a constraint with a variable out of range or a coefficient that is not an int."""
    for j, v in con.coeffs.items():
        if not 0 <= j < n_vars:
            raise ValueError(f"variable index {j} out of range")
        if type(v) is not int:
            raise ValueError(f"coefficient {v!r} of variable {j} is not an int")


class _Tableau:
    """Dense simplex tableau of ints over one shared denominator.

    Every basic column is ``denom`` times a unit vector. ``obj`` is the
    reduced-cost row, over ``denom``, with the negated objective value,
    also scaled by ``rhs_scale``, last. It starts with no row, its
    ``obj`` the cost row and a zero value, and rows enter by ``add_row``:
    constraint i is row i, its slack column ``n_vars + i``.
    """

    def __init__(self, n_vars: int, obj: list) -> None:
        self.rows = []  # m x (n_cols + 1), rhs last; an entry means entry / denom
        self.n_vars = self.n_cols = n_vars  # the structural columns, then one slack per row
        self.basis = []  # basic variable per row
        self.denom = 1
        self.rhs_scale = 1  # the rhs column is also scaled by this
        self.obj = obj
        self.rhs = []  # per constraint, its rhs

    def pivot(self, r: int, c: int) -> None:
        """Pivot at (r, c); the reduced-cost row takes the same step."""
        rows = self.rows
        piv_row = rows[r]
        p = piv_row[c]
        if p < 0:
            p = -p
            rows[r] = piv_row = [-v for v in piv_row]
        d = self.denom
        nonzero = [(j, q) for j, q in enumerate(piv_row) if q]
        for idx, row in enumerate(rows + [self.obj]):
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

    def value(self) -> Fraction:
        return Fraction(-self.obj[-1], self.denom * self.rhs_scale)

    def solution(self) -> LpSolution:
        """The optimum and the basic point of the structural variables."""
        scale = self.denom * self.rhs_scale
        x = [_ZERO] * self.n_vars
        for r, bv in enumerate(self.basis):
            if bv < self.n_vars:
                x[bv] = Fraction(self.rows[r][-1], scale)
        return LpSolution(value=self.value(), x=x)

    def _rhs_int(self, value) -> int:
        """value * rhs_scale as an int, first multiplying the rhs column, and
        the objective value, by whatever makes it one. A right-hand side
        that is neither an int nor a Fraction is refused."""
        if type(value) not in (int, Fraction):
            raise ValueError(f"right-hand side {value!r} is neither an int nor a Fraction")
        f = (value * self.rhs_scale).denominator
        if f > 1:
            for row in self.rows:
                row[-1] *= f
            self.obj[-1] *= f
            self.rhs_scale *= f
        return int(value * self.rhs_scale)

    def add_row(self, con: Constraint) -> None:
        """Add the constraint's row, checked by ``_integral`` and ``_rhs_int``,
        with a new basic slack. In the current basis the row is
        D*a - sum_i a[basis[i]]*row_i, exact in ints as every basic column is
        D*e_i; the reduced costs keep their signs. Call ``reoptimize`` after
        the last row."""
        _integral(con, self.n_vars)
        coeffs, d, n = con.coeffs, self.denom, self.n_cols
        rhs = self._rhs_int(con.rhs)
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
        self.n_cols = n + 1
        self.rhs.append(con.rhs)

    def move_rhs(self, i: int, rhs) -> None:
        """Set constraint i's right-hand side. The move goes through the
        column of its slack, which holds D*B^-1*e_i; the reduced costs do
        not change. Call ``reoptimize`` after the last move."""
        k = self._rhs_int(rhs) - self._rhs_int(self.rhs[i])
        self.rhs[i] = rhs
        if k:
            col = self.n_vars + i
            for row in self.rows + [self.obj]:
                row[-1] += k * row[col]

    def reoptimize(self) -> Fraction:
        """Restore primal feasibility of a dual-feasible tableau by the dual
        simplex; returns the optimum. Raises InfeasibleError when a row with
        a negative basic value has no negative entry."""
        rows, basis, obj = self.rows, self.basis, self.obj
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
                if a < 0 and (enter < 0 or obj[c] * best_a > best_o * a):
                    enter, best_a, best_o = c, a, obj[c]
            if enter < 0:
                raise InfeasibleError("a basic variable cannot be made non-negative")
            degenerate_run = degenerate_run + 1 if best_o == 0 else 0
            self.pivot(leave, enter)


def optimal_tableau(objective, constraints, n_vars: int) -> _Tableau:
    """The optimal tableau of min `objective` (sparse dict col->coeff, every
    coefficient a non-negative int) subject to `constraints`, solved by the
    dual simplex from the all-slack basis, ready for ``add_row``,
    ``move_rhs`` and ``reoptimize``.

    All variables are non-negative. Raises InfeasibleError, or ValueError
    on a cost or coefficient that is not an int, a cost that is negative or
    a right-hand side that is neither an int nor a Fraction.
    """
    cost = [0] * n_vars
    for j, v in objective.items():
        if not 0 <= j < n_vars:
            raise ValueError(f"objective index {j} out of range")
        if type(v) is not int:
            raise ValueError(f"cost {v!r} on variable {j} is not an int")
        if v < 0:
            raise ValueError(f"negative cost {v} on variable {j}")
        cost[j] += v
    tab = _Tableau(n_vars, cost + [0])
    for con in constraints:
        tab.add_row(con)
    tab.reoptimize()
    return tab


def solve(objective, constraints, n_vars: int) -> LpSolution:
    """Minimise `objective` (sparse dict col->coeff, every coefficient a
    non-negative int) subject to `constraints`.

    All variables are non-negative. Raises InfeasibleError, or ValueError
    as ``optimal_tableau`` does.
    """
    return optimal_tableau(objective, constraints, n_vars).solution()
