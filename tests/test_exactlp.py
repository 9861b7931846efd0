"""The exact dual simplex against known optima, a Fraction primal simplex and
a float oracle.

The random programs are general: every sense, rational coefficients and
costs. The oracles solve them as they are; the solver sees each in its
integer form (``integer_form``), whose optimum is a known multiple of the
program's.
"""

import copy
import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import pytest

from ringcache import converse as cv
from ringcache import exactlp
from ringcache.exactlp import EQUAL, GREATER_EQ, LESS_EQ, Constraint
from ringcache.model import ProblemInstance, build_demand_structure
from ringcache.verify import memory_grid
from test_converse import direct_solve


class Row(NamedTuple):
    """A constraint of a general program: any sense, rational coefficients."""

    coeffs: dict
    sense: str
    rhs: Fraction


def C(coeffs, sense, rhs):
    return Row(coeffs=coeffs, sense=sense, rhs=Fraction(rhs))


def integer_form(cost, rows):
    """(cost, constraints, factor): the program as the solver takes it, in
    integer ``<=`` rows. Each row is multiplied by the lcm of its
    coefficients' denominators, a ``>=`` row negated and an ``==`` row
    followed by its negation, and the cost is multiplied by the lcm of its
    denominators, ``factor``, so the optimum is factor times the program's."""
    factor = lcm(*(Fraction(v).denominator for v in cost.values()))
    constraints = []
    for row in rows:
        scale = lcm(*(Fraction(v).denominator for v in row.coeffs.values()))
        signs = {LESS_EQ: (1,), GREATER_EQ: (-1,), EQUAL: (1, -1)}[row.sense]
        for sign in signs:
            coeffs = {j: int(v * sign * scale) for j, v in row.coeffs.items()}
            constraints.append(Constraint(coeffs, row.rhs * sign * scale))
    return {j: int(v * factor) for j, v in cost.items()}, constraints, factor


def int_solve(cost, rows, n_vars):
    """exactlp.solve of the program's integer form, its optimum divided by
    the cost's factor: the program's optimum."""
    int_cost, constraints, factor = integer_form(cost, rows)
    sol = exactlp.solve(int_cost, constraints, n_vars)
    return sol._replace(value=sol.value / factor)


class FractionTableau:
    """A dense primal simplex tableau over Fractions, kept as an oracle
    independent of the integer dual simplex: Dantzig's rule with a switch
    to Bland's rule, ties to the lowest basic index in the ratio test.
    """

    def __init__(self, rows, basis, n_cols):
        self.rows = rows  # m x (n_cols + 1), rhs last
        self.basis = basis
        self.n_cols = n_cols

    def pivot(self, r, c):
        rows = self.rows
        piv_row = rows[r]
        piv = piv_row[c]
        if piv != 1:
            rows[r] = piv_row = [v / piv for v in piv_row]
        for idx, row in enumerate(rows):
            f = row[c]
            if idx != r and f:
                rows[idx] = [v - f * p if p else v for v, p in zip(row, piv_row)]
        self.basis[r] = c

    def solve(self, cost, allowed):
        rows, basis, n = self.rows, self.basis, self.n_cols
        obj = list(cost) + [Fraction(0)]
        for r, bv in enumerate(basis):
            f = obj[bv]
            if f:
                obj = [v - f * p if p else v for v, p in zip(obj, rows[r])]
        degenerate_run = 0
        bland_after = 4 * (len(rows) + n) + 32
        while True:
            candidates = [c for c in range(n) if allowed[c] and obj[c] < 0]
            if not candidates:
                return -obj[-1]
            if degenerate_run >= bland_after:
                enter = candidates[0]
            else:
                enter = min(candidates, key=lambda c: (obj[c], c))
            leave, best_ratio = -1, None
            for r, row in enumerate(rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[leave])
                    ):
                        leave, best_ratio = r, ratio
            if leave < 0:
                raise AssertionError("objective unbounded below")
            degenerate_run = degenerate_run + 1 if best_ratio == 0 else 0
            self.pivot(leave, enter)
            f = obj[enter]
            if f:
                obj = [v - f * p if p else v for v, p in zip(obj, rows[leave])]


def oracle_solve(objective, constraints, n_vars):
    """The two-phase primal simplex, with artificial columns, on a
    FractionTableau."""
    flip = {LESS_EQ: GREATER_EQ, GREATER_EQ: LESS_EQ, EQUAL: EQUAL}
    n_slack = sum(1 for c in constraints if c.sense != EQUAL)
    first_art = n_vars + n_slack
    rows, basis = [], []
    col = n_vars  # the next slack column
    for con in constraints:
        dense = [Fraction(0)] * first_art
        for j, v in con.coeffs.items():
            dense[j] = Fraction(v)
        rhs, sense = con.rhs, con.sense
        if rhs < 0:
            dense, rhs, sense = [-v for v in dense], -rhs, flip[sense]
        basis.append(col if sense == LESS_EQ else -1)
        if sense != EQUAL:
            dense[col] = Fraction(1 if sense == LESS_EQ else -1)
            col += 1
        rows.append((dense, rhs))
    art_cols = []
    n_cols = first_art + basis.count(-1)
    tab_rows = []
    for r, (dense, rhs) in enumerate(rows):
        row = dense + [Fraction(0)] * (n_cols - first_art) + [rhs]
        if basis[r] < 0:
            basis[r] = first_art + len(art_cols)
            art_cols.append(basis[r])
            row[basis[r]] = Fraction(1)
        tab_rows.append(row)
    tab = FractionTableau(tab_rows, basis, n_cols)
    if art_cols:
        cost = [Fraction(int(c in art_cols)) for c in range(n_cols)]
        if tab.solve(cost, [True] * n_cols) != 0:
            raise exactlp.InfeasibleError("phase 1 optimum > 0")
        keep = []
        for r, row in enumerate(tab.rows):
            if tab.basis[r] in art_cols:
                enter = next((c for c in range(first_art) if row[c] != 0), -1)
                if enter < 0:
                    continue
                tab.pivot(r, enter)
            keep.append(r)
        tab.rows = [tab.rows[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]
    cost = [Fraction(0)] * n_cols
    for j, v in objective.items():
        cost[j] = Fraction(v)
    value = tab.solve(cost, [c < first_art for c in range(n_cols)])
    x = [Fraction(0)] * n_vars
    for r, bv in enumerate(tab.basis):
        if bv < n_vars:
            x[bv] = tab.rows[r][-1]
    return exactlp.LpSolution(value=value, x=x)


def outcome(solver, objective, constraints, n_vars):
    """The solution's (value, x), or the class of the error raised."""
    try:
        sol = solver(objective, constraints, n_vars)
    except exactlp.LpError as exc:
        return type(exc)
    return sol.value, sol.x


def check_point(x, value, cost, constraints):
    """Assert that x is a feasible point at which the cost is value."""
    assert all(v >= 0 for v in x)
    assert sum(v * x[j] for j, v in cost.items()) == value
    for con in constraints:
        lhs = sum(v * x[j] for j, v in con.coeffs.items())
        assert {LESS_EQ: lhs <= con.rhs, GREATER_EQ: lhs >= con.rhs, EQUAL: lhs == con.rhs}[
            con.sense]


def cold_value(cost, constraints, n):
    """The program's optimum through its integer form (``int_solve``) after
    checking its point, or the class of the error raised. The point itself
    is not compared with the oracle's: a degenerate program may end at
    another optimal vertex."""
    got = outcome(int_solve, cost, constraints, n)
    if isinstance(got, type):
        return got
    check_point(got[1], got[0], cost, constraints)
    return got[0]


def oracle_value(cost, constraints, n):
    got = outcome(oracle_solve, cost, constraints, n)
    return got if isinstance(got, type) else got[0]


def random_program(rng, fractional_coeffs=False):
    """A small program with every sense, rational rhs, non-negative rational
    costs, and some negative right-hand sides, repeated constraints through
    one vertex and redundant (scaled) equalities."""
    n = rng.randrange(1, 6)
    dens = (1, 1, 1, 2, 3, 6)
    cons = []
    for _ in range(rng.randrange(1, 7)):
        coeffs = {j: rng.randrange(-4, 5) for j in range(n) if rng.random() < 0.8}
        if fractional_coeffs:
            coeffs = {j: Fraction(v, rng.choice(dens)) for j, v in coeffs.items()}
        rhs = Fraction(rng.randrange(-6, 13), rng.choice(dens))
        cons.append(C(coeffs, rng.choice([LESS_EQ, GREATER_EQ, EQUAL]), rhs))
        if rng.random() < 0.25:  # a redundant copy: same hyperplane, scaled
            k = rng.randrange(1, 4)
            cons.append(C({j: k * v for j, v in coeffs.items()}, cons[-1].sense, k * rhs))
        if rng.random() < 0.15:  # a second face through the same vertex
            cons.append(C({j: 2 * v for j, v in coeffs.items()}, LESS_EQ, 2 * rhs))
    rng.shuffle(cons)
    cost = {j: Fraction(rng.randrange(0, 7), rng.choice(dens)) for j in range(n)}
    return cost, cons, n


def int_program(rng, fractional_coeffs=False):
    """A ``random_program`` in its integer form."""
    cost, cons, n = random_program(rng, fractional_coeffs)
    cost, cons, _ = integer_form(cost, cons)
    return cost, cons, n


class TestKnownPrograms:
    def test_two_variable_diet(self):
        # min 2x + 3y  s.t. x + y >= 4, x <= 3
        sol = int_solve(
            {0: Fraction(2), 1: Fraction(3)},
            [C({0: 1, 1: 1}, GREATER_EQ, 4), C({0: 1}, LESS_EQ, 3)],
            n_vars=2,
        )
        assert sol.value == 9
        assert sol.x == [3, 1]

    def test_equality_program(self):
        # min x + y s.t. x + 2y == 6, x - y == 0  ->  x = y = 2
        sol = int_solve(
            {0: Fraction(1), 1: Fraction(1)},
            [C({0: 1, 1: 2}, EQUAL, 6), C({0: 1, 1: -1}, EQUAL, 0)],
            n_vars=2,
        )
        assert sol.value == 4
        assert sol.x == [2, 2]

    def test_exact_rationals_survive(self):
        # min x s.t. -3x <= -5/7: a rational rhs, x = 5/21
        sol = exactlp.solve({0: 1}, [Constraint({0: -3}, Fraction(-5, 7))], n_vars=1)
        assert sol.value == Fraction(5, 21) and sol.x == [Fraction(5, 21)]
        sol = int_solve({0: Fraction(1, 3)}, [C({0: 1}, GREATER_EQ, Fraction(5, 7))], n_vars=1)
        assert sol.value == Fraction(5, 21)

    def test_degenerate_vertex(self):
        # Five constraints meet at the optimum (1, 1); must still terminate.
        sol = int_solve(
            {0: Fraction(1), 1: Fraction(1)},
            [
                C({0: 1, 1: 1}, GREATER_EQ, 2),
                C({0: 1}, GREATER_EQ, 1),
                C({1: 1}, GREATER_EQ, 1),
                C({0: 1, 1: 2}, GREATER_EQ, 3),
                C({0: 2, 1: 1}, GREATER_EQ, 3),
            ],
            n_vars=2,
        )
        assert sol.value == 2
        assert sol.x == [1, 1]

    def test_infeasible(self):
        with pytest.raises(exactlp.InfeasibleError):
            int_solve(
                {0: Fraction(1)},
                [C({0: 1}, LESS_EQ, 1), C({0: 1}, GREATER_EQ, 2)],
                n_vars=1,
            )

    def test_negative_cost_is_refused(self):
        # min -x s.t. -x <= 0 is unbounded; a negative cost is refused first.
        with pytest.raises(ValueError, match="negative cost"):
            exactlp.solve({0: 1, 1: -1}, [Constraint({1: -1}, 0)], n_vars=2)

    def test_redundant_equalities(self):
        sol = int_solve(
            {0: Fraction(1), 1: Fraction(2)},
            [
                C({0: 1, 1: 1}, EQUAL, 2),
                C({0: 2, 1: 2}, EQUAL, 4),  # same hyperplane
            ],
            n_vars=2,
        )
        assert sol.value == 2
        assert sol.x[0] + sol.x[1] == 2

    def test_negative_rhs_normalisation(self):
        # -x <= -3  means x >= 3
        sol = exactlp.solve({0: 1}, [Constraint({0: -1}, -3)], n_vars=1)
        assert sol.value == 3


class TestIntegerForm:
    """The solver takes integer ``<=`` rows and an integer cost; it refuses
    anything else."""

    @pytest.mark.parametrize("cost", [Fraction(1, 2), Fraction(2), Fraction(-1, 2), 1.0])
    def test_a_cost_that_is_no_int_is_refused(self, cost):
        with pytest.raises(ValueError, match="not an int"):
            exactlp.optimal_tableau({0: cost}, [Constraint({0: 1}, 1)], n_vars=1)

    def test_a_negative_cost_is_refused(self):
        with pytest.raises(ValueError, match="negative cost"):
            exactlp.optimal_tableau({0: -1}, [Constraint({0: 1}, 1)], n_vars=1)

    @pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(1), 1.0, True])
    def test_a_coefficient_that_is_no_int_is_refused(self, coeff):
        row = Constraint({0: 1, 1: coeff}, 1)
        with pytest.raises(ValueError, match="not an int"):
            exactlp.optimal_tableau({0: 1}, [row], n_vars=2)
        tab = exactlp.optimal_tableau({0: 1}, [Constraint({0: 1, 1: 1}, 1)], n_vars=2)
        with pytest.raises(ValueError, match="not an int"):
            tab.add_row(row)

    @pytest.mark.parametrize("rhs", [-0.1, 0.5, 1.0, True, "1/2", None])
    def test_an_inexact_right_hand_side_is_refused(self, rhs):
        match = "^right-hand side .* is neither an int nor a Fraction$"
        with pytest.raises(ValueError, match=match):
            exactlp.solve({0: 1}, [Constraint({0: -1}, rhs)], n_vars=1)
        tab = exactlp.optimal_tableau({0: 1}, [Constraint({0: -1}, -1)], n_vars=1)
        with pytest.raises(ValueError, match=match):
            tab.add_row(Constraint({0: 1}, rhs))
        with pytest.raises(ValueError, match=match):
            tab.move_rhs(0, rhs)
        assert tab.rhs == [-1] and len(tab.rows) == 1
        assert tab.reoptimize() == 1

    def test_integer_form_keeps_the_program(self):
        # x0/2 + x1/3 >= 5/4 becomes -3 x0 - 2 x1 <= -15/2, and the cost
        # x0 + x1/2 becomes 2 x0 + x1 with factor 2.
        cost, cons, factor = integer_form(
            {0: Fraction(1), 1: Fraction(1, 2)},
            [C({0: Fraction(1, 2), 1: Fraction(1, 3)}, GREATER_EQ, Fraction(5, 4)),
             C({0: 2, 1: -1}, EQUAL, Fraction(1, 3))])
        assert (cost, factor) == ({0: 2, 1: 1}, 2)
        assert [(c.coeffs, c.sense, c.rhs) for c in cons] == [
            ({0: -3, 1: -2}, LESS_EQ, Fraction(-15, 2)), ({0: 2, 1: -1}, LESS_EQ, Fraction(1, 3)),
            ({0: -2, 1: 1}, LESS_EQ, Fraction(-1, 3))]
        assert {type(v) for c in cons for v in c.coeffs.values()} == {int}


class TestAgainstScipy:
    def test_random_programs(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = random.Random(20240901)
        solved = 0
        while solved < 40:
            n = rng.randrange(2, 6)
            m = rng.randrange(1, 7)
            cons = []
            a_ub, b_ub, a_eq, b_eq = [], [], [], []
            for _ in range(m):
                coeffs = {j: Fraction(rng.randrange(-4, 5)) for j in range(n)}
                rhs = Fraction(rng.randrange(0, 13))
                sense = rng.choice([LESS_EQ, GREATER_EQ, EQUAL])
                cons.append(C(coeffs, sense, rhs))
                dense = [float(coeffs.get(j, 0)) for j in range(n)]
                if sense == LESS_EQ:
                    a_ub.append(dense)
                    b_ub.append(float(rhs))
                elif sense == GREATER_EQ:
                    a_ub.append([-v for v in dense])
                    b_ub.append(-float(rhs))
                else:
                    a_eq.append(dense)
                    b_eq.append(float(rhs))
            cost = {j: Fraction(rng.randrange(0, 7)) for j in range(n)}
            ref = scipy_opt.linprog(
                [float(cost.get(j, 0)) for j in range(n)],
                A_ub=a_ub or None,
                b_ub=b_ub or None,
                A_eq=a_eq or None,
                b_eq=b_eq or None,
                bounds=(0, None),
                method="highs",
            )
            value = cold_value(cost, cons, n)
            if value is exactlp.InfeasibleError:
                assert ref.status == 2
            else:
                assert ref.status == 0, "exact solver found optimum, scipy did not"
                assert abs(float(value) - ref.fun) < 1e-7
            solved += 1


class TestAgainstFractionTableau:
    def test_random_integer_programs_match_exactly(self):
        rng = random.Random(20261018)
        kinds = set()
        for _ in range(600):
            cost, cons, n = random_program(rng)
            got = cold_value(cost, cons, n)
            assert got == oracle_value(cost, cons, n), (cost, cons)
            kinds.add(got if isinstance(got, type) else "positive" if got else "zero")
        assert kinds == {"positive", "zero", exactlp.InfeasibleError}

    def test_random_fractional_programs_match_in_value(self):
        rng = random.Random(7)
        for _ in range(200):
            cost, cons, n = random_program(rng, fractional_coeffs=True)
            assert cold_value(cost, cons, n) == oracle_value(cost, cons, n), (cost, cons)

    def test_fractional_coefficient_constraint(self):
        # x0/2 + x1/3 >= 5/4 is multiplied through by -6 before the solver sees it.
        cost = {0: Fraction(1), 1: Fraction(1, 2)}
        cons = [C({0: Fraction(1, 2), 1: Fraction(1, 3)}, GREATER_EQ, Fraction(5, 4)),
                C({1: 1}, LESS_EQ, 2)]
        sol = int_solve(cost, cons, n_vars=2)
        assert sol.value == oracle_solve(cost, cons, 2).value == Fraction(13, 6)

    def test_converse_programs_match_exactly(self, monkeypatch):
        # The programs solve_lp builds at (3,2,1), M = 3: the full family
        # through its orbit collapse, a selected family through it and
        # through the direct route. Each cold start, and each warm
        # re-optimisation on the program the added rows and moved bounds
        # make, matches the oracle in value.
        programs, checks, added = {}, [], []
        start = exactlp.optimal_tableau
        add_row, move_rhs, reoptimize = (
            exactlp._Tableau.add_row, exactlp._Tableau.move_rhs, exactlp._Tableau.reoptimize)

        def cold(objective, constraints, n_vars):
            tab = start(objective, constraints, n_vars)
            sol = tab.solution()
            check_point(sol.x, sol.value, objective, constraints)
            checks.append(sol.value == oracle_solve(objective, constraints, n_vars).value)
            programs[tab] = (objective, list(constraints), n_vars)
            return tab

        def grow(tab, con):
            if tab in programs:  # else the cold start, which ``cold`` checks
                programs[tab][1].append(con)
                added.append(con)
            return add_row(tab, con)

        def move(tab, i, rhs):
            cons = programs[tab][1]
            cons[i] = C(cons[i].coeffs, cons[i].sense, rhs)
            return move_rhs(tab, i, rhs)

        def warm(tab):
            value = reoptimize(tab)
            if tab in programs:  # else the cold start, which ``cold`` checks
                checks.append(value == oracle_solve(*programs[tab]).value)
            return value

        monkeypatch.setattr(cv, "_ROWGEN_SEED", 4)  # so these small programs generate rows
        monkeypatch.setattr(cv, "_ROWGEN_BATCH", 3)
        monkeypatch.setattr(exactlp, "optimal_tableau", cold)
        monkeypatch.setattr(exactlp._Tableau, "add_row", grow)
        monkeypatch.setattr(exactlp._Tableau, "move_rhs", move)
        monkeypatch.setattr(exactlp._Tableau, "reoptimize", warm)
        inst = ProblemInstance(K=3, a=2, b=1, M=Fraction(3))
        ds = build_demand_structure(inst)
        full = cv.build_lp(inst, cv.full_family(ds), cv.PER_NODE)
        assert cv.solve_lp(full).value == 1
        grid = [Fraction(0), Fraction(3, 2), Fraction(3), Fraction(5)]
        assert [o.value for o in cv.solve_lp_grid(full, grid)] == [3, 2, 1, 0]
        high = cv.build_lp(inst, cv.selected_family(ds, cv.Regime.HIGH_M))
        for solve in (cv.solve_lp, direct_solve):
            assert solve(high).value == 1
        assert len(programs) >= 4 and added and len(checks) > len(programs) and all(checks)


def check_duals(tab, value, cost, constraints):
    """Assert that the optimal tableau's multipliers, constraint i's
    y_i = -obj[n_vars + i] / denom, are <= 0, that they satisfy the dual
    rows, sum_i y_i * A[i][j] <= cost[j] for every structural column j,
    and that the right-hand sides weighted by them sum to the optimum
    value. ``constraints`` are the tableau's, in its order."""
    y = [Fraction(-tab.obj[tab.n_vars + i], tab.denom) for i in range(len(tab.rhs))]
    assert len(constraints) == len(y)
    assert all(v <= 0 for v in y)
    for j in range(tab.n_vars):
        assert sum(v * con.coeffs.get(j, 0) for v, con in zip(y, constraints)) <= cost.get(j, 0)
    assert sum(b * v for b, v in zip(tab.rhs, y)) == value


def warm_outcome(tab, cost, constraints, n):
    """The re-optimised value, after checking that the tableau holds ints only,
    that its point satisfies every constraint at that value and that its
    multipliers prove it (``check_duals``); or the class of the error raised."""
    try:
        value = tab.reoptimize()
    except exactlp.LpError as exc:
        return type(exc)
    assert all(type(v) is int for row in tab.rows + [tab.obj] for v in row)
    assert type(tab.denom) is int and type(tab.rhs_scale) is int
    check_point(tab.solution().x, value, cost, constraints)
    check_duals(tab, value, cost, constraints)
    return value


class TestIncremental:
    """The warm path against the cold solve, in value and feasibility only:
    a warm basis may end at another optimal vertex. The programs are in
    their integer form throughout."""

    @pytest.mark.parametrize("bland", [False, True])
    def test_rows_added_one_at_a_time_and_in_batches(self, monkeypatch, bland):
        rng = random.Random(20261019)
        kinds, runs = set(), 0
        for _ in range(900):
            cost, cons, n = int_program(rng)
            k = rng.randrange(0, len(cons))
            base, rest = cons[:k], cons[k:]
            try:
                exactlp.solve(cost, base, n)
            except exactlp.InfeasibleError:
                continue  # no optimal tableau to start from
            want = cold_value(cost, base + rest, n)
            for batch in (1, rng.randrange(2, 5), len(rest)):
                tab = exactlp.optimal_tableau(cost, base, n)
                if bland:  # the dual simplex turns to Bland's rule at once
                    monkeypatch.setattr(exactlp, "_bland_after", lambda rows, cols: 0)
                for i in range(0, len(rest), batch):
                    for con in rest[i:i + batch]:
                        tab.add_row(con)
                    got = warm_outcome(tab, cost, base + rest[:i + batch], n)
                    if got is exactlp.InfeasibleError:
                        break
                assert got == want, (cost, cons, k, batch)
                monkeypatch.undo()
                runs += 1
            kinds.add(want if isinstance(want, type) else "optimal")
        assert kinds == {"optimal", exactlp.InfeasibleError} and runs > 600

    def test_moving_a_right_hand_side(self):
        rng = random.Random(20261020)
        kinds = [0, 0]  # moves to an optimum, moves to infeasibility
        for _ in range(1000):
            cost, cons, n = int_program(rng)
            k = rng.randrange(1, len(cons) + 1)
            base, rest = cons[:k], cons[k:]
            try:
                tab = exactlp.optimal_tableau(cost, base, n)
            except exactlp.LpError:
                continue
            for con in rest:
                tab.add_row(con)
            program = base + rest
            if warm_outcome(tab, cost, program, n) is exactlp.InfeasibleError:
                continue
            # Every constraint in turn, each move re-optimised and solved
            # cold. A dual-feasible basis bounds the objective, so the cold
            # solve of the moved program is optimal or infeasible too.
            for i in range(len(program)):
                rhs = Fraction(rng.randrange(-6, 13), rng.choice((1, 2, 3, 5)))
                program[i] = Constraint(program[i].coeffs, rhs)
                tab.move_rhs(i, rhs)
                got = warm_outcome(tab, cost, program, n)
                assert got == cold_value(cost, program, n)
                kinds[got is exactlp.InfeasibleError] += 1
                if got is exactlp.InfeasibleError:
                    break
        assert kinds[False] > 600 and kinds[True] > 120

    def test_dual_degenerate_program_reaches_the_bland_switch(self, monkeypatch):
        # min y2: y0 and y1 cost nothing, so the first two dual pivots leave
        # the objective where it is. With the switch after one degenerate
        # pivot, the third pivot takes the row with the lowest basic index,
        # not the most negative one, and reaches the same optimum.
        cost = {2: 1}
        base = [Constraint({0: 1, 1: 1, 2: 1}, 10)]
        rows = [Constraint({0: -1, 1: -2}, -4),
                Constraint({0: 2, 1: 3, 2: -3}, -4),
                Constraint({0: -3, 1: -1, 2: 3}, -1)]
        pivot, log = exactlp._Tableau.pivot, []

        def spy(tab, r, c):
            log.append((tab.basis[r], tab.obj[c] == 0))
            return pivot(tab, r, c)

        monkeypatch.setattr(exactlp._Tableau, "pivot", spy)
        paths = {}
        for after in (None, 1):
            tab = exactlp.optimal_tableau(cost, base, n_vars=3)
            for con in rows:
                tab.add_row(con)
            if after is not None:
                monkeypatch.setattr(exactlp, "_bland_after", lambda m, n: after)
            log.clear()
            assert warm_outcome(tab, cost, base + rows, 3) == Fraction(14, 3)
            paths[after] = list(log)
        assert cold_value(cost, base + rows, 3) == Fraction(14, 3)
        assert paths[None] == [(4, True), (5, True), (6, False), (1, False)]
        assert paths[1] == [(4, True), (5, True), (0, False), (6, False), (1, False)]


# The walk's instances for the multiplier read-off: (K, a, b, regime), the
# full family when regime is None.
WALKS = [(2, 1, 1, None), (3, 1, 1, None), (3, 2, 1, None), (4, 1, 1, None), (4, 1, 2, None),
         (3, 2, 2, None), (5, 1, 1, None), (5, 3, 1, cv.Regime.HIGH_M)]


class TestDualReadOff:
    def test_multipliers_prove_every_grid_point(self, monkeypatch):
        # The walk's tableau at every memory_grid point: constraint i's
        # multiplier -obj[n_vars + i] / denom is <= 0, the multipliers meet
        # every dual row, over the cold start's rows and those the walk
        # added, and times the right-hand sides they sum to the optimum. A
        # partition row enters as a <= pair, so no term corrects for it.
        tableaus, rows = [], {}
        start, add_row = exactlp.optimal_tableau, exactlp._Tableau.add_row

        def capture(objective, constraints, n_vars):
            tableaus.append((objective, len(constraints), start(objective, constraints, n_vars)))
            return tableaus[-1][2]

        def record(tab, con):
            rows.setdefault(tab, []).append(con)
            return add_row(tab, con)

        monkeypatch.setattr(exactlp, "optimal_tableau", capture)
        monkeypatch.setattr(exactlp._Tableau, "add_row", record)
        points, grown = 0, 0
        for K, a, b, regime in WALKS:
            inst = ProblemInstance(K, a, b)
            ds = build_demand_structure(inst)
            family = cv.full_family(ds) if regime is None else cv.selected_family(ds, regime)
            sym = cv.symmetrize(cv.build_lp(inst, family))
            for value, _ in cv._solve_iterative(sym, memory_grid(inst)):
                cost, n_cold, tab = tableaus[-1]
                check_duals(tab, value, cost, rows[tab])
                grown += len(rows[tab]) > n_cold
                points += 1
        assert points == 118 and grown


def hand_built_tableau(objective, constraints, n_vars):
    """The cold start's initial tableau built whole: each integer
    constraint's row with its slack, laid out at once over the lcm of every
    rhs denominator. The oracle of the row-by-row ``add_row``."""
    cost = [0] * n_vars
    for j, v in objective.items():
        cost[j] += v
    n_cols = n_vars + len(constraints)
    rhs_scale = lcm(*(con.rhs.denominator for con in constraints))
    rows = []
    for r, con in enumerate(constraints):
        row = [0] * (n_cols + 1)
        for j, v in con.coeffs.items():
            row[j] = v
        row[n_vars + r], row[-1] = 1, int(con.rhs * rhs_scale)
        rows.append(row)
    tab = exactlp._Tableau(n_vars, cost + [0] * (n_cols + 1 - n_vars))
    tab.rows, tab.n_cols, tab.basis = rows, n_cols, list(range(n_vars, n_cols))
    tab.rhs_scale, tab.rhs = rhs_scale, [con.rhs for con in constraints]
    return tab


def has_an_equality(constraints):
    """True when some row's negation is a row too: an equality's pair."""
    key = {(tuple(sorted(con.coeffs.items())), con.rhs) for con in constraints}
    return any((tuple(sorted((j, -v) for j, v in con.coeffs.items())), -con.rhs) in key
               for con in constraints)


TABLEAU_FIELDS = ("rows", "basis", "n_cols", "denom", "rhs_scale", "obj", "rhs")


def tableau_state(tab):
    """A copy of the tableau's entries and records."""
    return copy.deepcopy({name: getattr(tab, name) for name in TABLEAU_FIELDS})


class TestColdStart:
    def test_appended_rows_equal_the_hand_built_tableau(self, monkeypatch):
        # Entry for entry: the tableau the added rows build before the solve,
        # and the tableau the solve leaves, optimal or proved infeasible,
        # on each program's integer form.
        rng = random.Random(20261020)
        started, reoptimize = [], exactlp._Tableau.reoptimize

        def spy(tab):
            started.append((tab, tableau_state(tab)))
            return reoptimize(tab)

        monkeypatch.setattr(exactlp._Tableau, "reoptimize", spy)
        kinds = set()
        for i in range(3000):
            cost, cons, n = int_program(rng, fractional_coeffs=i % 2 == 1)
            started.clear()
            try:
                exactlp.optimal_tableau(cost, cons, n)
                kind = "optimal"
            except exactlp.InfeasibleError:
                kind = "infeasible"
            ((got, initial),) = started
            want = hand_built_tableau(cost, cons, n)
            assert initial == tableau_state(want), (cost, cons)
            try:
                reoptimize(want)
            except exactlp.InfeasibleError:
                assert kind == "infeasible"
            assert tableau_state(got) == tableau_state(want), (cost, cons)
            kinds.add((kind, i % 2, want.rhs_scale > 1, has_an_equality(cons)))
        assert {(k, f, True, True) for k in ("optimal", "infeasible") for f in (0, 1)} <= kinds

