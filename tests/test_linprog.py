from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog as scipy_linprog, nnls

from conftest import random_table, solution_bytes
from mechtest import linprog
from mechtest.errors import DomainError, SolverFailureError, StructuralError
from mechtest.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    FeasibleSet,
    LinearProgram,
    solve_lfp,
    solve_lp,
    solve_qp,
)
from mechtest.typeshares import RestrictionSet, build_identified_set


def test_single_variable_box():
    sol = solve_lp(LinearProgram(objective=[-1.0], bounds=[(0.0, 1.0)]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.value, -1.0, atol=1e-12)
    assert_allclose(sol.point, [1.0], atol=1e-12)


def test_empty_feasible_set():
    lp = LinearProgram(objective=[1.0], ub_matrix=[[1.0]], ub_rhs=[-1.0])
    sol = solve_lp(lp)
    assert sol.status == INFEASIBLE
    # Farkas certificate proves emptiness of the standardized system.
    y = sol.farkas
    assert np.all(y @ sol.standard.matrix <= 1e-7)
    assert y @ sol.standard.rhs > 0


def test_unbounded():
    assert solve_lp(LinearProgram(objective=[-1.0])).status == UNBOUNDED


def test_a_program_without_variables_has_the_empty_point():
    sol = solve_lp(LinearProgram(objective=np.zeros(0)))
    assert (sol.status, sol.value, sol.point.shape) == (OPTIMAL, 0.0, (0,))
    zero_row = LinearProgram(np.zeros(0), eq_matrix=np.zeros((1, 0)), eq_rhs=[0.0])
    sol = FeasibleSet(zero_row).minimize(np.zeros(0))
    assert (sol.status, sol.value, sol.point.shape) == (OPTIMAL, 0.0, (0,))
    assert sol.dual.tolist() == [0.0]
    sol = FeasibleSet(replace(zero_row, eq_rhs=[1.0])).minimize(np.zeros(0))
    assert sol.status == INFEASIBLE and sol.farkas.tolist() == [1.0]
    sol = solve_lfp((np.zeros(0), 1.0), (np.zeros(0), 2.0), LinearProgram(objective=np.zeros(0)))
    assert (sol.status, sol.value, sol.point.shape) == (OPTIMAL, 0.5, (0,))


def _theta_lp(p0, p1, objective, monotone=True):
    K = len(p0)
    A = np.zeros((2 * K, K * K))
    b = np.concatenate([p0, p1])
    for k in range(K):
        for l in range(K):
            A[k, k * K + l] = 1.0
            A[K + k, l * K + k] = 1.0
    rows = [(l, k) for l in range(K) for k in range(K) if l > k] if monotone else []
    B = np.zeros((len(rows), K * K))
    for i, (l, k) in enumerate(rows):
        B[i, l * K + k] = 1.0
    return LinearProgram(
        objective=objective, eq_matrix=A, eq_rhs=b,
        ub_matrix=B, ub_rhs=np.zeros(len(rows)),
        bounds=[(0.0, np.inf)] * (K * K),
    )


def test_min_theta11_three_point_marginals(fig2_marginals):
    p0, p1 = fig2_marginals
    obj = np.zeros(9)
    obj[4] = 1.0  # theta_11
    sol = solve_lp(_theta_lp(p0, p1, obj))
    assert sol.status == OPTIMAL
    assert_allclose(sol.value, 0.1, atol=1e-9)


def test_dimension_mismatch():
    with pytest.raises(StructuralError):
        LinearProgram(objective=[1.0, 2.0], eq_matrix=[[1.0]], eq_rhs=[1.0])


def test_optimal_certificates_random():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(2, 8))
        mu = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        Au = rng.normal(size=(mu, n))
        bu = Au @ rng.uniform(0, 1, n) + rng.uniform(0.05, 1.0, mu)
        lp = LinearProgram(
            objective=c, ub_matrix=Au, ub_rhs=bu,
            bounds=[(0.0, float(rng.uniform(1, 4))) for _ in range(n)],
        )
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        # value equals objective . point
        assert abs(sol.value - c @ sol.point) < 1e-9
        # primal feasibility of the reported point
        assert (Au @ sol.point - bu).max() < 1e-9
        # dual feasibility and zero gap on the standardized system
        sf = sol.standard
        assert (sf.cost - sol.dual @ sf.matrix).min() > -1e-8
        assert abs(sol.dual @ sf.rhs - (sol.value - sf.offset)) < 1e-8


def _random_bounds(rng, x0):
    """Bounds around ``x0`` of every kind: free, lower only (a nonzero
    shift), upper only (a mirrored column), boxed and fixed."""
    lo, hi = x0 - rng.uniform(0.1, 2.0, x0.size), x0 + rng.uniform(0.1, 2.0, x0.size)
    kinds = rng.integers(0, 5, x0.size)
    return [[(-np.inf, np.inf), (l, np.inf), (-np.inf, h), (l, h), (x, x)][kind]
            for kind, l, h, x in zip(kinds, lo, hi, x0)]


def test_matches_scipy_highs_random():
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 7))
        me = int(rng.integers(0, 3))
        mu = int(rng.integers(0, 4))
        c = rng.normal(size=n)
        Ae = rng.normal(size=(me, n))
        Au = rng.normal(size=(mu, n))
        x0 = rng.uniform(-1, 1, n)
        be = Ae @ x0
        bu = Au @ x0 + rng.uniform(-0.2, 1.0, mu)
        bounds = _random_bounds(rng, x0)
        mine = solve_lp(LinearProgram(
            objective=c, eq_matrix=Ae, eq_rhs=be,
            ub_matrix=Au, ub_rhs=bu, bounds=bounds,
        ))
        ref = scipy_linprog(
            c, A_ub=Au if mu else None, b_ub=bu if mu else None,
            A_eq=Ae if me else None, b_eq=be if me else None,
            # presolve reports some unbounded programs as infeasible
            bounds=bounds, method="highs", options={"presolve": False},
        )
        seen.add(ref.status)
        if ref.status == 0:
            assert mine.status == OPTIMAL
            assert abs(mine.value - ref.fun) < 1e-7
            assert abs(c @ mine.point - mine.value) < 1e-9
            lo, hi = np.array(bounds).T
            assert (mine.point >= lo - 1e-9).all() and (mine.point <= hi + 1e-9).all()
            assert np.abs(Ae @ mine.point - be).max(initial=0.0) < 1e-9
            assert (Au @ mine.point - bu).max(initial=0.0) < 1e-9
        elif ref.status == 2:
            assert mine.status == INFEASIBLE
        elif ref.status == 3:
            assert mine.status == UNBOUNDED
    assert seen == {0, 2, 3}


@pytest.mark.parametrize("field, value", [
    ("ub_rhs", [0.0, np.inf]), ("objective", [np.nan, 1.0]), ("ub_matrix", [[1.0, 1.0], [np.nan, 1.0]]),
])
def test_non_finite_program_is_rejected(field, value):
    """A NaN or infinite entry is an input error, not a certified optimum."""
    lp = dict(objective=[1.0, -1.0], ub_matrix=[[1.0, 1.0], [0.0, 1.0]], ub_rhs=[2.0, 1.0],
              bounds=[(0.0, np.inf), (-np.inf, 5.0)])
    with pytest.raises(StructuralError, match=field):
        LinearProgram(**{**lp, field: value})


def test_farkas_on_random_infeasible():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        Ae = rng.normal(size=(n + 1, n))  # overdetermined equalities
        be = rng.normal(size=n + 1)
        lp = LinearProgram(objective=np.zeros(n), eq_matrix=Ae, eq_rhs=be,
                           bounds=[(-5, 5)] * n)
        sol = solve_lp(lp)
        if sol.status == INFEASIBLE:
            found += 1
            y = sol.farkas
            assert np.all(y @ sol.standard.matrix <= 1e-7)
            assert y @ sol.standard.rhs > 0
    assert found > 50


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    c = rng.normal(size=6)
    Au = rng.normal(size=(4, 6))
    bu = Au @ rng.uniform(0, 1, 6) + 0.5
    lp = LinearProgram(objective=c, ub_matrix=Au, ub_rhs=bu, bounds=[(0, 2)] * 6)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.value == b.value
    assert (a.point == b.point).all()
    assert (a.dual == b.dual).all()


def _pivot_by_rows(tab, basis, row, col):
    """Row-by-row elimination: the reference the rank-1 pivot must match."""
    tab[row] /= tab[row, col]
    for r in range(tab.shape[0]):
        if r != row and tab[r, col] != 0.0:
            tab[r] -= tab[r, col] * tab[row]
    basis[row] = col


def test_pivot_matches_a_row_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m, n = int(rng.integers(1, 12)), int(rng.integers(2, 25))
        tab = rng.normal(size=(m + 1, n)) * rng.choice([1e-8, 1.0, 1e6], size=(m + 1, 1))
        tab[rng.random(tab.shape) < 0.2] = 0.0
        tab[rng.random(tab.shape) < 0.2] = -0.0
        row, col = int(rng.integers(m)), int(rng.integers(n))
        # exact zeros and negative zeros in the pivot column
        kind = rng.integers(0, 3, m + 1)
        tab[kind == 1, col] = 0.0
        tab[kind == 2, col] = -0.0
        tab[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        basis = [int(j) for j in rng.integers(0, n, m)]
        ref_tab, ref_basis = tab.copy(), list(basis)
        _pivot_by_rows(ref_tab, ref_basis, row, col)
        linprog._pivot(tab, basis, row, col)
        assert np.array_equal(tab, ref_tab)
        assert np.array_equal(np.signbit(tab), np.signbit(ref_tab))
        assert np.array_equal(basis, ref_basis)


def _programs_with_redundant_rows(rng):
    """Feasible LPs with rank-deficient equalities: a duplicated row, a row
    that is the sum of two others, and an identified set's 2K marginal
    matches."""
    for i in range(20):
        n = int(rng.integers(3, 7))
        Ae, Au = rng.normal(size=(3, n)), rng.normal(size=(2, n))
        x0 = rng.uniform(0.1, 1.0, n)
        for eq in (np.vstack([Ae, Ae[1]]), np.vstack([Ae[0] + Ae[2], Ae])):
            yield LinearProgram(objective=rng.normal(size=n), eq_matrix=eq, eq_rhs=eq @ x0,
                                ub_matrix=Au, ub_rhs=Au @ x0 + 0.5, bounds=[(0.0, 3.0)] * n)
        table = random_table(rng, monotone_theta=True)
        r = (RestrictionSet.unrestricted, RestrictionSet.monotone)[i % 2](table.support)
        yield build_identified_set(table, r).lp(rng.normal(size=table.n_mediators ** 2))


def _highs(lp):
    me, mu = lp.eq_matrix.shape[0], lp.ub_matrix.shape[0]
    return scipy_linprog(lp.objective, A_ub=lp.ub_matrix if mu else None,
                         b_ub=lp.ub_rhs if mu else None, A_eq=lp.eq_matrix if me else None,
                         b_eq=lp.eq_rhs if me else None, bounds=lp.bounds, method="highs")


def test_phase_two_runs_on_real_columns_over_the_independent_rows():
    rng = np.random.default_rng(31)
    for lp in _programs_with_redundant_rows(rng):
        fs = FeasibleSet(lp)
        sf = fs._standard
        nz = sf.matrix.shape[1]
        assert (fs._basis < nz).all()
        # one stored row per independent row, plus the cost row
        assert fs._tab.shape[0] - 1 == fs._basis.size == np.linalg.matrix_rank(sf.matrix)
        dropped = ~fs._kept
        assert dropped.any()
        sol = fs.minimize(lp.objective)
        ref = _highs(lp)
        assert sol.status == OPTIMAL and ref.status == 0
        assert abs(sol.value - ref.fun) <= 1e-9 * (1.0 + abs(ref.fun))
        assert (sol.dual[dropped] == 0.0).all()
        std = sol.standard
        assert (std.cost - sol.dual @ std.matrix).min() >= -1e-9
        assert abs(sol.dual @ std.rhs - (sol.value - std.offset)) <= 1e-9 * (1.0 + abs(sol.value))


@pytest.mark.parametrize("rc, status", [(-1e-9, OPTIMAL), (-1e-6, UNBOUNDED)])
def test_phase_two_zeroes_a_roundoff_column_without_a_pivot(rc, status):
    # column 1 improves but has no entry above PIVOT_TOL
    tab = np.array([[1.0, -1.0, 1.0],
                    [0.0, rc, 0.0]])
    basis = np.array([0])
    assert linprog._simplex_phase(tab, basis, 2, 2, 0) == (status, 0)
    assert tab[-1, 1] == (0.0 if status == OPTIMAL else rc)
    assert basis.tolist() == [0]


def _kuhn_tableau():
    """Kuhn's example: ``min -2x1 - 3x2 + x3 + 12x4`` over three rows with
    slacks, degenerate in the first two."""
    A = np.array([[-2.0, -9.0, 1.0, 9.0], [1 / 3, 1.0, -1 / 3, -2.0], [2.0, 3.0, -1.0, -12.0]])
    tab = np.zeros((4, 8))
    tab[:3, :4], tab[:3, 4:7], tab[:3, -1] = A, np.eye(3), [0.0, 0.0, 2.0]
    tab[-1, :4] = [-2.0, -3.0, 1.0, 12.0]
    return tab, np.arange(4, 7)


def test_blands_rule_ends_the_cycle_of_the_most_negative_rule(monkeypatch):
    # six most-negative pivots, none of which moves the objective, bring back
    # the slack basis
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 5)
    tab, basis = _kuhn_tableau()
    with pytest.raises(SolverFailureError, match="6 pivots"):
        linprog._simplex_phase(tab, basis, 7, 2, 0)
    assert basis.tolist() == [4, 5, 6] and tab[-1, -1] == 0.0
    # past 10 (m + 1) = 40 stalled pivots Bland's rule takes over and reaches
    # the optimum -2 at x = (2, 0, 2, 0)
    monkeypatch.undo()
    tab, basis = _kuhn_tableau()
    assert linprog._simplex_phase(tab, basis, 7, 2, 0) == (OPTIMAL, 44)
    assert basis.tolist() == [4, 0, 2]
    assert_allclose(tab[-1, -1], 2.0, atol=1e-12)
    assert_allclose(tab[1:3, -1], [2.0, 2.0], atol=1e-12)


def _reference_simplex_phase(tab, basis, n_enter, phase, n_pivots):
    """The pivot loop that ``_simplex_phase`` replaced, kept as its reference:
    it prices over a list of candidate columns, runs the ratio test over the
    list of positive entries and eliminates row by row."""
    m = tab.shape[0] - 1
    bland = False
    stall = 0
    stall_limit = 10 * (m + 1)
    while True:
        if phase == 1 and -tab[-1, -1] <= linprog.FEAS_TOL / 2:
            return OPTIMAL, n_pivots
        rc = tab[-1, :n_enter]
        candidates = np.nonzero(rc < -linprog.PIVOT_TOL)[0]
        if candidates.size == 0:
            return OPTIMAL, n_pivots
        if bland:
            enter = int(candidates[0])
        else:
            enter = int(candidates[np.argmin(rc[candidates])])
        col = tab[:m, enter]
        pos = np.nonzero(col > linprog.PIVOT_TOL)[0]
        if pos.size == 0:
            col_scale = np.abs(col).max(initial=0.0)
            if rc[enter] > -1e-7 * (1.0 + col_scale):
                tab[-1, enter] = 0.0
                continue
            return UNBOUNDED, n_pivots
        ratios = tab[pos, -1] / col[pos]
        best = ratios.min()
        ties = pos[ratios <= best + linprog.PIVOT_TOL]
        if bland:
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = int(ties[np.argmax(col[ties])])
        before = tab[-1, -1]
        _pivot_by_rows(tab, basis, leave, enter)
        if tab[-1, -1] > before + 1e-12 * (1.0 + abs(before)):
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
        n_pivots += 1


def _random_tableaux(rng):
    """``(tab, basis, n_enter, phase)`` over a slack basis (phase 2) or an
    artificial one (phase 1), with exact and negative zeros among the
    entries and, in every third tableau, a zero right-hand side."""
    for i in range(400):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 10))
        A = rng.normal(size=(m, n)) * rng.choice([1e-6, 1.0, 1e4], size=(1, n))
        A[rng.random(A.shape) < 0.25] = 0.0
        A[rng.random(A.shape) < 0.15] = -0.0
        b = np.zeros(m) if i % 3 == 0 else np.where(rng.random(m) < 0.3, 0.0,
                                                    rng.uniform(0.0, 2.0, m))
        tab = np.zeros((m + 1, n + m + 1))
        tab[:m, :n], tab[:m, n: n + m], tab[:m, -1] = A, np.eye(m), b
        phase = 1 + i % 2
        if phase == 1:
            tab[-1, :n], tab[-1, -1] = -A.sum(axis=0), -b.sum()
        else:
            tab[-1, :n] = np.where(rng.random(n) < 0.2, -0.0, rng.normal(size=n))
        yield tab, np.arange(n, n + m), n if phase == 1 else n + m, phase


def _solver_tableaux(monkeypatch):
    """Every tableau ``_simplex_phase`` is given while solving the LPs with
    redundant rows and identified sets under each order restriction."""
    captured = []
    run = linprog._simplex_phase

    def capturing(tab, basis, n_enter, phase, *rest):
        captured.append((tab.copy(), basis.copy(), n_enter, phase))
        return run(tab, basis, n_enter, phase, *rest)

    monkeypatch.setattr(linprog, "_simplex_phase", capturing)
    rng = np.random.default_rng(37)
    for lp in _programs_with_redundant_rows(rng):
        solve_lp(lp)
    for trial in range(30):
        table = random_table(rng, monotone_theta=trial % 2 == 0)
        sup = table.support
        r = [RestrictionSet.monotone(sup), RestrictionSet.defier_budget(sup, 0.02),
             RestrictionSet.unrestricted(sup)][trial % 3]
        spec = build_identified_set(table, r)
        for c in (rng.normal(size=sup.k**2), -np.ones(sup.k**2)):
            spec.minimize(c)
    monkeypatch.undo()
    return captured


def test_simplex_phase_matches_its_reference_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(41)
    roundoff = np.array([[1.0, -1.0, 1.0], [0.0, -1e-9, 0.0]])
    corpus = [*_random_tableaux(rng), (*_kuhn_tableau(), 7, 2),
              (roundoff, np.array([0]), 2, 2), *_solver_tableaux(monkeypatch)]
    outcomes = set()
    for tab, basis, n_enter, phase in corpus:
        ref_tab, ref_basis = tab.copy(), basis.copy()
        want = _reference_simplex_phase(ref_tab, ref_basis, n_enter, phase, 0)
        got = linprog._simplex_phase(tab, basis, n_enter, phase, 0)
        assert got == want
        assert basis.tolist() == ref_basis.tolist()
        assert tab.tobytes() == ref_tab.tobytes()  # also the signs of zeros
        empty = phase == 1 and -tab[-1, -1] > linprog.FEAS_TOL
        outcomes.add((phase, "infeasible" if empty else got[0], got[1] > 40))
    # both phases, every status, and runs long enough for Bland's rule
    assert {(p, s) for p, s, _ in outcomes} == {
        (1, OPTIMAL), (1, "infeasible"), (2, OPTIMAL), (2, UNBOUNDED)}
    assert (2, OPTIMAL, True) in outcomes


# -- linear-fractional programs ------------------------------------------


def test_lfp_monotone_ratio():
    sol = solve_lfp(([1.0], 0.0), ([1.0], 1.0),
                    LinearProgram(objective=[0.0], bounds=[(1.0, 2.0)]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.value, 0.5, atol=1e-10)
    assert_allclose(sol.point, [1.0], atol=1e-9)


def test_lfp_denominator_can_vanish():
    with pytest.raises(DomainError):
        solve_lfp(([1.0], 0.0), ([1.0], 0.0),
                  LinearProgram(objective=[0.0], bounds=[(0.0, 1.0)]))


def test_lfp_infeasible_passthrough():
    lp = LinearProgram(objective=[0.0], ub_matrix=[[1.0]], ub_rhs=[-1.0])
    assert solve_lfp(([1.0], 0.0), ([1.0], 1.0), lp).status == INFEASIBLE


def test_lfp_matches_grid_search():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = 3
        num = rng.normal(size=n), float(rng.normal())
        den = rng.uniform(0.2, 1.0, n), float(rng.uniform(1.0, 2.0))
        lo = rng.uniform(0, 0.5, n)
        hi = lo + rng.uniform(0.5, 1.5, n)
        feas = LinearProgram(objective=np.zeros(n), bounds=list(zip(lo, hi)))
        sol = solve_lfp(num, den, feas)
        assert sol.status == OPTIMAL
        axes = [np.linspace(lo[i], hi[i], 21) for i in range(n)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(n, -1)
        vals = (num[0] @ grid + num[1]) / (den[0] @ grid + den[1])
        assert sol.value <= vals.min() + 1e-4
        ratio = (num[0] @ sol.point + num[1]) / (den[0] @ sol.point + den[1])
        assert abs(ratio - sol.value) < 1e-8


def test_lfp_with_zero_and_finite_bounds_matches_highs():
    """The value matches HiGHS on the textbook Charnes-Cooper form, where
    every finite bound is a row, and the last Dinkelbach step's dual
    certifies it: ``min (n - lam d)'x >= lam d0 - n0`` over the set."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        n, me, mu = int(rng.integers(2, 6)), int(rng.integers(0, 3)), int(rng.integers(0, 3))
        a, b, zero = rng.uniform(0.2, 1.5, n), rng.uniform(0.2, 1.5, n), np.zeros(n)
        kinds = rng.integers(0, 4, n)  # (0, b), (-a, 0), (-a, b), (0, 0)
        lo, hi = np.choose(kinds, [zero, -a, -a, zero]), np.choose(kinds, [b, zero, b, zero])
        x0 = rng.uniform(lo, hi)
        Ae, Au = rng.normal(size=(me, n)), rng.normal(size=(mu, n))
        be, bu = Ae @ x0, Au @ x0 + rng.uniform(0.0, 1.0, mu)
        num = rng.normal(size=n), float(rng.normal())
        den = rng.normal(size=n), 0.0
        den = den[0], 1.0 + np.abs(den[0]) @ np.maximum(np.abs(lo), np.abs(hi))
        feas = LinearProgram(objective=np.zeros(n), eq_matrix=Ae, eq_rhs=be, ub_matrix=Au,
                             ub_rhs=bu, bounds=list(zip(lo, hi)))
        sol = solve_lfp(num, den, feas)
        assert sol.status == OPTIMAL
        finite = np.r_[hi[hi != 0.0], lo[lo != 0.0]]
        # the textbook Charnes-Cooper LP over (y, t)
        eye = np.eye(n)
        g = np.vstack([Au, eye[hi != 0.0], -eye[lo != 0.0]])
        h = np.r_[bu, finite * np.r_[np.ones((hi != 0.0).sum()), -np.ones((lo != 0.0).sum())]]
        ref = scipy_linprog(
            np.r_[num[0], num[1]],
            A_ub=np.hstack([g, -h[:, None]]), b_ub=np.zeros(g.shape[0]),
            A_eq=np.vstack([np.hstack([Ae, -be[:, None]]), np.r_[den[0], den[1]]]),
            b_eq=np.r_[np.zeros(me), 1.0],
            bounds=[(0.0 if l == 0.0 else None, 0.0 if u == 0.0 else None)
                    for l, u in zip(lo, hi)] + [(0.0, None)],
            method="highs",
        )
        assert ref.status == 0
        assert abs(sol.value - ref.fun) < 1e-7
        x, lam = sol.point, sol.value
        assert (x >= lo - 1e-9).all() and (x <= hi + 1e-9).all()
        assert abs((num[0] @ x + num[1]) / (den[0] @ x + den[1]) - lam) < 1e-8
        # dual feasibility for the cost n - lam d bounds its minimum below by y'b
        sf = sol.standard
        assert_allclose(sf.cost, sf.with_cost(num[0] - lam * den[0]).cost, rtol=0, atol=1e-12)
        assert (sf.cost - sol.dual @ sf.matrix).min() > -1e-8
        assert sol.dual @ sf.rhs + sf.offset >= lam * den[1] - num[1] - 1e-9


def test_lfp_infimum_at_infinity_raises():
    # 1 / (x + 1) over x >= 0 falls towards 0 as x grows and never attains it
    with pytest.raises(SolverFailureError, match="ray"):
        solve_lfp(([0.0], 1.0), ([1.0], 1.0), LinearProgram(objective=[0.0]))


# -- least-distance quadratic programs --------------------------------------


def _vertex(lp):
    """The zero-objective LP vertex of ``lp``: a feasible QP start."""
    return solve_lp(replace(lp, objective=np.zeros(lp.n_vars))).point


def _least_distance(L, a, lp):
    """``lp`` over (w, x) with the equality rows ``w = L'x + a``: min |w|^2
    there is ``2 min (0.5 x'Qx + c'x) + |a|^2`` over ``lp``, where
    ``Q = LL'`` and ``c = La``."""
    r, eq = L.shape[1], lp.eq_matrix
    return LinearProgram(
        objective=np.zeros(r + lp.n_vars),
        eq_matrix=np.block([[np.eye(r), -L.T], [np.zeros((eq.shape[0], r)), eq]]),
        eq_rhs=np.r_[a, lp.eq_rhs],
        ub_matrix=np.hstack([np.zeros((lp.ub_matrix.shape[0], r)), lp.ub_matrix]),
        ub_rhs=lp.ub_rhs,
        bounds=np.vstack([np.tile([-np.inf, np.inf], (r, 1)), lp.bounds]),
    )


def test_qp_scalar_active_bound():
    lp = LinearProgram(objective=[0.0], bounds=[(2.0, np.inf)])
    sol = solve_qp(1, lp, _vertex(lp))
    assert sol.status == OPTIMAL
    assert_allclose(sol.value, 4.0, atol=1e-10)
    assert_allclose(sol.point, [2.0], atol=1e-10)
    assert sol.active  # the binding bound is reported


def test_qp_projection_onto_halfspace():
    # |x - (1, 1)|^2 over x1 + x2 <= 1, in y = x - (1, 1)
    lp = LinearProgram(objective=[0.0, 0.0], ub_matrix=[[1.0, 1.0]], ub_rhs=[-1.0],
                       bounds=[(-np.inf, np.inf)] * 2)
    sol = solve_qp(2, lp, _vertex(lp))
    assert sol.status == OPTIMAL
    assert_allclose(sol.value, 0.5, atol=1e-10)
    assert_allclose(sol.point + 1.0, [0.5, 0.5], atol=1e-9)
    assert sol.active == (0,)


def test_qp_infeasible():
    """An empty feasible set has no start to give: every start is refused."""
    lp = LinearProgram(objective=[0.0], ub_matrix=[[1.0]], ub_rhs=[-1.0])
    assert solve_lp(lp).status == INFEASIBLE
    with pytest.raises(DomainError, match="violates the feasible set"):
        solve_qp(1, lp, [0.0])


@pytest.mark.parametrize("n_dist", [0, 3])
def test_qp_rejects_a_distance_block_that_does_not_fit(n_dist):
    lp = LinearProgram(objective=[0.0, 0.0], bounds=[(0.0, 1.0)] * 2)
    with pytest.raises(StructuralError, match="n_dist"):
        solve_qp(n_dist, lp, [0.5, 0.5])


def test_qp_matches_projected_gradient_on_boxes():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = 5
        M = rng.normal(size=(n, n))
        Q = M @ M.T
        a = rng.normal(size=n)
        c = M @ a
        lo = rng.uniform(-2, -1, n)
        hi = rng.uniform(1, 2, n)
        lp = _least_distance(M, a, LinearProgram(objective=np.zeros(n), bounds=list(zip(lo, hi))))
        sol = solve_qp(n, lp, _vertex(lp))
        assert sol.status == OPTIMAL
        step = 1.0 / np.linalg.eigvalsh(Q).max()
        x = np.zeros(n)
        for _ in range(200000):
            x_new = np.clip(x - step * (Q @ x + c), lo, hi)
            if np.linalg.norm(x_new - x) < 1e-13:
                x = x_new
                break
            x = x_new
        f_pg = 0.5 * x @ Q @ x + c @ x
        assert abs(0.5 * (sol.value - a @ a) - f_pg) < 1e-6


def _singular_psd_qp(rng):
    """A polytope with a box, and ``Q = LL'`` with some zero curvatures,
    ``c = La``, as the least-distance program of :func:`_least_distance`."""
    n = int(rng.integers(2, 6))
    A = rng.normal(size=(n + 2, n))
    M = rng.normal(size=(n, n))
    w, V = np.linalg.eigh(M @ M.T)
    w[rng.random(n) < 0.3] = 0.0  # singular directions allowed
    L = V * np.sqrt(w)
    a = rng.normal(size=n)
    b = A @ rng.normal(size=n) + rng.uniform(0.1, 1.0, n + 2)
    lp = _least_distance(L, a, LinearProgram(
        objective=np.zeros(n), ub_matrix=A, ub_rhs=b, bounds=[(-3, 3)] * n,
    ))
    return n, A, b, L, a, lp


def test_qp_kkt_certificates_on_polytopes():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n, A, b, L, a, lp = _singular_psd_qp(rng)
        sol = solve_qp(n, lp, _vertex(lp))
        assert sol.status == OPTIMAL
        x = sol.point[n:]
        G = np.vstack([A, np.eye(n), -np.eye(n)])
        h = np.concatenate([b, np.full(n, 3.0), np.full(n, 3.0)])
        assert (G @ x - h).max() <= 1e-8
        act = np.nonzero(G @ x - h >= -1e-7)[0]
        g = L @ (L.T @ x + a)
        if act.size:
            lam, _ = nnls(G[act].T, -g)
            stationarity = np.linalg.norm(G[act].T @ lam + g)
        else:
            stationarity = np.linalg.norm(g)
        assert stationarity < 1e-6


def _qp_residuals(sol, n_dist, G, h, E=np.zeros((0, 0)), e=np.zeros(0)):
    """Primal, dual, stationarity and complementarity residuals of an
    optimum of ``|x[:n_dist]|^2`` over ``E x = e, G x <= h``, recomputed
    from ``point``, ``active`` and ``dual``."""
    x, act = sol.point, np.array(sol.active, dtype=int)
    E = E.reshape(-1, x.size)
    mu, lam = sol.dual[:E.shape[0]], sol.dual[E.shape[0]:]
    assert lam.shape == act.shape
    assert np.linalg.matrix_rank(G[act]) == act.size  # linearly independent
    slack = h - G @ x
    grad = np.r_[2.0 * x[:n_dist], np.zeros(x.size - n_dist)]
    return (
        max(-slack.min(), np.abs(E @ x - e).max(initial=0.0), 0.0),
        lam.min(initial=0.0),
        np.abs(grad + E.T @ mu + G[act].T @ lam).max(),
        np.abs(lam * slack[act]).max(initial=0.0),
    )


def test_qp_certificate_residuals_on_polytopes():
    rng = np.random.default_rng(17)  # the polytopes of the KKT test above
    for _ in range(60):
        n, A, b, L, a, lp = _singular_psd_qp(rng)
        sol = solve_qp(n, lp, _vertex(lp))
        assert sol.status == OPTIMAL
        # solver row order: ub rows, then per variable its upper and lower bound
        G = np.hstack([np.zeros((A.shape[0] + 2 * n, n)),
                       np.vstack([A, np.kron(np.eye(n), [[1.0], [-1.0]])])])
        h = np.concatenate([b, np.full(2 * n, 3.0)])
        primal, dual, stationarity, complementarity = _qp_residuals(
            sol, n, G, h, lp.eq_matrix, lp.eq_rhs)
        assert primal <= 1e-9 and dual >= -1e-8
        assert stationarity <= 1e-9 and complementarity <= 1e-9


def _chisq_shaped_qp(rng):
    """More rows than variables, most through the origin and three exact
    sums of others, and the chi-squared objective, ``|w + s|^2`` over
    ``(w, omega)`` with omega free.  As after whitening with a ridge, some
    w columns are five orders of magnitude smaller than the rest.  Returns
    ``lp`` in ``(w, omega)`` (the origin is feasible) and ``shifted``, the
    least-distance program in ``(w + s, omega)``."""
    n_w = int(rng.integers(2, 6))
    n_o = int(rng.integers(1, 5))
    n = n_w + n_o
    G = rng.normal(size=(n + int(rng.integers(2, 8)), n))
    pairs = rng.integers(0, G.shape[0], (3, 2))
    G = np.vstack([G, G[pairs[:, 0]] + G[pairs[:, 1]]])
    G[:, :n_w] *= np.where(rng.random(n_w) < 0.3, 1e-5, 1.0)
    h = np.where(rng.random(G.shape[0]) < 0.25, rng.uniform(0.1, 1.0, G.shape[0]), 0.0)
    shift = np.r_[0.5 * rng.normal(size=n_w), np.zeros(n_o)]
    lp = LinearProgram(objective=np.zeros(n), ub_matrix=G, ub_rhs=h,
                       bounds=[(-np.inf, np.inf)] * n)
    return G, n_w, shift, lp, replace(lp, ub_rhs=h + G @ shift)


def test_qp_lagrangian_bound_on_degenerate_chisq_shaped_problems():
    rng = np.random.default_rng(29)
    degenerate = 0
    for _ in range(80):
        G, n_w, shift, lp, shifted = _chisq_shaped_qp(rng)
        h = shifted.ub_rhs
        vertex = _vertex(lp)
        degenerate += np.sum(lp.ub_rhs - G @ vertex <= 1e-9) > G.shape[1]
        sol = solve_qp(n_w, shifted, vertex + shift)
        assert sol.status == OPTIMAL
        x = sol.point
        assert abs(sol.value - x[:n_w] @ x[:n_w]) <= 1e-12 * (1 + abs(sol.value))
        primal, dual, stationarity, complementarity = _qp_residuals(sol, n_w, G, h)
        size = 1.0 + np.abs(x).max()
        assert primal <= 1e-9 * size and dual >= -1e-8
        assert stationarity <= 1e-9 * size
        assert complementarity <= 1e-9 * size * (1.0 + np.abs(sol.dual).max(initial=0.0))
        # Lagrangian dual bound from the returned multipliers: for lam >= 0
        # with a stationary omega block, min_x of the Lagrangian is
        # -|v_w|^2 / 4 - lam'h_A, where v = G_A' lam.
        act = np.array(sol.active, dtype=int)
        lam = np.clip(sol.dual, 0.0, None)
        v = G[act].T @ lam
        assert np.abs(v[n_w:]).max() <= 1e-9
        bound = -0.25 * v[:n_w] @ v[:n_w] - lam @ h[act]
        assert sol.value - bound <= 1e-9 * (1 + abs(sol.value))
        again = solve_qp(n_w, shifted, vertex + shift)
        assert again.active == sol.active
        assert (again.point == sol.point).all() and (again.dual == sol.dual).all()
    assert degenerate >= 40  # most LP vertices bind more rows than variables


@pytest.mark.parametrize("start, error, message", [
    ([0.6, 0.6, 0.4], DomainError, "violates the feasible set"),  # x1 + x2 <= 1 by 0.2
    ([0.0, -1e-3, -0.2], DomainError, "violates the feasible set"),  # x2 >= 0
    ([0.2, 0.5, 0.1], DomainError, "violates the feasible set"),  # x1 - x3 = 0.2
    ([0.2, np.nan, 0.0], StructuralError, "NaN or infinite"),
    ([0.2, 0.3], StructuralError, "shape"),
])
def test_qp_rejects_an_infeasible_start(start, error, message):
    lp = LinearProgram(objective=np.zeros(3), eq_matrix=[[1.0, 0.0, -1.0]], eq_rhs=[0.2],
                       ub_matrix=[[1.0, 1.0, 0.0]], ub_rhs=[1.0],
                       bounds=[(-np.inf, np.inf), (0.0, np.inf), (-np.inf, np.inf)])
    with pytest.raises(error, match=message):
        solve_qp(3, lp, start)
    # a start off by rounding only is accepted
    sol = solve_qp(3, lp, [0.2 + 1e-15, 0.0, 1e-15])
    assert sol.status == OPTIMAL
    assert_allclose(sol.point, [0.1, 0.0, -0.1], atol=1e-12)


def test_qp_from_a_degenerate_vertex_start_returns_the_certified_optimum():
    """Started at the origin, where more rows bind than there are
    variables, the QP reaches the optimum it reaches from the LP vertex,
    with a certificate that checks."""
    rng = np.random.default_rng(29)
    degenerate = 0
    for _ in range(80):
        G, n_w, shift, lp, shifted = _chisq_shaped_qp(rng)
        n = G.shape[1]
        binding = G[lp.ub_rhs == 0.0]
        degenerate += binding.shape[0] > n and np.linalg.matrix_rank(binding) == n
        sol = solve_qp(n_w, shifted, shift)  # the origin of lp
        assert sol.status == OPTIMAL
        primal, dual, stationarity, complementarity = _qp_residuals(
            sol, n_w, G, shifted.ub_rhs)
        size = 1.0 + np.abs(sol.point).max()
        assert primal <= 1e-9 * size and dual >= -1e-8
        assert stationarity <= 1e-9 * size
        assert complementarity <= 1e-9 * size * (1.0 + np.abs(sol.dual).max(initial=0.0))
        cold = solve_qp(n_w, shifted, _vertex(lp) + shift)
        assert sol.value == pytest.approx(cold.value, rel=1e-9, abs=1e-12)
        assert_allclose(sol.point[:n_w], cold.point[:n_w], rtol=0.0, atol=1e-9 * size)
    assert degenerate >= 40


def test_qp_projection_onto_simplex_with_redundant_equalities():
    rng = np.random.default_rng(31)
    for t in range(60):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=n)
        eq, eq_rhs = np.ones((1, n)), [1.0 - a.sum()]
        if t % 2:  # a second, linearly dependent copy of the equality row
            eq, eq_rhs = np.vstack([eq, 2.0 * eq]), [1.0 - a.sum(), 2.0 - 2.0 * a.sum()]
        # |x - a|^2 over the simplex, in y = x - a
        lp = LinearProgram(objective=np.zeros(n), eq_matrix=eq, eq_rhs=eq_rhs,
                           bounds=[(-ai, np.inf) for ai in a])
        sol = solve_qp(n, lp, _vertex(lp))
        # Euclidean projection of a onto the simplex by sorting
        u = np.sort(a)[::-1]
        css = np.cumsum(u)
        rho = np.nonzero(u * np.arange(1, n + 1) > css - 1.0)[0][-1]
        assert_allclose(sol.point + a, np.maximum(a - (css[rho] - 1.0) / (rho + 1), 0.0),
                        atol=1e-12)
        assert sol.dual.size == eq.shape[0] + len(sol.active)
        act = list(sol.active)
        G = -np.eye(n)
        stationarity = 2.0 * sol.point + eq.T @ sol.dual[:eq.shape[0]] \
            + G[act].T @ sol.dual[eq.shape[0]:]
        assert np.abs(stationarity).max() <= 1e-12


def test_feasible_set_answers_every_objective_as_a_cold_solve():
    rng = np.random.default_rng(29)
    statuses = set()
    for _ in range(200):
        n = int(rng.integers(2, 7))
        me, mu = int(rng.integers(0, 3)), int(rng.integers(0, 5))
        Ae, Au = rng.normal(size=(me, n)), rng.normal(size=(mu, n))
        x0 = rng.uniform(-1, 1, n)
        be = Ae @ x0
        # rows through x0 make degenerate vertices; a negative margin can empty the set
        bu = Au @ x0 + np.where(rng.random(mu) < 0.4, 0.0, rng.uniform(-0.3, 1.0, mu))
        if me and rng.random() < 0.1:
            be = be + rng.normal(size=me)
        lp = LinearProgram(objective=np.zeros(n), eq_matrix=Ae, eq_rhs=be, ub_matrix=Au,
                           ub_rhs=bu, bounds=_random_bounds(rng, x0))
        fs = FeasibleSet(lp)
        if fs.feasible:
            stored = (fs._tab.tobytes(), fs._basis.tobytes())
            assert not (fs._tab.flags.writeable or fs._basis.flags.writeable)
        objectives = [rng.normal(size=n), np.zeros(n), rng.integers(-1, 2, n) * 1.0,
                      np.eye(n)[int(rng.integers(n))], -np.eye(n)[int(rng.integers(n))]]
        for j in [*rng.permutation(5), *rng.permutation(5)]:
            got = fs.minimize(objectives[j])
            want = solve_lp(replace(lp, objective=objectives[j]))
            assert solution_bytes(got) == solution_bytes(want)
            statuses.add(got.status)
        if fs.feasible:
            assert (fs._tab.tobytes(), fs._basis.tobytes()) == stored
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_feasible_set_rejects_a_bad_objective():
    fs = FeasibleSet(LinearProgram(objective=[0.0, 0.0], bounds=[(0.0, 1.0)] * 2))
    with pytest.raises(StructuralError, match="objective has shape"):
        fs.minimize([1.0])
    with pytest.raises(StructuralError, match="objective has a NaN"):
        fs.minimize([np.nan, 1.0])


def test_budget_failures_name_the_problem_shape(monkeypatch):
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 0)
    with pytest.raises(SolverFailureError,
                       match="1 pivots on a standard form of 2 variables and 1 rows"):
        solve_lp(LinearProgram(objective=[-1.0], bounds=[(0.0, 1.0)]))


def test_a_phase_two_budget_failure_names_the_standard_form_and_the_kept_rows(monkeypatch):
    # x1 + x2 = 1 twice: phase 1 drops one copy, and phase 2 must pivot x2 in
    lp = LinearProgram(objective=[-1.0, -2.0], eq_matrix=[[1.0, 1.0], [1.0, 1.0]],
                       eq_rhs=[1.0, 1.0])
    fs = FeasibleSet(lp)
    assert fs._kept.tolist().count(True) == 1
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", fs._phase1_pivots)
    with pytest.raises(SolverFailureError) as info:
        fs.minimize(lp.objective)
    assert str(info.value) == (
        f"simplex exceeded the pivot budget in phase 2 after {fs._phase1_pivots + 1} pivots on "
        "a standard form of 2 variables and 2 rows (1 kept after phase 1)")
    # a phase 1 failure has kept every row
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 0)
    with pytest.raises(SolverFailureError) as info:
        FeasibleSet(lp)
    assert str(info.value) == ("simplex exceeded the pivot budget in phase 1 after 1 pivots on "
                               "a standard form of 2 variables and 2 rows")


def test_certificate_failures_name_shape_phase_and_residuals(monkeypatch):
    lp = LinearProgram(objective=[-1.0], bounds=[(0.0, 1.0)])
    # a wrong dual: y = 0 leaves the reduced cost -1 and a duality gap of 1
    monkeypatch.setattr(linprog.np.linalg, "solve", lambda a, b: np.zeros_like(b))
    with pytest.raises(SolverFailureError) as info:
        solve_lp(lp)
    msg = str(info.value)
    assert msg.startswith("failed to certify the LP optimum in phase 2 after ")
    assert "pivots on a standard form of 2 variables and 1 rows" in msg
    assert "smallest reduced cost -1 " in msg
    assert "duality gap 1 " in msg
    assert "primal residual 0 " in msg

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(linprog.np.linalg, "solve", singular)
    with pytest.raises(SolverFailureError,
                       match="singular basis at the optimum in phase 2 after .* pivots on "
                             "a standard form of 2 variables and 1 rows"):
        solve_lp(lp)
