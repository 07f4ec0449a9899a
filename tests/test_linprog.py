import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog as scipy_linprog, nnls

from mechtest import linprog
from mechtest.errors import DomainError, SolverFailureError, StructuralError
from mechtest.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    solve_lfp,
    solve_lp,
    solve_qp,
)


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


# -- quadratic programs ----------------------------------------------------


def test_qp_scalar_active_bound():
    sol = solve_qp([[2.0]], [0.0],
                   LinearProgram(objective=[0.0], bounds=[(2.0, np.inf)]))
    assert sol.status == OPTIMAL
    assert_allclose(sol.value, 4.0, atol=1e-10)
    assert_allclose(sol.point, [2.0], atol=1e-10)
    assert sol.active  # the binding bound is reported


def test_qp_projection_onto_halfspace():
    sol = solve_qp(
        2.0 * np.eye(2), [-2.0, -2.0],
        LinearProgram(objective=[0.0, 0.0], ub_matrix=[[1.0, 1.0]], ub_rhs=[1.0],
                      bounds=[(-np.inf, np.inf)] * 2),
    )
    assert sol.status == OPTIMAL
    assert_allclose(sol.value + 2.0, 0.5, atol=1e-10)  # +2 restores the constant
    assert_allclose(sol.point, [0.5, 0.5], atol=1e-9)
    assert sol.active == (0,)


@pytest.mark.parametrize("quadratic, linear", [
    (np.eye(2), [np.nan, 0.0]), (np.eye(2), [np.inf, 0.0]), ([[1.0, 0.0], [0.0, np.inf]], [0.0, 0.0]),
])
def test_qp_rejects_non_finite_objective(quadratic, linear):
    feasible = LinearProgram(np.zeros(2), ub_matrix=[[1.0, 1.0]], ub_rhs=[1.0],
                             bounds=[(-np.inf, np.inf)] * 2)
    with pytest.raises(StructuralError, match="NaN or infinite"):
        solve_qp(quadratic, linear, feasible)


def test_qp_rejects_non_psd():
    lp = LinearProgram(objective=[0.0, 0.0], bounds=[(0, 1)] * 2)
    with pytest.raises(DomainError):
        solve_qp(np.array([[1.0, 0.0], [0.0, -1.0]]), [0.0, 0.0], lp)
    with pytest.raises(DomainError):
        solve_qp(np.array([[1.0, 0.5], [-0.5, 1.0]]), [0.0, 0.0], lp)


def test_qp_infeasible():
    lp = LinearProgram(objective=[0.0], ub_matrix=[[1.0]], ub_rhs=[-1.0])
    assert solve_qp([[2.0]], [0.0], lp).status == INFEASIBLE


def test_qp_matches_projected_gradient_on_boxes():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = 5
        M = rng.normal(size=(n, n))
        Q = M @ M.T
        c = rng.normal(size=n)
        lo = rng.uniform(-2, -1, n)
        hi = rng.uniform(1, 2, n)
        sol = solve_qp(Q, c, LinearProgram(objective=np.zeros(n), bounds=list(zip(lo, hi))))
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
        assert abs(sol.value - f_pg) < 1e-6


def test_qp_kkt_certificates_on_polytopes():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n + 2, n))
        M = rng.normal(size=(n, n))
        w, V = np.linalg.eigh(M @ M.T)
        w[rng.random(n) < 0.3] = 0.0  # singular directions allowed
        Q = V @ np.diag(w) @ V.T
        c = rng.normal(size=n)
        b = A @ rng.normal(size=n) + rng.uniform(0.1, 1.0, n + 2)
        sol = solve_qp(Q, c, LinearProgram(
            objective=np.zeros(n), ub_matrix=A, ub_rhs=b, bounds=[(-3, 3)] * n,
        ))
        assert sol.status == OPTIMAL
        x = sol.point
        G = np.vstack([A, np.eye(n), -np.eye(n)])
        h = np.concatenate([b, np.full(n, 3.0), np.full(n, 3.0)])
        assert (G @ x - h).max() <= 1e-8
        act = np.nonzero(G @ x - h >= -1e-7)[0]
        g = Q @ x + c
        if act.size:
            lam, _ = nnls(G[act].T, -g)
            stationarity = np.linalg.norm(G[act].T @ lam + g)
        else:
            stationarity = np.linalg.norm(g)
        assert stationarity < 1e-6


def _qp_residuals(sol, Q, c, G, h):
    """Primal, dual, stationarity and complementarity residuals of a QP
    optimum without equality rows, recomputed from ``point``, ``active``
    and ``dual``."""
    x, act, lam = sol.point, np.array(sol.active, dtype=int), sol.dual
    assert lam.shape == act.shape
    assert np.linalg.matrix_rank(G[act]) == act.size  # linearly independent
    slack = h - G @ x
    return (
        max(-slack.min(), 0.0),
        lam.min(initial=0.0),
        np.abs(Q @ x + c + G[act].T @ lam).max(),
        np.abs(lam * slack[act]).max(initial=0.0),
    )


def test_qp_certificate_residuals_on_polytopes():
    rng = np.random.default_rng(17)  # the polytopes of the KKT test above
    for _ in range(60):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n + 2, n))
        M = rng.normal(size=(n, n))
        w, V = np.linalg.eigh(M @ M.T)
        w[rng.random(n) < 0.3] = 0.0
        Q = V @ np.diag(w) @ V.T
        c = rng.normal(size=n)
        b = A @ rng.normal(size=n) + rng.uniform(0.1, 1.0, n + 2)
        sol = solve_qp(Q, c, LinearProgram(
            objective=np.zeros(n), ub_matrix=A, ub_rhs=b, bounds=[(-3, 3)] * n,
        ))
        assert sol.status == OPTIMAL
        # solver row order: ub rows, then per variable its upper and lower bound
        G = np.vstack([A, np.kron(np.eye(n), [[1.0], [-1.0]])])
        h = np.concatenate([b, np.full(2 * n, 3.0)])
        primal, dual, stationarity, complementarity = _qp_residuals(sol, Q, c, G, h)
        assert primal <= 1e-9 and dual >= -1e-8
        assert stationarity <= 1e-9 and complementarity <= 1e-9


def _chisq_shaped_qp(rng):
    """More rows than variables, most through the origin and three exact
    sums of others, and the chi-squared objective: ``Q = diag(2I, 0)``
    over ``(w, omega)`` with omega free.  As after whitening with a ridge,
    some w columns are five orders of magnitude smaller than the rest."""
    n_w = int(rng.integers(2, 6))
    n_o = int(rng.integers(1, 5))
    n = n_w + n_o
    G = rng.normal(size=(n + int(rng.integers(2, 8)), n))
    pairs = rng.integers(0, G.shape[0], (3, 2))
    G = np.vstack([G, G[pairs[:, 0]] + G[pairs[:, 1]]])
    G[:, :n_w] *= np.where(rng.random(n_w) < 0.3, 1e-5, 1.0)
    h = np.where(rng.random(G.shape[0]) < 0.25, rng.uniform(0.1, 1.0, G.shape[0]), 0.0)
    Q = np.zeros((n, n))
    Q[:n_w, :n_w] = 2.0 * np.eye(n_w)
    c = np.concatenate([rng.normal(size=n_w), np.zeros(n_o)])
    lp = LinearProgram(objective=np.zeros(n), ub_matrix=G, ub_rhs=h,
                       bounds=[(-np.inf, np.inf)] * n)
    return Q, c, G, h, n_w, lp


def test_qp_lagrangian_bound_on_degenerate_chisq_shaped_problems():
    rng = np.random.default_rng(29)
    degenerate = 0
    for _ in range(80):
        Q, c, G, h, n_w, lp = _chisq_shaped_qp(rng)
        start = solve_lp(LinearProgram(objective=np.zeros(G.shape[1]), ub_matrix=G,
                                       ub_rhs=h, bounds=lp.bounds))
        degenerate += np.sum(h - G @ start.point <= 1e-9) > G.shape[1]
        sol = solve_qp(Q, c, lp)
        assert sol.status == OPTIMAL
        x = sol.point
        assert abs(sol.value - (0.5 * x @ Q @ x + c @ x)) <= 1e-12 * (1 + abs(sol.value))
        primal, dual, stationarity, complementarity = _qp_residuals(sol, Q, c, G, h)
        size = 1.0 + np.abs(x).max()
        assert primal <= 1e-9 * size and dual >= -1e-8
        assert stationarity <= 1e-9 * size
        assert complementarity <= 1e-9 * size * (1.0 + np.abs(sol.dual).max(initial=0.0))
        # Lagrangian dual bound from the returned multipliers: for lam >= 0
        # with a stationary omega block, min_x of the Lagrangian is
        # -|v_w|^2 / 4 - lam'h_A, where v = c + G_A' lam.
        act = np.array(sol.active, dtype=int)
        lam = np.clip(sol.dual, 0.0, None)
        v = c + G[act].T @ lam
        assert np.abs(v[n_w:]).max() <= 1e-9
        bound = -0.25 * v[:n_w] @ v[:n_w] - lam @ h[act]
        assert sol.value - bound <= 1e-9 * (1 + abs(sol.value))
        again = solve_qp(Q, c, lp)
        assert again.active == sol.active
        assert (again.point == sol.point).all() and (again.dual == sol.dual).all()
    assert degenerate >= 40  # most phase-1 vertices bind more rows than variables


def test_qp_projection_onto_simplex_with_redundant_equalities():
    rng = np.random.default_rng(31)
    for t in range(60):
        n = int(rng.integers(2, 8))
        a = rng.normal(size=n)
        eq, eq_rhs = np.ones((1, n)), [1.0]
        if t % 2:  # a second, linearly dependent copy of the equality row
            eq, eq_rhs = np.vstack([eq, 2.0 * eq]), [1.0, 2.0]
        sol = solve_qp(2.0 * np.eye(n), -2.0 * a, LinearProgram(
            objective=np.zeros(n), eq_matrix=eq, eq_rhs=eq_rhs, bounds=[(0.0, np.inf)] * n,
        ))
        # Euclidean projection of a onto the simplex by sorting
        u = np.sort(a)[::-1]
        css = np.cumsum(u)
        rho = np.nonzero(u * np.arange(1, n + 1) > css - 1.0)[0][-1]
        assert_allclose(sol.point, np.maximum(a - (css[rho] - 1.0) / (rho + 1), 0.0), atol=1e-12)
        assert sol.dual.size == eq.shape[0] + len(sol.active)
        act = list(sol.active)
        G = -np.eye(n)
        stationarity = 2.0 * (sol.point - a) + eq.T @ sol.dual[:eq.shape[0]] \
            + G[act].T @ sol.dual[eq.shape[0]:]
        assert np.abs(stationarity).max() <= 1e-12


def test_budget_failures_name_the_problem_shape(monkeypatch):
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 0)
    with pytest.raises(SolverFailureError,
                       match="1 pivots on a standard form of 2 variables and 1 rows"):
        solve_lp(LinearProgram(objective=[-1.0], bounds=[(0.0, 1.0)]))


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
