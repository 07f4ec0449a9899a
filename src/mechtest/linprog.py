"""Small dense solvers for LPs, linear-fractional programs, and convex QPs.

All problems here are tiny (at most a few hundred variables), so the
implementation favors robustness and verifiable certificates over speed:

* ``solve_lp`` is a two-phase tableau simplex with Bland's anti-cycling
  rule.  Optimal solutions carry a dual vector proving the value; infeasible
  ones carry a Farkas ray proving emptiness.  Both certificates are checked
  before returning.
* ``solve_lfp`` minimizes a ratio of affine forms through the
  Charnes-Cooper change of variables, after an auxiliary LP has verified
  that the denominator is strictly positive on the feasible set.
* ``solve_qp`` is a primal active-set method for convex (PSD) objectives,
  started at a phase-1 vertex.  Its working set stays linearly
  independent, and one QR factorisation of the working-set rows is
  updated by one row per step instead of being recomputed.  The optimum
  is returned only after its KKT residuals have been checked, with a set
  of binding rows and multipliers that certify it.

Inputs must be finite: a NaN or infinite entry in an objective, a matrix
or a right-hand side raises ``StructuralError``; only bounds may be
infinite.  Everything is deterministic: identical inputs give bit-identical
outputs.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import qr, qr_delete, qr_insert, solve_triangular

from .errors import DomainError, SolverFailureError, StructuralError

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
DEP_TOL = 1e-9
_MAX_PIVOTS = 20000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _as_matrix(a, ncols):
    if a is None:
        return np.zeros((0, ncols))
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != ncols:
        raise StructuralError(
            f"constraint matrix has shape {a.shape}, expected (*, {ncols})"
        )
    return a


def _as_vector(v, n, name):
    if v is None:
        v = np.zeros(0)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (n,):
        raise StructuralError(f"{name} has shape {v.shape}, expected ({n},)")
    return v


@dataclass(frozen=True)
class LinearProgram:
    """``min c'x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  lo <= x <= hi``.

    ``bounds`` holds one ``(lo, hi)`` pair per variable; use ``-np.inf`` /
    ``np.inf`` for free sides (default is ``x >= 0``).  It is stored as an
    ``(n, 2)`` array whose columns are ``lower`` and ``upper``.  Every other
    entry must be finite.  The same object doubles as a feasible-set
    description for :func:`solve_lfp` and :func:`solve_qp`, which ignore
    ``objective``.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray = None
    eq_rhs: np.ndarray = None
    ub_matrix: np.ndarray = None
    ub_rhs: np.ndarray = None
    bounds: np.ndarray = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        if c.ndim != 1:
            raise StructuralError("objective must be a vector")
        n = c.shape[0]
        aeq = _as_matrix(self.eq_matrix, n)
        aub = _as_matrix(self.ub_matrix, n)
        arrays = {
            "objective": c,
            "eq_matrix": aeq,
            "eq_rhs": _as_vector(self.eq_rhs, aeq.shape[0], "eq_rhs"),
            "ub_matrix": aub,
            "ub_rhs": _as_vector(self.ub_rhs, aub.shape[0], "ub_rhs"),
        }
        for name, a in arrays.items():
            if not np.isfinite(a).all():
                raise StructuralError(f"{name} has a NaN or infinite entry")
            object.__setattr__(self, name, a)
        pairs = [(0.0, np.inf)] * n if self.bounds is None else self.bounds
        if len(pairs) != n:
            raise StructuralError(f"{len(pairs)} bounds for {n} variables")
        bounds = np.array(pairs, dtype=float).reshape(n, 2)
        if np.isnan(bounds).any():
            raise StructuralError("bounds may not be NaN")
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_vars(self):
        return self.objective.shape[0]

    @property
    def lower(self):
        return self.bounds[:, 0]

    @property
    def upper(self):
        return self.bounds[:, 1]


@dataclass(frozen=True)
class StandardForm:
    """``min c'z s.t. Az = b, z >= 0``; the original variables are
    ``x = shifts + T z``."""

    matrix: np.ndarray
    rhs: np.ndarray
    cost: np.ndarray
    offset: float
    n_rows_eq: int
    T: np.ndarray
    shifts: np.ndarray

    def point(self, z):
        """``shifts + T z`` for a standard-form point ``z``, whose slack
        columns are ignored.  Each entry is formed from its own columns of
        ``T`` alone (``shift + z``, ``shift - z``, or ``z+ - z-`` for a free
        variable, whose shift is zero), so no zero term of the product can
        change the sign of a zero."""
        nonzero = self.T != 0
        own = np.add.reduceat(self.T.sum(axis=0) * z[: self.T.shape[1]], nonzero.argmax(axis=1))
        return np.where(nonzero.sum(axis=1) == 2, own, self.shifts + own)


@dataclass(frozen=True)
class LpSolution:
    """Outcome of an LP/LFP/QP solve.

    ``point`` and ``value`` are populated iff ``status == "optimal"``.
    ``dual`` holds row multipliers for the standardized system proving the
    optimum; ``farkas`` is a ray proving infeasibility.  ``standard``
    retains the standardized system so certificates can be re-verified
    externally.  ``active`` (QP solves only) is a linearly independent set
    of binding inequality rows whose multipliers certify the optimum; a QP
    ``dual`` holds one multiplier per equality row, then one per ``active``
    row in its order.
    """

    status: str
    value: float = np.nan
    point: np.ndarray = None
    dual: np.ndarray = None
    farkas: np.ndarray = None
    standard: StandardForm = None
    active: tuple = ()


def standard_form(lp: LinearProgram) -> StandardForm:
    """Rewrite ``lp`` as ``min c'z s.t. Az = b, z >= 0``.

    Each variable takes one column of z, shifted by its finite lower bound
    or mirrored at its upper bound when only that is finite; a free
    variable takes a second, negated column right after its first.  A
    variable with both bounds finite adds one ``z <= hi - lo`` row after
    the ub rows.
    """
    lo, hi = lp.lower, lp.upper
    inf_lo, inf_hi = np.isinf(lp.bounds).T
    free = inf_lo & inf_hi
    boxed = ~(inf_lo | inf_hi)
    width = 1 + free
    col = np.cumsum(width) - width  # first z column of each variable
    nz = int(width.sum())
    T = np.zeros((lp.n_vars, nz))
    T[np.arange(lp.n_vars), col] = np.where(inf_lo & ~inf_hi, -1.0, 1.0)  # mirrored
    T[free, col[free] + 1] = -1.0
    shifts = np.where(inf_lo, np.where(inf_hi, 0.0, hi), lo)
    a_eq = lp.eq_matrix @ T
    b_eq = lp.eq_rhs - lp.eq_matrix @ shifts
    a_ub = np.vstack([lp.ub_matrix @ T, np.eye(nz)[col[boxed]]])
    b_ub = np.concatenate([lp.ub_rhs - lp.ub_matrix @ shifts, hi[boxed] - lo[boxed]])
    n_ub = a_ub.shape[0]
    A = np.zeros((a_eq.shape[0] + n_ub, nz + n_ub))
    A[: a_eq.shape[0], :nz] = a_eq
    A[a_eq.shape[0]:, :nz] = a_ub
    A[a_eq.shape[0]:, nz:] = np.eye(n_ub)
    b = np.concatenate([b_eq, b_ub])
    cost = np.concatenate([lp.objective @ T, np.zeros(n_ub)])
    offset = float(lp.objective @ shifts)
    return StandardForm(A, b, cost, offset, a_eq.shape[0], T, shifts)


def _pivot(tab, basis, row, col):
    """Pivot on ``tab[row, col]`` as one rank-1 update of the rows whose
    ``col`` entry is nonzero; every element gets the same ``a - f*b`` as in
    a row-by-row elimination, so the result is bit-identical to it."""
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    rows = np.flatnonzero(factor)
    tab[rows] -= factor[rows, None] * tab[row]
    basis[row] = col


def _simplex_phase(tab, basis, n_enter, n_pivots, force_out_from=None, stop_below=None):
    """Pivot until optimal or unbounded.

    ``tab`` rows 0..m-1 hold [B^-1 A | B^-1 b]; the last row holds reduced
    costs and the negated objective.  Columns ``>= n_enter`` never enter.
    Pricing is most-negative-reduced-cost until the objective stalls, then
    Bland's smallest-index rule takes over permanently, which guarantees
    termination on degenerate problems.  A column that looks improving but
    has no positive pivot entry is declared unbounded only when its reduced
    cost is decisively negative relative to the column scale; otherwise it
    is accumulated roundoff and gets zeroed out (final certificates
    re-verify every answer independently).  When ``force_out_from`` is set,
    a basic variable with index at or above it (an artificial, necessarily
    at level zero) is pivoted out as soon as the entering column touches
    its row.  ``stop_below`` ends the phase early once the objective is
    provably below it (used by phase 1, whose objective floor is zero).
    """
    m = tab.shape[0] - 1
    basis_arr = np.asarray(basis)
    bland = False
    stall = 0
    stall_limit = 10 * (m + 1)
    while True:
        if stop_below is not None and -tab[-1, -1] <= stop_below:
            return OPTIMAL, n_pivots
        rc = tab[-1, :n_enter]
        candidates = np.nonzero(rc < -PIVOT_TOL)[0]
        if candidates.size == 0:
            return OPTIMAL, n_pivots
        if bland:
            enter = int(candidates[0])
        else:
            enter = int(candidates[np.argmin(rc[candidates])])
        col = tab[:m, enter]
        leave = -1
        if force_out_from is not None:
            forced = np.nonzero((basis_arr >= force_out_from) & (np.abs(col) > PIVOT_TOL))[0]
            if forced.size:
                leave = int(forced[0])
        if leave < 0:
            pos = np.nonzero(col > PIVOT_TOL)[0]
            if pos.size == 0:
                col_scale = np.abs(col).max(initial=0.0)
                if rc[enter] > -1e-7 * (1.0 + col_scale):
                    tab[-1, enter] = 0.0
                    continue
                return UNBOUNDED, n_pivots
            ratios = tab[pos, -1] / col[pos]
            best = ratios.min()
            ties = pos[ratios <= best + PIVOT_TOL]
            if bland:
                leave = int(ties[np.argmin(basis_arr[ties])])
            else:
                leave = int(ties[np.argmax(col[ties])])
        before = tab[-1, -1]
        _pivot(tab, basis, leave, enter)
        basis_arr[leave] = basis[leave]
        if tab[-1, -1] > before + 1e-12 * (1.0 + abs(before)):
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
        n_pivots += 1
        if n_pivots > _MAX_PIVOTS:
            raise SolverFailureError(
                f"simplex exceeded the pivot budget: {n_pivots} pivots on a standard "
                f"form of {n_enter} variables and {m} rows"
            )


def _where(phase, n_pivots, n_vars, n_rows):
    return (f"in phase {phase} after {n_pivots} pivots on a standard form of "
            f"{n_vars} variables and {n_rows} rows")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Globally solve ``lp``; every status is backed by a verified certificate.

    Returns
    -------
    LpSolution
        ``optimal`` with point/value/dual, ``infeasible`` with a Farkas
        certificate, or ``unbounded``.

    Raises
    ------
    StructuralError
        If dimensions are inconsistent.
    SolverFailureError
        If numerical degeneracy defeats the pivot tolerances.
    """
    sf = standard_form(lp)
    A = sf.matrix.copy()
    b = sf.rhs.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    m, nz = A.shape
    # Column equilibration: badly scaled columns (common after whitening)
    # otherwise poison the pivot tolerances.  Scaling commutes with the
    # duals and certificates, so only the primal point needs unscaling.  A
    # column that is zero up to rounding against the whole matrix keeps its
    # scale: blown up to unit size it could enter the basis at a level of
    # the inverse rounding error.
    col_scale = np.abs(A).max(axis=0) if m else np.ones(nz)
    col_scale = np.where(col_scale > 1e-14 * col_scale.max(initial=0.0), col_scale, 1.0)
    A = A / col_scale
    cost_scaled = sf.cost / col_scale
    tab = np.zeros((m + 1, nz + m + 1))
    tab[:m, :nz] = A
    tab[:m, nz: nz + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :nz] = -A.sum(axis=0)
    tab[-1, -1] = -b.sum()
    basis = list(range(nz, nz + m))
    status, piv = _simplex_phase(tab, basis, nz, 0, stop_below=0.5 * FEAS_TOL)
    if status != OPTIMAL:  # pragma: no cover - phase 1 cannot be unbounded
        raise SolverFailureError("phase 1 terminated without an optimum")
    if -tab[-1, -1] > FEAS_TOL:
        cb = np.array([1.0 if j >= nz else 0.0 for j in basis])
        y = cb @ tab[:m, nz: nz + m]
        y[neg] *= -1.0
        ray = (y @ sf.matrix).max(initial=-np.inf)
        bound = y @ sf.rhs
        if not (ray <= 1e-7 and bound > FEAS_TOL / 2):
            raise SolverFailureError(
                f"failed to certify infeasibility {_where(1, piv, nz, m)}: Farkas values "
                f"max(y'A) {ray:.3g} (must be <= 1e-7) and y'b {bound:.3g} "
                f"(must be > {FEAS_TOL / 2:.3g})"
            )
        return LpSolution(INFEASIBLE, farkas=y, standard=sf)
    # Nothing below reads the artificial columns: they never enter again,
    # and a pivot updates each column on its own.
    tab = np.delete(tab, np.s_[nz: nz + m], axis=1)
    # Pivot artificials out of the basis where a real column is available;
    # those that remain sit at level zero in redundant rows and are ejected
    # lazily by the force-out rule below.
    for i in range(m):
        if basis[i] >= nz:
            usable = np.abs(tab[i, :nz]) > 1e-7
            if usable.any():
                _pivot(tab, basis, i, int(usable.argmax()))
    tab[-1, :] = 0.0
    tab[-1, :nz] = cost_scaled
    for i in range(m):
        if basis[i] < nz and cost_scaled[basis[i]] != 0.0:
            tab[-1] -= cost_scaled[basis[i]] * tab[i]
    status, piv = _simplex_phase(tab, basis, nz, piv, force_out_from=nz)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, value=-np.inf, standard=sf)
    z = np.zeros(nz)
    for i in range(m):
        if basis[i] < nz:
            z[basis[i]] = max(tab[i, -1], 0.0)
    z /= col_scale
    x = sf.point(z)
    value = float(sf.cost @ z + sf.offset)
    # Dual vector: solve B'y = c_B against the sign-corrected rows, undo the
    # sign flips, then verify feasibility and the zero duality gap.
    B = np.empty((m, m))
    cb = np.empty(m)
    for i, j in enumerate(basis):
        if j < nz:
            B[:, i] = A[:, j]
            cb[i] = cost_scaled[j]
        else:
            B[:, i] = np.eye(m)[:, j - nz]
            cb[i] = 0.0
    try:
        y = np.linalg.solve(B.T, cb)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(f"singular basis at the optimum {_where(2, piv, nz, m)}") from exc
    y[neg] *= -1.0
    reduced = sf.cost - y @ sf.matrix
    gap = abs(y @ sf.rhs - (value - sf.offset))
    primal = np.abs(sf.matrix @ z - sf.rhs).max() if m else 0.0
    if not (reduced.min() >= -1e-7 and gap <= 1e-7 * (1.0 + abs(value)) and primal <= 1e-7):
        raise SolverFailureError(
            f"failed to certify the LP optimum {_where(2, piv, nz, m)}: smallest reduced "
            f"cost {reduced.min():.3g} (must be >= -1e-7), duality gap {gap:.3g} "
            f"(must be <= {1e-7 * (1.0 + abs(value)):.3g}), primal residual "
            f"{primal:.3g} (must be <= 1e-7)"
        )
    return LpSolution(OPTIMAL, value=value, point=x, dual=y, standard=sf)


def _feasible_set_rows(lp: LinearProgram):
    """All inequality rows as ``G x <= h``: the ub rows, then per variable
    ``x <= hi`` and ``-x <= -lo`` for each finite bound."""
    i = np.arange(lp.n_vars)
    rows = np.zeros((i.size, 2, i.size))
    rows[i, 0, i] = 1.0
    rows[i, 1, i] = -1.0
    rhs = np.stack([lp.upper, -lp.lower], axis=1)
    finite = np.isfinite(rhs)
    return np.vstack([lp.ub_matrix, rows[finite]]), np.concatenate([lp.ub_rhs, rhs[finite]])


def solve_lfp(numerator, denominator, feasible: LinearProgram) -> LpSolution:
    """Minimize ``(n'x + n0) / (d'x + d0)`` over the feasible set of ``feasible``.

    Parameters
    ----------
    numerator, denominator : tuple
        Affine forms ``(coefficients, constant)``.
    feasible : LinearProgram
        Only the constraint part is used; the objective is ignored.

    The denominator must be strictly positive everywhere on the feasible
    set (checked with an auxiliary LP; violations raise ``DomainError``).
    The Charnes-Cooper homogenizing variable is internal: the returned
    ``point`` is in original coordinates.
    """
    n = feasible.n_vars
    ncoef = _as_vector(np.asarray(numerator[0], dtype=float), n, "numerator")
    dcoef = _as_vector(np.asarray(denominator[0], dtype=float), n, "denominator")
    nconst, dconst = float(numerator[1]), float(denominator[1])
    denom_min = solve_lp(replace(feasible, objective=dcoef))
    if denom_min.status == INFEASIBLE:
        return denom_min
    if denom_min.status == UNBOUNDED or denom_min.value + dconst <= FEAS_TOL:
        raise DomainError("denominator is not strictly positive on the feasible set")
    G, h = _feasible_set_rows(feasible)
    neq = feasible.eq_matrix.shape[0]
    eq = np.zeros((neq + 1, n + 1))
    eq[:neq, :n] = feasible.eq_matrix
    eq[:neq, n] = -feasible.eq_rhs
    eq[neq, :n] = dcoef
    eq[neq, n] = dconst
    eq_rhs = np.zeros(neq + 1)
    eq_rhs[neq] = 1.0
    ub = np.hstack([G, -h[:, None]])
    cc = LinearProgram(
        objective=np.append(ncoef, nconst),
        eq_matrix=eq,
        eq_rhs=eq_rhs,
        ub_matrix=ub,
        ub_rhs=np.zeros(G.shape[0]),
        bounds=tuple([(-np.inf, np.inf)] * n + [(0.0, np.inf)]),
    )
    sol = solve_lp(cc)
    if sol.status != OPTIMAL:
        return sol
    t = sol.point[n]
    if t <= 1e-12:
        raise SolverFailureError(
            "Charnes-Cooper scale collapsed to zero (recession direction)"
        )
    return LpSolution(
        OPTIMAL, value=sol.value, point=sol.point[:n] / t,
        dual=sol.dual, standard=sol.standard,
    )


def _independent_rows(rows, null):
    """Ascending indices of a maximal subset of ``rows`` whose projections
    onto the orthonormal columns of ``null`` are linearly independent.

    Rows are normalised first, so a row is kept only if it lies at least
    ``DEP_TOL`` (relative) outside the span of the rows kept before it; the
    choice is the column pivoting of one QR factorisation.
    """
    if rows.shape[0] == 0 or null.shape[1] == 0:
        return []
    norms = np.linalg.norm(rows, axis=1)
    unit = rows / np.where(norms > 0, norms, 1.0)[:, None]
    _, r, piv = qr(null.T @ unit.T, mode="economic", pivoting=True)
    rank = int(np.count_nonzero(np.abs(np.diag(r)) > DEP_TOL))
    return sorted(int(i) for i in piv[:rank])


def solve_qp(quadratic, linear, feasible: LinearProgram) -> LpSolution:
    """Minimize ``0.5 x'Qx + c'x`` over the polyhedron described by ``feasible``.

    ``quadratic`` must be symmetric positive semidefinite (zero curvature
    directions are handled by ray steps).  A primal active-set method is
    started at a phase-1 simplex vertex.  Its working set holds the
    equality rows and a linearly independent set of inequality rows: the
    start keeps a maximal independent subset of the rows binding at the
    vertex, and a blocking row enters only if it is independent of the
    working set.  One full QR factorisation of the transposed working-set
    rows is updated by one row per step; the trailing columns of its Q
    span the null space the step is taken in, and one triangular solve
    with its R gives the multipliers.  Ties between blocking rows, and between rows with
    negative multipliers, go to the smallest row index.

    Before an optimum is returned, its primal feasibility, dual
    feasibility, stationarity and complementarity residuals are checked;
    a failed check raises ``SolverFailureError``.  ``active`` lists a
    linearly independent set of binding rows whose multipliers certify the
    optimum (indices into the ub rows followed by the finite-bound rows),
    and ``dual`` holds one multiplier per equality row followed by one per
    ``active`` row, in that order.
    """
    n = feasible.n_vars
    Q = np.asarray(quadratic, dtype=float)
    c = _as_vector(np.asarray(linear, dtype=float), n, "linear")
    if Q.shape != (n, n):
        raise StructuralError("quadratic matrix does not match variable count")
    if not (np.isfinite(Q).all() and np.isfinite(c).all()):
        raise StructuralError("quadratic or linear term has a NaN or infinite entry")
    if not np.allclose(Q, Q.T, atol=1e-8 * max(1.0, np.abs(Q).max())):
        raise DomainError("quadratic matrix must be symmetric")
    Q = 0.5 * (Q + Q.T)
    eigs = np.linalg.eigvalsh(Q)
    if eigs.size and eigs.min() < -1e-8 * max(1.0, abs(eigs).max()):
        raise DomainError("quadratic matrix must be positive semidefinite")
    start = solve_lp(replace(feasible, objective=np.zeros(n)))
    if start.status != OPTIMAL:
        return start
    G, h = _feasible_set_rows(feasible)
    m = G.shape[0]
    row_norm = np.linalg.norm(G, axis=1)
    x = start.point.copy()
    eq = _independent_rows(feasible.eq_matrix, np.eye(n))
    Qf, R = qr(feasible.eq_matrix[eq].T)
    neq = len(eq)
    binding = np.nonzero(h - G @ x <= 1e-9)[0]
    # ``work`` lists the working inequality rows in the column order of R.
    work = [int(binding[i]) for i in _independent_rows(G[binding], Qf[:, neq:])]
    Qf, R = qr(np.vstack([feasible.eq_matrix[eq], G[work]]).T)
    scale = max(1.0, np.abs(Q).max(), np.abs(c).max())
    max_iter = 200 + 50 * (n + m)
    for _ in range(max_iter):
        k = neq + len(work)
        g = Q @ x + c
        Z = Qf[:, k:]
        ray = False
        if Z.shape[1] == 0:
            p = np.zeros(n)
        else:
            H = Z.T @ Q @ Z
            lam, V = np.linalg.eigh(H)
            dd = V.T @ (Z.T @ g)
            curv = lam > 1e-11 * max(1.0, lam.max())
            flat_slope = (~curv) & (np.abs(dd) > 1e-9 * scale)
            if flat_slope.any():
                i = int(np.argmax(flat_slope))
                p = Z @ (-np.sign(dd[i]) * V[:, i])
                ray = True
            else:
                v = np.zeros_like(dd)
                v[curv] = -dd[curv] / lam[curv]
                p = Z @ (V @ v)
        p_norm = np.linalg.norm(p)
        if not ray and p_norm <= 1e-10 * max(1.0, np.linalg.norm(x)):
            mult = solve_triangular(R[:k, :k], -(Qf[:, :k].T @ g))
            bad = np.nonzero(mult[neq:] < -1e-8 * scale)[0]
            if bad.size == 0:
                return _certified_qp_optimum(Q, c, feasible, G, h, x, eq, work, mult, scale)
            drop = min(bad, key=lambda i: work[i])
            Qf, R = qr_delete(Qf, R, neq + drop, which="col")
            work.pop(drop)
            continue
        cap = np.inf if ray else 1.0
        alpha, block = cap, -1
        gp = G @ p
        moving = gp > DEP_TOL * row_norm * p_norm
        moving[work] = False
        cand = np.nonzero(moving)[0]
        if cand.size:
            ratios = np.maximum(h[cand] - G[cand] @ x, 0.0) / gp[cand]
            best = ratios.min()
            alpha = min(best, cap)
            if best < cap - 1e-12:
                block = int(cand[np.argmax(ratios <= best + 1e-12)])
        if ray and block < 0:
            return LpSolution(UNBOUNDED, value=-np.inf)
        x = x + alpha * p
        if block >= 0:
            Qf, R = qr_insert(Qf, R, G[block], k, which="col")
            work.append(block)
    raise SolverFailureError(
        f"active-set QP exceeded the iteration budget: {max_iter} iterations on "
        f"{n} variables, {m} inequality and {feasible.eq_matrix.shape[0]} equality "
        f"rows, working set of {neq + len(work)} rows"
    )


def _certified_qp_optimum(Q, c, feasible, G, h, x, eq, work, mult, scale):
    """Check the KKT residuals of ``x`` and return it as the QP optimum.

    The working set ``eq`` / ``work`` and its multipliers ``mult`` must
    certify ``x``: primal feasibility, nonnegative inequality multipliers,
    a stationary Lagrangian and zero slack on every working row.
    """
    neq = len(eq)
    A_eq = feasible.eq_matrix
    A_w = np.vstack([A_eq[eq], G[work]])
    # slacks relative to the size of the terms they are the difference of
    slack = (h - G @ x) / (1.0 + np.abs(G) @ np.abs(x) + np.abs(h))
    eq_gap = (A_eq @ x - feasible.eq_rhs) / (
        1.0 + np.abs(A_eq) @ np.abs(x) + np.abs(feasible.eq_rhs))
    primal = max(-slack.min(initial=0.0), np.abs(eq_gap).max(initial=0.0))
    dual = mult[neq:].min(initial=0.0)
    stationarity = np.abs(Q @ x + c + A_w.T @ mult).max(initial=0.0)
    # multipliers vanish off the working set, so complementarity asks that
    # every working row binds
    complementarity = np.abs(slack[work]).max(initial=0.0)
    tol = 1e-7 * scale * (1.0 + np.abs(x).max(initial=0.0))
    if not (primal <= 1e-7 and dual >= -1e-8 * scale and stationarity <= tol
            and complementarity <= 1e-7):
        raise SolverFailureError(
            "failed to certify the QP optimum: "
            f"primal {primal:.3g}, dual {dual:.3g}, stationarity {stationarity:.3g}, "
            f"complementarity {complementarity:.3g} on {len(x)} variables and "
            f"{G.shape[0]} inequality rows"
        )
    order = np.argsort(work)
    dual_eq = np.zeros(feasible.eq_matrix.shape[0])
    dual_eq[eq] = mult[:neq]
    return LpSolution(
        OPTIMAL, value=float(0.5 * x @ Q @ x + c @ x), point=x,
        dual=np.concatenate([dual_eq, mult[neq:][order]]),
        active=tuple(work[i] for i in order),
    )
