"""Small dense solvers for LPs, linear-fractional programs, and least-distance QPs.

All problems here are tiny (at most a few hundred variables), so the
implementation favors robustness and verifiable certificates over speed:

* ``solve_lp`` is a two-phase tableau simplex with Bland's anti-cycling
  rule.  Optimal solutions carry a dual vector proving the value; infeasible
  ones carry a Farkas ray proving emptiness.  Both certificates are checked
  before returning.  Rows that phase 1 leaves to an artificial are dropped
  as redundant, so phase 2 works on real columns only.  Phase 1 reads only
  the constraints, so a ``FeasibleSet`` runs it once and minimizes many
  objectives from the same feasible basis; ``solve_lp`` is one
  ``FeasibleSet`` and one objective.  The type-share LPs of one identified
  set share its ``FeasibleSet``, so phase 1 runs once per identified set,
  not once per objective.
* ``solve_lfp`` minimizes a ratio of affine forms by Dinkelbach's steps,
  LPs over one ``FeasibleSet`` whose last dual certifies the ratio, after
  an LP has verified that the denominator is positive on the set.
* ``solve_qp`` minimizes the squared norm of the leading coordinates of
  x over a polyhedron, the remaining ones being nuisance coordinates: the
  least-distance program of the conditional chi-squared test.  A primal
  active-set method runs from a feasible start the caller supplies.  Each
  step is one minimum-norm least-squares solve in the null space of the
  working set, whose linearly independent rows keep one QR factorisation
  that is updated by one row per step instead of being recomputed; each
  iterate is put back on the working rows through it.  The optimum is
  returned only after its KKT residuals have been checked, with a set of
  binding rows and multipliers that certify it.

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
QP_PRIMAL_TOL = 1e-7  # relative row violation a QP start or optimum may have
DEP_TOL = 1e-9
_MAX_PIVOTS = 20000
_MAX_DINKELBACH_STEPS = 100
_QP_SCALE = 2.0  # largest curvature of |x[:n_dist]|^2: scales the QP's multiplier tolerances
_LSQ_RCOND = np.sqrt(1e-11)  # relative singular-value cutoff of the QP step

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

    def with_cost(self, objective):
        """The same system under ``objective`` of the original variables;
        the slack columns cost nothing."""
        n_slack = self.matrix.shape[1] - self.T.shape[1]
        return replace(self, cost=np.concatenate([objective @ self.T, np.zeros(n_slack)]),
                       offset=float(objective @ self.shifts))


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
    return StandardForm(A, b, None, None, T, shifts).with_cost(lp.objective)


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


def _simplex_phase(tab, basis, n_enter, phase, n_pivots):
    """Pivot ``tab`` and the int array ``basis`` in place until optimal or
    unbounded; returns the status and ``n_pivots`` plus the pivots made.

    ``tab`` rows 0..m-1 hold [B^-1 A | B^-1 b]; the last row holds reduced
    costs and the negated objective.  ``basis[i]`` is the column basic in
    row i; columns ``>= n_enter`` (the artificials) never enter.  Pricing is
    most-negative-reduced-cost until the objective stalls, then Bland's
    smallest-index rule takes over permanently, which guarantees
    termination on degenerate problems.  A column that looks improving but
    has no positive pivot entry is declared unbounded only when its reduced
    cost is decisively negative relative to the column scale; otherwise it
    is accumulated roundoff and gets zeroed out (final certificates
    re-verify every answer independently).  Phase 1 minimizes the sum of
    the artificials and stops once that is below ``FEAS_TOL / 2``; phase 2
    runs on a tableau without artificials, whose basic columns are all
    real.  ``n_pivots`` counts on across both phases against one budget.
    """
    m = tab.shape[0] - 1
    bland = False
    stall = 0
    stall_limit = 10 * (m + 1)
    while True:
        if phase == 1 and -tab[-1, -1] <= FEAS_TOL / 2:
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
            leave = int(ties[np.argmin(basis[ties])])
        else:
            leave = int(ties[np.argmax(col[ties])])
        before = tab[-1, -1]
        _pivot(tab, basis, leave, enter)
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


class FeasibleSet:
    """The feasible set of one LP, over which many objectives are minimized.

    Phase 1 and the ejection of the artificial columns read only the
    constraints, so they run once, here.  A row whose artificial cannot be
    ejected is redundant and is dropped.  A feasible set keeps the
    resulting tableau over the kept rows, its basis (one int array, the
    real column basic in each kept row) and the kept rows of the scaled A
    read-only; each :meth:`minimize` runs phase 2 on copies of the tableau
    and basis and reads the optimum's levels, basis matrix and basic costs
    off them by indexing.  An empty set keeps its verified Farkas ray.  The
    objective of ``lp`` plays no part.

    Raises
    ------
    SolverFailureError
        If the infeasibility certificate fails or phase 1 exceeds the pivot
        budget.
    """

    def __init__(self, lp: LinearProgram):
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
        tab = np.zeros((m + 1, nz + m + 1))
        tab[:m, :nz] = A
        tab[:m, nz: nz + m] = np.eye(m)
        tab[:m, -1] = b
        tab[-1, :nz] = -A.sum(axis=0)
        tab[-1, -1] = -b.sum()
        basis = np.arange(nz, nz + m)
        status, piv = _simplex_phase(tab, basis, nz, 1, 0)
        if status != OPTIMAL:  # pragma: no cover - phase 1 cannot be unbounded
            raise SolverFailureError("phase 1 terminated without an optimum")
        self.n_vars, self._standard, self._phase1_pivots = lp.n_vars, sf, piv
        self.farkas = None
        if -tab[-1, -1] > FEAS_TOL:
            y = (basis >= nz) @ tab[:m, nz: nz + m]
            y[neg] *= -1.0
            ray = (y @ sf.matrix).max(initial=-np.inf)
            bound = y @ sf.rhs
            if not (ray <= 1e-7 and bound > FEAS_TOL / 2):
                raise SolverFailureError(
                    f"failed to certify infeasibility {_where(1, piv, nz, m)}: Farkas values "
                    f"max(y'A) {ray:.3g} (must be <= 1e-7) and y'b {bound:.3g} "
                    f"(must be > {FEAS_TOL / 2:.3g})"
                )
            self.farkas = y
            return
        # Nothing below reads the artificial columns: they never enter again,
        # and a pivot updates each column on its own.
        tab = np.delete(tab, np.s_[nz: nz + m], axis=1)
        # Pivot artificials out of the basis where a real column is available.
        for i in np.flatnonzero(basis >= nz):  # a pivot changes the basis in its own row only
            usable = np.abs(tab[i, :nz]) > 1e-7
            if usable.any():
                _pivot(tab, basis, i, int(usable.argmax()))
        # An artificial still basic sits below FEAS_TOL / 2 in a row whose real
        # entries are all at most 1e-7: a redundant row, dropped with it.  The
        # certificates in minimize still check every original row.
        kept = basis < nz
        tab, basis, A = tab[np.append(kept, True)], basis[kept], A[kept]
        for a in (tab, basis, A, kept, neg, col_scale):
            a.setflags(write=False)
        self._tab, self._basis, self._A, self._kept, self._neg, self._col_scale = (
            tab, basis, A, kept, neg, col_scale)

    @property
    def feasible(self):
        return self.farkas is None

    def minimize(self, objective) -> LpSolution:
        """Minimize ``objective'x`` over the set; every status is backed by a
        verified certificate, exactly as :func:`solve_lp` certifies it.
        Phase 2 runs on real columns over the kept rows; a dropped row's
        multiplier is 0, and the certificates check every original row."""
        c = _as_vector(np.asarray(objective, dtype=float), self.n_vars, "objective")
        if not np.isfinite(c).all():
            raise StructuralError("objective has a NaN or infinite entry")
        sf = self._standard.with_cost(c)
        if not self.feasible:
            return LpSolution(INFEASIBLE, farkas=self.farkas.copy(), standard=sf)
        neg, col_scale = self._neg, self._col_scale
        m, nz = neg.size, col_scale.size
        tab, basis = self._tab.copy(), self._basis.copy()
        cost_scaled = sf.cost / col_scale
        tab[-1] = np.append(cost_scaled, 0.0)
        for i, j in enumerate(basis.tolist()):
            if cost_scaled[j] != 0.0:
                tab[-1] -= cost_scaled[j] * tab[i]
        status, piv = _simplex_phase(tab, basis, nz, 2, self._phase1_pivots)
        if status == UNBOUNDED:
            return LpSolution(UNBOUNDED, value=-np.inf, standard=sf)
        level = tab[:-1, -1]
        z = np.zeros(nz)
        z[basis] = np.where(0.0 > level, 0.0, level)  # as max(level, 0.0): keeps -0.0
        z /= col_scale
        x = sf.point(z)
        value = float(sf.cost @ z + sf.offset)
        # Dual vector: solve B'y = c_B against the kept sign-corrected rows, undo
        # the sign flips, then verify feasibility and the zero duality gap.
        y = np.zeros(m)
        try:
            y[self._kept] = np.linalg.solve(self._A[:, basis].T, cost_scaled[basis])
        except np.linalg.LinAlgError as exc:
            raise SolverFailureError(
                f"singular basis at the optimum {_where(2, piv, nz, m)}") from exc
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
    return FeasibleSet(lp).minimize(lp.objective)


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
    """Minimize ``(n'x + n0) / (d'x + d0)`` over the feasible set of
    ``feasible``, whose objective is ignored; ``numerator`` and
    ``denominator`` are ``(coefficients, constant)``.

    Every LP runs over one ``FeasibleSet``, so phase 1 runs once.  The first
    checks that the denominator exceeds ``FEAS_TOL`` on the set (else
    ``DomainError``); its minimizer starts Dinkelbach's iteration.  With
    ``lam`` the ratio at the current point, a step minimizes ``N - lam D``
    and moves to its minimizer, until that minimum is at least ``-tol``,
    ``tol = 1e-12 (1 + |lam|)``, or the ratio stops decreasing.  ``value``
    is ``lam``, the ratio at the returned ``point``; ``dual`` and
    ``standard`` are the last step's and certify ``min (n - lam d)'x >= lam
    d0 - n0 - tol`` (the certified minimum in place of ``-tol`` where the
    ratio stopped decreasing first).  An unbounded step, whose infimum lies
    along a ray, and an exceeded step budget raise ``SolverFailureError``.
    """
    n = feasible.n_vars
    ncoef = _as_vector(np.asarray(numerator[0], dtype=float), n, "numerator")
    dcoef = _as_vector(np.asarray(denominator[0], dtype=float), n, "denominator")
    nconst, dconst = float(numerator[1]), float(denominator[1])
    polytope = FeasibleSet(feasible)
    sol = polytope.minimize(dcoef)
    if sol.status == INFEASIBLE:
        return sol
    if sol.status == UNBOUNDED or sol.value + dconst <= FEAS_TOL:
        raise DomainError("denominator is not strictly positive on the feasible set")
    point = sol.point
    lam = (ncoef @ point + nconst) / (dcoef @ point + dconst)
    for _ in range(_MAX_DINKELBACH_STEPS):
        sub = polytope.minimize(ncoef - lam * dcoef)
        if sub.status == UNBOUNDED:
            raise SolverFailureError("the ratio's infimum lies along a ray of the feasible set")
        nxt = (ncoef @ sub.point + nconst) / (dcoef @ sub.point + dconst)
        if sub.value + nconst - lam * dconst >= -1e-12 * (1.0 + abs(lam)) or nxt >= lam:
            return LpSolution(OPTIMAL, value=float(lam), point=point, dual=sub.dual,
                              standard=sub.standard)
        point, lam = sub.point, nxt
    raise SolverFailureError(f"Dinkelbach steps exceeded the budget of {_MAX_DINKELBACH_STEPS}")


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


def solve_qp(n_dist, feasible: LinearProgram, start) -> LpSolution:
    """Minimize ``|x[:n_dist]|^2`` over the polyhedron of ``feasible``; the
    other coordinates of x are nuisance (a least-distance program).

    A primal active-set method runs from ``start``, which must be finite
    and feasible to ``QP_PRIMAL_TOL``, the tolerance the optimum is
    certified to; one that is not raises ``StructuralError`` or
    ``DomainError``.  A start near the optimum saves iterations: each one
    moves or changes the working set by one row.  The working set holds
    the equality rows and a linearly independent set of inequality rows:
    at first a maximal one among the rows binding at the start, and a
    blocking row enters only if it is independent of the working set.  One
    full QR factorisation of the transposed working-set rows is updated by
    one row per step.  The trailing columns Z of its Q span the null space;
    the step is ``Z y``, y the minimum-norm least-squares solution of
    ``Z[:n_dist] y = -x[:n_dist]``, and one triangular solve with its R
    gives the multipliers.  Ties between blocking rows, and between rows
    with negative multipliers, go to the smallest row index.

    Before an optimum is returned, its primal feasibility, dual
    feasibility, stationarity and complementarity residuals are checked;
    a failed check raises ``SolverFailureError``.  ``active`` lists a
    linearly independent set of binding rows whose multipliers certify the
    optimum (indices into the ub rows followed by the finite-bound rows),
    and ``dual`` holds one multiplier per equality row followed by one per
    ``active`` row, in that order.
    """
    n = feasible.n_vars
    if not 0 < n_dist <= n:
        raise StructuralError(f"n_dist is {n_dist}, expected 1 to {n}")
    G, h = _feasible_set_rows(feasible)
    x = _as_vector(np.asarray(start, dtype=float), n, "start").copy()
    if not np.isfinite(x).all():
        raise StructuralError("QP start has a NaN or infinite entry")
    violation = _violation(feasible, G, h, x)
    if violation > QP_PRIMAL_TOL:
        raise DomainError(f"QP start violates the feasible set by {violation:.3g} "
                          f"(relative; must be <= {QP_PRIMAL_TOL:.3g})")
    m = G.shape[0]
    row_norm = np.linalg.norm(G, axis=1)
    eq = _independent_rows(feasible.eq_matrix, np.eye(n))
    A_eq, b_eq = feasible.eq_matrix[eq], feasible.eq_rhs[eq]
    Qf, R = qr(A_eq.T)
    neq = len(eq)
    binding = np.nonzero(h - G @ x <= 1e-9)[0]
    # ``work`` lists the working inequality rows in the column order of R.
    work = [int(binding[i]) for i in _independent_rows(G[binding], Qf[:, neq:])]
    Qf, R = qr(np.vstack([A_eq, G[work]]).T)
    max_iter = 200 + 50 * (n + m)
    for _ in range(max_iter):
        k = neq + len(work)
        # a step keeps the working rows only up to rounding, which nearly
        # dependent rows magnify in x: put x back on them
        resid = np.concatenate([A_eq @ x - b_eq, G[work] @ x - h[work]])
        x = x - Qf[:, :k] @ solve_triangular(R[:k, :k], resid, trans="T", check_finite=False)
        Z = Qf[:, k:]
        p = np.zeros(n)
        if Z.shape[1]:
            p = Z @ np.linalg.lstsq(Z[:n_dist], -x[:n_dist], rcond=_LSQ_RCOND)[0]
        p_norm = np.linalg.norm(p)
        if p_norm <= 1e-10 * max(1.0, np.linalg.norm(x)):
            mult = solve_triangular(R[:k, :k], -(Qf[:n_dist, :k].T @ (2.0 * x[:n_dist])))
            bad = np.nonzero(mult[neq:] < -1e-8 * _QP_SCALE)[0]
            if bad.size == 0:
                return _certified_qp_optimum(n_dist, feasible, G, h, x, eq, work, mult)
            drop = min(bad, key=lambda i: work[i])
            Qf, R = qr_delete(Qf, R, neq + drop, which="col")
            work.pop(drop)
            continue
        alpha, block = 1.0, -1
        gp = G @ p
        moving = gp > DEP_TOL * row_norm * p_norm
        moving[work] = False
        cand = np.nonzero(moving)[0]
        if cand.size:
            ratios = np.maximum(h[cand] - G[cand] @ x, 0.0) / gp[cand]
            best = ratios.min()
            alpha = min(best, 1.0)
            if best < 1.0 - 1e-12:
                block = int(cand[np.argmax(ratios <= best + 1e-12)])
        x = x + alpha * p
        if block >= 0:
            Qf, R = qr_insert(Qf, R, G[block], k, which="col")
            work.append(block)
    raise SolverFailureError(
        f"active-set QP exceeded the iteration budget: {max_iter} iterations on "
        f"{n} variables, {m} inequality and {feasible.eq_matrix.shape[0]} equality "
        f"rows, working set of {neq + len(work)} rows"
    )


def _relative_slack(G, h, x):
    """Slacks of ``G x <= h`` relative to the size of the terms they are
    the difference of."""
    return (h - G @ x) / (1.0 + np.abs(G) @ np.abs(x) + np.abs(h))


def _violation(feasible, G, h, x):
    """Largest relative violation of ``G x <= h`` and of the equality rows
    of ``feasible`` at ``x``."""
    A_eq, b_eq = feasible.eq_matrix, feasible.eq_rhs
    eq_gap = (A_eq @ x - b_eq) / (1.0 + np.abs(A_eq) @ np.abs(x) + np.abs(b_eq))
    return max(-_relative_slack(G, h, x).min(initial=0.0), np.abs(eq_gap).max(initial=0.0))


def _certified_qp_optimum(n_dist, feasible, G, h, x, eq, work, mult):
    """Check the KKT residuals of ``x`` and return it as the optimum of
    ``|x[:n_dist]|^2``.

    The working set ``eq`` / ``work`` and its multipliers ``mult`` must
    certify ``x``: primal feasibility, nonnegative inequality multipliers,
    a stationary Lagrangian and zero slack on every working row.
    """
    neq = len(eq)
    A_w = np.vstack([feasible.eq_matrix[eq], G[work]])
    grad = np.zeros(x.size)
    grad[:n_dist] = 2.0 * x[:n_dist]
    slack = _relative_slack(G, h, x)
    primal = _violation(feasible, G, h, x)
    dual = mult[neq:].min(initial=0.0)
    stationarity = np.abs(grad + A_w.T @ mult).max(initial=0.0)
    # multipliers vanish off the working set, so complementarity asks that
    # every working row binds
    complementarity = np.abs(slack[work]).max(initial=0.0)
    tol = 1e-7 * _QP_SCALE * (1.0 + np.abs(x).max(initial=0.0))
    if not (primal <= QP_PRIMAL_TOL and dual >= -1e-8 * _QP_SCALE and stationarity <= tol
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
        OPTIMAL, value=float(x[:n_dist] @ x[:n_dist]), point=x,
        dual=np.concatenate([dual_eq, mult[neq:][order]]),
        active=tuple(work[i] for i in order),
    )
