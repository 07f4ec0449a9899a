"""Restrictions on mediator type shares and the identified set they induce.

A "type" lk is the joint event that the mediator would sit at support point
l untreated and k treated; theta_lk is its population share.  The data pin
down only the two arm-wise mediator marginals, so theta is generally
partially identified.  This module encodes restriction polyhedra
``{B theta <= c}`` (monotonicity, defier budgets, elementwise order,
bounded mediator movement, or custom rows), assembles the identified set as
linear constraints over the K^2 shares, and computes extremal shares by LP,
with a closed-form cross-check and, in the totally-ordered monotone case,
the allocation that attains every minimum at once: the quantile coupling of
:func:`_northwest_corner`, the one coupling rule here and in ``sharpcons``.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    IdentificationError,
    SolverFailureError,
    StructuralError,
    UnsupportedCaseError,
)
from .linprog import OPTIMAL, FeasibleSet, LinearProgram
from .probtab import DistTable, MediatorSupport

MONOTONE = "monotone"
DEFIER_BUDGET = "defier_budget"
ELEMENTWISE = "elementwise"
ELEMENTWISE_DEFIER_BUDGET = "elementwise_defier_budget"
BOUNDED_EFFECT = "bounded_effect"
UNRESTRICTED = "unrestricted"
CUSTOM = "custom"
# order restrictions that a defier budget relaxes
ORDER_KINDS = (MONOTONE, DEFIER_BUDGET, ELEMENTWISE, ELEMENTWISE_DEFIER_BUDGET)


def _flat(l, k, K):
    return l * K + k


def _non_elementwise_cells(support: MediatorSupport):
    """Cells (l, k) with m_l not elementwise <= m_k; on a totally ordered
    scalar support these are the defier cells, m_l > m_k."""
    K = support.k
    return [
        (l, k)
        for l in range(K)
        for k in range(K)
        if not support.elementwise_leq(l, k)
    ]


def _defier_cells(support: MediatorSupport):
    if not support.totally_ordered:
        raise UnsupportedCaseError("defier cells need a totally ordered scalar mediator")
    return _non_elementwise_cells(support)


def _indicator_row(cells, K):
    row = np.zeros(K * K)
    for l, k in cells:
        row[_flat(l, k, K)] = 1.0
    return row


def _northwest_corner(a, b):
    """The northwest-corner rule (Dantzig, 1951): the quantile coupling of
    the masses ``a`` over rows and ``b`` over columns, of one total.

    Returns ``(l, k, down, mass)``: the walk's cells ``(l[i], k[i])`` from
    (0, 0) to the far corner, whether each step goes down, and each cell's
    mass.  A cumulative cut of ``a`` steps down, one of ``b`` right, and at
    a tie right first; a cell's mass is the gap between its two cuts.
    """
    ca, cb = np.cumsum(a), np.cumsum(b)
    cuts = np.concatenate([cb[:-1], ca[:-1]])
    order = np.argsort(cuts, kind="stable")  # ties: b's cuts, the steps right, first
    down = order >= len(b) - 1
    l = np.concatenate([[0], np.cumsum(down)])
    k = np.arange(l.size) - l  # each step moves one row or one column
    # the walk ends at the larger total, which no cut of a running sum exceeds
    ends = np.concatenate([[0.0], cuts[order], [max(ca[-1], cb[-1])]])
    return l, k, down, ends[1:] - ends[:-1]


@dataclass(frozen=True)
class RestrictionSet:
    """Polyhedron ``{theta : B theta <= c}`` over the K^2 type shares.

    Combined everywhere with the simplex (theta >= 0, marginals matching),
    so equality-to-zero restrictions are encoded as single ``<= 0`` rows.
    ``matrix`` is the public statement; the LPs and moment systems read it
    through :func:`share_polytope`, where such rows become pinned cells.
    """

    kind: str
    matrix: np.ndarray
    rhs: np.ndarray
    n_support: int
    params: tuple = ()

    def __post_init__(self):
        B = np.asarray(self.matrix, dtype=float).reshape(-1, self.n_support**2)
        c = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if c.shape[0] != B.shape[0]:
            raise StructuralError("restriction matrix and rhs disagree on row count")
        bad = ~(np.isfinite(B).all(axis=1) & np.isfinite(c))
        if bad.any():
            raise StructuralError(f"restriction {self.kind} has a NaN or infinite entry "
                                  f"in row {bad.argmax() + 1} of {c.size}")
        object.__setattr__(self, "matrix", B)
        object.__setattr__(self, "rhs", c)

    # -- constructors ------------------------------------------------------
    @classmethod
    def _pins(cls, kind, cells, K):
        """One ``theta_lk <= 0`` row per cell (l, k)."""
        return cls(kind, np.eye(K * K)[[_flat(l, k, K) for l, k in cells]], np.zeros(len(cells)), K)

    @classmethod
    def _budget(cls, kind, cells, K, dbar, *params):
        """Summed share of ``cells`` at most ``dbar``; ``params`` precede it
        in the label."""
        if not 0 <= dbar < np.inf:
            raise StructuralError(f"defier budget must be finite and nonnegative, got {dbar}")
        return cls(kind, _indicator_row(cells, K)[None, :], np.array([float(dbar)]), K,
                   (*params, float(dbar)))

    @classmethod
    def monotone(cls, support: MediatorSupport):
        """No defiers: theta_lk = 0 whenever m_l > m_k (scalar order)."""
        return cls._pins(MONOTONE, _defier_cells(support), support.k)

    @classmethod
    def defier_budget(cls, support: MediatorSupport, dbar: float):
        """Total defier share at most ``dbar``."""
        return cls._budget(DEFIER_BUDGET, _defier_cells(support), support.k, dbar)

    @classmethod
    def elementwise_monotone(cls, support: MediatorSupport):
        """theta_lk = 0 unless every coordinate of m_l is <= that of m_k."""
        return cls._pins(ELEMENTWISE, _non_elementwise_cells(support), support.k)

    @classmethod
    def elementwise_defier_budget(cls, support: MediatorSupport, dbar: float):
        return cls._budget(ELEMENTWISE_DEFIER_BUDGET, _non_elementwise_cells(support), support.k,
                           dbar)

    @classmethod
    def partial_order_monotone(cls, support: MediatorSupport, leq):
        """theta_lk = 0 unless ``leq[l, k]`` under a user-declared order."""
        K = support.k
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (K, K):
            raise StructuralError("comparison table must be K x K")
        return cls._pins(ELEMENTWISE, [(l, k) for l in range(K) for k in range(K)
                                       if not leq[l, k] and l != k], K)

    @classmethod
    def bounded_effect(cls, support: MediatorSupport, kappa: float, dbar: float):
        """At most ``dbar`` of the population moves the mediator by more
        than ``kappa`` in Euclidean norm."""
        if not (0 <= dbar < np.inf and 0 <= kappa < np.inf):
            raise StructuralError(
                f"kappa and dbar must be finite and nonnegative, got {kappa} and {dbar}")
        K = support.k
        cells = [(l, k) for l in range(K) for k in range(K) if support.distance(l, k) > kappa]
        return cls._budget(BOUNDED_EFFECT, cells, K, dbar, float(kappa))

    @classmethod
    def unrestricted(cls, support: MediatorSupport):
        K = support.k
        return cls(UNRESTRICTED, np.zeros((0, K * K)), np.zeros(0), K)

    @classmethod
    def custom(cls, support: MediatorSupport, matrix, rhs):
        return cls(CUSTOM, matrix, rhs, support.k)


@dataclass(frozen=True)
class IdentifiedSetSpec:
    """Linear description of the identified set for the type shares.

    ``eq_matrix`` / ``eq_rhs`` state, over all K^2 shares, that row sums
    match the control-arm mediator marginal and column sums the treated-arm
    marginal; ``restriction`` adds its rows.  ``polytope`` is the
    restriction's :func:`share_polytope`: the LPs of :meth:`lp` run over
    its free cells only, and :meth:`point` maps their points back to the
    K^2 shares.  ``feasible_set`` is the :class:`FeasibleSet` of those
    constraints, built when it is first read (by :attr:`feasible` or
    :meth:`minimize`): phase 1 runs at most once per identified set, and
    not at all for a spec that only builds programs with :meth:`lp`, as
    :func:`bounds.robustness_curve` does where its feasibility rule allows.
    :meth:`minimize` solves every objective over it.

    Every program of :meth:`lp` (the set's own, the slack, pooled and
    breakdown programs and the robustness curve's points) starts phase 1
    at :attr:`quantile_start`, the quantile coupling of ``p0`` and ``p1``,
    where the restriction leaves that coupling's cells free: phase 1 then
    has only the inequality rows the coupling violates left to fix.
    """

    support: MediatorSupport
    p0: np.ndarray
    p1: np.ndarray
    restriction: RestrictionSet
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    polytope: tuple

    @cached_property
    def feasible_set(self):
        return FeasibleSet(self.lp(np.zeros(self.k**2)))

    @cached_property
    def quantile_start(self):
        """The ``start`` hint of :meth:`lp`: the cells of the northwest-corner
        walk of ``p0`` over ``p1`` (:func:`_northwest_corner`).  A cell the
        walk leaves down is basic in row-sum row l, one it leaves right in
        column-sum row K + k, and the last cell in row K - 1; the redundant
        row 2K - 1 keeps its artificial.  None when the walk reaches a
        pinned cell, as it does when the marginals violate monotonicity.
        Ties go right: where the cumulative masses tie, a step down from
        (k, k) would enter a defier cell, which monotonicity pins, and the
        tied cell carries no mass either way."""
        K = self.k
        l, k, down, _ = _northwest_corner(self.p0, self.p1)
        free = np.full(K * K, -1)
        free[self.polytope[0]] = np.arange(self.polytope[0].size)
        var = free[_flat(l, k, K)]
        if (var < 0).any():
            return None
        start = np.full(2 * K, -1)
        start[np.append(np.where(down, l[:-1], K + k[:-1]), K - 1)] = var
        return start

    @property
    def k(self):
        return self.support.k

    @property
    def feasible(self):
        return self.feasible_set.feasible

    def columns(self, n):
        """Indices, among ``n`` = K^2 + extra columns, of the variables of
        :meth:`lp`: the free cells, then the extra columns."""
        return np.r_[self.polytope[0], self.k**2:n]

    def lp(self, objective, extra_ub=None, extra_ub_rhs=None, extra_bounds=()) -> LinearProgram:
        """LP over theta, then one trailing variable per ``extra_bounds``
        pair, with the identified-set constraints baked in.  ``objective``
        and the ``extra_ub`` rows span all K^2 + len(extra_bounds) columns;
        the program keeps those of :meth:`columns`, and :meth:`point` maps
        its points back."""
        free, eq, ub, rhs = self.polytope
        pad = len(extra_bounds)
        cols = self.columns(self.k**2 + pad)
        ub = np.hstack([ub, np.zeros((ub.shape[0], pad))])
        if extra_ub is not None:
            ub = np.vstack([ub, np.asarray(extra_ub, dtype=float)[:, cols]])
            rhs = np.concatenate([rhs, extra_ub_rhs])
        return LinearProgram(
            objective=np.asarray(objective, dtype=float)[cols],
            eq_matrix=np.hstack([eq, np.zeros((eq.shape[0], pad))]),
            eq_rhs=self.eq_rhs,
            ub_matrix=ub,
            ub_rhs=rhs,
            bounds=((0.0, np.inf),) * free.size + tuple(extra_bounds),
            start=self.quantile_start,
        )

    def point(self, x):
        """A point of an :meth:`lp` program over all K^2 shares (pinned
        cells at zero), followed by its extra variables."""
        out = np.zeros(x.size + self.k**2 - self.polytope[0].size)
        out[self.columns(out.size)] = x
        return out

    def minimize(self, objective):
        """Minimize ``objective``, over all K^2 shares, on the identified
        set; the solution's point is over the free cells (see :meth:`point`)."""
        cols = self.columns(self.k**2)
        return self.feasible_set.minimize(np.asarray(objective, dtype=float)[cols])


def marginal_equalities(support: MediatorSupport, p0, p1):
    K = support.k
    cells = np.arange(K * K).reshape(K, K)
    A = np.zeros((2 * K, K * K))
    A[np.arange(K)[:, None], cells] = 1.0  # row sums: M(0) marginal
    A[np.arange(K, 2 * K)[:, None], cells.T] = 1.0  # column sums: M(1) marginal
    return A, np.concatenate([p0, p1])


def share_polytope(support: MediatorSupport, r: RestrictionSet):
    """``(free, eq_matrix, ub_matrix, ub_rhs)``: the type-share polytope
    ``{theta >= 0 : eq_matrix theta = (p0, p1), ub_matrix theta <= ub_rhs}``
    over the flat cells ``free`` that ``r`` does not pin at zero.

    A row with nonnegative coefficients on the free cells and rhs 0 holds,
    as theta >= 0, only with its positive cells at zero: it pins them and
    is dropped.  Pinning a cell can make another row such a row (theta_02
    - theta_01 <= 0 once theta_01 is pinned), so pins are found until no
    row pins a free cell.  ``eq_matrix`` holds the control-arm row sums,
    then the column sums.
    """
    K = support.k
    free = np.ones(K * K, dtype=bool)
    while True:
        on_free = np.where(free, r.matrix, 0.0)
        pins = (on_free >= 0).all(axis=1) & (r.rhs == 0)
        pinned = (on_free[pins] > 0).any(axis=0)
        if not pinned.any():
            break
        free &= ~pinned
    free = np.flatnonzero(free)
    eq, _ = marginal_equalities(support, np.zeros(K), np.zeros(K))
    return free, eq[:, free], r.matrix[~pins][:, free], r.rhs[~pins]


def build_identified_set(table: DistTable, r: RestrictionSet) -> IdentifiedSetSpec:
    """Assemble the identified set for the type shares behind ``table``.

    Emptiness is a status on the returned spec (``feasible``), not an
    exception.
    """
    support = table.support
    if r.n_support != support.k:
        raise StructuralError(
            f"restriction built for K={r.n_support} but support has K={support.k}"
        )
    p0 = table.marginal_m(0)
    p1 = table.marginal_m(1)
    A, b = marginal_equalities(support, p0, p1)
    return IdentifiedSetSpec(support, p0, p1, r, A, b, share_polytope(support, r))


def min_defier_budget(spec: IdentifiedSetSpec) -> float:
    """Smallest total defier mass compatible with the marginals alone.

    This is the minimal ``dbar`` for which ``defier_budget(dbar)`` makes
    the identified set nonempty; it is the suggestion attached to
    infeasibility errors under monotonicity.  An unrestricted ``spec`` is
    already the marginals-only set, and its feasible set is reused.
    """
    marginals_only = spec
    if spec.restriction.kind != UNRESTRICTED:
        u = RestrictionSet.unrestricted(spec.support)
        marginals_only = replace(spec, restriction=u, polytope=share_polytope(spec.support, u))
    sol = marginals_only.minimize(_indicator_row(_non_elementwise_cells(spec.support), spec.k))
    if sol.status != OPTIMAL:  # pragma: no cover - marginals always couple
        raise SolverFailureError("defier-budget probe LP failed")
    return max(float(sol.value), 0.0)


def _require_feasible(spec: IdentifiedSetSpec):
    if not spec.feasible:
        suggestion = None
        if spec.restriction.kind in ORDER_KINDS:
            suggestion = min_defier_budget(spec)
        msg = "identified set is empty under the declared restriction"
        if suggestion is not None:
            msg += f"; smallest feasible defier budget is {suggestion:.6g}"
        raise IdentificationError(msg, min_dbar=suggestion)


def closed_form_theta_min(p0, p1, k: int) -> float:
    """Minimal k-always-taker share under a totally ordered monotone mediator.

    ``P(M=m_k | D=1)`` minus the capped treatment effect on the survival
    function at m_k, floored at zero.
    """
    s1 = float(np.sum(p1[k:]))
    s0 = float(np.sum(p0[k:]))
    return float(p1[k] - min(p1[k], s1 - s0))


def theta_kk_min(spec: IdentifiedSetSpec, k: int) -> float:
    """``inf theta_kk`` over the identified set (LP; closed-form checked)."""
    if not 0 <= k < spec.k:
        raise StructuralError(f"mediator index {k} out of range")
    _require_feasible(spec)
    obj = np.zeros(spec.k**2)
    obj[_flat(k, k, spec.k)] = 1.0
    sol = spec.minimize(obj)
    if sol.status != OPTIMAL:
        raise SolverFailureError("theta_kk minimization did not solve")
    value = float(max(sol.value, 0.0))
    if spec.support.totally_ordered and spec.restriction.kind == MONOTONE:
        closed = closed_form_theta_min(spec.p0, spec.p1, k)
        if abs(closed - value) > 1e-7:
            raise SolverFailureError(
                f"LP theta_kk^min {value} disagrees with closed form {closed}"
            )
    return value


def max_type_share(spec: IdentifiedSetSpec, cells) -> float:
    """``sup`` of the summed share over ``cells`` (pairs (l, k)) on the set."""
    _require_feasible(spec)
    obj = -_indicator_row(list(cells), spec.k)
    sol = spec.minimize(obj)
    if sol.status != OPTIMAL:
        raise SolverFailureError("type-share maximization did not solve")
    return float(min(max(-sol.value, 0.0), 1.0))


def joint_theta_min_exists(spec: IdentifiedSetSpec) -> np.ndarray:
    """Explicit allocation hitting every diagonal minimum simultaneously.

    Only defined for a totally ordered mediator under monotonicity, where
    the quantile coupling of the marginals (:func:`_northwest_corner`)
    pushes as much mass as possible down the complier chain.  The result is
    verified to lie in the identified set and to attain the closed-form
    minimum at every k.
    """
    if not (spec.support.totally_ordered and spec.restriction.kind == MONOTONE):
        raise UnsupportedCaseError(
            "joint minimal allocation requires an ordered mediator with monotonicity"
        )
    _require_feasible(spec)
    K = spec.k
    p0, p1 = spec.p0, spec.p1
    rows, cols, _, mass = _northwest_corner(p0, p1)
    theta = np.zeros((K, K))
    theta[rows, cols] = mass
    _verify_in_identified_set(spec, theta)
    for k in range(K):
        closed = closed_form_theta_min(p0, p1, k)
        if abs(theta[k, k] - closed) > 1e-9:
            raise SolverFailureError("the quantile coupling missed a diagonal minimum")
    return theta


def _verify_in_identified_set(spec: IdentifiedSetSpec, theta, tol=1e-9):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.k, spec.k):
        raise StructuralError("theta must be K x K")
    flat = theta.reshape(-1)
    if flat.min() < -tol:
        raise IdentificationError("allocation has negative shares")
    resid = spec.eq_matrix @ flat - spec.eq_rhs
    if np.abs(resid).max() > tol:
        raise IdentificationError("allocation does not match the mediator marginals")
    if spec.restriction.matrix.shape[0]:
        slack = spec.restriction.matrix @ flat - spec.restriction.rhs
        if slack.max() > tol:
            raise IdentificationError("allocation violates the restriction set")
    return True


def theta_in_identified_set(spec: IdentifiedSetSpec, theta, tol=1e-9) -> bool:
    """True iff the K x K allocation satisfies all identified-set constraints."""
    try:
        return _verify_in_identified_set(spec, theta, tol)
    except IdentificationError:
        return False
