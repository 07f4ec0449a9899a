"""Restrictions on mediator type shares and the identified set they induce.

A "type" lk is the joint event that the mediator would sit at support point
l untreated and k treated; theta_lk is its population share.  The data pin
down only the two arm-wise mediator marginals, so theta is generally
partially identified.  This module encodes restriction polyhedra
``{B theta <= c}`` (monotonicity, defier budgets, elementwise order,
bounded mediator movement, or custom rows), assembles the identified set as
linear constraints over the K^2 shares, and computes extremal shares by LP,
with a closed-form cross-check and an explicit cascade allocation in the
totally-ordered monotone case.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    IdentificationError,
    SolverFailureError,
    StructuralError,
    UnsupportedCaseError,
)
from .linprog import OPTIMAL, LinearProgram, solve_lp
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


@dataclass(frozen=True)
class RestrictionSet:
    """Polyhedron ``{theta : B theta <= c}`` over the K^2 type shares.

    Combined everywhere with the simplex (theta >= 0, marginals matching),
    so equality-to-zero restrictions are encoded as single ``<= 0`` rows.
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
        object.__setattr__(self, "matrix", B)
        object.__setattr__(self, "rhs", c)

    # -- constructors ------------------------------------------------------
    @classmethod
    def monotone(cls, support: MediatorSupport):
        """No defiers: theta_lk = 0 whenever m_l > m_k (scalar order)."""
        cells = _defier_cells(support)
        K = support.k
        B = np.array([_indicator_row([c], K) for c in cells]).reshape(len(cells), K * K)
        return cls(MONOTONE, B, np.zeros(len(cells)), K)

    @classmethod
    def defier_budget(cls, support: MediatorSupport, dbar: float):
        """Total defier share at most ``dbar``."""
        if not 0 <= dbar < np.inf:
            raise StructuralError(f"defier budget must be finite and nonnegative, got {dbar}")
        K = support.k
        row = _indicator_row(_defier_cells(support), K)
        return cls(DEFIER_BUDGET, row[None, :], np.array([float(dbar)]), K, (float(dbar),))

    @classmethod
    def elementwise_monotone(cls, support: MediatorSupport):
        """theta_lk = 0 unless every coordinate of m_l is <= that of m_k."""
        K = support.k
        cells = _non_elementwise_cells(support)
        B = np.array([_indicator_row([c], K) for c in cells]).reshape(len(cells), K * K)
        return cls(ELEMENTWISE, B, np.zeros(len(cells)), K)

    @classmethod
    def elementwise_defier_budget(cls, support: MediatorSupport, dbar: float):
        if not 0 <= dbar < np.inf:
            raise StructuralError(f"defier budget must be finite and nonnegative, got {dbar}")
        K = support.k
        row = _indicator_row(_non_elementwise_cells(support), K)
        return cls(
            ELEMENTWISE_DEFIER_BUDGET, row[None, :], np.array([float(dbar)]), K, (float(dbar),)
        )

    @classmethod
    def partial_order_monotone(cls, support: MediatorSupport, leq):
        """theta_lk = 0 unless ``leq[l, k]`` under a user-declared order."""
        K = support.k
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (K, K):
            raise StructuralError("comparison table must be K x K")
        cells = [(l, k) for l in range(K) for k in range(K) if not leq[l, k] and l != k]
        B = np.array([_indicator_row([c], K) for c in cells]).reshape(len(cells), K * K)
        return cls(ELEMENTWISE, B, np.zeros(len(cells)), K)

    @classmethod
    def bounded_effect(cls, support: MediatorSupport, kappa: float, dbar: float):
        """At most ``dbar`` of the population moves the mediator by more
        than ``kappa`` in Euclidean norm."""
        if not (0 <= dbar < np.inf and 0 <= kappa < np.inf):
            raise StructuralError(
                f"kappa and dbar must be finite and nonnegative, got {kappa} and {dbar}")
        K = support.k
        cells = [
            (l, k)
            for l in range(K)
            for k in range(K)
            if support.distance(l, k) > kappa
        ]
        row = _indicator_row(cells, K)
        return cls(
            BOUNDED_EFFECT, row[None, :], np.array([float(dbar)]), K,
            (float(kappa), float(dbar)),
        )

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

    Equalities: row sums match the control-arm mediator marginal and column
    sums match the treated-arm marginal.  Inequalities come from the
    restriction set; theta >= 0 is handled through variable bounds.
    """

    support: MediatorSupport
    p0: np.ndarray
    p1: np.ndarray
    restriction: RestrictionSet
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    feasible: bool
    farkas: np.ndarray = None

    @property
    def k(self):
        return self.support.k

    def lp(self, objective, extra_ub=None, extra_ub_rhs=None, extra_bounds=()) -> LinearProgram:
        """LP over theta, then one trailing variable per ``extra_bounds``
        pair, with the identified-set constraints baked in; ``extra_ub``
        rows span all the variables."""
        pad = len(extra_bounds)
        ub = np.hstack([self.restriction.matrix, np.zeros((self.restriction.matrix.shape[0], pad))])
        rhs = self.restriction.rhs
        if extra_ub is not None:
            ub = np.vstack([ub, extra_ub])
            rhs = np.concatenate([rhs, extra_ub_rhs])
        return LinearProgram(
            objective=objective,
            eq_matrix=np.hstack([self.eq_matrix, np.zeros((self.eq_matrix.shape[0], pad))]),
            eq_rhs=self.eq_rhs,
            ub_matrix=ub,
            ub_rhs=rhs,
            bounds=((0.0, np.inf),) * self.k**2 + tuple(extra_bounds),
        )


def marginal_equalities(support: MediatorSupport, p0, p1):
    K = support.k
    A = np.zeros((2 * K, K * K))
    b = np.empty(2 * K)
    for k in range(K):
        for l in range(K):
            A[k, _flat(k, l, K)] = 1.0  # row sums: M(0) marginal
            A[K + k, _flat(l, k, K)] = 1.0  # column sums: M(1) marginal
        b[k] = p0[k]
        b[K + k] = p1[k]
    return A, b


def build_identified_set(table: DistTable, r: RestrictionSet) -> IdentifiedSetSpec:
    """Assemble the identified set for the type shares behind ``table``.

    Emptiness is a cached status on the returned spec, not an exception.
    """
    support = table.support
    if r.n_support != support.k:
        raise StructuralError(
            f"restriction built for K={r.n_support} but support has K={support.k}"
        )
    p0 = table.marginal_m(0)
    p1 = table.marginal_m(1)
    A, b = marginal_equalities(support, p0, p1)
    spec = IdentifiedSetSpec(support, p0, p1, r, A, b, feasible=False)
    probe = solve_lp(spec.lp(np.zeros(support.k**2)))
    return replace(spec, feasible=probe.status == OPTIMAL, farkas=probe.farkas)


def min_defier_budget(spec: IdentifiedSetSpec) -> float:
    """Smallest total defier mass compatible with the marginals alone.

    This is the minimal ``dbar`` for which ``defier_budget(dbar)`` makes
    the identified set nonempty; it is the suggestion attached to
    infeasibility errors under monotonicity.
    """
    marginals_only = replace(spec, restriction=RestrictionSet.unrestricted(spec.support))
    sol = solve_lp(marginals_only.lp(_indicator_row(_non_elementwise_cells(spec.support), spec.k)))
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
    sol = solve_lp(spec.lp(obj))
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
    sol = solve_lp(spec.lp(obj))
    if sol.status != OPTIMAL:
        raise SolverFailureError("type-share maximization did not solve")
    return float(min(max(-sol.value, 0.0), 1.0))


def joint_theta_min_exists(spec: IdentifiedSetSpec) -> np.ndarray:
    """Explicit allocation hitting every diagonal minimum simultaneously.

    Only defined for a totally ordered mediator under monotonicity, where
    the recursive cascade construction pushes as much mass as possible down
    the complier chain.  The result is verified to lie in the identified
    set and to attain the closed-form minimum at every k.
    """
    if not (spec.support.totally_ordered and spec.restriction.kind == MONOTONE):
        raise UnsupportedCaseError(
            "joint minimal allocation requires an ordered mediator with monotonicity"
        )
    _require_feasible(spec)
    K = spec.k
    p0, p1 = spec.p0, spec.p1
    theta = np.zeros((K, K))
    for k in range(K):
        s_te = float(np.sum(p1[k:]) - np.sum(p0[k:]))
        need = min(p1[k], s_te)  # complier mass the column must absorb
        theta[k, k] = p1[k] - need
        for l in range(k):
            assigned = theta[:l, k].sum()
            if assigned >= need - 1e-15:
                theta[l, k] = 0.0
            else:
                theta[l, k] = min(
                    need - assigned,
                    p0[l] - theta[l, :k].sum(),
                )
        # numeric guard: shares are probabilities
        theta[:, k] = np.clip(theta[:, k], 0.0, None)
    _verify_in_identified_set(spec, theta)
    for k in range(K):
        closed = closed_form_theta_min(p0, p1, k)
        if abs(theta[k, k] - closed) > 1e-9:
            raise SolverFailureError("cascade allocation missed a diagonal minimum")
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
