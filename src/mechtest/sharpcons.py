"""Constructive sharpness oracle.

Given an observable table and any feasible type-share allocation, this
module builds an explicit primitive distribution over potential outcomes
and mediators that (a) reproduces the observable table exactly, (b) gives
compliers and off-support mediator arguments zero treatment response, and
(c) makes the share of responding k-always-takers exactly
``eta_k / theta_kk``.  Its existence is what makes the lower bounds sharp,
so round-tripping through :func:`verify_consistency` is the executable form
of that claim.

Everything is finite and discrete, so the density algebra of the general
argument becomes exact pmf arithmetic over the outcome grid.  Four cases
per mediator value: no always-takers at all; an excess with disjoint arm
supports; an excess with overlapping supports (a two-component mixture for
the always-takers); and no excess (always-takers sit on the overlap
density, scaled compliers absorb the rest).

``PrimitiveDistribution.joints`` is one ``(K, K, K, Q, Q)`` array:
``joints[l, k, c]`` is the joint pmf of ``(Y(1, m_c), Y(0, m_c))`` given
type lk, treated outcome by row and untreated by column.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .probtab import DistTable
from .typeshares import _northwest_corner, marginal_equalities

_TOL = 1e-12


@dataclass(frozen=True)
class Coupling:
    """Joint pmf over (Y, Y') with prescribed marginals."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise StructuralError("coupling matrix must be square")
        if m.min() < -_TOL:
            raise StructuralError("coupling has negative mass")
        object.__setattr__(self, "matrix", m)

    @property
    def row_marginal(self):
        return self.matrix.sum(axis=1)

    @property
    def col_marginal(self):
        return self.matrix.sum(axis=0)

    @property
    def disagreement(self):
        off = self.matrix[~np.eye(self.matrix.shape[0], dtype=bool)].sum()
        return float(max(off, 0.0))


def _check_pmf(f, name):
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise StructuralError(f"{name} must be a vector")
    if f.min() < -1e-10 or abs(f.sum() - 1.0) > 1e-8:
        raise StructuralError(f"{name} is not a proper pmf")
    return np.clip(f, 0.0, None)


def tv_distance(f, g):
    """Total variation distance and a minimal-disagreement coupling.

    Returns ``(tv, Coupling)`` where the coupling keeps ``min(f, g)`` on the
    diagonal and couples the two excesses off it by the northwest-corner
    rule, so its off-diagonal mass equals the TV distance exactly.
    """
    f = _check_pmf(f, "f")
    g = _check_pmf(g, "g")
    if f.shape != g.shape:
        raise StructuralError("pmfs live on different grids")
    overlap = np.minimum(f, g)
    tv = float(np.clip(f - g, 0.0, None).sum())
    # the excesses sit on disjoint cells, so the walk puts no mass on the diagonal
    l, k, _, mass = _northwest_corner(f - overlap, g - overlap)
    mat = np.diag(overlap)
    mat[l, k] += mass
    return tv, Coupling(mat)


@dataclass(frozen=True)
class PrimitiveDistribution:
    """Explicit distribution over types and potential outcomes.

    ``joints[l, k, c]`` is the joint pmf of ``(Y(1, m_c), Y(0, m_c))``
    given type (l, k), over the outcome grid; the treatment indicator is
    independent of everything by construction.
    """

    support: object
    outcome_levels: tuple
    theta: np.ndarray
    joints: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        K = theta.shape[0]
        if theta.shape != (K, K) or theta.min() < -1e-10 or abs(theta.sum() - 1.0) > 1e-8:
            raise StructuralError("type shares are not a proper simplex point")
        q = len(self.outcome_levels)
        joints = np.asarray(self.joints, dtype=float)
        if joints.shape != (K, K, K, q, q):
            raise StructuralError(f"joints has shape {joints.shape}, not (K, K, K, Q, Q) = "
                                  f"{(K, K, K, q, q)}")
        bad = (joints.min(axis=(-2, -1)) < -1e-10) | (
            np.abs(joints.sum(axis=(-2, -1)) - 1.0) > 1e-8)
        if bad.any():
            l, k, c = np.argwhere(bad)[0]
            raise StructuralError(f"joint for type ({l}, {k}) at coordinate {c} is not a pmf")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "joints", joints)


def _normalized(f):
    """Each row of ``f`` over its sum, or degenerate at the lowest grid point without mass."""
    total = f.sum(axis=-1, keepdims=True)
    lowest = np.zeros_like(f)
    lowest[..., 0] = 1.0
    return np.where(total > _TOL, f / np.where(total > _TOL, total, 1.0), lowest)


def _theta_for(table: DistTable, theta):
    """``theta`` as a float array, checked to be K x K for ``table``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (table.n_mediators,) * 2:
        raise StructuralError(f"theta has shape {theta.shape}, but the table has "
                              f"K={table.n_mediators}")
    return theta


def _excess(table: DistTable, theta):
    """``eta_k = (delta_sup_k - complier mass into k)_+`` at each k."""
    t = np.diag(theta)
    gap = np.clip(table.mass[1] - table.mass[0], 0.0, None).sum(axis=1)
    return np.maximum(gap - (theta.sum(axis=0) - t), 0.0)


def construct_sharp_distribution(table: DistTable, theta) -> PrimitiveDistribution:
    """Build a primitive distribution matching ``table`` with shares ``theta``.

    ``theta`` must satisfy the marginal-matching equalities of the table
    (checked; violations raise ``StructuralError`` naming the constraint).
    The always-taker disagreement at each k equals
    ``(gap_k - complier mass into k)_+ / theta_kk``; compliers and
    off-support coordinates never respond.  Free copulas are fixed to the
    diagonal (comonotone) choice, and off-support coordinates are
    degenerate at the lowest grid point.
    """
    K = table.n_mediators
    Q = table.n_outcomes
    theta = _theta_for(table, theta)
    A, b = marginal_equalities(table.support, table.marginal_m(0), table.marginal_m(1))
    resid = A @ theta.reshape(-1) - b
    if theta.min() < -1e-9 or np.abs(resid).max() > 1e-9:
        bad = int(np.abs(resid).argmax())
        raise StructuralError(
            f"theta is outside the identified set (marginal constraint {bad}, "
            f"residual {resid[bad]:+.3g})"
        )
    # Outcome pmfs at coordinate k, control arm then treated: own[k] of
    # (Y(0, m_k), Y(1, m_k)) given G = kk, with own_joint[k] their coupling;
    # other[k] of Y(0, m_k) given G = kl and of Y(1, m_k) given G = lk, l != k.
    own, other = np.empty((2, K, 2, Q))
    own_joint = np.empty((K, Q, Q))
    eta = _excess(table, theta)
    for k in range(K):
        f = table.mass[:, k]
        t_kk = theta[k, k]
        fmin = np.minimum(f[1], f[0])
        if t_kk <= _TOL or (eta[k] > _TOL and fmin.sum() <= _TOL):
            # No always-takers, or an excess with disjoint arm supports:
            # every type shares the raw conditional distribution.
            own[k] = other[k] = _normalized(f)
        elif eta[k] > _TOL and (f[0] - fmin).sum() > _TOL:
            nu_star = min(eta[k] / t_kk, 1.0)
            fmin_n = fmin / fmin.sum()
            other[k] = _normalized(f - fmin)
            own[k] = (1 - nu_star) * fmin_n + nu_star * other[k]
        else:
            # No excess: always-takers sit on the normalized overlap.
            own[k] = fmin / fmin.sum()
            other[k] = _normalized(np.clip(f - t_kk * own[k], 0.0, None))
        # a zero-mass type may take any proper joint: tv_distance(f, f) is diag(f)
        own_joint[k] = tv_distance(own[k, 1], own[k, 0] if t_kk > _TOL else own[k, 1])[1].matrix
    joints = np.zeros((K, K, K, Q, Q))
    joints[..., 0, 0] = 1.0  # off-support coordinates
    l, k = np.nonzero(~np.eye(K, dtype=bool))
    eye = np.eye(Q)
    joints[l, k, k] = other[k, 1, :, None] * eye  # lk at m_k: Y(1) given lk, Y(0) equal to it
    joints[l, k, l] = other[l, 0, :, None] * eye  # lk at m_l: Y(0) given lk, Y(1) equal to it
    d = np.arange(K)
    joints[d, d, d] = own_joint
    return PrimitiveDistribution(
        support=table.support,
        outcome_levels=table.outcome_levels,
        theta=theta,
        joints=joints,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Cellwise comparison of a primitive distribution to a table."""

    max_abs_deviation: float
    implied_mass: np.ndarray
    disagreement: tuple
    complier_disagreement: float


def verify_consistency(p: PrimitiveDistribution, table: DistTable) -> ConsistencyReport:
    """Marginalize ``p`` back to observables and compare cellwise.

    Also reports the per-k always-taker disagreement probabilities and the
    largest disagreement across complier types and off-support coordinates
    (which should be exactly zero by construction).
    """
    K, Q = p.theta.shape[0], len(p.outcome_levels)
    if (K, Q) != (table.n_mediators, table.n_outcomes):
        raise StructuralError(f"the distribution has K={K}, Q={Q}, but the table has "
                              f"K={table.n_mediators}, Q={table.n_outcomes}")
    d = np.arange(K)
    # joints[k, l, k]: type kl at its untreated value m_k; joints[l, k, k]: lk at its treated one
    implied = np.stack([
        (p.theta[:, :, None] * p.joints[d, :, d].sum(axis=-2)).sum(axis=1),
        (p.theta[:, :, None] * p.joints[:, d, d].sum(axis=-1)).sum(axis=0),
    ])
    dev = float(np.abs(implied - table.mass).max())
    off = np.maximum(p.joints[..., ~np.eye(Q, dtype=bool)].sum(axis=-1), 0.0)
    disagreement = tuple(float(v) for v in off[d, d, d])
    off[d, d, d] = 0.0  # only the always-takers at their own value may respond
    return ConsistencyReport(
        max_abs_deviation=dev,
        implied_mass=implied,
        disagreement=disagreement,
        complier_disagreement=float(off.max()),
    )


def eta_over_theta(table: DistTable, theta) -> np.ndarray:
    """Target always-taker disagreement ``eta_k / theta_kk`` (0 when empty)."""
    theta = _theta_for(table, theta)
    t = np.diag(theta)
    held = t > _TOL
    return np.where(held, _excess(table, theta) / np.where(held, t, 1.0), 0.0)
