"""Finite-sample tests of the full-mediation null via moment inequalities.

The null is expressed as ``exists omega >= 0 with C1 omega - C2 p >= 0 and
E1 omega = E2 p``, where p stacks the conditional cell probabilities
``P(Y=y_q, M=m_k | arm)`` and the mediator marginals, and omega holds the
type shares the restriction leaves free plus one auxiliary coordinate per
(mediator, outcome) cell that linearizes the positive-part gap.  Two tests
are provided:

* a least-favorable nonparametric bootstrap of the studentized max
  statistic (conservative but fully specified), and
* a conditional chi-squared test whose statistic is a minimized quadratic
  form and whose degrees of freedom come from the gradients of the rows
  that bind on the whole optimal face.

The type-share polytope comes from ``typeshares.share_polytope``: pinned
shares are not coordinates, omega >= 0 is a bound, and the 2K marginal
matches are equalities.  They and the restriction rows hold exactly; the
budget and gap rows are studentized with their own standard deviations.
Covariances are influence-function based at the independent-unit level
(clusters when present), so the clustered and iid paths share one formula:
a sum over unit profiles, each weighted by the units it stands for.  A
cluster is its own profile of weight 1; unit-level records (one record per
unit) are the occupied one-hot cells, each weighted by its cell count, so
no array grows with the number of records.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, gammaincinv

from .errors import EstimationError, IdentificationError, SolverFailureError, StructuralError
from .linprog import (INFEASIBLE, OPTIMAL, UNBOUNDED, FeasibleSet, LinearProgram, solve_lp,
                      solve_qp)
from .probtab import RecordSet, encode
from .rng import substreams
from .typeshares import CUSTOM, MONOTONE, RestrictionSet, share_polytope

HARD_SD_FLOOR = 1e-12
CHISQ_RIDGE = 1e-10  # added to the covariance before whitening
CELL_COUNT_FLOOR = 15

LF_BOOT = "lf-boot"
COND_CHISQ = "cond-chisq"


class CellCountWarning(UserWarning):
    """Median independent observations per cell below the reliability floor."""


@dataclass(frozen=True)
class MomentRow:
    kind: str
    k: int = None
    q: int = None
    hard: bool = False


@dataclass(frozen=True)
class MomentSystem:
    """``H0: exists omega >= 0, C1 omega - C2 p >= 0, E1 omega = E2 p`` with
    sampling metadata.

    ``rows`` labels the inequality rows of ``c1`` / ``c2``; ``e1`` / ``e2``
    hold the equality rows, which are always exact.  ``p_hat`` stacks joint
    cells for arm 1, joint cells for arm 0, then the mediator marginals for
    arms 1 and 0.  ``cluster_cells[g, d, k, q]`` counts the observations of
    unit profile g so the bootstrap can recompute ``p_hat`` under
    resampling, and ``cluster_weight[g]`` is the number of independent units
    with that profile.  With clusters, each cluster is a profile of weight
    1; with one record per unit, the profiles are the occupied one-hot
    cells (at most 2KQ) weighted by their cell counts.  ``n_eff`` is the
    number of independent units, the sum of ``cluster_weight``.
    ``cluster_arm`` is 0/1 for arm-pure profiles and -1 for clusters
    spanning both arms.  ``median_cell_count`` is
    :func:`median_cluster_cell_count` of its records.
    """

    c1: np.ndarray
    c2: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    p_hat: np.ndarray
    sigma_hat: np.ndarray
    n_eff: int
    rows: tuple
    n_outcomes: int
    cluster_cells: np.ndarray
    cluster_weight: np.ndarray
    cluster_arm: np.ndarray
    median_cell_count: float

    @property
    def n_omega(self):
        return self.c1.shape[1]

    @property
    def n_rows(self):
        return self.c1.shape[0]

    def moment_sds(self):
        """Per-row sd of sqrt(N) times the sampled part of the moment."""
        return np.sqrt(np.clip(np.einsum("ij,jk,ik->i", self.c2, self.sigma_hat, self.c2), 0.0, None))

    def hard_mask(self):
        return _hard_rows(self, self.moment_sds())


def _hard_rows(system: MomentSystem, sds):
    """Rows flagged hard, and rows whose ``moment_sds`` entry in ``sds`` is
    below ``HARD_SD_FLOOR``."""
    return np.array([r.hard or sd < HARD_SD_FLOOR for r, sd in zip(system.rows, sds)])


@dataclass(frozen=True)
class TestResult:
    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    method: str
    alpha: float
    b_draws: int = 0
    seed: int = None
    df: int = None

    def to_json_dict(self):
        out = {
            "statistic": _json_float(self.statistic),
            "critical_value": _json_float(self.critical_value),
            "p_value": self.p_value,
            "reject": self.reject,
            "method": self.method,
            "alpha": self.alpha,
            "b_draws": self.b_draws,
            "seed": self.seed,
        }
        if self.df is not None:
            out["df"] = self.df
        return out


def _json_float(x):
    if np.isposinf(x):
        return "inf"
    if np.isneginf(x):
        return "-inf"
    return float(x)


def _stacked(cells):
    """The components of p from (..., 2, K, Q) count arrays, unnormalised,
    and the arm of each: the arm-1 joint cells at ``k Q + q``, the arm-0
    ones at ``K Q + k Q + q``, then the arm-1 and arm-0 mediator marginals
    at ``2 K Q + k`` and ``2 K Q + K + k``."""
    lead, (K, Q) = cells.shape[:-3], cells.shape[-2:]
    comps = np.concatenate([cells[..., 1, :, :].reshape(lead + (-1,)),
                            cells[..., 0, :, :].reshape(lead + (-1,)),
                            cells[..., 1, :, :].sum(axis=-1),
                            cells[..., 0, :, :].sum(axis=-1)], axis=-1)
    return comps, np.repeat([1, 0, 1, 0], [K * Q, K * Q, K, K])


def p_from_cells(cells):
    """Stacked probability vectors (see :func:`_stacked`) from aggregated
    (..., 2, K, Q) count arrays: each component over its arm's total."""
    totals = cells.sum(axis=(-2, -1))  # (..., 2)
    if totals.min() <= 0:
        raise EstimationError("a treatment arm is empty")
    comps, arm = _stacked(cells)
    return comps / totals[..., arm]


def _influence_covariance(cells, weight):
    """Covariance of sqrt(G) (p_hat - p) from unit-level linearization, and
    p_hat, for ``weight[g]`` independent units of profile ``cells[g]``; G is
    the number of units.  The influence vectors are scaled by the square
    root of their weight so the outer products stay one symmetric product,
    which is exactly the unweighted one when every weight is 1."""
    G = int(weight.sum())
    totals = cells.sum(axis=(2, 3))  # (profiles, 2)
    p_hat = p_from_cells((weight[:, None, None, None] * cells).sum(axis=0))
    a, arm = _stacked(cells)
    psi = G * (a.astype(float) - p_hat[None, :] * totals[:, arm]) / (weight @ totals)[arm]
    psi *= np.sqrt(weight)[:, None]
    return (psi.T @ psi) / G, p_hat


def _unit_profiles(enc):
    """``(cells, weight)`` of an encoding's unit profiles: with one record
    per unit, each occupied cell as a one-hot (2, K, Q) array weighted by
    its count; otherwise each cluster's counts with weight 1."""
    if not enc.unit_level:
        cells = enc.cell_sums(enc.cluster_of)
        return cells, np.ones(cells.shape[0], dtype=np.int64)
    counts = enc.cell_sums().reshape(-1)
    occupied = np.flatnonzero(counts)
    cells = np.zeros((occupied.size, counts.size), dtype=np.int64)
    cells[np.arange(occupied.size), occupied] = 1
    return cells.reshape(-1, *enc.shape), counts[occupied]


def median_cluster_cell_count(records: RecordSet, bins=None):
    """Median count of distinct independent units per nonempty
    (arm, mediator, outcome-bin) cell."""
    return float(np.median(encode(records, bins).units_per_cell()))


def _binary_rows(Q, n_p):
    """Nuisance-free rows of a binary mediator under monotonicity: per
    outcome q, ``P(q, m0 | 1) <= P(q, m0 | 0)`` and ``P(q, m1 | 0) <= P(q, m1 | 1)``."""
    qs = np.arange(Q)
    c2 = np.zeros((Q, 2, n_p))
    c2[qs, 0, qs] = 1.0
    c2[qs, 0, 2 * Q + qs] = -1.0
    c2[qs, 1, 3 * Q + qs] = 1.0
    c2[qs, 1, Q + qs] = -1.0
    rows = [MomentRow(kind, k=k, q=q) for q in range(Q)
            for k, kind in ((0, "gap_low"), (1, "gap_high"))]
    return np.zeros((2 * Q, 0)), c2.reshape(2 * Q, n_p), rows, np.zeros((0, 0)), np.zeros((0, n_p))


def _general_rows(support, r: RestrictionSet, Q, nu_ub, n_p):
    """Rows over omega = (free type shares, delta) >= 0: per k the budget
    row and the gap rows, then the restriction rows that pin no cell; and
    the 2K marginal matches as equalities, control-arm row sums first."""
    K = support.k
    n_theta = K * K
    free, match, restr, restr_rhs = share_polytope(support, r)
    ks, qs = np.arange(K), np.arange(Q)
    cells = np.arange(K * Q).reshape(K, Q)  # joint cell (k, q) of an arm
    delta = n_theta + cells
    c1 = np.zeros((K, 1 + Q, n_theta + K * Q))
    c2 = np.zeros((K, 1 + Q, n_p))
    c1[ks, 0, ks * (K + 1)] = -(1.0 - nu_ub)
    c1[ks[:, None], 0, delta] = -1.0
    c2[ks, 0, 2 * K * Q + ks] = -1.0
    c1[ks[:, None], 1 + qs, delta] = 1.0
    c2[ks[:, None], 1 + qs, cells] = 1.0
    c2[ks[:, None], 1 + qs, K * Q + cells] = -1.0
    rows = [row for k in range(K) for row in (
        [MomentRow("budget", k=k)] + [MomentRow("gap", k=k, q=q) for q in range(Q)])]
    restr2 = np.zeros((restr.shape[0], n_p))
    restr2[:, : K * Q] = -restr_rhs[:, None]
    rows += [MomentRow("restriction", k=j, hard=True) for j in range(restr.shape[0])]
    omega = np.concatenate([free, delta.reshape(-1)])  # among the (theta, delta) columns
    c1 = np.vstack([c1.reshape(-1, n_theta + K * Q)[:, omega],
                    np.hstack([-restr, np.zeros((restr.shape[0], K * Q))])])
    e1 = np.hstack([match, np.zeros((2 * K, K * Q))])
    e2 = np.zeros((2 * K, n_p))
    e2[ks, 2 * K * Q + K + ks] = 1.0
    e2[K + ks, 2 * K * Q + ks] = 1.0
    return c1, np.vstack([c2.reshape(-1, n_p), restr2]), rows, e1, e2


def _nu_ub_shares(nu_ub, K):
    """``nu_ub`` as K shares: one value for every mediator value, or K."""
    try:
        shares = np.asarray(nu_ub, dtype=float)
    except (TypeError, ValueError):
        raise StructuralError(f"nu_ub must be numeric, got {nu_ub!r}") from None
    if shares.ndim > 1 or (shares.ndim == 1 and shares.size != K):
        raise StructuralError(f"nu_ub must be one value or {K} values, one per mediator "
                              f"value, got shape {shares.shape}")
    if not np.isfinite(shares).all():
        raise StructuralError("nu_ub must be finite")
    if shares.min() < 0 or shares.max() > 1:
        raise StructuralError("nu_ub must lie in [0, 1]")
    return np.broadcast_to(shares, (K,)).copy()


def build_moment_system(records: RecordSet, r: RestrictionSet, bins=None,
                        nu_ub=0.0, min_cell=CELL_COUNT_FLOOR) -> MomentSystem:
    """Assemble the moment-inequality system for the null that at most a
    ``nu_ub`` share of each always-taker group responds (0 = sharp null).

    For a binary mediator under monotonicity with ``nu_ub = 0`` the system
    reduces to the nuisance-free two-direction cell comparisons.  Otherwise
    omega = (the type shares ``share_polytope`` leaves free, gap
    linearizers) >= 0; the inequality rows are, per mediator value, one
    budget row and the per-cell gap rows, then the restriction rows that
    pin no cell; the equality rows match the 2K mediator marginals.
    Constants in restriction rows are expressed through the arm-1 cell
    probabilities, which sum to one identically.

    A median independent-unit count per occupied cell below ``min_cell``
    triggers :class:`CellCountWarning`; more stacked cell probabilities
    than independent units raise :class:`EstimationError`.  A custom
    restriction that no type shares satisfy raises
    :class:`IdentificationError`, and a ``nu_ub`` that is not one or K
    finite shares in [0, 1] a :class:`StructuralError`.
    """
    nu_ub = _nu_ub_shares(nu_ub, r.n_support)
    enc = encode(records, bins)
    support, levels = enc.support, enc.outcome_levels
    if r.n_support != support.k:
        raise StructuralError(
            f"restriction built for K={r.n_support} but records have K={support.k}"
        )
    K, Q = support.k, len(levels)
    # the built-in kinds all admit the diagonal allocation
    if r.kind == CUSTOM and not FeasibleSet(LinearProgram(
            objective=np.zeros(K * K), eq_matrix=np.ones((1, K * K)), eq_rhs=[1.0],
            ub_matrix=r.matrix, ub_rhs=r.rhs)).feasible:
        raise IdentificationError("no type shares satisfy the custom restriction")
    n_p = 2 * K * Q + 2 * K
    n_units = int(enc.cluster_of.max(initial=-1)) + 1
    if n_p > n_units:
        # the n_p x n_p covariance of n_units units has rank at most n_units
        raise EstimationError(
            f"the moment system has {n_p} cell probabilities but only {n_units} "
            f"independent units ({Q} outcome levels); coarsen the outcome with "
            "bins (--bins on the command line)"
        )
    cells, weight = _unit_profiles(enc)
    arm_counts = cells.sum(axis=(2, 3))
    if (arm_counts.sum(axis=0) == 0).any():
        raise EstimationError("need observations in both arms")
    arm = np.where(arm_counts[:, 1] == 0, 0, np.where(arm_counts[:, 0] == 0, 1, -1))
    sigma, p_hat = _influence_covariance(cells, weight)
    med = float(np.median(enc.units_per_cell()))
    if med < min_cell:
        warnings.warn(
            f"median independent observations per cell is {med:.1f} (< {min_cell}); "
            "moment-based inference may be unreliable at this discretization",
            CellCountWarning,
            stacklevel=2,
        )
    binary = K == 2 and r.kind == MONOTONE and not nu_ub.any()
    c1, c2, rows, e1, e2 = (_binary_rows(Q, n_p) if binary
                            else _general_rows(support, r, Q, nu_ub, n_p))
    return MomentSystem(
        c1=c1,
        c2=c2,
        e1=e1,
        e2=e2,
        p_hat=p_hat,
        sigma_hat=sigma,
        n_eff=int(weight.sum()),
        rows=tuple(rows),
        n_outcomes=Q,
        cluster_cells=cells,
        cluster_weight=weight,
        cluster_arm=arm,
        median_cell_count=med,
    )


def _minmax_statistic(system: MomentSystem, p_vec, shift, sds, hard):
    """``min over omega of max over soft rows`` of the studentized moments.

    Soft row j contributes ``((C2 p)_j - shift_j - (C1 omega)_j) / sd_j``;
    hard rows, the equalities ``E1 omega = E2 p`` and omega >= 0 constrain
    omega.  Returns ``(t, omega)``: t is +inf when the
    hard rows are jointly infeasible at ``p_vec`` and -inf when the soft
    maximum is unbounded below; omega is the minimizer, None when t is not
    finite.

    Without nuisance coordinates omega is empty and ``p_vec`` may also be
    a (B, n_p) stack, for which t holds the statistic of each row.
    """
    soft = ~hard
    if system.n_omega == 0:
        mom = p_vec @ system.c2.T - shift
        t = np.max(mom[..., soft] / sds[soft], axis=-1)
        infeasible = (mom[..., hard] > 1e-10).any(axis=-1)
        return np.where(infeasible, np.inf, t)[()], np.zeros(0)  # [()]: scalar for one vector
    mom = system.c2 @ p_vec - shift
    # variables (omega, t); hard rows leave t out, soft row j carries -sd_j t
    lp = LinearProgram(
        objective=np.concatenate([np.zeros(system.n_omega), [1.0]]),
        eq_matrix=np.hstack([system.e1, np.zeros((system.e1.shape[0], 1))]),
        eq_rhs=system.e2 @ p_vec,
        ub_matrix=np.hstack([-system.c1, np.where(hard, 0.0, -sds)[:, None]]),
        ub_rhs=-mom,
        bounds=((0.0, np.inf),) * system.n_omega + ((-np.inf, np.inf),),
    )
    sol = solve_lp(lp)
    if sol.status == INFEASIBLE:
        return np.inf, None
    if sol.status == UNBOUNDED:
        return -np.inf, None
    return float(sol.value), sol.point[:-1]


def _make_resampler(system: MomentSystem):
    """Nonparametric bootstrap of independent units, within arm when
    clusters are arm-pure (always the case for unit-level data).

    When every profile in ``cluster_cells`` is one record, the units
    resample as a per-arm multinomial over the cells, with each profile's
    count ``cluster_weight``; this is distributionally identical to
    redrawing rows and much faster.  Otherwise each profile is one cluster
    (weight 1) and whole clusters are redrawn: within arm when every
    cluster is arm-pure, else from the whole dataset with a deterministic
    retry when a draw empties an arm.  The resampler
    ``draw(rng, out=None)`` writes one (2, K, Q) count table into ``out``
    (a new array by default) and returns it.
    """
    cells = system.cluster_cells
    arm = system.cluster_arm
    G, shape = cells.shape[0], cells.shape[1:]
    if (cells.sum(axis=(1, 2, 3)) == 1).all():
        agg = (system.cluster_weight[:, None, None, None] * cells).sum(axis=0)
        totals = agg.sum(axis=(1, 2))
        probs = [agg[d].reshape(-1) / totals[d] for d in (0, 1)]

        def draw_units(rng, out=None):
            out = np.empty(shape, dtype=np.int64) if out is None else out
            for d in (0, 1):
                out[d] = rng.multinomial(totals[d], probs[d]).reshape(shape[1:])
            return out

        return draw_units
    # a draw is the multiplicity of each cluster times its counts, exact in int64
    flat = cells.reshape(G, -1)
    if (arm >= 0).all():
        pools = [np.nonzero(arm == d)[0] for d in (0, 1)]

        def draw_clusters(rng, out=None):
            out = np.empty(shape, dtype=np.int64) if out is None else out
            idx = np.concatenate([pool[rng.integers(0, pool.size, pool.size)] for pool in pools])
            out[...] = (np.bincount(idx, minlength=G) @ flat).reshape(shape)
            return out

        return draw_clusters
    arm_totals = cells.sum(axis=(2, 3))  # (G, 2)

    def draw_mixed(rng, out=None):
        out = np.empty(shape, dtype=np.int64) if out is None else out
        for _ in range(100):
            times = np.bincount(rng.integers(0, G, G), minlength=G)
            if (times @ arm_totals).min() > 0:
                out[...] = (times @ flat).reshape(shape)
                return out
        raise EstimationError("bootstrap could not produce both arms")

    return draw_mixed


def _lf_draws(system: MomentSystem, b_draws: int, seed: int):
    """Statistic and sorted bootstrap draws of the least-favorable max test.

    Each soft row is recentred at its sample value at the minimizing omega,
    so every soft moment binds (the least-favorable configuration); the
    hard rows, the marginal-matching equalities and omega >= 0 hold exactly
    and keep their own right-hand sides.  Draw b resamples with
    its own substream ``(seed, b)`` into row b of one (B, 2, K, Q) count
    array, which is then evaluated as one stack, and without nuisance
    coordinates as one array operation.
    """
    sds = system.moment_sds()
    hard = _hard_rows(system, sds)
    if not (~hard).any():
        raise EstimationError("degenerate data: no stochastic moment rows remain")
    t0, omega_hat = _minmax_statistic(system, system.p_hat, np.zeros(system.n_rows), sds, hard)
    shift = np.zeros(system.n_rows)
    if np.isfinite(t0):
        soft = ~np.array([r.hard for r in system.rows], dtype=bool)
        shift[soft] = (system.c2 @ system.p_hat - system.c1 @ omega_hat)[soft]
    resample = _make_resampler(system)
    cells = np.empty((b_draws, *system.cluster_cells.shape[1:]), dtype=np.int64)
    for row, rng in zip(cells, substreams(seed, b_draws)):
        resample(rng, row)
    p_star = p_from_cells(cells)
    if system.n_omega == 0:
        t, _ = _minmax_statistic(system, p_star, shift, sds, hard)
    else:
        t = np.array([_minmax_statistic(system, p, shift, sds, hard)[0] for p in p_star])
    t = np.append(t0, t)
    # sqrt(N) t_+ with Python's max(t, 0.0), which keeps a -0.0 (np.maximum would not)
    scaled = np.where(np.isfinite(t), np.sqrt(system.n_eff) * np.where(0.0 > t, 0.0, t), np.inf)
    return scaled[0], np.sort(scaled[1:])


def test_least_favorable_bootstrap(system: MomentSystem, alpha: float,
                                   b_draws: int = 999, seed: int = 0) -> TestResult:
    """Studentized max test with least-favorable bootstrap critical values.

    The statistic is ``sqrt(N) * (min over omega of the max studentized
    moment)_+``.  Bootstrap draws resample independent units, recenter each
    soft moment at its sample value at the minimizing omega (so every
    moment binds, the least-favorable configuration), and re-solve.
    Conservative by construction; deterministic given the seed.  The
    p-value is the share of draws at or above the statistic, so a rejection
    has p <= floor(alpha B) / B.
    """
    if not 0 < alpha < 1:
        raise StructuralError("alpha must be in (0, 1)")
    if b_draws < 200:
        raise StructuralError("need at least 200 bootstrap draws")
    statistic, order = _lf_draws(system, b_draws, seed)
    # the ceil((1 - alpha) B)-th smallest of the B sorted draws
    critical = float(order[min(max(int(np.ceil((1.0 - alpha) * b_draws)) - 1, 0), b_draws - 1)])
    return TestResult(
        statistic=float(statistic),
        critical_value=critical,
        p_value=float(np.mean(order >= statistic)),
        reject=bool(statistic > critical),
        method=LF_BOOT,
        alpha=float(alpha),
        b_draws=int(b_draws),
        seed=int(seed),
    )


def _nearest_start(system: MomentSystem, U, lam):
    """A feasible start ``(w, omega)`` of the chi-squared QP near its optimum.

    One LP finds the deviation ``u = mu - p_hat`` of least l1 norm with
    ``C2 (p_hat + u) <= C1 omega``, ``E2 (p_hat + u) = E1 omega`` and
    omega >= 0, as ``u = u+ - u-`` over ``(u+, u-, omega) >= 0``; the start
    is ``w = inv(sqrt(Lambda)) U' u``.  The LP is posed in u, not w: the
    ridge directions scale w's columns by up to five orders of magnitude.
    """
    n_p = system.p_hat.size
    sol = solve_lp(LinearProgram(
        objective=np.concatenate([np.ones(2 * n_p), np.zeros(system.n_omega)]),
        eq_matrix=np.hstack([system.e2, -system.e2, -system.e1]),
        eq_rhs=-(system.e2 @ system.p_hat),
        ub_matrix=np.hstack([system.c2, -system.c2, -system.c1]),
        ub_rhs=-(system.c2 @ system.p_hat),
    ))
    if sol.status != OPTIMAL:
        raise SolverFailureError(f"conditional chi-squared QP ended with status {sol.status}")
    u = sol.point[:n_p] - sol.point[n_p: 2 * n_p]
    return np.concatenate([(U.T @ u) / np.sqrt(lam), sol.point[2 * n_p:]])


def _face_binding(system: MomentSystem, active, at_bound):
    """The rows of ``active`` and the bounds of ``at_bound`` that bind on
    the whole optimal face, i.e. its implicit equalities.

    ``active`` and ``at_bound`` mark the inequality rows and bounds
    omega_i >= 0 that bind at one optimal omega*.  Near omega* the face is
    omega* + d over the cone ``C1_active d >= 0``, ``E1 d = 0``,
    ``d_at_bound >= 0``, so a row binds on the whole face exactly when it
    binds on the whole cone.  One LP over that cone maximises
    ``sum t_j`` with ``0 <= t_j <= 1`` and each row's slack ``>= t_j``;
    scaling d shows that every optimum has ``t_j = 1`` on the rows that
    some point of the face leaves slack and ``t_j = 0`` on the rest.
    """
    rows, bounds = np.flatnonzero(active), np.flatnonzero(at_bound)
    n_omega, n_t = system.n_omega, rows.size + bounds.size
    if n_t == 0:
        return active, at_bound
    picks = np.eye(n_omega)[bounds]
    sol = solve_lp(LinearProgram(
        objective=np.concatenate([np.zeros(n_omega), -np.ones(n_t)]),
        eq_matrix=np.hstack([system.e1, np.zeros((system.e1.shape[0], n_t))]),
        eq_rhs=np.zeros(system.e1.shape[0]),
        ub_matrix=np.hstack([-np.vstack([system.c1[rows], picks]), np.eye(n_t)]),
        ub_rhs=np.zeros(n_t),
        bounds=np.vstack([np.where(at_bound[:, None], [0.0, np.inf], [-np.inf, np.inf]),
                          np.tile([0.0, 1.0], (n_t, 1))]),
    ))
    if sol.status != OPTIMAL:
        raise SolverFailureError(f"optimal-face LP ended with status {sol.status}")
    slack = sol.point[n_omega:] > 0.5
    active, at_bound = active.copy(), at_bound.copy()
    active[rows[slack[: rows.size]]] = False
    at_bound[bounds[slack[rows.size:]]] = False
    return active, at_bound


def _chisq_solution(system: MomentSystem):
    """Minimized quadratic form and the binding-row df for the CS-style test.

    Whitens the deviation ``u = mu - p_hat`` with the ridge-regularized
    covariance so the QP is perfectly conditioned, and starts the QP at
    the deviation of least l1 norm (``_nearest_start``).  The
    whitened optimum w* is unique but omega* need not be, so df is read
    off the whole optimal face rather than the omega* the QP returns: the
    binding rows are the inequality rows and bounds omega_i >= 0 that bind
    at every optimal omega (``_face_binding``), plus every equality.  df is
    the rank of their gradients in (p, omega) less that of their omega
    part, where a binding bound counts as the row e_i, i.e. removes column
    i from both.  It does not depend on the order of the rows or of the
    omega coordinates, nor on the QP's start.
    """
    sigma = system.sigma_hat + CHISQ_RIDGE * np.eye(system.p_hat.size)
    lam, U = np.linalg.eigh(sigma)
    lam = np.clip(lam, CHISQ_RIDGE, None)
    half = U * np.sqrt(lam)  # u = half @ w  =>  u'inv(sigma)u = w'w
    n_w = system.p_hat.size
    n = n_w + system.n_omega
    # C2 (p_hat + half w) - C1 omega <= 0 and E2 (p_hat + half w) - E1 omega = 0
    ub = np.hstack([system.c2 @ half, -system.c1])
    rhs = -(system.c2 @ system.p_hat)
    feas = LinearProgram(
        objective=np.zeros(n),
        eq_matrix=np.hstack([system.e2 @ half, -system.e1]),
        eq_rhs=-(system.e2 @ system.p_hat),
        ub_matrix=ub,
        ub_rhs=rhs,
        bounds=((-np.inf, np.inf),) * n_w + ((0.0, np.inf),) * system.n_omega,
    )
    sol = solve_qp(n_w, feas, _nearest_start(system, U, lam))
    statistic = system.n_eff * float(sol.value)
    active = rhs - ub @ sol.point <= 1e-7 * (1.0 + np.abs(rhs))
    at_bound = sol.point[n_w:] <= 1e-7
    if system.n_omega:
        active, at_bound = _face_binding(system, active, at_bound)
    off_bound = n_w + np.flatnonzero(~at_bound)
    grad = np.vstack([np.hstack([-system.c2[active], system.c1[active]]),
                      np.hstack([-system.e2, system.e1])])[:, np.r_[:n_w, off_bound]]
    df = int(np.linalg.matrix_rank(grad) - np.linalg.matrix_rank(grad[:, n_w:]))
    return statistic, max(df, 0)


def test_conditional_chisq(system: MomentSystem, alpha: float) -> TestResult:
    """Conditional chi-squared test: minimized quadratic distance from
    ``p_hat`` to the null set, compared to a chi-squared quantile whose
    degrees of freedom equal the rank of the gradient system of the rows
    that bind on the whole optimal face (after profiling out the nuisance
    directions), so df does not depend on which optimal omega the solver
    returns.  Zero binding rows means never reject."""
    if not 0 < alpha < 1:
        raise StructuralError("alpha must be in (0, 1)")
    statistic, df = _chisq_solution(system)
    if df == 0:
        critical = np.inf
        p_value = 1.0
    else:
        critical = float(2.0 * gammaincinv(df / 2, 1.0 - alpha))  # chi2.ppf
        p_value = float(chdtrc(df, statistic))  # chi2.sf
    return TestResult(
        statistic=float(statistic),
        critical_value=critical,
        p_value=p_value,
        reject=bool(statistic > critical),
        method=COND_CHISQ,
        alpha=float(alpha),
        df=df,
    )


# the test_* operation names follow the public API contract; keep pytest
# from collecting them as test cases when imported into test modules
test_least_favorable_bootstrap.__test__ = False
test_conditional_chisq.__test__ = False
