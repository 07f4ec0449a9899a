"""Identification outputs: response-share lower bounds, feasibility slack,
trimming bounds on always-taker average effects, and the robustness curve
(:func:`robustness_curve`): the pooled bound over defier budgets and the
breakdown budget.

For each mediator value k, ``nu_k`` is the fraction of k-always-takers
(units whose mediator sits at m_k under both arms) whose outcome still
responds to treatment.  The full-mediation null forces every ``nu_k`` to
zero, so a positive lower bound quantifies how much work other channels
must be doing.  All bounds are sharp given the declared restriction set.

To test a coarser mediator, recode the ``m`` column of the records.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructuralError, SolverFailureError, UnsupportedCaseError
from .linprog import INFEASIBLE, OPTIMAL, solve_lp, solve_lfp
from .probtab import DistTable, delta_sup
from .typeshares import (
    ORDER_KINDS,
    IdentifiedSetSpec,
    RestrictionSet,
    _require_feasible,
    build_identified_set,
    min_defier_budget,
    theta_kk_min,
)

ZERO_TOL = 1e-9


@dataclass(frozen=True)
class BoundsReport:
    """Bundle of the identification outputs for one table + restriction."""

    nu_lb: tuple
    nu_pooled_lb: float
    slack: float
    theta: np.ndarray
    eta: tuple
    restriction: str
    ade: dict = None
    ade_informative: dict = None
    auto_relaxed_dbar: float = None
    pooled_degenerate: bool = False

    def to_json_dict(self):
        out = {
            "nu_lb": list(self.nu_lb),
            "nu_pooled_lb": self.nu_pooled_lb,
            "slack": self.slack,
            "theta": np.asarray(self.theta).tolist(),
            "eta": list(self.eta),
            "restriction": self.restriction,
            "ade": None
            if self.ade is None
            else {str(k): [v[0], v[1]] for k, v in self.ade.items()},
            "auto_relaxed_dbar": self.auto_relaxed_dbar,
        }
        if self.ade_informative is not None:
            out["ade_informative"] = {str(k): bool(v) for k, v in self.ade_informative.items()}
        if self.pooled_degenerate:
            out["pooled_degenerate"] = True
        return out


def _auto_relaxed_restriction(spec: IdentifiedSetSpec):
    """Minimal defier-budget relaxation of an infeasible order restriction."""
    dbar = min_defier_budget(spec)
    if spec.support.totally_ordered:
        r = RestrictionSet.defier_budget(spec.support, dbar)
    else:
        r = RestrictionSet.elementwise_defier_budget(spec.support, dbar)
    return r, dbar


def resolve_identified_set(table: DistTable, r: RestrictionSet, auto_relax=False):
    """Identified set for ``table``; optionally substitute the minimal
    defier-budget relaxation when an order restriction is empirically empty.

    Returns ``(spec, relaxed_dbar_or_None)``.
    """
    spec = build_identified_set(table, r)
    if spec.feasible:
        return spec, None
    if auto_relax and r.kind in ORDER_KINDS:
        relaxed, dbar = _auto_relaxed_restriction(spec)
        spec = build_identified_set(table, relaxed)
        if spec.feasible:
            return spec, dbar
    _require_feasible(spec)  # raises IdentificationError with suggestion


def nu_lower_bounds(table: DistTable, r: RestrictionSet, auto_relax=False) -> np.ndarray:
    """Sharp per-k lower bounds on the always-taker response share.

    For each k this plugs the minimal always-taker share into
    ``(gap_k - complier mass into k)_+ / share`` and is zero whenever the
    data allow no k-always-takers at all.
    """
    spec, _ = resolve_identified_set(table, r, auto_relax)
    return _nu_lower_bounds(table, spec, [theta_kk_min(spec, k) for k in range(spec.k)])


def _nu_lower_bounds(table: DistTable, spec: IdentifiedSetSpec, tmins) -> np.ndarray:
    """Per-k bounds from the minimal always-taker shares ``tmins[k]``."""
    p1 = spec.p1
    out = np.zeros(spec.k)
    for k, tmin in enumerate(tmins):
        if tmin <= ZERO_TOL:
            continue
        gap = delta_sup(table, k)
        out[k] = max(gap - (p1[k] - tmin), 0.0) / tmin
    return out


def _slack_program(table: DistTable, spec: IdentifiedSetSpec):
    """LP ``min s`` s.t. gap_k <= P(M=m_k|1) - theta_kk + s``, s free."""
    K = spec.k
    ks = np.arange(K)
    rows = np.zeros((K, K * K + 1))
    rows[ks, ks * (K + 1)] = 1.0
    rows[:, -1] = -1.0
    gaps = np.array([delta_sup(table, k) for k in range(K)])
    return spec.lp(np.concatenate([np.zeros(K * K), [1.0]]), rows, spec.p1 - gaps,
                   extra_bounds=((-np.inf, np.inf),))


def _slack_lp(table: DistTable, spec: IdentifiedSetSpec):
    """The optimum of :func:`_slack_program` and its type shares."""
    K = spec.k
    sol = solve_lp(_slack_program(table, spec))
    if sol.status != OPTIMAL:
        raise SolverFailureError("slack LP did not solve on a feasible set")
    theta = spec.point(sol.point)[: K * K].reshape(K, K)
    return float(sol.value), theta


def sharp_null_slack(table: DistTable, r: RestrictionSet, auto_relax=False) -> float:
    """Minimal uniform relaxation s* of the full-mediation implications.

    ``s* <= 0`` exactly when the table is consistent with the null under
    the restriction set.
    """
    spec, _ = resolve_identified_set(table, r, auto_relax)
    value, _ = _slack_lp(table, spec)
    return value


def _pooled_lfp(table: DistTable, spec: IdentifiedSetSpec):
    """Linear-fractional program for the pooled bound.

    Variables are ``(theta, t_k := theta_kk nu_k)``; the objective is
    ``sum_k t_k / sum_k theta_kk``.  Returns (value, theta, t).  A
    degenerate program, whose denominator can vanish, has value 0, ``theta``
    None and ``t`` zero; an empty one has all three None.  It is empty
    exactly when the identified set is (see :func:`robustness_curve`).
    """
    K = spec.k
    n = K * K + K
    ks = np.arange(K)
    den = np.zeros(n)
    den[ks * (K + 1)] = 1.0
    num = np.zeros(n)
    num[K * K:] = 1.0
    # per k: t_k >= gap_k - sum_{l != k} theta_lk, then t_k <= theta_kk
    rows = np.zeros((K, 2, n))
    l, k = np.nonzero(~np.eye(K, dtype=bool))
    rows[k, 0, l * K + k] = -1.0
    rows[ks, 0, K * K + ks] = -1.0
    rows[ks, 1, K * K + ks] = 1.0
    rows[ks, 1, ks * (K + 1)] = -1.0
    gaps = np.array([delta_sup(table, k) for k in range(K)])
    rhs = np.stack([-gaps, np.zeros(K)], axis=1).reshape(-1)
    feas = spec.lp(np.zeros(n), rows.reshape(2 * K, n), rhs, extra_bounds=((0.0, np.inf),) * K)
    try:
        cols = spec.columns(n)
        sol = solve_lfp((num[cols], 0.0), (den[cols], 0.0), feas)
    except DomainError:
        # the identified set lets the always-taker mass sum_k theta_kk vanish
        return 0.0, None, np.zeros(K)
    if sol.status != OPTIMAL:
        return None, None, None
    point = spec.point(sol.point)
    return max(float(sol.value), 0.0), point[: K * K].reshape(K, K), point[K * K:]


def nu_pooled_lower_bound(table: DistTable, r: RestrictionSet, auto_relax=False) -> float:
    """Sharp lower bound on the pooled always-taker response share.

    Returns 0 (degenerate) when the identified set allows the total
    always-taker mass to vanish.
    """
    spec, _ = resolve_identified_set(table, r, auto_relax)
    return _solved_pooled_lfp(table, spec)[0]


def _solved_pooled_lfp(table: DistTable, spec: IdentifiedSetSpec):
    """:func:`_pooled_lfp` over an identified set known to be nonempty."""
    out = _pooled_lfp(table, spec)
    if out[0] is None:
        raise SolverFailureError("pooled-bound program is empty on a nonempty identified set")
    return out


def _trimmed_mean(levels, pmf, share, upper):
    """Mean of the top/bottom ``share`` of a discrete distribution.

    Exact partial sums with a fractional cell at the cut, matching the
    quantile-integral definition ``(1/share) * int F^{-1}(u) du``.
    """
    if share <= 0.0:
        raise StructuralError("trimming share must be positive")
    share = min(share, 1.0)
    order = range(len(levels)) if not upper else range(len(levels) - 1, -1, -1)
    remaining = share
    acc = 0.0
    for i in order:
        take = min(pmf[i], remaining)
        acc += levels[i] * take
        remaining -= take
        if remaining <= 1e-15:
            break
    return acc / share


def ade_bounds(table: DistTable, r: RestrictionSet, k: int, auto_relax=False):
    """Sharp trimming bounds on the average treated-vs-untreated outcome
    difference for k-always-takers.

    The always-taker share within each arm's M = m_k stratum is bounded
    below by ``theta_kk_min / P(M=m_k | arm)``; best and worst cases place
    the always-takers in the top or bottom of the stratum's outcome
    distribution.  A zero minimal share yields the vacuous +/- outcome-span
    interval.
    """
    if not 0 <= k < table.n_mediators:
        raise StructuralError(f"mediator index {k} out of range")
    spec, _ = resolve_identified_set(table, r, auto_relax)
    return _ade_bounds(table, spec, k, theta_kk_min(spec, k))


def _ade_bounds(table: DistTable, spec: IdentifiedSetSpec, k: int, tmin: float):
    """Trimming bounds for k-always-takers given ``tmin = theta_kk_min(spec, k)``."""
    levels = np.asarray(table.outcome_levels)
    if tmin <= ZERO_TOL:
        span = float(levels.max() - levels.min())
        return -span, span
    lo_hi = {}
    for d in (0, 1):
        share = tmin / spec.p1[k] if d == 1 else tmin / spec.p0[k]
        share = min(share, 1.0)
        pmf = table.cond_outcome(d, k)
        lo_hi[d] = (
            _trimmed_mean(levels, pmf, share, upper=False),
            _trimmed_mean(levels, pmf, share, upper=True),
        )
    lb = lo_hi[1][0] - lo_hi[0][1]
    ub = lo_hi[1][1] - lo_hi[0][0]
    return float(lb), float(ub)


def robustness_curve(table: DistTable, grid):
    """The pooled bound at each defier budget of ``grid`` and the breakdown
    budget, as ``(values, breakdown)``: ``values[i]`` is
    :func:`nu_pooled_lower_bound` under a defier budget of ``grid[i]``, or
    None where that identified set is empty.

    The breakdown budget's covering LP, solved once, settles most points:
    below the least defier budget the marginals allow, the set is empty;
    at or above the LP's optimal defier mass, ``ZERO_TOL`` clear of the
    least budget, the bound is 0.  The other points build their identified
    set and solve the pooled program.  Within ``ZERO_TOL`` of the least
    budget the set's phase 1 decides feasibility first; clear of it the
    set is nonempty, and the pooled program's phase 1 is the only one run.
    That program is empty exactly when the set is, since ``t_k`` lies
    between ``gap_k - sum_{l != k} theta_lk`` and ``theta_kk``, and
    ``gap_k <= P(M=m_k|1) = sum_l theta_lk``.
    """
    covered, least = _covering_lp(table)
    values = []
    for dbar in map(float, grid):
        clear = dbar >= least + ZERO_TOL
        if dbar < least - ZERO_TOL:
            values.append(None)
        elif clear and dbar >= covered:
            values.append(0.0)
        else:
            spec = build_identified_set(table, RestrictionSet.defier_budget(table.support, dbar))
            values.append(_pooled_lfp(table, spec)[0] if clear or spec.feasible else None)
    if covered == np.inf:
        return values, 1.0
    return values, (0.0 if covered <= least + ZERO_TOL else float(covered))


def breakdown_defier_budget(table: DistTable) -> float:
    """Largest defier budget at which the pooled bound stays positive.

    The pooled bound vanishes at budget ``dbar`` exactly when some type
    shares within it let the compliers moving into every stratum k cover
    its gap, ``sum_{l != k} theta_lk >= delta_sup_k``; so the breakdown
    budget is the least defier mass of such shares, one LP.  Returns 1 when
    no shares cover the gaps and 0 when the least covering defier mass is
    the least the mediator marginals allow, i.e. when there is no violation
    evidence at any feasible budget.
    """
    return robustness_curve(table, ())[1]


def _covering_lp(table: DistTable):
    """``(covered, least)`` of the breakdown budget's covering LP: its
    optimal defier mass (+inf when no shares cover the gaps) and
    ``min_defier_budget`` of the unrestricted set, below which no budget
    admits any shares."""
    if not table.support.totally_ordered:
        raise UnsupportedCaseError("breakdown budget needs a scalar ordered mediator")
    K = table.n_mediators
    spec = build_identified_set(table, RestrictionSet.unrestricted(table.support))
    cover = -np.tile(np.eye(K), K)  # row k: -theta_lk over every l ...
    cover[np.arange(K), np.arange(K) * (K + 1)] = 0.0  # ... other than k
    gaps = np.array([delta_sup(table, k) for k in range(K)])
    defiers = RestrictionSet.defier_budget(table.support, 0.0).matrix[0]
    sol = solve_lp(spec.lp(defiers, cover, -gaps))
    if sol.status not in (OPTIMAL, INFEASIBLE):
        raise SolverFailureError(f"breakdown-budget LP ended with status {sol.status}")
    return (sol.value if sol.status == OPTIMAL else np.inf), min_defier_budget(spec)


def bounds_report(table: DistTable, r: RestrictionSet, auto_relax=False,
                  with_ade=False) -> BoundsReport:
    """Full identification report for one table and restriction set."""
    spec, relaxed = resolve_identified_set(table, r, auto_relax)
    tmins = [theta_kk_min(spec, k) for k in range(spec.k)]
    nu_lb = _nu_lower_bounds(table, spec, tmins)
    slack, theta_slack = _slack_lp(table, spec)
    # The reported (theta, eta) is the pooled program's minimizer (theta, t),
    # so the pooled bound equals sum(eta)/sum(diag) at it and dominates the
    # diagonal-weighted per-k bounds there.
    pooled, theta, eta = _solved_pooled_lfp(table, spec)
    degenerate = theta is None
    if degenerate:  # no minimizer: the slack program's allocation, eta read off it
        theta = theta_slack
        eta = [max(delta_sup(table, k) - (theta[:, k].sum() - theta[k, k]), 0.0)
               for k in range(spec.k)]
    ade = None
    ade_informative = None
    if with_ade:
        ade = {k: _ade_bounds(table, spec, k, tmin) for k, tmin in enumerate(tmins)}
        ade_informative = {k: tmin > ZERO_TOL for k, tmin in enumerate(tmins)}
    label = spec.restriction.kind
    if spec.restriction.params:
        label += ":" + ",".join(f"{p:g}" for p in spec.restriction.params)
    return BoundsReport(
        nu_lb=tuple(float(v) for v in nu_lb),
        nu_pooled_lb=float(pooled),
        slack=float(slack),
        theta=theta,
        eta=tuple(float(v) for v in eta),
        restriction=label,
        ade=ade,
        ade_informative=ade_informative,
        auto_relaxed_dbar=relaxed,
        pooled_degenerate=degenerate,
    )
