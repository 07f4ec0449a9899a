"""Reference computations made apart from mechtest.

Tables come from ``numpy.bincount`` over the generated records, the
identified-set quantities from LPs solved by scipy's HiGHS, and the
least-favorable statistic of the binary-mediator path from its closed form.
Nothing here imports mechtest, so a checker that compares a mechtest output
with these values compares two independent computations.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.stats import chi2

# Shares below this are treated as zero, as the method defines them.
ZERO_TOL = 1e-9
CLIP_HARD_LIMIT = 0.05


@dataclass(frozen=True)
class Table:
    """``mass[d, k, q] = P(Y = levels[q], M = points[k] | arm d)``."""

    points: np.ndarray  # (K, p), lexicographically sorted
    levels: np.ndarray  # (Q,), increasing
    mass: np.ndarray  # (2, K, Q)

    @property
    def k(self):
        return self.points.shape[0]

    @property
    def ordered(self):
        return self.points.shape[1] == 1

    def marginal(self, d):
        return self.mass[d].sum(axis=1)

    def gaps(self):
        """``sup_A`` treated-minus-control gap in each mediator stratum."""
        return np.clip(self.mass[1] - self.mass[0], 0.0, None).sum(axis=1)


# -- encoding and tables ---------------------------------------------------

def encode(y, m):
    """Support points, outcome levels and per-row indices into both."""
    m = np.asarray(m, dtype=float).reshape(len(y), -1)
    points, k_of = np.unique(m, axis=0, return_inverse=True)
    levels, q_of = np.unique(np.asarray(y, dtype=float), return_inverse=True)
    return points, levels, k_of.reshape(-1), q_of.reshape(-1)


def quantile_cuts(y, n_bins):
    """Pooled left-continuous empirical quantiles at i/n_bins, merged."""
    v = np.sort(np.asarray(y, dtype=float))
    idx = np.ceil(np.arange(1, n_bins) / n_bins * v.size).astype(int) - 1
    return np.unique(v[np.maximum(idx, 0)])


def binned(y, n_bins):
    """Right-closed bin number of every value (bins labelled 0, 1, ...)."""
    if n_bins is None:
        return np.asarray(y, dtype=float)
    return np.searchsorted(quantile_cuts(y, n_bins), y, side="left").astype(float)


def _cell_sums(k_of, q_of, K, Q, weights):
    return np.bincount(k_of * Q + q_of, weights=weights, minlength=K * Q).reshape(K, Q)


def randomized_table(y, m, d):
    points, levels, k_of, q_of = encode(y, m)
    K, Q = points.shape[0], levels.size
    mass = np.stack([
        _cell_sums(k_of[d == arm], q_of[d == arm], K, Q, None) / (d == arm).sum()
        for arm in (0, 1)
    ])
    return Table(points, levels, mass)


def _clip_normalize(raw, label):
    clipped = float(np.clip(-raw, 0.0, None).sum())
    if clipped > CLIP_HARD_LIMIT:
        raise ValueError(f"{label}: {clipped:.3f} of the mass is negative")
    pos = np.clip(raw, 0.0, None)
    return pos / pos.sum()


def iv_table(y, m, d, z):
    """Complier laws by Wald ratios on compound outcomes ``D 1{cell}`` and
    ``-(1 - D) 1{cell}``."""
    points, levels, k_of, q_of = encode(y, m)
    K, Q = points.shape[0], levels.size
    on, off = z == 1, z == 0
    first_stage = d[on].mean() - d[off].mean()

    def wald(w):
        return (_cell_sums(k_of[on], q_of[on], K, Q, w[on]) / on.sum()
                - _cell_sums(k_of[off], q_of[off], K, Q, w[off]) / off.sum()) / first_stage

    treated = wald(d.astype(float))
    control = -wald(1.0 - d)
    mass = np.stack([_clip_normalize(control, "iv control"),
                     _clip_normalize(treated, "iv treated")])
    return Table(points, levels, mass)


def ipw_table(y, m, d, pscore):
    points, levels, k_of, q_of = encode(y, m)
    K, Q = points.shape[0], levels.size
    n = len(y)
    raw1 = _cell_sums(k_of, q_of, K, Q, d / pscore) / n
    raw0 = _cell_sums(k_of, q_of, K, Q, (1 - d) / (1.0 - pscore)) / n
    mass = np.stack([_clip_normalize(raw0, "ipw control"), _clip_normalize(raw1, "ipw treated")])
    return Table(points, levels, mass)


def median_cell_count(y, m, d, cluster=None, n_bins=None):
    """Median number of distinct independent units per occupied
    (arm, mediator, outcome-bin) cell."""
    _, _, k_of, q_of = encode(binned(y, n_bins), m)
    unit = np.arange(len(y)) if cluster is None else np.unique(cluster, return_inverse=True)[1]
    cells = np.unique(np.stack([unit, d, k_of, q_of], axis=1), axis=0)
    _, per_cell = np.unique(cells[:, 1:], axis=0, return_counts=True)
    return float(np.median(per_cell))


# -- restrictions and the identified set -----------------------------------

@dataclass(frozen=True)
class Restriction:
    """``kind`` is monotone, defier_budget, elementwise,
    elementwise_defier_budget, bounded or none."""

    kind: str
    dbar: float = 0.0
    kappa: float = 0.0

    @classmethod
    def parse(cls, spec):
        name, _, arg = spec.partition(":")
        if name == "bounded":
            kappa, _, dbar = arg.partition(",")
            return cls("bounded", float(dbar), float(kappa))
        return cls(name, float(arg) if arg else 0.0)


def _leq(points):
    """``leq[l, k]``: m_l <= m_k in every coordinate."""
    return (points[:, None, :] <= points[None, :, :]).all(axis=2)


def defier_cells(points):
    """Types that move the mediator against the (partial) order."""
    mask = ~_leq(points)
    np.fill_diagonal(mask, False)
    return mask


def _restriction_rows(points, r):
    """(variable upper bounds, budget rows, budget rhs) over K*K shares."""
    K = points.shape[0]
    upper = np.full(K * K, np.inf)
    rows = np.zeros((0, K * K))
    rhs = np.zeros(0)
    if r.kind in ("monotone", "elementwise"):
        upper[defier_cells(points).reshape(-1)] = 0.0
    elif r.kind in ("defier_budget", "elementwise_defier_budget"):
        rows = defier_cells(points).reshape(1, -1).astype(float)
        rhs = np.array([r.dbar])
    elif r.kind == "bounded":
        dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
        rows = (dist > r.kappa).reshape(1, -1).astype(float)
        rhs = np.array([r.dbar])
    elif r.kind != "none":
        raise ValueError(f"unknown restriction {r.kind}")
    return upper, rows, rhs


def _marginal_rows(K):
    """Row sums give the control marginal, column sums the treated one."""
    eye = np.eye(K)
    rows = np.kron(eye, np.ones((1, K)))
    cols = np.kron(np.ones((1, K)), eye)
    return np.vstack([rows, cols])


class IdentifiedSet:
    """Identified set of the K x K type shares, as HiGHS LP blocks.

    ``extra`` extra variables follow the shares; every helper pads the
    share blocks with zeros for them.
    """

    def __init__(self, table: Table, r: Restriction):
        self.table = table
        self.K = table.k
        self.p0 = table.marginal(0)
        self.p1 = table.marginal(1)
        self.upper, self.b_rows, self.b_rhs = _restriction_rows(table.points, r)
        self.eq = _marginal_rows(self.K)
        self.eq_rhs = np.concatenate([self.p0, self.p1])

    def solve(self, objective, extra=0, extra_bounds=(), ub=None, ub_rhs=None):
        pad = np.zeros((self.eq.shape[0], extra))
        a_ub = np.hstack([self.b_rows, np.zeros((self.b_rows.shape[0], extra))])
        b_ub = self.b_rhs
        if ub is not None:
            a_ub = np.vstack([a_ub, ub])
            b_ub = np.concatenate([b_ub, ub_rhs])
        bounds = [(0.0, None if np.isinf(u) else u) for u in self.upper]
        bounds += list(extra_bounds) if extra_bounds else [(0.0, None)] * extra
        return linprog(
            objective,
            A_ub=a_ub if a_ub.shape[0] else None,
            b_ub=b_ub if a_ub.shape[0] else None,
            A_eq=np.hstack([self.eq, pad]),
            b_eq=self.eq_rhs,
            bounds=bounds,
            method="highs",
        )

    def feasible(self):
        return self.solve(np.zeros(self.K * self.K)).status == 0

    def contains(self, theta, tol=1e-7):
        flat = np.asarray(theta, dtype=float).reshape(-1)
        if flat.min() < -tol or (flat - self.upper).max() > tol:
            return False
        if np.abs(self.eq @ flat - self.eq_rhs).max() > tol:
            return False
        return not self.b_rows.shape[0] or (self.b_rows @ flat - self.b_rhs).max() <= tol

    def theta_kk_min(self, k):
        c = np.zeros(self.K * self.K)
        c[k * self.K + k] = 1.0
        return max(_optimum(self.solve(c)), 0.0)

    def nu_lower_bounds(self):
        gaps = self.table.gaps()
        out = np.zeros(self.K)
        tmins = np.array([self.theta_kk_min(k) for k in range(self.K)])
        for k in range(self.K):
            if tmins[k] > ZERO_TOL:
                out[k] = max(gaps[k] - (self.p1[k] - tmins[k]), 0.0) / tmins[k]
        return out, tmins

    def slack(self):
        """``min s`` with ``gap_k <= P(M = m_k | 1) - theta_kk + s`` for all k."""
        K = self.K
        ub = np.zeros((K, K * K + 1))
        for k in range(K):
            ub[k, k * K + k] = 1.0
        ub[:, -1] = -1.0
        c = np.zeros(K * K + 1)
        c[-1] = 1.0
        res = self.solve(c, extra=1, extra_bounds=[(None, None)], ub=ub,
                         ub_rhs=self.p1 - self.table.gaps())
        return _optimum(res)

    def _pooled_rows(self, scale_col):
        """Rows over (theta, t, [s]): t_k >= gap_k - sum_{l != k} theta_lk and
        t_k <= theta_kk, with the gap multiplied by ``s`` when homogenised."""
        K = self.K
        n = K * K + K + (1 if scale_col else 0)
        gaps = self.table.gaps()
        rows, rhs = [], []
        for k in range(K):
            row = np.zeros(n)
            row[[l * K + k for l in range(K) if l != k]] = -1.0
            row[K * K + k] = -1.0
            if scale_col:
                row[-1] = gaps[k]
                rhs.append(0.0)
            else:
                rhs.append(-gaps[k])
            rows.append(row)
            row = np.zeros(n)
            row[K * K + k] = 1.0
            row[k * K + k] = -1.0
            rows.append(row)
            rhs.append(0.0)
        return np.array(rows), np.array(rhs)

    def pooled_lower_bound(self):
        """``min sum_k t_k / sum_k theta_kk`` by the Charnes-Cooper LP; zero
        when the always-taker mass can vanish."""
        K = self.K
        diag = np.zeros(K * K + K)
        diag[[k * K + k for k in range(K)]] = 1.0
        ub, ub_rhs = self._pooled_rows(scale_col=False)
        if _optimum(self.solve(diag, extra=K, ub=ub, ub_rhs=ub_rhs)) <= ZERO_TOL:
            return 0.0
        # Homogenised variables (y, u, s): marginals and budgets scale with s.
        n = K * K + K + 1
        a_eq = np.zeros((self.eq.shape[0] + 1, n))
        a_eq[:-1, : K * K] = self.eq
        a_eq[:-1, -1] = -self.eq_rhs
        a_eq[-1, :-1] = diag
        b_eq = np.zeros(a_eq.shape[0])
        b_eq[-1] = 1.0
        ub, ub_rhs = self._pooled_rows(scale_col=True)
        if self.b_rows.shape[0]:
            budget = np.zeros((self.b_rows.shape[0], n))
            budget[:, : K * K] = self.b_rows
            budget[:, -1] = -self.b_rhs
            ub = np.vstack([ub, budget])
            ub_rhs = np.concatenate([ub_rhs, np.zeros(budget.shape[0])])
        c = np.zeros(n)
        c[K * K: K * K + K] = 1.0
        bounds = [(0.0, None if np.isinf(u) else u) for u in self.upper]
        bounds += [(0.0, None)] * (K + 1)
        res = linprog(c, A_ub=ub, b_ub=ub_rhs, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                      method="highs")
        return max(_optimum(res), 0.0)

    def ade_bounds(self, k, tmin):
        """Trimming bounds on the k-always-taker average effect."""
        levels = self.table.levels
        if tmin <= ZERO_TOL:
            span = float(levels.max() - levels.min())
            return -span, span
        out = {}
        for d, p in ((0, self.p0[k]), (1, self.p1[k])):
            share = min(tmin / p, 1.0)
            pmf = self.table.mass[d, k] / self.table.mass[d, k].sum()
            out[d] = (_trimmed_mean(levels, pmf, share),
                      _trimmed_mean(levels[::-1], pmf[::-1], share))
        return out[1][0] - out[0][1], out[1][1] - out[0][0]


def _trimmed_mean(levels, pmf, share):
    """Mean of the first ``share`` of the mass in the given order."""
    before = np.concatenate([[0.0], np.cumsum(pmf)[:-1]])
    take = np.clip(share - before, 0.0, pmf)
    return float(levels @ take / share)


def _optimum(res):
    if res.status != 0:
        raise ValueError(f"reference LP did not solve: {res.message}")
    return float(res.fun)


def min_defier_budget(table: Table):
    """Smallest defier mass compatible with the two mediator marginals."""
    s = IdentifiedSet(table, Restriction("none"))
    return max(_optimum(s.solve(defier_cells(table.points).reshape(-1).astype(float))), 0.0)


def breakdown_budget(table: Table):
    """Largest defier budget with a positive pooled bound, as one LP: the
    least defier mass at which every stratum's gap is covered by the
    compliers moving into it."""
    K = table.k
    s = IdentifiedSet(table, Restriction("none"))
    cover = np.zeros((K, K * K))
    for k in range(K):
        cover[k, [l * K + k for l in range(K) if l != k]] = -1.0
    res = s.solve(defier_cells(table.points).reshape(-1).astype(float), ub=cover,
                  ub_rhs=-table.gaps())
    if res.status == 2:
        return 1.0
    value = _optimum(res)
    if value <= min_defier_budget(table) + ZERO_TOL:
        return 0.0
    return value


# -- tests ------------------------------------------------------------------

def cluster_counts(y, m, d, cluster=None):
    """Per-cluster counts ``(G, 2, K, Q)``; unit-level data are one cluster
    per row."""
    points, levels, k_of, q_of = encode(y, m)
    K, Q = points.shape[0], levels.size
    unit = np.arange(len(y)) if cluster is None else np.unique(cluster, return_inverse=True)[1]
    G = int(unit.max()) + 1
    flat = np.bincount(((unit * 2 + d) * K + k_of) * Q + q_of, minlength=G * 2 * K * Q)
    return flat.reshape(G, 2, K, Q)


def binary_lf_statistic(counts):
    """Least-favorable max statistic of the binary-mediator, monotone,
    no-nuisance moment system, in closed form from cluster counts.

    The moments are ``P1(y, m_low) - P0(y, m_low)`` and
    ``P0(y, m_high) - P1(y, m_high)`` for every outcome level y, each
    studentized by its cluster-level influence-function standard deviation.
    """
    G = counts.shape[0]
    n_g = counts.sum(axis=(2, 3))  # (G, 2)
    n_arm = n_g.sum(axis=0)
    p = counts.sum(axis=0) / n_arm[:, None, None]
    psi = G * (counts - p[None] * n_g[:, :, None, None]) / n_arm[None, :, None, None]
    mom = np.concatenate([p[1, 0] - p[0, 0], p[0, 1] - p[1, 1]])
    infl = np.concatenate([psi[:, 1, 0] - psi[:, 0, 0], psi[:, 0, 1] - psi[:, 1, 1]], axis=1)
    sd = np.sqrt((infl ** 2).sum(axis=0) / G)
    soft = sd >= 1e-12
    if (mom[~soft] > 1e-10).any():
        return np.inf
    return float(np.sqrt(G) * max(float(np.max(mom[soft] / sd[soft])), 0.0))


def chisq_consistent(result, alpha):
    """Errors in a conditional chi-squared result's critical value,
    p-value and decision, recomputed from its statistic and df."""
    errors = []
    stat, df = result["statistic"], result.get("df")
    if df is None or df < 0:
        return [f"missing or negative df {df}"]
    if df == 0:
        if result["critical_value"] != "inf" or result["p_value"] != 1.0 or result["reject"]:
            errors.append("df = 0 must give an infinite critical value and p = 1")
        return errors
    crit = float(chi2.ppf(1.0 - alpha, df))
    if not np.isclose(result["critical_value"], crit, rtol=1e-12, atol=0.0):
        errors.append(f"critical value {result['critical_value']} != chi2 quantile {crit}")
    p = float(chi2.sf(stat, df))
    if not np.isclose(result["p_value"], p, rtol=1e-9, atol=1e-300):
        errors.append(f"p-value {result['p_value']} != chi2 tail {p}")
    if result["reject"] != (stat > crit):
        errors.append(f"reject={result['reject']} but statistic {stat} vs critical {crit}")
    return errors
