import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog as scipy_linprog
from scipy.stats import chi2

from conftest import make_table, random_table, records_from_table
from mechtest.bounds import sharp_null_slack
from mechtest.errors import EstimationError, StructuralError
from mechtest import inference, mc
from mechtest.inference import (
    CellCountWarning,
    MomentRow,
    MomentSystem,
    _minmax_statistic,
    build_moment_system,
    median_cluster_cell_count,
    test_conditional_chisq,
    test_least_favorable_bootstrap,
)
from mechtest.probtab import RecordSet, support_from_values
from mechtest.rng import substream
from mechtest.typeshares import RestrictionSet, marginal_equalities


def build(records, r=None, **kw):
    if r is None:
        r = RestrictionSet.monotone(support_from_values(records.m))
    kw.setdefault("min_cell", 0)
    return build_moment_system(records, r, **kw)


def binary_records(rng, n=2000, lift=0.0):
    d = rng.integers(0, 2, n)
    m = (rng.random(n) < 0.4).astype(float)
    base = 0.3 + 0.3 * m + lift * d * (1 - m)
    y = (rng.random(n) < base).astype(float)
    return RecordSet(y=y, m=m, d=d)


def test_binary_monotone_special_case_shape():
    rng = np.random.default_rng(0)
    rec = binary_records(rng, 500)
    system = build(rec)
    assert system.n_omega == 0
    assert system.n_rows == 4  # two directions x two outcome values
    assert all(not row.hard for row in system.rows)
    # p stacks joint cells then mediator marginals
    assert system.p_hat.size == 2 * 2 * 2 + 2 * 2


def test_general_system_dimensions():
    rng = np.random.default_rng(1)
    n = 3000
    rec = RecordSet(
        y=rng.integers(0, 5, n).astype(float),
        m=rng.integers(0, 3, n).astype(float),
        d=rng.integers(0, 2, n),
    )
    r = RestrictionSet.monotone(support_from_values(rec.m))
    system = build(rec, r)
    K, Q = 3, 5
    assert system.n_omega == K * K + K * Q  # 24 columns
    n_restriction_rows = r.matrix.shape[0] + K * K  # order pins + share nonneg
    assert system.n_rows == K * (1 + 2 * Q) + 4 * K + n_restriction_rows
    kinds = {row.kind for row in system.rows}
    assert {"budget", "gap", "delta_nonneg", "restriction", "theta_nonneg"} <= kinds
    hard_kinds = {row.kind for row in system.rows if row.hard}
    assert "match_m0_lo" in hard_kinds and "match_m1_hi" in hard_kinds


def loop_rows(support, r, Q, nu_ub):
    """Row-by-row construction of the general moment system, the
    reference for the block builder: ``(c1, c2, rows)``."""
    K = support.k
    n_theta, n_p = K * K, 2 * K * Q + 2 * K
    n_omega = n_theta + K * Q
    c1_rows, c2_rows, rows = [], [], []

    def add(kind, c1, c2, **tags):
        c1_rows.append(c1)
        c2_rows.append(c2)
        rows.append(MomentRow(kind, **tags))

    for k in range(K):
        c1, c2 = np.zeros(n_omega), np.zeros(n_p)
        c1[k * K + k] = -(1.0 - nu_ub[k])
        c1[n_theta + k * Q: n_theta + (k + 1) * Q] = -1.0
        c2[2 * K * Q + k] = -1.0
        add("budget", c1, c2, k=k)
        for q in range(Q):
            c1, c2 = np.zeros(n_omega), np.zeros(n_p)
            c1[n_theta + k * Q + q] = 1.0
            c2[k * Q + q] = 1.0
            c2[K * Q + k * Q + q] = -1.0
            add("gap", c1, c2, k=k, q=q)
        for q in range(Q):
            c1 = np.zeros(n_omega)
            c1[n_theta + k * Q + q] = 1.0
            add("delta_nonneg", c1, np.zeros(n_p), k=k, q=q, hard=True)
    eq_a, _ = marginal_equalities(support, np.zeros(K), np.zeros(K))
    for k in range(K):
        for sign, tag in ((1.0, "lo"), (-1.0, "hi")):
            for arm, eq_row, marg in ((0, k, 2 * K * Q + K + k), (1, K + k, 2 * K * Q + k)):
                c1, c2 = np.zeros(n_omega), np.zeros(n_p)
                c1[:n_theta] = sign * eq_a[eq_row]
                c2[marg] = sign
                add(f"match_m{arm}_{tag}", c1, c2, k=k, hard=True)
    for j in range(r.matrix.shape[0]):
        c1, c2 = np.zeros(n_omega), np.zeros(n_p)
        c1[:n_theta] = -r.matrix[j]
        c2[: K * Q] = -r.rhs[j]
        add("restriction", c1, c2, k=j, hard=True)
    for i in range(n_theta):
        c1 = np.zeros(n_omega)
        c1[i] = 1.0
        add("theta_nonneg", c1, np.zeros(n_p), k=i // K, q=i % K, hard=True)
    return np.array(c1_rows), np.array(c2_rows), tuple(rows)


def test_block_built_rows_equal_row_by_row_reference():
    rng = np.random.default_rng(5)
    for trial in range(40):
        K, Q, n = int(rng.integers(2, 6)), int(rng.integers(1, 5)), 400
        if trial % 4 == 3:  # 2-D mediator
            m = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n)]).astype(float)
        else:
            m = rng.integers(0, K, n).astype(float)
        rec = RecordSet(y=rng.integers(0, Q, n).astype(float), m=m, d=rng.integers(0, 2, n))
        support = support_from_values(rec.m)
        if support.totally_ordered:
            r = (RestrictionSet.defier_budget(support, 0.1), RestrictionSet.unrestricted(support),
                 RestrictionSet.bounded_effect(support, 1, 0.05))[trial % 3]
        else:
            r = RestrictionSet.elementwise_defier_budget(support, 0.05)
        nu_ub = rng.uniform(0.0, 1.0, support.k) * (trial % 2)
        system = build(rec, r, nu_ub=nu_ub)
        c1, c2, rows = loop_rows(support, r, system.n_outcomes, nu_ub)
        assert system.rows == rows
        assert system.c1.tobytes() == c1.tobytes() and system.c1.shape == c1.shape
        assert system.c2.tobytes() == c2.tobytes() and system.c2.shape == c2.shape


def test_h0_form_is_exact():
    """A theta in the identified set satisfying the gap constraints makes
    every row of C1 w - C2 p nonnegative (population check)."""
    rng = np.random.default_rng(2)
    mass = np.zeros((2, 2, 2))
    mass[0, 0] = (0.3, 0.3)
    mass[0, 1] = (0.2, 0.2)
    mass[1, 0] = (0.3, 0.3)
    mass[1, 1] = (0.2, 0.2)
    table = make_table(mass)
    rec = records_from_table(table, per_arm=10)
    r = RestrictionSet.defier_budget(table.support, 0.1)  # general path
    system = build(rec, r)
    K, Q = 2, 2
    theta = np.diag([0.6, 0.4]).reshape(-1)
    delta = np.zeros(K * Q)
    omega = np.concatenate([theta, delta])
    vals = system.c1 @ omega - system.c2 @ system.p_hat
    assert vals.min() > -1e-12


def test_nu_ub_one_trivially_satisfiable():
    rng = np.random.default_rng(3)
    rec = binary_records(rng, 800, lift=0.4)
    system = build(rec, nu_ub=1.0)
    sds = system.moment_sds()
    hard = system.hard_mask()
    t0, _ = _minmax_statistic(system, system.p_hat, np.zeros(system.n_rows), sds, hard)
    assert t0 <= 1e-10


def test_population_statistic_matches_slack_sign():
    """T = 0 iff the sharp-null slack is nonpositive, on exact-population
    records."""
    rng = np.random.default_rng(4)
    agree = 0
    for _ in range(100):
        K, Q = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        theta = np.triu(rng.uniform(0.05, 1.0, (K, K)))
        theta /= theta.sum()
        p0, p1 = theta.sum(axis=1), theta.sum(axis=0)
        mass = np.empty((2, K, Q))
        grid = 20
        for k in range(K):
            mass[0, k] = np.round(p0[k] * rng.dirichlet(np.ones(Q)) * grid) / grid
            mass[1, k] = np.round(p1[k] * rng.dirichlet(np.ones(Q)) * grid) / grid
        # exact rational masses: repair rounding drift into the largest cell
        for d in (0, 1):
            flat = mass[d].reshape(-1)
            flat[np.argmax(flat)] += 1.0 - flat.sum()
        table = make_table(mass)
        r = RestrictionSet.monotone(table.support)
        from mechtest.typeshares import build_identified_set

        if not build_identified_set(table, r).feasible:
            continue
        rec = records_from_table(table, per_arm=grid * 4)
        system = build(rec, r)
        sds = system.moment_sds()
        hard = system.hard_mask()
        t0, _ = _minmax_statistic(system, system.p_hat, np.zeros(system.n_rows), sds, hard)
        stat_zero = (not np.isfinite(t0)) is False and max(t0, 0.0) <= 1e-9
        slack = sharp_null_slack(table, r)
        assert stat_zero == (slack <= 1e-9)
        agree += 1
    assert agree >= 60


def test_bootstrap_determinism():
    rng = np.random.default_rng(5)
    rec = binary_records(rng, 600, lift=0.2)
    system = build(rec)
    a = test_least_favorable_bootstrap(system, 0.05, b_draws=250, seed=9)
    b = test_least_favorable_bootstrap(system, 0.05, b_draws=250, seed=9)
    assert a == b
    c = test_least_favorable_bootstrap(system, 0.05, b_draws=250, seed=10)
    assert c.critical_value != a.critical_value


def test_bootstrap_preconditions():
    rng = np.random.default_rng(6)
    system = build(binary_records(rng, 300))
    with pytest.raises(StructuralError):
        test_least_favorable_bootstrap(system, 0.05, b_draws=0)
    with pytest.raises(StructuralError):
        test_least_favorable_bootstrap(system, 1.5, b_draws=300)
    with pytest.raises(StructuralError, match="seed must be a non-negative integer, got -1"):
        test_least_favorable_bootstrap(system, 0.05, b_draws=300, seed=-1)


def test_degenerate_data_error():
    # all outcomes and mediators constant: every moment row has zero sd
    rec = RecordSet(y=np.zeros(40), m=np.zeros(40), d=np.tile([0, 1], 20))
    system = build(rec, RestrictionSet.unrestricted(support_from_values(rec.m)))
    with pytest.raises(EstimationError):
        test_least_favorable_bootstrap(system, 0.05, b_draws=300)


def test_clustered_covariance_reduces_to_iid():
    rng = np.random.default_rng(7)
    rec = binary_records(rng, 400)
    with_singletons = RecordSet(
        y=rec.y, m=rec.m, d=rec.d, cluster=np.arange(rec.n),
    )
    a = build(rec)
    b = build(with_singletons)
    assert_allclose(a.sigma_hat, b.sigma_hat, atol=1e-12)
    assert a.n_eff == b.n_eff == rec.n


def test_covariance_matches_multinomial_formula():
    rng = np.random.default_rng(8)
    rec = binary_records(rng, 500)
    system = build(rec)
    # within-arm multinomial: Cov(sqrt(N)(p-hat_d - p_d)) = (diag(p) - pp') / share_d
    n1 = int(rec.d.sum())
    for d, sl in ((1, slice(0, 4)), (0, slice(4, 8))):
        p = system.p_hat[sl]
        share = (n1 if d == 1 else rec.n - n1) / rec.n
        ref = (np.diag(p) - np.outer(p, p)) / share
        assert_allclose(system.sigma_hat[sl, sl], ref, atol=1e-9)


def test_binary_population_feasibility_matches_direct_check():
    rng = np.random.default_rng(9)
    for _ in range(30):
        table = random_table(rng, K=2, Q=3, monotone_theta=True)
        rec = None
        # direct two-direction comparison of the paired cells
        low = table.mass[1, 0] - table.mass[0, 0]
        high = table.mass[0, 1] - table.mass[1, 1]
        direct_ok = low.max() <= 1e-12 and high.max() <= 1e-12
        r = RestrictionSet.monotone(table.support)
        slack = sharp_null_slack(table, r)
        assert (slack <= 1e-9) == direct_ok


def synthetic_system(p_hat, sigma, n_eff):
    """One-moment system H0: p <= 0 with no nuisance columns."""
    return MomentSystem(
        c1=np.zeros((1, 0)),
        c2=np.array([[1.0]]),
        p_hat=np.atleast_1d(p_hat).astype(float),
        sigma_hat=np.atleast_2d(sigma).astype(float),
        n_eff=n_eff,
        rows=(MomentRow("gap", k=0, q=0),),
        n_outcomes=1,
        cluster_cells=np.zeros((1, 2, 1, 1), dtype=np.int64),
        cluster_arm=np.array([-1]),
    )


def test_chisq_interior_point_accepts():
    system = synthetic_system(-0.5, 1.0, 100)
    res = test_conditional_chisq(system, 0.05)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.df == 0
    assert not res.reject
    assert res.p_value == 1.0


def test_chisq_one_sided_normal_size():
    """Statistic follows chi-squared(1) conditional on the constraint
    binding, so simulating p-hat from the half-normal law gives rejection
    rate alpha."""
    rng = np.random.default_rng(10)
    n = 400
    alpha = 0.05
    rejections = 0
    sims = 4000
    for _ in range(sims):
        z = abs(rng.normal())
        res = test_conditional_chisq(synthetic_system(z / np.sqrt(n), 1.0, n), alpha)
        rejections += res.reject
    rate = rejections / sims
    se = np.sqrt(alpha * (1 - alpha) / sims)
    assert abs(rate - alpha) < 4 * se


def test_chisq_rejects_binary_violation_at_n5000(binary_instance):
    rec = records_from_table(binary_instance, per_arm=2500)
    system = build(rec)
    res = test_conditional_chisq(system, 0.05)
    assert res.reject
    assert res.df >= 1
    lf = test_least_favorable_bootstrap(system, 0.05, b_draws=500, seed=3)
    assert lf.reject
    assert lf.p_value < 0.01


def test_chisq_df_counts_binding_gradients():
    system = synthetic_system(0.4, 1.0, 100)
    res = test_conditional_chisq(system, 0.05)
    assert res.df == 1
    assert res.statistic == pytest.approx(100 * 0.4**2, rel=1e-6)
    assert res.critical_value == pytest.approx(chi2.ppf(0.95, 1))


def test_cell_count_warning_and_median():
    rng = np.random.default_rng(12)
    rec = binary_records(rng, 60)
    with pytest.warns(CellCountWarning):
        build_moment_system(rec, RestrictionSet.monotone(support_from_values(rec.m)))
    med = median_cluster_cell_count(rec)
    assert med > 0


def test_reject_consistency_between_fields():
    rng = np.random.default_rng(13)
    for lift in (0.0, 0.3):
        rec = binary_records(rng, 1500, lift=lift)
        system = build(rec)
        res = test_least_favorable_bootstrap(system, 0.05, b_draws=400, seed=0)
        assert res.reject == (res.statistic > res.critical_value)
        res2 = test_conditional_chisq(system, 0.05)
        assert res2.reject == (res2.statistic > res2.critical_value)
        assert res2.reject == (res2.p_value < 0.05)


def ordered_violation_records(rng, n=3000, K=3):
    """Ordered mediator 0..K-1: treatment moves it up one step for half of
    the units and raises the outcome of most units it leaves alone."""
    d = rng.integers(0, 2, n)
    m = rng.integers(0, K, n)
    moved = (d == 1) & (m < K - 1) & (rng.random(n) < 0.5)
    m = m + moved
    y = (rng.random(n) < 0.1 + 0.5 * m / K) | ((d == 1) & ~moved & (rng.random(n) < 0.8))
    return RecordSet(y=y.astype(float), m=m.astype(float), d=d)


def test_lf_bootstrap_rejects_with_nuisance_coordinates():
    # the hard rows (nonnegativity, restriction, marginal matching) are not
    # recentred, so the bootstrap draws stay feasible and finite
    system = build(ordered_violation_records(np.random.default_rng(31)))
    assert system.n_omega > 0
    res = test_least_favorable_bootstrap(system, 0.05, b_draws=200, seed=4)
    assert np.isfinite(res.critical_value)
    assert res.reject and res.p_value <= 0.05


def test_chisq_solves_the_32000_row_k10_ordered_design():
    # K=10 ordered mediator and binary outcome under a randomized instrument
    # with 70% compliers; treatment moves the mediator up one step for half
    # of the treated and raises the outcome of 80% of the treated it leaves
    # alone.  On this draw the active-set QP used to run out of iterations.
    rng = np.random.default_rng((3, 0))
    n, K = 32000, 10
    z = (rng.random(n) < 0.5).astype(int)
    u = rng.random(n)
    d = np.where(u < 0.7, z, (u < 0.85).astype(int))
    m = rng.integers(0, K, n)
    moved = (d == 1) & (m < K - 1) & (rng.random(n) < 0.5)
    m = m + moved
    y = (rng.random(n) < 0.1 + 0.5 * m / K) | ((d == 1) & ~moved & (rng.random(n) < 0.8))
    rec = RecordSet(y=y.astype(float), m=m.astype(float), d=d)
    system = build_moment_system(rec, RestrictionSet.monotone(support_from_values(rec.m)))
    result = test_conditional_chisq(system, alpha=0.05)
    assert result.reject
    assert result.df >= 1


def test_chisq_quantile_and_tail_equal_scipy_stats_chi2(monkeypatch):
    alphas = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.9)
    for df in range(1, 200, 3):
        for stat in (0.05 * df, df - 1.0, 2.0 * df, 5.0 * df + 30.0):
            monkeypatch.setattr(inference, "_chisq_solution", lambda system: (stat, df))
            for alpha in alphas:
                res = test_conditional_chisq(None, alpha)
                assert res.critical_value == float(chi2.ppf(1.0 - alpha, df))
                assert res.p_value == float(chi2.sf(stat, df))


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(inference.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, mechtest.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def highs_minmax(system, p_vec, shift, sds, hard):
    """``min t`` over free (omega, t) with hard rows ``C2 p - shift - C1 omega
    <= 0`` and soft rows ``<= sd t``, solved by HiGHS."""
    mom = system.c2 @ p_vec - shift
    soft = ~hard
    a_ub = np.vstack([np.hstack([-system.c1[soft], -sds[soft, None]]),
                      np.hstack([-system.c1[hard], np.zeros((hard.sum(), 1))])])
    res = scipy_linprog(
        np.r_[np.zeros(system.n_omega), 1.0],
        A_ub=a_ub,
        b_ub=np.r_[-mom[soft], -mom[hard]],
        bounds=[(None, None)] * (system.n_omega + 1),
        method="highs",
    )
    assert res.status == 0
    return res.fun


def test_minmax_statistic_matches_highs_with_nuisance_coordinates():
    rng = np.random.default_rng(41)
    for K in (3, 4, 5):
        system = build(ordered_violation_records(rng, n=4000, K=K))
        assert system.n_omega > 0
        sds, hard = system.moment_sds(), system.hard_mask()
        zero = np.zeros(system.n_rows)
        t0, omega_hat = _minmax_statistic(system, system.p_hat, zero, sds, hard)
        ref = highs_minmax(system, system.p_hat, zero, sds, hard)
        assert abs(t0 - ref) <= 1e-9 * (1.0 + abs(ref))
        # one least-favorable draw: soft rows recentred at omega_hat
        soft = ~np.array([row.hard for row in system.rows])
        shift = np.where(soft, system.c2 @ system.p_hat - system.c1 @ omega_hat, 0.0)
        p_star = inference.p_from_cells(inference._make_resampler(system)(substream(K, 0)))
        t_b, _ = _minmax_statistic(system, p_star, shift, sds, hard)
        ref = highs_minmax(system, p_star, shift, sds, hard)
        assert abs(t_b - ref) <= 1e-9 * (1.0 + abs(ref))


def reference_draw(system, rng):
    """One resampled (2, K, Q) count table as the per-draw loop made it,
    summing the drawn clusters' count arrays."""
    cells, arm = system.cluster_cells, system.cluster_arm
    if (cells.sum(axis=(1, 2, 3)) == 1).all():  # the multinomial path is unchanged
        return inference._make_resampler(system)(rng)
    if (arm >= 0).all():
        out = np.zeros(cells.shape[1:], dtype=np.int64)
        for d in (0, 1):
            pool = np.nonzero(arm == d)[0]
            out += cells[pool[rng.integers(0, pool.size, pool.size)]].sum(axis=0)
        return out
    for _ in range(100):
        out = cells[rng.integers(0, cells.shape[0], cells.shape[0])].sum(axis=0)
        if out.sum(axis=(1, 2)).min() > 0:
            return out
    raise EstimationError("bootstrap could not produce both arms")


def reference_p(cells):
    totals = cells.sum(axis=(1, 2))
    if totals.min() <= 0:
        raise EstimationError("a treatment arm is empty")
    return np.concatenate([cells[1].reshape(-1) / totals[1], cells[0].reshape(-1) / totals[0],
                           cells[1].sum(axis=1) / totals[1], cells[0].sum(axis=1) / totals[0]])


def reference_lf_draws(system, b_draws, seed):
    """The LF bootstrap as a loop over draws, one vector at a time: the
    reference for the stacked evaluation."""
    sds, hard = system.moment_sds(), system.hard_mask()

    def minmax(p_vec, shift):
        if system.n_omega:
            return _minmax_statistic(system, p_vec, shift, sds, hard)
        mom = system.c2 @ p_vec - shift
        if hard.any() and (mom[hard] > 1e-10).any():
            return np.inf, None
        return float(np.max(mom[~hard] / sds[~hard])), np.zeros(0)

    t0, omega_hat = minmax(system.p_hat, np.zeros(system.n_rows))
    root_n = np.sqrt(system.n_eff)
    statistic = root_n * max(t0, 0.0) if np.isfinite(t0) else np.inf
    shift = np.zeros(system.n_rows)
    if omega_hat is not None:
        soft = ~np.array([row.hard for row in system.rows], dtype=bool)
        shift[soft] = (system.c2 @ system.p_hat - system.c1 @ omega_hat)[soft]
    draws = np.empty(b_draws)
    for b in range(b_draws):
        t_b, _ = minmax(reference_p(reference_draw(system, substream(seed, b))), shift)
        draws[b] = root_n * max(t_b, 0.0) if np.isfinite(t_b) else np.inf
    return statistic, np.sort(draws)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def clustered(rec, labels):
    return RecordSet(y=rec.y, m=rec.m, d=rec.d, cluster=labels)


def lf_equivalence_case(name):
    """``(system, b_draws, seed)`` of one input of the equivalence test."""
    rng = np.random.default_rng(51)
    unit = binary_records(rng, 1500, lift=0.1)
    if name == "unit":
        return build(unit), 300, 7
    if name == "unit-four-levels":
        n = 1200
        rec = RecordSet(y=rng.integers(0, 4, n).astype(float),
                        m=(rng.random(n) < 0.5).astype(float), d=rng.integers(0, 2, n))
        return build(rec), 300, 8
    if name == "arm-pure-clusters":  # 12 units each, within an arm
        labels = 1000 * unit.d + np.arange(unit.n) // 12
        return build(clustered(unit, labels)), 300, 9
    if name == "mixed-clusters":
        return build(clustered(unit, np.arange(unit.n) % 40)), 300, 10
    if name == "hard-through-sd":
        # one soft-flagged row with zero sd: hard through hard_mask alone,
        # so the draws that move it above zero are +inf
        system = build(unit)
        j = int(np.argmin(system.c2 @ system.p_hat))
        used = system.c2[j] != 0
        sigma = np.where(used[:, None] | used[None, :], 0.0, system.sigma_hat)
        return dataclasses.replace(system, sigma_hat=sigma), 300, 11
    if name == "tied-draws":
        # replicate 4 of the simulate run whose draws tie with the statistic
        cp, tp = mc.cluster_pools()
        dgp = mc.MixtureDgp(control_pool=cp, treated_pool=tp, t=0.0, cluster_mode=True,
                            clusters_per_arm=20)
        records = mc.draw_sample(dgp, mc._derive(789609968, 4))
        return build(records, bins=5), 999, mc._derive(789609968, 4, 1)
    assert name in ("ordered-nuisance", "ordered-negative-zero")
    return build(ordered_violation_records(rng, n=1500)), 200, 12


@pytest.mark.parametrize("name", ["unit", "unit-four-levels", "arm-pure-clusters",
                                  "mixed-clusters", "hard-through-sd", "tied-draws",
                                  "ordered-nuisance", "ordered-negative-zero"])
def test_stacked_lf_draws_equal_the_per_draw_loop(name, monkeypatch):
    system, b_draws, seed = lf_equivalence_case(name)
    if name == "ordered-negative-zero":
        # LP optima of -0.0, which max(t, 0.0) keeps and np.maximum would not
        solve = inference.solve_lp

        def signed_zero(lp):
            sol = solve(lp)
            if sol.status == inference.OPTIMAL and sol.value <= 0:
                sol = dataclasses.replace(sol, value=-0.0)
            return sol

        monkeypatch.setattr(inference, "solve_lp", signed_zero)
    statistic, order = inference._lf_draws(system, b_draws, seed)
    ref_statistic, ref_order = reference_lf_draws(system, b_draws, seed)
    assert_same_bits(statistic, ref_statistic)
    assert_same_bits(order, ref_order)
    result = test_least_favorable_bootstrap(system, 0.05, b_draws=b_draws, seed=seed)
    monkeypatch.setattr(inference, "_lf_draws", lambda *args: (ref_statistic, ref_order))
    assert repr(result) == repr(test_least_favorable_bootstrap(system, 0.05, b_draws=b_draws,
                                                               seed=seed))
    if name == "hard-through-sd":
        assert np.isfinite(statistic) and 0 < np.isinf(order).sum() < b_draws
    if name == "tied-draws":
        assert (np.abs(order - statistic) <= 1e-9 * statistic).any()
    if name == "arm-pure-clusters":
        assert (system.cluster_arm >= 0).all()
    if name == "ordered-negative-zero":
        assert np.signbit(order[order == 0]).any()


def test_mixed_cluster_resampler_retries_then_gives_up():
    # 20 control-only clusters and one that holds every treated unit: a draw
    # that misses it empties the treated arm and is redrawn
    rng = np.random.default_rng(61)
    d = np.r_[np.zeros(210, dtype=int), np.ones(100, dtype=int)]
    rec = RecordSet(y=rng.integers(0, 2, d.size).astype(float),
                    m=(rng.random(d.size) < 0.4).astype(float), d=d,
                    cluster=np.minimum(np.arange(d.size) // 10, 20))
    system = build(rec)
    assert system.cluster_arm.tolist() == [0] * 20 + [-1]
    cells = system.cluster_cells
    G = cells.shape[0]
    resample = inference._make_resampler(system)
    retries = 0
    for seed in range(30):
        got = resample(substream(seed, 0))
        ref_rng = substream(seed, 0)
        for _ in range(100):
            want = cells[ref_rng.integers(0, G, G)].sum(axis=0)
            if want[1].sum() > 0:
                break
            retries += 1
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(resample(substream(seed, 0)), got)  # deterministic
    assert retries > 0
    no_treated = cells.copy()
    no_treated[:, 1] = 0
    resample = inference._make_resampler(dataclasses.replace(system, cluster_cells=no_treated))
    with pytest.raises(EstimationError, match="could not produce both arms"):
        resample(substream(0, 0))
