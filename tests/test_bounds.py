import csv
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog as scipy_linprog

from conftest import make_table, random_table
from mechtest.bounds import (
    ade_bounds,
    bounds_report,
    breakdown_defier_budget,
    nu_lower_bounds,
    nu_pooled_lower_bound,
    sharp_null_slack,
    within_bin_slack,
)
from mechtest.errors import IdentificationError
from mechtest.probtab import delta_sup
from mechtest.typeshares import (
    RestrictionSet,
    build_identified_set,
    theta_kk_min,
)


def monotone(table):
    return RestrictionSet.monotone(table.support)


def coupling_oracle_nu(table, theta, k):
    """Minimal always-taker disagreement at k via an explicit transport LP.

    Variables: the always-taker joint pmf pi (scaled by theta_kk), plus the
    complier-in masses u under treatment and complier-out masses w under
    control.  Minimizes off-diagonal pi mass subject to reproducing both
    observed partial pmfs.  Independent of the production formula.
    """
    Q = table.n_outcomes
    f1 = table.mass[1, k]
    f0 = table.mass[0, k]
    comp_in = theta[:, k].sum() - theta[k, k]
    comp_out = theta[k, :].sum() - theta[k, k]
    n = Q * Q + 2 * Q
    cost = np.zeros(n)
    for i in range(Q):
        for j in range(Q):
            if i != j:
                cost[i * Q + j] = 1.0
    A_eq = []
    b_eq = []
    for i in range(Q):  # row sums + u_i = f1_i
        row = np.zeros(n)
        row[i * Q: (i + 1) * Q] = 1.0
        row[Q * Q + i] = 1.0
        A_eq.append(row)
        b_eq.append(f1[i])
    for j in range(Q):  # col sums + w_j = f0_j
        row = np.zeros(n)
        row[j: Q * Q: Q] = 1.0
        row[Q * Q + Q + j] = 1.0
        A_eq.append(row)
        b_eq.append(f0[j])
    row = np.zeros(n)
    row[Q * Q: Q * Q + Q] = 1.0
    A_eq.append(row)
    b_eq.append(comp_in)
    row = np.zeros(n)
    row[Q * Q + Q:] = 1.0
    A_eq.append(row)
    b_eq.append(comp_out)
    res = scipy_linprog(cost, A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                        bounds=[(0, None)] * n, method="highs")
    assert res.status == 0, "oracle LP infeasible"
    return res.fun  # = theta_kk * nu_k at its minimum


def test_nu_lower_bounds_binary(binary_instance):
    out = nu_lower_bounds(binary_instance, monotone(binary_instance))
    assert_allclose(out, [1.0 / 3.0, 0.25], atol=1e-9)
    # oracle: minimal-disagreement coupling scaled by the point-identified shares
    theta = np.diag([0.6, 0.4])
    for k, t_kk in ((0, 0.6), (1, 0.4)):
        oracle = coupling_oracle_nu(binary_instance, theta, k) / t_kk
        assert out[k] == pytest.approx(oracle, abs=1e-9)


def test_nu_zero_when_arms_identical():
    rng = np.random.default_rng(0)
    base = random_table(rng, K=3, Q=3)
    same = make_table(np.stack([base.mass[0], base.mass[0]]))
    out = nu_lower_bounds(same, monotone(same))
    assert_allclose(out, 0.0, atol=1e-12)


def test_nu_zero_when_compliers_absorb_gap():
    mass = np.zeros((2, 2, 2))
    mass[0, 0] = (0.3, 0.3)
    mass[0, 1] = (0.2, 0.2)
    mass[1, 0] = (0.2, 0.2)
    mass[1, 1] = (0.35, 0.25)
    table = make_table(mass)
    # gap into k=1 is 0.15+0.05=0.2, complier mass into 1 is 0.2
    out = nu_lower_bounds(table, monotone(table))
    assert out[1] == pytest.approx(0.0, abs=1e-10)


def test_infeasible_raises_with_suggestion():
    mass = np.zeros((2, 2, 1))
    mass[0, :, 0] = (0.4, 0.6)
    mass[1, :, 0] = (0.7, 0.3)
    table = make_table(mass)
    with pytest.raises(IdentificationError) as err:
        nu_lower_bounds(table, monotone(table))
    assert err.value.min_dbar == pytest.approx(0.3, abs=1e-9)
    # auto-relax substitutes the minimal budget instead
    out = nu_lower_bounds(table, monotone(table), auto_relax=True)
    assert (out >= 0).all()


def test_pooled_binary_extended(binary_instance):
    value = nu_pooled_lower_bound(binary_instance, monotone(binary_instance))
    assert value == pytest.approx(0.3, abs=1e-9)


def test_pooled_zero_on_null_consistent_table():
    rng = np.random.default_rng(1)
    base = random_table(rng, K=2, Q=3)
    same = make_table(np.stack([base.mass[0], base.mass[0]]))
    assert nu_pooled_lower_bound(same, monotone(same)) == pytest.approx(0.0, abs=1e-10)


def test_pooled_lfp_matches_grid_on_point_identified(binary_instance):
    # identified set is a singleton: pooled bound = sum eta / 1
    grid = []
    for nu0 in np.linspace(0, 1, 41):
        for nu1 in np.linspace(0, 1, 41):
            ok = 0.6 * nu0 >= delta_sup(binary_instance, 0) - 1e-12 and \
                 0.4 * nu1 >= delta_sup(binary_instance, 1) - 0.0 - 1e-12
            if ok:
                grid.append((0.6 * nu0 + 0.4 * nu1) / 1.0)
    value = nu_pooled_lower_bound(binary_instance, monotone(binary_instance))
    assert value <= min(grid) + 1e-9


def test_slack_nonpositive_iff_consistent(binary_instance):
    assert sharp_null_slack(binary_instance, monotone(binary_instance)) == pytest.approx(0.2, abs=1e-9)
    rng = np.random.default_rng(2)
    base = random_table(rng, K=3, Q=2)
    same = make_table(np.stack([base.mass[0], base.mass[0]]))
    assert sharp_null_slack(same, monotone(same)) <= 1e-10


def test_slack_degenerate_outcome(fig2_marginals):
    p0, p1 = fig2_marginals
    mass = np.zeros((2, 3, 1))
    mass[0, :, 0] = p0
    mass[1, :, 0] = p1
    table = make_table(mass)
    # with one outcome level the gap is the marginal difference, absorbed
    # entirely by compliers
    assert sharp_null_slack(table, monotone(table)) <= 1e-10


def test_nu_plugin_equals_min_over_theta(binary_instance):
    """The per-k bound is the minimum of the bound expression over the
    whole identified range of theta_kk (grid oracle)."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        table = random_table(rng, K=3, Q=2, monotone_theta=True)
        r = monotone(table)
        spec = build_identified_set(table, r)
        out = nu_lower_bounds(table, r)
        for k in range(3):
            tmin = theta_kk_min(spec, k)
            gap = delta_sup(table, k)
            p1k = table.marginal_m(1)[k]
            values = []
            for t in np.linspace(tmin, p1k, 50):
                if t > 1e-9:
                    values.append(max(gap - (p1k - t), 0.0) / t)
            if tmin <= 1e-9:
                assert out[k] == 0.0
            else:
                assert out[k] <= min(values) + 1e-12
                assert out[k] == pytest.approx(values[0], abs=1e-9)


def test_report_invariants_random():
    rng = np.random.default_rng(4)
    for _ in range(25):
        table = random_table(rng, K=3, Q=3, monotone_theta=True)
        rep = bounds_report(table, monotone(table))
        nu = np.array(rep.nu_lb)
        assert (rep.slack <= 1e-9) == bool((nu <= 1e-9).all())
        assert rep.nu_pooled_lb <= nu.max() + 1e-9
        theta = np.asarray(rep.theta)
        diag = np.diag(theta)
        if not rep.pooled_degenerate and diag.sum() > 1e-9:
            # pooled value is attained at the reported allocation ...
            assert rep.nu_pooled_lb == pytest.approx(
                float(np.array(rep.eta).sum() / diag.sum()), abs=1e-7
            )
            # ... and dominates the per-k bounds weighted by its diagonal
            weighted = float(diag @ nu / diag.sum())
            assert rep.nu_pooled_lb >= weighted - 1e-7
        assert (nu >= -1e-12).all() and (nu <= 1 + 1e-12).all()


def decomposition_oracle_trim(levels, pmf, share, maximize):
    """LP over mixture decompositions: extremal mean of a weight-``share``
    component of ``pmf`` (the independent route to the trimming bounds)."""
    Q = len(levels)
    cost = np.array(levels, dtype=float) * (-1.0 if maximize else 1.0)
    # variables: g (the component pmf); constraint share*g <= pmf
    res = scipy_linprog(
        cost,
        A_ub=np.eye(Q) * share,
        b_ub=np.asarray(pmf, dtype=float),
        A_eq=np.ones((1, Q)),
        b_eq=[1.0],
        bounds=[(0, None)] * Q,
        method="highs",
    )
    assert res.status == 0
    return -res.fun if maximize else res.fun


def test_ade_two_point_enumeration():
    mass = np.zeros((2, 2, 2))
    # stratum of interest: treated, m=1 with P(Y=1)=0.5; share 0.625
    mass[1, 1] = (0.2, 0.2)
    mass[1, 0] = (0.3, 0.3)
    mass[0, 1] = (0.2, 0.2)
    mass[0, 0] = (0.3, 0.3)
    table = make_table(mass)
    lb = decomposition_oracle_trim([0.0, 1.0], [0.5, 0.5], 0.625, maximize=False)
    ub = decomposition_oracle_trim([0.0, 1.0], [0.5, 0.5], 0.625, maximize=True)
    assert lb == pytest.approx(0.2, abs=1e-9)
    assert ub == pytest.approx(0.8, abs=1e-9)


def test_ade_point_identified_when_share_one(binary_instance):
    lb, ub = ade_bounds(binary_instance, monotone(binary_instance), 0)
    # equal marginals: always-taker share is 1 in both arms, no trimming
    mean1 = 0.3 / 0.6
    mean0 = 0.1 / 0.6
    assert lb == pytest.approx(mean1 - mean0, abs=1e-9)
    assert ub == pytest.approx(mean1 - mean0, abs=1e-9)


def test_ade_vacuous_when_share_zero():
    mass = np.zeros((2, 2, 2))
    mass[0, 0] = (0.5, 0.5)  # control all at m=0
    mass[1, 1] = (0.5, 0.5)  # treated all at m=1
    table = make_table(mass)
    lb, ub = ade_bounds(table, RestrictionSet.unrestricted(table.support), 1)
    assert (lb, ub) == (-1.0, 1.0)  # outcome span


def test_ade_nesting_in_share():
    rng = np.random.default_rng(5)
    levels = [0.0, 1.0, 2.0]
    pmf = rng.dirichlet(np.ones(3))
    prev_lb, prev_ub = None, None
    for share in (0.9, 0.6, 0.3, 0.1):
        lb = decomposition_oracle_trim(levels, pmf, share, maximize=False)
        ub = decomposition_oracle_trim(levels, pmf, share, maximize=True)
        if prev_lb is not None:
            assert lb <= prev_lb + 1e-12
            assert ub >= prev_ub - 1e-12
        prev_lb, prev_ub = lb, ub


def test_ade_matches_oracle_on_random_tables():
    rng = np.random.default_rng(6)
    for _ in range(25):
        table = random_table(rng, K=2, Q=3, monotone_theta=True)
        r = monotone(table)
        spec = build_identified_set(table, r)
        for k in range(2):
            tmin = theta_kk_min(spec, k)
            if tmin <= 1e-9:
                continue
            lb, ub = ade_bounds(table, r, k)
            pieces = {}
            for d in (0, 1):
                share = min(tmin / table.marginal_m(d)[k], 1.0)
                pmf = table.cond_outcome(d, k)
                pieces[d] = (
                    decomposition_oracle_trim(table.outcome_levels, pmf, share, False),
                    decomposition_oracle_trim(table.outcome_levels, pmf, share, True),
                )
            assert lb == pytest.approx(pieces[1][0] - pieces[0][1], abs=1e-9)
            assert ub == pytest.approx(pieces[1][1] - pieces[0][0], abs=1e-9)


def test_binary_outcome_ade_lower_equals_nu():
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(200):
        table = random_table(rng, K=2, Q=2, monotone_theta=True)
        r = monotone(table)
        nu = nu_lower_bounds(table, r)
        for k in range(2):
            if nu[k] <= 1e-9:
                continue
            lb, ub = ade_bounds(table, r, k)
            assert max(lb, -ub) == pytest.approx(nu[k], abs=1e-9)
            hits += 1
    assert hits > 20


def test_report_solves_each_lp_once(phase_one_runs):
    table = random_table(np.random.default_rng(1), K=5, Q=3, monotone_theta=True)
    r = monotone(table)
    rep = bounds_report(table, r, with_ade=True)
    assert rep.nu_pooled_lb > 0.0 and not rep.pooled_degenerate
    # the identified set (whose feasible set serves the K theta_kk minima),
    # the slack LP, and the pooled program (whose feasible set serves its
    # denominator minimum and every Dinkelbach step)
    assert len(phase_one_runs) == 3
    spec = build_identified_set(table, r)
    assert rep.nu_lb == tuple(nu_lower_bounds(table, r))
    assert rep.slack == sharp_null_slack(table, r)
    assert rep.nu_pooled_lb == nu_pooled_lower_bound(table, r)
    for k in range(table.n_mediators):
        assert rep.ade[k] == ade_bounds(table, r, k)
        assert rep.ade_informative[k] == (theta_kk_min(spec, k) > 1e-9)


def test_breakdown_zero_on_consistent_table():
    rng = np.random.default_rng(8)
    base = random_table(rng, K=2, Q=2)
    same = make_table(np.stack([base.mass[0], base.mass[0]]))
    assert breakdown_defier_budget(same) == 0.0


def test_breakdown_binary_matches_grid(binary_instance):
    star = breakdown_defier_budget(binary_instance)
    grid = np.arange(0.0, 1.0, 0.001)
    positives = [
        d for d in grid
        if nu_pooled_lower_bound(
            binary_instance, RestrictionSet.defier_budget(binary_instance.support, d)
        ) > 1e-9
    ]
    assert positives, "expected a positive region"
    assert star == pytest.approx(positives[-1], abs=2e-3)


def test_breakdown_with_infeasible_monotone_start():
    mass = np.zeros((2, 2, 2))
    mass[0, 0] = (0.2, 0.2)
    mass[0, 1] = (0.1, 0.5)
    mass[1, 0] = (0.28, 0.28)
    mass[1, 1] = (0.24, 0.2)
    table = make_table(mass)
    # marginals: control (0.4, 0.6), treated (0.56, 0.44): monotone infeasible
    star = breakdown_defier_budget(table)
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    assert not spec.feasible
    from mechtest.typeshares import min_defier_budget

    dmin = min_defier_budget(spec)
    assert star >= dmin - 1e-9 or star == 0.0


def test_within_bin_slack_threshold(binary_instance):
    r = monotone(binary_instance)
    # bounds are (1/3, 1/4); allowing within-bin response up to 0.4 makes
    # the coarsened test pass, 0.2 does not
    assert within_bin_slack(binary_instance, r, 0.4) <= 1e-9
    assert within_bin_slack(binary_instance, r, 0.2) > 1e-9
    report = bounds_report(binary_instance, r, nu_max=0.4)
    assert report.within_bin_consistent is True


def _fuzz_tables(count):
    """The first ``count`` random ordered tables drawn from default_rng(1):
    K in 2-5, Q in 2-4, Dirichlet(0.7) cell masses per arm."""
    rng = np.random.default_rng(1)
    tables = []
    for _ in range(count):
        K = int(rng.integers(2, 6))
        Q = int(rng.integers(2, 5))
        tables.append(make_table(np.stack(
            [rng.dirichlet(np.full(K * Q, 0.7)).reshape(K, Q) for _ in (0, 1)])))
    return tables


def _highs_breakdown(table):
    """Least defier mass whose compliers cover every stratum's gap (HiGHS)."""
    K = table.n_mediators
    eq = np.zeros((2 * K, K * K))
    for k in range(K):
        eq[k, k * K:(k + 1) * K] = 1.0
        eq[K + k, k::K] = 1.0
    eq_rhs = np.concatenate([table.marginal_m(0), table.marginal_m(1)])
    defiers = np.array([float(l > k) for l in range(K) for k in range(K)])
    cover = np.array([[-float(l != k and c == k) for l in range(K) for c in range(K)]
                      for k in range(K)])
    gaps = np.clip(table.mass[1] - table.mass[0], 0.0, None).sum(axis=1)
    floor = scipy_linprog(defiers, A_eq=eq, b_eq=eq_rhs, method="highs")
    res = scipy_linprog(defiers, A_ub=cover, b_ub=-gaps, A_eq=eq, b_eq=eq_rhs, method="highs")
    if res.status == 2:
        return 1.0
    assert res.status == 0 and floor.status == 0
    return 0.0 if res.fun <= floor.fun + 1e-9 else res.fun


def _highs_pooled(table, r):
    """``(least always-taker mass, pooled bound)`` over the identified set
    of ``r`` (HiGHS, tight tolerances), the bound by the textbook
    Charnes-Cooper LP over ``(theta, t, s)``; ``(None, None)`` when the set
    is empty."""
    K = table.n_mediators
    n = K * K + K
    eq = np.zeros((2 * K, n))
    for k in range(K):
        eq[k, k * K:(k + 1) * K] = 1.0
        eq[K + k, k:K * K:K] = 1.0
    eq_rhs = np.concatenate([table.marginal_m(0), table.marginal_m(1)])
    gaps = np.clip(table.mass[1] - table.mass[0], 0.0, None).sum(axis=1)
    diag = np.zeros(n)
    diag[np.arange(K) * (K + 1)] = 1.0
    ub = [np.hstack([r.matrix, np.zeros((r.matrix.shape[0], K))])]
    ub_rhs = [r.rhs]
    for k in range(K):
        covered = np.zeros((2, n))  # t_k >= gap_k - sum_{l != k} theta_lk, t_k <= theta_kk
        covered[0, [l * K + k for l in range(K) if l != k]] = -1.0
        covered[0, K * K + k] = -1.0
        covered[1, K * K + k] = 1.0
        covered[1, k * (K + 1)] = -1.0
        ub.append(covered)
        ub_rhs.append([-gaps[k], 0.0])
    ub, ub_rhs = np.vstack(ub), np.concatenate(ub_rhs)
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    den = scipy_linprog(diag, A_ub=ub, b_ub=ub_rhs, A_eq=eq, b_eq=eq_rhs, method="highs",
                        options=tight)
    if den.status == 2:
        return None, None
    cc = scipy_linprog(
        np.r_[np.zeros(K * K), np.ones(K), 0.0],
        A_ub=np.hstack([ub, -ub_rhs[:, None]]), b_ub=np.zeros(ub.shape[0]),
        A_eq=np.vstack([np.hstack([eq, -eq_rhs[:, None]]), np.r_[diag, 0.0]]),
        b_eq=np.r_[np.zeros(2 * K), 1.0], method="highs", options=tight)
    assert den.status == 0 and cc.status == 0
    return den.fun, cc.fun


def _survey_table():
    """The cell masses of perfbench's ``survey_records(default_rng((2005,
    0)), 200_000, 2000)``: 4 ordered mediator values, outcome levels 0-19."""
    with open(Path(__file__).parent / "data" / "survey_table.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    mass = np.array([float(row["mass"]) for row in rows]).reshape(2, 4, 20)
    return make_table(mass, levels=tuple(float(row["y"]) for row in rows[:20]))


def test_pooled_bound_on_the_survey_table_matches_highs():
    # its Charnes-Cooper LP once failed phase 1's Farkas certificate
    table = _survey_table()
    r = monotone(table)
    rep = bounds_report(table, r)
    assert not rep.pooled_degenerate
    assert rep.nu_pooled_lb == pytest.approx(_highs_pooled(table, r)[1], abs=1e-9)
    for dbar in (0.0, 0.075, 0.15):
        r = RestrictionSet.defier_budget(table.support, dbar)
        den, want = _highs_pooled(table, r)
        want = 0.0 if den <= 1e-9 else max(want, 0.0)
        assert nu_pooled_lower_bound(table, r) == pytest.approx(want, abs=1e-9), dbar


def _near_null_tables(count):
    """Sparse tables close to the null, each with three restriction sets:
    Dirichlet(0.05) cell masses over K in 2-10 and Q in 2-20; treated is
    control mixed with another draw at weight U(0, 0.3); a defier budget
    U(0, 0.2), no restriction, and at most 0.05 moving the mediator by
    more than 2."""
    rng = np.random.default_rng(2)
    for _ in range(count):
        K, Q = int(rng.integers(2, 11)), int(rng.integers(2, 21))
        control = rng.dirichlet(np.full(K * Q, 0.05))
        w = rng.uniform(0.0, 0.3)
        treated = (1.0 - w) * control + w * rng.dirichlet(np.full(K * Q, 0.05))
        table = make_table(np.stack([control, treated]).reshape(2, K, Q))
        s = table.support
        yield table, (RestrictionSet.defier_budget(s, rng.uniform(0.0, 0.2)),
                      RestrictionSet.unrestricted(s), RestrictionSet.bounded_effect(s, 2.0, 0.05))


def test_pooled_bound_matches_highs_on_near_null_tables():
    solved = 0
    for i, (table, restrictions) in enumerate(_near_null_tables(40)):
        for r in restrictions:
            den, want = _highs_pooled(table, r)
            if den is None:
                with pytest.raises(IdentificationError):
                    bounds_report(table, r)
                continue
            rep = bounds_report(table, r)
            assert rep.pooled_degenerate == (den <= 1e-9), (i, r.kind)
            want = 0.0 if rep.pooled_degenerate else max(want, 0.0)
            assert rep.nu_pooled_lb == pytest.approx(want, abs=1e-9), (i, r.kind)
            if not rep.pooled_degenerate:  # eta is the program's t at its minimizer
                ratio = sum(rep.eta) / np.trace(rep.theta)
                assert ratio == pytest.approx(rep.nu_pooled_lb, abs=1e-15), (i, r.kind)
                assert rep.nu_pooled_lb > 0.0 or not any(rep.eta), (i, r.kind)
            solved += 1
    assert solved > 80


def test_breakdown_matches_highs_on_fuzz_tables():
    # tables 5, 43, 45, 46 and 65 are among those on which a bisection over
    # the pooled bound failed next to the breakdown boundary
    tables = _fuzz_tables(300)
    want = [_highs_breakdown(table) for table in tables]
    for i, table in enumerate(tables):
        assert breakdown_defier_budget(table) == pytest.approx(want[i], abs=1e-9), f"table {i}"
    assert sum(1e-9 < w < 1.0 for w in want) > 100  # most budgets are interior
