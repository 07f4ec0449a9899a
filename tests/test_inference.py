import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import sqrtm
from scipy.optimize import linprog as scipy_linprog, minimize
from scipy.stats import chi2

from conftest import make_table, random_table, records_from_table
from mechtest.bounds import bounds_report, sharp_null_slack
from mechtest.errors import EstimationError, StructuralError
from mechtest import inference, linprog, mc
from mechtest.inference import (
    CellCountWarning,
    MomentRow,
    MomentSystem,
    _hard_rows,
    _minmax_statistic,
    build_moment_system,
    median_cluster_cell_count,
    test_conditional_chisq,
    test_least_favorable_bootstrap,
)
from mechtest.probtab import RecordSet, encode, from_records, support_from_values
from mechtest.rng import substream
from mechtest.typeshares import RestrictionSet, marginal_equalities, share_polytope


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
    support = support_from_values(rec.m)
    K, Q = 3, 5
    # monotone: every restriction row pins a below-diagonal share at zero
    system = build(rec, RestrictionSet.monotone(support))
    assert system.n_omega == K * (K + 1) // 2 + K * Q  # 21 columns
    assert system.n_rows == K * (1 + Q)
    assert system.e1.shape == (2 * K, system.n_omega) and system.e2.shape == (2 * K, system.p_hat.size)
    assert {row.kind for row in system.rows} == {"budget", "gap"}
    assert not _hard_rows(system, system.moment_sds()).any()
    # a positive defier budget pins nothing: all K^2 shares, one hard budget row
    system = build(rec, RestrictionSet.defier_budget(support, 0.1))
    assert system.n_omega == K * K + K * Q  # 24 columns
    assert system.n_rows == K * (1 + Q) + 1
    assert system.e1.shape == (2 * K, system.n_omega)
    hard_kinds = {row.kind for row in system.rows if row.hard}
    assert hard_kinds == {"restriction"}


def loop_rows(support, r, Q, nu_ub):
    """Row-by-row construction of the general moment system in row form,
    with sign rows, restriction rows and paired marginal matches over
    omega = (all K^2 type shares, delta): ``(c1, c2, rows)``."""
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


def row_form(system, support, r, nu_ub):
    """``system`` restated in row form: the reference for the compact one."""
    c1, c2, rows = loop_rows(support, r, system.n_outcomes, nu_ub)
    return dataclasses.replace(system, c1=c1, c2=c2, rows=rows, e1=np.zeros((0, c1.shape[1])),
                               e2=np.zeros((0, c2.shape[1])))


def restriction_kinds(support, rng):
    K = support.k
    custom = np.zeros((3, K * K))
    off = rng.permutation([i for i in range(K * K) if i // K != i % K])
    custom[0, off[0]] = 1.0  # a pin
    custom[1, [off[-1], 0]] = 1.0, -1.0  # an order between two cells
    custom[2, off[1:]] = 1.0  # a budget
    kinds = [RestrictionSet.unrestricted(support),
             RestrictionSet.custom(support, custom, [0.0, 0.0, 0.1])]
    if support.totally_ordered:
        return kinds + [RestrictionSet.monotone(support),
                        RestrictionSet.defier_budget(support, 0.1),
                        RestrictionSet.defier_budget(support, 0.0),
                        RestrictionSet.bounded_effect(support, 1, 0.05),
                        RestrictionSet.bounded_effect(support, 1, 0.0)]
    leq = np.eye(K, dtype=bool) | (rng.random((K, K)) < 0.3)
    return kinds + [RestrictionSet.elementwise_monotone(support),
                    RestrictionSet.elementwise_defier_budget(support, 0.05),
                    RestrictionSet.partial_order_monotone(support, leq)]


def test_block_built_rows_equal_row_by_row_reference():
    """The compact system is the row-by-row reference with its sign rows,
    pin rows and upper marginal matches dropped and the pinned share
    columns removed; its equalities are the lower marginal matches."""
    rng = np.random.default_rng(5)
    general, with_pins, with_restrictions = 0, 0, 0
    for trial in range(40):
        K, Q, n = int(rng.integers(2, 6)), int(rng.integers(1, 5)), 400
        if trial % 4 == 3:  # 2-D mediator
            m = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n)]).astype(float)
        else:
            m = rng.integers(0, K, n).astype(float)
        rec = RecordSet(y=rng.integers(0, Q, n).astype(float), m=m, d=rng.integers(0, 2, n))
        support = support_from_values(rec.m)
        kinds = restriction_kinds(support, rng)
        r = kinds[trial % len(kinds)]
        nu_ub = rng.uniform(0.0, 1.0, support.k) * (trial % 2)
        system = build(rec, r, nu_ub=nu_ub)
        if system.n_omega == 0:  # the nuisance-free binary system
            continue
        K, Q = support.k, system.n_outcomes
        c1, c2, rows = loop_rows(support, r, Q, nu_ub)
        pin = (r.matrix >= 0).all(axis=1) & (r.rhs == 0)
        pinned = (r.matrix[pin] > 0).any(axis=0)
        cols = np.concatenate([np.flatnonzero(~pinned), K * K + np.arange(K * Q)])
        restr = iter(pin)
        keep = [row.kind in ("budget", "gap") or (row.kind == "restriction" and not next(restr))
                for row in rows]
        kept = [row for row, k in zip(rows, keep) if k]
        n_gen = K * (1 + Q)  # the kept restriction rows are numbered afresh
        assert system.rows == tuple(kept[:n_gen]) + tuple(
            dataclasses.replace(row, k=j) for j, row in enumerate(kept[n_gen:]))
        assert system.c1.tobytes() == c1[keep][:, cols].tobytes()
        assert system.c1.shape == (sum(keep), cols.size)
        assert system.c2.tobytes() == c2[keep].tobytes() and system.c2.shape == c2[keep].shape
        lo = np.flatnonzero([row.kind.endswith("_lo") for row in rows])  # (k, arm) order
        lo = np.r_[lo[0::2], lo[1::2]]  # control-arm row sums first
        assert system.e1.tobytes() == c1[lo][:, cols].tobytes()
        assert system.e2.tobytes() == c2[lo].tobytes()
        general += 1
        with_pins += bool(pinned.any())
        with_restrictions += len(kept) > n_gen
    assert general == 40 and with_pins >= 20 and with_restrictions >= 15


def test_compact_system_matches_the_row_form_reference():
    """Pinned cells, sign bounds and marginal equalities give the row-form
    system's min-max value (HiGHS as referee), chi-squared statistic and df."""
    rng = np.random.default_rng(5)
    general = 0
    for trial in range(48):
        K, Q, n = int(rng.integers(2, 6)), int(rng.integers(1, 5)), 400
        if trial % 4 == 3:  # 2-D mediator
            m = np.column_stack([rng.integers(0, 2, n), rng.integers(0, 2, n)]).astype(float)
        else:
            m = rng.integers(0, K, n).astype(float)
        d = rng.integers(0, 2, n)
        y = rng.integers(0, Q, n) + (d == 1) * (rng.random(n) < 0.3 * (trial % 2))
        rec = RecordSet(y=y.astype(float), m=m, d=d)
        support = support_from_values(rec.m)
        kinds = restriction_kinds(support, rng)
        r = kinds[trial % len(kinds)]
        nu_ub = rng.uniform(0.0, 1.0, support.k) * (trial % 3 != 0)
        system = build(rec, r, nu_ub=nu_ub)
        if system.n_omega == 0:  # the nuisance-free binary system
            continue
        general += 1
        K, Q = support.k, system.n_outcomes
        reference = row_form(system, support, r, nu_ub)
        assert {row.kind for row in system.rows} <= {"budget", "gap", "restriction"}
        assert system.e1.shape == (2 * K, system.n_omega) and reference.n_omega == K * K + K * Q
        assert system.n_rows == K * (1 + Q) + sum(row.kind == "restriction" for row in system.rows)
        values = []
        for sys_ in (system, reference):
            sds = sys_.moment_sds()
            hard = _hard_rows(sys_, sds)
            zero = np.zeros(sys_.n_rows)
            values.append(_minmax_statistic(sys_, sys_.p_hat, zero, sds, hard)[0])
        sds = reference.moment_sds()
        hard = _hard_rows(reference, sds)
        ref = highs_minmax(reference, reference.p_hat, np.zeros(reference.n_rows), sds, hard,
                           allow_infeasible=True)
        assert_allclose(values, ref, rtol=1e-9, atol=1e-9)
        compact = test_conditional_chisq(system, 0.05)
        rows = test_conditional_chisq(reference, 0.05)
        # both QPs start at their l1-nearest points, not far out along the
        # covariance ridge, so they meet to about 1e-14 (zero statistics to
        # 1e-19)
        assert compact.statistic == pytest.approx(rows.statistic, rel=1e-11, abs=1e-12)
        assert compact.df == rows.df
    assert general >= 40


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
    assert_allclose(system.e1 @ omega, system.e2 @ system.p_hat, atol=1e-12)


def test_nu_ub_one_trivially_satisfiable():
    rng = np.random.default_rng(3)
    rec = binary_records(rng, 800, lift=0.4)
    system = build(rec, nu_ub=1.0)
    sds = system.moment_sds()
    hard = _hard_rows(system, sds)
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
        hard = _hard_rows(system, sds)
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


def test_lf_bootstrap_computes_the_moment_sds_once(monkeypatch):
    system = build(binary_records(np.random.default_rng(5), 600, lift=0.2))
    calls = []
    moment_sds = MomentSystem.moment_sds
    monkeypatch.setattr(MomentSystem, "moment_sds",
                        lambda self: calls.append(self) or moment_sds(self))
    test_least_favorable_bootstrap(system, 0.05, b_draws=200, seed=9)
    assert len(calls) == 1


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


def _reference_influence_covariance(cluster_cells):
    """Covariance of sqrt(G) (p_hat - p) from one count array per
    independent unit, (G, 2, K, Q), and p_hat: the dense per-unit form."""
    G = cluster_cells.shape[0]
    totals = cluster_cells.sum(axis=(2, 3))  # (G, 2)
    p_hat = inference.p_from_cells(cluster_cells.sum(axis=0))
    a, arm = inference._stacked(cluster_cells)
    psi = G * (a.astype(float) - p_hat[None, :] * totals[:, arm]) / totals.sum(axis=0)[arm]
    return (psi.T @ psi) / G, p_hat


def per_unit_cells(records, bins=None):
    enc = encode(records, bins)
    return enc.cell_sums(enc.cluster_of)


def random_unit_records(rng, n, K, Q, treated_share):
    return RecordSet(y=rng.integers(0, Q, n).astype(float), m=rng.integers(0, K, n).astype(float),
                     d=(rng.random(n) < treated_share).astype(int))


def test_unit_level_covariance_matches_the_per_record_form():
    rng = np.random.default_rng(71)
    for trial in range(24):
        K, Q = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        n = int(rng.integers(200, 1500))
        rec = random_unit_records(rng, n, K, Q, rng.choice([0.15, 0.5, 0.8]))
        if trial % 2:
            rec = clustered(rec, rng.permutation(n))
        system = build(rec, RestrictionSet.unrestricted(support_from_values(rec.m)))
        sigma, p_hat = _reference_influence_covariance(per_unit_cells(rec))
        assert_same_bits(system.p_hat, p_hat)
        assert np.abs(system.sigma_hat - sigma).max() <= 1e-13 * np.abs(sigma).max()
        K, Q = system.cluster_cells.shape[2:]
        assert system.cluster_cells.shape[0] <= 2 * K * Q
        assert system.n_eff == n and system.cluster_weight.sum() == n
        assert (system.cluster_cells.sum(axis=(1, 2, 3)) == 1).all()


def test_clustered_covariance_is_the_per_cluster_form_bit_for_bit():
    rng = np.random.default_rng(72)
    for trial in range(12):
        K, Q = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        n = int(rng.integers(600, 1500))
        rec = random_unit_records(rng, n, K, Q, 0.5)
        size = int(rng.integers(2, 6))
        if trial % 2:  # arm-pure clusters of `size` records, one singleton
            labels = np.where(np.arange(n) == 0, -1, 10_000 * rec.d + np.arange(n) // size)
        else:  # clusters that mix the arms
            labels = np.arange(n) % (n // size)
        rec = clustered(rec, labels)
        system = build(rec, RestrictionSet.unrestricted(support_from_values(rec.m)))
        dense = per_unit_cells(rec)
        sigma, p_hat = _reference_influence_covariance(dense)
        assert_same_bits(system.sigma_hat, sigma)
        assert_same_bits(system.p_hat, p_hat)
        assert np.array_equal(system.cluster_cells, dense)
        assert system.cluster_weight.tolist() == [1] * dense.shape[0]
        assert system.n_eff == dense.shape[0]
        assert ((system.cluster_arm >= 0).all()) == bool(trial % 2)


def test_unit_profiles_resample_as_the_per_record_cells():
    rng = np.random.default_rng(73)
    rec = random_unit_records(rng, 900, 3, 4, 0.3)
    system = build(rec)
    dense = per_unit_cells(rec)
    per_record = dataclasses.replace(system, cluster_cells=dense,
                                     cluster_weight=np.ones(dense.shape[0], dtype=np.int64),
                                     cluster_arm=dense.sum(axis=(2, 3)).argmax(axis=1))
    for seed in range(5):
        got = inference._resample_draws(system, 20, seed)
        assert np.array_equal(got, inference._resample_draws(per_record, 20, seed))


@pytest.mark.parametrize("nu_ub, message", [
    (np.nan, "nu_ub must be finite"),
    ([0.1, np.nan, 0.0, 0.0], "nu_ub must be finite"),
    ([0.1, 0.2, 0.3], r"nu_ub must be one value or 4 values, one per mediator value, got shape \(3,\)"),
    (np.zeros((2, 4)), r"nu_ub must be one value or 4 values"),
    (-0.1, r"nu_ub must lie in \[0, 1\]"),
    ([0.0, 0.0, 1.5, 0.0], r"nu_ub must lie in \[0, 1\]"),
    ("half", "nu_ub must be numeric"),
])
def test_nu_ub_is_checked_before_the_records_are_encoded(nu_ub, message, monkeypatch):
    rng = np.random.default_rng(74)
    rec = random_unit_records(rng, 3000, 4, 3, 0.5)
    r = RestrictionSet.monotone(support_from_values(rec.m))

    def no_encode(*args):
        raise AssertionError("encoded before nu_ub was checked")

    monkeypatch.setattr(inference, "encode", no_encode)
    with pytest.raises(StructuralError, match=message):
        build(rec, r, nu_ub=nu_ub)


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
        e1=np.zeros((0, 0)),
        e2=np.zeros((0, 1)),
        p_hat=np.atleast_1d(p_hat).astype(float),
        sigma_hat=np.atleast_2d(sigma).astype(float),
        n_eff=n_eff,
        rows=(MomentRow("gap", k=0, q=0),),
        n_outcomes=1,
        cluster_cells=np.zeros((1, 2, 1, 1), dtype=np.int64),
        cluster_weight=np.array([1]),
        cluster_arm=np.array([-1]),
        median_cell_count=1.0,
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


def test_chisq_on_clustered_binary_samples_matches_slsqp():
    """Clustered binary samples whose chi-squared QP, walked without being
    put back on its working rows, drifts off them by 1e-7 to 1e-5 and fails
    its KKT certificate; the statistic must match SLSQP on the same program."""
    for seed in (65, 125, 537, 602, 1092):
        rng = np.random.default_rng(seed)
        d = np.repeat(rng.integers(0, 2, 40), 20)  # 40 arm-pure clusters of 20
        shift = np.repeat(rng.normal(0.0, 0.3, 40), 20)
        m = (rng.random(800) < 0.4).astype(int)
        m = m + ((d == 1) & (m == 0) & (rng.random(800) < 0.25))
        y = rng.binomial(5, 0.2 + 0.3 * m) + np.round(shift)
        y = y + 2 * ((d == 1) & (m == 0) & (rng.random(800) < 0.6))
        rec = RecordSet(y=np.clip(y, 0, 5), m=m.astype(float), d=d,
                        cluster=np.repeat(np.arange(40), 20))
        system = build(rec)
        res = test_conditional_chisq(system, 0.05)
        prec = np.linalg.inv(system.sigma_hat + inference.CHISQ_RIDGE * np.eye(system.p_hat.size))
        ref = minimize(lambda mu: (mu - system.p_hat) @ prec @ (mu - system.p_hat),
                       system.p_hat.copy(), jac=lambda mu: 2.0 * prec @ (mu - system.p_hat),
                       constraints=[{"type": "ineq", "fun": lambda mu: -(system.c2 @ mu),
                                     "jac": lambda mu: -system.c2}],
                       method="SLSQP", options={"ftol": 1e-12, "maxiter": 1000})
        assert ref.success and (system.c2 @ ref.x).max() <= 1e-12
        assert res.statistic == pytest.approx(system.n_eff * ref.fun, rel=1e-6)
        assert res.df >= 1 and res.reject


def chisq_restrictions(support):
    """The monotone, defier-budget and unrestricted sets of an ordered support."""
    return (RestrictionSet.monotone(support), RestrictionSet.defier_budget(support, 0.05),
            RestrictionSet.unrestricted(support))


def test_chisq_with_nuisance_coordinates_matches_slsqp():
    """The statistic equals SLSQP's minimum over (mu, omega), with mu
    written as p_hat + S w for the symmetric square root S of the
    ridge-regularized covariance: over mu itself, whose precision has a
    condition number near 1e10, SLSQP does not converge on every system."""
    rng = np.random.default_rng(43)
    for K in (3, 4, 5):
        rec = ordered_violation_records(rng, n=3000, K=K)
        for r in chisq_restrictions(support_from_values(rec.m)):
            system = build(rec, r)
            n_p, n_o = system.p_hat.size, system.n_omega
            assert n_o > 0
            root = np.real(sqrtm(system.sigma_hat + inference.CHISQ_RIDGE * np.eye(n_p)))
            # rows C1 omega - C2 mu >= 0 and E1 omega - E2 mu = 0 over x = (w, omega)
            ub = np.hstack([-system.c2 @ root, system.c1])
            eq = np.hstack([-system.e2 @ root, system.e1])
            ub_rhs, eq_rhs = system.c2 @ system.p_hat, system.e2 @ system.p_hat
            ref = minimize(lambda x: x[:n_p] @ x[:n_p], np.r_[np.zeros(n_p), np.full(n_o, 0.1)],
                           jac=lambda x: np.r_[2.0 * x[:n_p], np.zeros(n_o)],
                           constraints=[{"type": "ineq", "fun": lambda x: ub @ x - ub_rhs,
                                         "jac": lambda x: ub},
                                        {"type": "eq", "fun": lambda x: eq @ x - eq_rhs,
                                         "jac": lambda x: eq}],
                           bounds=[(None, None)] * n_p + [(0.0, None)] * n_o,
                           method="SLSQP", options={"ftol": 1e-14, "maxiter": 1000})
            assert ref.success
            assert (ub @ ref.x - ub_rhs).min() >= -1e-12
            assert np.abs(eq @ ref.x - eq_rhs).max() <= 1e-12
            res = test_conditional_chisq(system, 0.05)
            assert res.statistic == pytest.approx(system.n_eff * ref.fun, rel=1e-8, abs=1e-8)


def permuted(system, rng):
    """``system`` with its inequality rows, equality rows and omega
    coordinates each in a random order."""
    rows, eqs = rng.permutation(system.n_rows), rng.permutation(system.e1.shape[0])
    cols = rng.permutation(system.n_omega)
    return dataclasses.replace(
        system, c1=system.c1[rows][:, cols], c2=system.c2[rows],
        rows=tuple(system.rows[i] for i in rows), e1=system.e1[eqs][:, cols], e2=system.e2[eqs])


def test_chisq_df_does_not_depend_on_the_start_or_the_order(monkeypatch):
    """With the rows and omega coordinates shuffled, and from its
    l1-nearest start or from its phase-1 vertex, the QP ends at the same
    statistic, and df, read off the whole optimal face, is the same; on
    most of these systems more rows bind at the returned omega than on the
    whole face."""
    narrowed = []
    face_binding = inference._face_binding

    def recording(system, active, at_bound):
        out = face_binding(system, active, at_bound)
        narrowed.append(out[0].sum() + out[1].sum() < active.sum() + at_bound.sum())
        return out

    def from_vertex(n_dist, feasible, start):
        zero = dataclasses.replace(feasible, objective=np.zeros(feasible.n_vars))
        return linprog.solve_qp(n_dist, feasible, linprog.solve_lp(zero).point)

    def solve(system, start):
        with monkeypatch.context() as patch:
            if start == "phase 1":  # the zero-objective LP vertex of the QP's feasible set
                patch.setattr(inference, "solve_qp", from_vertex)
            return inference._chisq_solution(system)

    monkeypatch.setattr(inference, "_face_binding", recording)
    rng = np.random.default_rng(47)
    for trial in range(100):
        kind = trial % 3
        K = int(rng.integers(3 if kind == 0 else 2, 7))  # K = 2 monotone has no omega
        n, Q = int(rng.integers(300, 1500)), int(rng.integers(2, 4))
        d = rng.integers(0, 2, n)
        m = rng.integers(0, K, n)
        moved = (d == 1) & (m < K - 1) & (rng.random(n) < rng.uniform(0.0, 0.5))
        m = m + moved
        lift = rng.uniform(0.0, 0.4) * (trial % 2)
        y = np.minimum(rng.integers(0, Q, n) + ((d == 1) & ~moved & (rng.random(n) < lift)), Q - 1)
        rec = RecordSet(y=y.astype(float), m=m.astype(float), d=d)
        system = build(rec, chisq_restrictions(support_from_values(rec.m))[kind])
        assert system.n_omega > 0
        shuffled = permuted(system, rng)
        stats, dfs = zip(*(solve(s, start) for s, start in (
            (system, "l1"), (shuffled, "l1"), (shuffled, "phase 1"))))
        assert stats == pytest.approx([stats[0]] * 3, rel=1e-9, abs=1e-12)
        assert len(set(dfs)) == 1
    assert sum(narrowed) >= 150  # of 300 solves


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


def test_chained_pins_give_the_direct_pins_polytope_bounds_and_tests():
    """theta_20 - theta_10 <= 0 with theta_10 pinned pins theta_20, and
    then theta_21 - theta_20 <= 0 pins theta_21: the restriction is the
    direct pins of the three defier cells in every output."""
    rec = ordered_violation_records(np.random.default_rng(37), n=1500)
    support = support_from_values(rec.m)
    chained, direct = np.zeros((3, 9)), np.eye(9)[[3, 6, 7]]
    chained[0, 3] = 1.0
    chained[1, [6, 3]] = 1.0, -1.0
    chained[2, [7, 6]] = 1.0, -1.0
    rs = [RestrictionSet.custom(support, rows, np.zeros(3)) for rows in (chained, direct)]
    polytopes = [share_polytope(support, r) for r in rs]
    assert polytopes[0][0].tolist() == [0, 1, 2, 4, 5, 8]
    for got, want in zip(*polytopes):
        assert np.array_equal(got, want)
    table = from_records(rec)
    reports = [bounds_report(table, r, with_ade=True).to_json_dict() for r in rs]
    assert reports[0] == reports[1]
    systems = [build(rec, r) for r in rs]
    assert test_conditional_chisq(systems[0], 0.05) == test_conditional_chisq(systems[1], 0.05)
    assert (test_least_favorable_bootstrap(systems[0], 0.05, b_draws=200, seed=3)
            == test_least_favorable_bootstrap(systems[1], 0.05, b_draws=200, seed=3))


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


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(inference.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, mechtest.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def highs_minmax(system, p_vec, shift, sds, hard, allow_infeasible=False):
    """``min t`` over omega >= 0 and free t with hard rows ``C2 p - shift -
    C1 omega <= 0``, soft rows ``<= sd t`` and ``E1 omega = E2 p``, solved by
    HiGHS.  An infeasible program fails the calling test unless
    ``allow_infeasible`` is set; then its value is +inf."""
    mom = system.c2 @ p_vec - shift
    soft = ~hard
    a_ub = np.vstack([np.hstack([-system.c1[soft], -sds[soft, None]]),
                      np.hstack([-system.c1[hard], np.zeros((hard.sum(), 1))])])
    res = scipy_linprog(
        np.r_[np.zeros(system.n_omega), 1.0],
        A_ub=a_ub,
        b_ub=np.r_[-mom[soft], -mom[hard]],
        A_eq=np.hstack([system.e1, np.zeros((system.e1.shape[0], 1))]),
        b_eq=system.e2 @ p_vec,
        bounds=[(0, None)] * system.n_omega + [(None, None)],
        method="highs",
    )
    if allow_infeasible and res.status == 2:
        return np.inf
    assert res.status == 0
    return res.fun


def test_minmax_statistic_matches_highs_with_nuisance_coordinates():
    rng = np.random.default_rng(41)
    for K in (3, 4, 5):
        system = build(ordered_violation_records(rng, n=4000, K=K))
        assert system.n_omega > 0
        sds = system.moment_sds()
        hard = _hard_rows(system, sds)
        zero = np.zeros(system.n_rows)
        t0, omega_hat = _minmax_statistic(system, system.p_hat, zero, sds, hard)
        ref = highs_minmax(system, system.p_hat, zero, sds, hard)
        assert abs(t0 - ref) <= 1e-9 * (1.0 + abs(ref))
        # one least-favorable draw: soft rows recentred at omega_hat
        soft = ~np.array([row.hard for row in system.rows])
        shift = np.where(soft, system.c2 @ system.p_hat - system.c1 @ omega_hat, 0.0)
        p_star = inference.p_from_cells(inference._resample_draws(system, 1, K)[0])
        t_b, _ = _minmax_statistic(system, p_star, shift, sds, hard)
        ref = highs_minmax(system, p_star, shift, sds, hard)
        assert abs(t_b - ref) <= 1e-9 * (1.0 + abs(ref))


def reference_p(cells):
    totals = cells.sum(axis=(1, 2))
    if totals.min() <= 0:
        raise EstimationError("a treatment arm is empty")
    return np.concatenate([cells[1].reshape(-1) / totals[1], cells[0].reshape(-1) / totals[0],
                           cells[1].sum(axis=1) / totals[1], cells[0].sum(axis=1) / totals[0]])


def reference_lf_draws(system, b_draws, seed):
    """The LF bootstrap as a loop over the same count tables, one vector at
    a time: the reference for the stacked evaluation."""
    sds = system.moment_sds()
    hard = _hard_rows(system, sds)

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
    for b, cells in enumerate(inference._resample_draws(system, b_draws, seed)):
        t_b, _ = minmax(reference_p(cells), shift)
        draws[b] = root_n * max(t_b, 0.0) if np.isfinite(t_b) else np.inf
    return statistic, np.sort(draws)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def clustered(rec, labels):
    return RecordSet(y=rec.y, m=rec.m, d=rec.d, cluster=labels)


def one_treated_cluster_records():
    """20 control-only clusters and one that holds every treated unit: a
    mixed-cluster draw that misses it empties the treated arm."""
    rng = np.random.default_rng(61)
    d = np.r_[np.zeros(210, dtype=int), np.ones(100, dtype=int)]
    return RecordSet(y=rng.integers(0, 2, d.size).astype(float),
                     m=(rng.random(d.size) < 0.4).astype(float), d=d,
                     cluster=np.minimum(np.arange(d.size) // 10, 20))


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
    if name == "one-treated-cluster":
        # arm-pure pools of 37 control clusters and of one treated cluster
        labels = np.where(unit.d == 1, -1, np.arange(unit.n) % 37)
        return build(clustered(unit, labels)), 300, 13
    if name == "mixed-retry":
        return build(one_treated_cluster_records()), 300, 14
    if name == "hard-through-sd":
        # one soft-flagged row with zero sd: hard through its sd alone,
        # so the draws that move it above zero are +inf
        system = build(unit)
        j = int(np.argmin(system.c2 @ system.p_hat))
        used = system.c2[j] != 0
        sigma = np.where(used[:, None] | used[None, :], 0.0, system.sigma_hat)
        return dataclasses.replace(system, sigma_hat=sigma), 300, 11
    if name == "tied-draws":
        # replicate 5 of the simulate run whose draws tie with the statistic
        cp, tp = mc.cluster_pools()
        dgp = mc.MixtureDgp(control_pool=cp, treated_pool=tp, t=0.0, cluster_mode=True,
                            clusters_per_arm=20)
        records = mc.draw_sample(dgp, mc._derive(98, 5))
        return build(records, bins=5), 999, mc._derive(98, 5, 1)
    assert name in ("ordered-nuisance", "ordered-negative-zero")
    return build(ordered_violation_records(rng, n=1500)), 200, 12


@pytest.mark.parametrize("name", ["unit", "unit-four-levels", "arm-pure-clusters",
                                  "mixed-clusters", "one-treated-cluster", "mixed-retry",
                                  "hard-through-sd", "tied-draws",
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
        assert (np.abs(order - statistic) <= 1e-9 * statistic).any() and result.reject
    if name == "arm-pure-clusters":
        assert (system.cluster_arm >= 0).all()
    if name == "ordered-negative-zero":
        assert np.signbit(order[order == 0]).any()
    if name == "one-treated-cluster":
        assert sorted((system.cluster_arm == d).sum() for d in (0, 1)) == [1, 37]
    if name == "mixed-retry":
        G = system.cluster_cells.shape[0]
        missed = (substream(seed, 0).integers(0, G, size=(b_draws, G)) != G - 1).all(axis=1)
        assert system.cluster_arm[-1] == -1 and 0 < missed.sum() < b_draws


def bootstrap_moments(system):
    """Mean and covariance of one resampled count table, flattened: per arm
    a multinomial over its cells when every profile is one record, else the
    sum over pools (one per arm when the clusters are arm-pure, else one) of
    n draws with replacement from the pool's n clusters."""
    cells = system.cluster_cells.reshape(system.cluster_cells.shape[0], -1).astype(float)
    if (cells.sum(axis=1) == 1).all():
        agg = (system.cluster_weight[:, None] * cells).sum(axis=0).reshape(2, -1)
        n, share = agg.sum(axis=1, keepdims=True), agg / agg.sum(axis=1, keepdims=True)
        cov = np.zeros((cells.shape[1],) * 2)
        for d, block in enumerate(np.split(np.arange(cells.shape[1]), 2)):
            cov[np.ix_(block, block)] = n[d] * (np.diag(share[d]) - np.outer(share[d], share[d]))
        return agg.reshape(-1), cov
    arm = system.cluster_arm
    pools = [arm == 0, arm == 1] if (arm >= 0).all() else [arm == arm]
    dev = [cells[pool] - cells[pool].mean(axis=0) for pool in pools]
    return cells.sum(axis=0), sum(x.T @ x for x in dev)


@pytest.mark.parametrize("name", ["unit", "unit-four-levels", "arm-pure-clusters",
                                  "mixed-clusters"])
def test_resampled_counts_have_the_bootstrap_mean_and_covariance(name):
    system, _, seed = lf_equivalence_case(name)
    b_draws = 8000
    mean, cov = bootstrap_moments(system)
    x = inference._resample_draws(system, b_draws, seed).reshape(b_draws, -1) - mean
    # the cells and the two arm totals
    to_totals = np.vstack([np.eye(mean.size), np.kron(np.eye(2), np.ones(mean.size // 2))])
    x, cov = x @ to_totals.T, to_totals @ cov @ to_totals.T
    # the sample mean, and the mean of the centred products, each within five
    # Monte Carlo standard errors; an entry with no spread is matched exactly
    for sample, want in ((x, 0.0), (x[:, :, None] * x[:, None, :], cov)):
        gap = sample.mean(axis=0) - want
        se = sample.std(axis=0) / np.sqrt(b_draws)
        assert (np.abs(gap) <= 5 * se + 1e-9 * np.abs(want).max()).all()
    assert (np.diag(cov) > 0).sum() >= 4


@pytest.mark.parametrize("name", ["unit", "arm-pure-clusters", "mixed-clusters",
                                  "one-treated-cluster", "mixed-retry"])
def test_first_draws_do_not_depend_on_the_number_of_draws(name, monkeypatch):
    system, _, seed = lf_equivalence_case(name)
    draws = inference._resample_draws(system, 999, seed)
    assert draws.dtype == np.int64 and draws.shape == (999, *system.cluster_cells.shape[1:])
    assert np.array_equal(draws[:200], inference._resample_draws(system, 200, seed))
    assert not np.array_equal(draws[:200], inference._resample_draws(system, 200, seed + 1))
    # numpy's int64 product in place of the float64 one
    monkeypatch.setattr(inference, "_FLOAT_EXACT", 0)
    assert np.array_equal(inference._resample_draws(system, 999, seed), draws)


@pytest.mark.parametrize("name", ["one-treated-cluster", "mixed-retry"])
def test_draws_that_could_empty_an_arm_keep_both_arms(name):
    system, b_draws, seed = lf_equivalence_case(name)
    for s in (seed, seed + 1):
        draws = inference._resample_draws(system, b_draws, s)
        assert (draws.sum(axis=(2, 3)) > 0).all()
        assert np.array_equal(draws, inference._resample_draws(system, b_draws, s))


def per_draw_cells(system, b_draws, seed):
    """The cluster count tables drawn one row at a time, summing the picked
    clusters' counts: pool i picks from ``substream(seed, i)``, and a
    mixed-pool row that empties an arm is redrawn from ``substream(seed, 2)``.
    Also the number of redrawn rows."""
    cells, arm = system.cluster_cells, system.cluster_arm
    G = cells.shape[0]
    pools = [np.flatnonzero(arm == d) for d in (0, 1)] if (arm >= 0).all() else [np.arange(G)]
    streams, retry = [substream(seed, i) for i in range(len(pools))], substream(seed, 2)
    rows, redrawn = [], 0
    for _ in range(b_draws):
        row = sum(cells[pool[rng.integers(0, pool.size, pool.size)]].sum(axis=0)
                  for pool, rng in zip(pools, streams))
        redrawn += row.sum(axis=(1, 2)).min() == 0
        while row.sum(axis=(1, 2)).min() == 0:
            row = cells[retry.integers(0, G, G)].sum(axis=0)
        rows.append(row)
    return np.array(rows), redrawn


@pytest.mark.parametrize("name", ["arm-pure-clusters", "one-treated-cluster", "mixed-retry"])
def test_cluster_draws_equal_the_per_draw_resampler_in_any_block(name, monkeypatch):
    system, _, seed = lf_equivalence_case(name)
    want, redrawn = per_draw_cells(system, 50, seed)
    assert (redrawn > 0) == (name == "mixed-retry")
    # any number of draws gives the first rows of the per-draw loop
    for b_draws in (1, 7, 50):
        got = inference._resample_draws(system, b_draws, seed)
        assert got.dtype == np.int64 and np.array_equal(got, want[:b_draws])
    # numpy's int64 product in place of the float64 one
    monkeypatch.setattr(inference, "_FLOAT_EXACT", 0)
    assert np.array_equal(inference._resample_draws(system, 50, seed), want)


def test_cluster_draws_redraw_the_rows_the_raw_words_cannot_reproduce():
    # a treated pool of 70 001 clusters: a raw 32-bit word w maps to the pick
    # (w * 70001) >> 32 unless it falls in numpy's rejection zone, about one
    # word in 77 000, where numpy draws again; the one-call (B, n) draw still
    # equals numpy's row-by-row picks past those words
    n, b_draws, seed = 70_001, 3, 4
    system, _, _ = lf_equivalence_case("arm-pure-clusters")
    shape = system.cluster_cells.shape[1:]
    cells = np.zeros((4 + n, *shape), dtype=np.int64)
    cells[:4, 0, 0, 0] = 2  # four control clusters of two units
    j = np.arange(n)
    cells[4 + j, 1, j % shape[1], j // shape[1] % shape[2]] = 1 + j % 3
    system = dataclasses.replace(system, cluster_cells=cells,
                                 cluster_weight=np.ones(4 + n, dtype=np.int64),
                                 cluster_arm=np.r_[np.zeros(4, dtype=int), np.ones(n, dtype=int)])
    words = substream(seed, 1).bit_generator.random_raw(b_draws * n).view(np.uint32)
    product = words[: b_draws * n].astype(np.uint64) * np.uint64(n)
    assert ((product & np.uint64(2**32 - 1)) < (2**32 - n) % n).any()
    picks = substream(seed, 1).integers(0, n, size=(b_draws, n))
    assert not np.array_equal((product >> np.uint64(32)).reshape(b_draws, n), picks)
    want, _ = per_draw_cells(system, b_draws, seed)
    assert np.array_equal(inference._resample_draws(system, b_draws, seed), want)
    assert np.array_equal(want[:, 1], cells[4 + picks].sum(axis=1)[:, 1])


def test_mixed_cluster_resampler_retries_then_gives_up():
    # 20 control-only clusters and one that holds every treated unit: a row
    # that misses it empties the treated arm and is redrawn, in row order,
    # from the retry substream
    system = build(one_treated_cluster_records())
    assert system.cluster_arm.tolist() == [0] * 20 + [-1]
    cells = system.cluster_cells
    G = cells.shape[0]
    retries = 0
    for seed in range(5):
        got = inference._resample_draws(system, 200, seed)
        picks, retry = substream(seed, 0).integers(0, G, size=(200, G)), substream(seed, 2)
        for row, pick in zip(got, picks):
            want = cells[pick].sum(axis=0)
            while want[1].sum() == 0:
                want = cells[retry.integers(0, G, G)].sum(axis=0)
                retries += 1
            assert np.array_equal(row, want)
    assert retries > 0
    no_treated = cells.copy()
    no_treated[:, 1] = 0
    with pytest.raises(EstimationError, match="could not produce both arms"):
        inference._resample_draws(dataclasses.replace(system, cluster_cells=no_treated), 200, 0)
