import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import linprog as scipy_linprog

from conftest import make_table, random_table
from mechtest.errors import IdentificationError, StructuralError
from mechtest.probtab import RecordSet, from_records
from mechtest.sharpcons import (
    Coupling,
    construct_sharp_distribution,
    eta_over_theta,
    tv_distance,
    verify_consistency,
)
from mechtest.typeshares import RestrictionSet, build_identified_set, joint_theta_min_exists
from mechtest.bounds import bounds_report, nu_lower_bounds


def coupling_lp_oracle(f, g):
    """Minimal off-diagonal mass over all couplings, by explicit LP."""
    q = len(f)
    cost = (1.0 - np.eye(q)).reshape(-1)
    A_eq = []
    b_eq = []
    for i in range(q):
        row = np.zeros((q, q))
        row[i, :] = 1.0
        A_eq.append(row.reshape(-1))
        b_eq.append(f[i])
    for j in range(q):
        row = np.zeros((q, q))
        row[:, j] = 1.0
        A_eq.append(row.reshape(-1))
        b_eq.append(g[j])
    res = scipy_linprog(cost, A_eq=np.array(A_eq), b_eq=np.array(b_eq),
                        bounds=[(0, None)] * (q * q), method="highs")
    assert res.status == 0
    return res.fun


def test_tv_identical_distributions():
    tv, coupling = tv_distance([0.25, 0.75], [0.25, 0.75])
    assert tv == 0.0
    assert_allclose(coupling.matrix, np.diag([0.25, 0.75]))
    assert coupling.disagreement == 0.0


def test_tv_disjoint_supports():
    tv, coupling = tv_distance([1.0, 0.0], [0.0, 1.0])
    assert tv == 1.0
    assert coupling.matrix[0, 1] == pytest.approx(1.0)
    assert coupling.disagreement == pytest.approx(1.0)


def test_tv_mixed_case_vs_lp():
    f, g = [0.7, 0.3], [0.4, 0.6]
    tv, coupling = tv_distance(f, g)
    assert tv == pytest.approx(0.3, abs=1e-12)
    assert tv == pytest.approx(coupling_lp_oracle(f, g), abs=1e-9)
    assert_allclose(coupling.row_marginal, f, atol=1e-12)
    assert_allclose(coupling.col_marginal, g, atol=1e-12)


def test_tv_grid_mismatch():
    with pytest.raises(StructuralError):
        tv_distance([1.0], [0.5, 0.5])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_tv_equals_lp_coupling_minimum(seed, q):
    rng = np.random.default_rng(seed)
    f = rng.dirichlet(np.ones(q))
    g = rng.dirichlet(np.ones(q))
    tv, coupling = tv_distance(f, g)
    assert tv == pytest.approx(coupling_lp_oracle(f, g), abs=1e-9)
    assert coupling.disagreement == pytest.approx(tv, abs=1e-12)
    assert_allclose(coupling.row_marginal, f, atol=1e-12)
    assert_allclose(coupling.col_marginal, g, atol=1e-12)


def _greedy_coupling(f, g):
    """The minimal-disagreement coupling as :func:`tv_distance` built it
    before it walked the excesses by the northwest-corner rule: the loop
    reference."""
    overlap = np.minimum(f, g)
    mat = np.diag(overlap)
    r, s = f - overlap, g - overlap
    j = 0
    for i in range(len(f)):
        need = r[i]
        while need > 1e-12 and j < len(f):
            put = min(need, s[j])
            if put > 0.0:
                mat[i, j] += put
                s[j] -= put
                need -= put
            if s[j] <= 1e-12:
                j += 1
    return mat


def test_tv_coupling_is_the_greedy_coupling():
    rng = np.random.default_rng(8)
    for trial in range(2000):
        q = int(rng.integers(1, 9))
        f, g = rng.dirichlet(np.ones(q)), rng.dirichlet(np.ones(q))
        if trial % 3 == 0:  # zero cells
            g = np.where(rng.random(q) < 0.4, 0.0, g) + (np.arange(q) == 0)
            g /= g.sum()
        tv, coupling = tv_distance(f, g)
        assert tv == float(np.clip(f - g, 0.0, None).sum())
        assert np.abs(coupling.matrix - _greedy_coupling(f, g)).max() <= 1e-15


def cascade_theta(table):
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    return joint_theta_min_exists(spec)


def test_null_table_gets_null_distribution():
    rng = np.random.default_rng(0)
    base = random_table(rng, K=3, Q=3)
    table = make_table(np.stack([base.mass[0], base.mass[0]]))
    dist = construct_sharp_distribution(table, cascade_theta(table))
    report = verify_consistency(dist, table)
    assert report.max_abs_deviation < 1e-9
    assert max(report.disagreement) < 1e-12
    assert report.complier_disagreement == 0.0


def test_binary_instance_always_taker_disagreement(binary_instance):
    theta = np.diag([0.6, 0.4])
    dist = construct_sharp_distribution(binary_instance, theta)
    report = verify_consistency(dist, binary_instance)
    assert report.max_abs_deviation < 1e-9
    nu = nu_lower_bounds(binary_instance, RestrictionSet.monotone(binary_instance.support))
    assert report.disagreement[0] == pytest.approx(nu[0], abs=1e-9)  # = 1/3
    assert report.disagreement[1] == pytest.approx(nu[1], abs=1e-9)


def test_no_always_takers_case():
    mass = np.zeros((2, 2, 2))
    mass[0, 0] = (0.5, 0.5)  # control entirely at m=0
    mass[1, 1] = (0.2, 0.8)  # treated entirely at m=1
    table = make_table(mass)
    theta = np.array([[0.0, 1.0], [0.0, 0.0]])  # everyone a complier
    dist = construct_sharp_distribution(table, theta)
    report = verify_consistency(dist, table)
    assert report.max_abs_deviation < 1e-9
    assert max(report.disagreement) == 0.0
    assert_allclose(eta_over_theta(table, theta), 0.0)


def test_theta_outside_identified_set_rejected(binary_instance):
    bad = np.array([[0.5, 0.1], [0.0, 0.4]])
    with pytest.raises(StructuralError, match="identified set"):
        construct_sharp_distribution(binary_instance, bad)


def test_perturbed_shares_show_localized_deviation(binary_instance):
    theta = np.diag([0.6, 0.4])
    dist = construct_sharp_distribution(binary_instance, theta)
    # shift a little always-taker mass between outcome cells by hand
    joints = dist.joints.copy()
    jm = joints[(0, 0)][0]
    cell = np.unravel_index(np.argmax(jm), jm.shape)
    jm[cell] -= 0.01
    jm[(cell[0] + 1) % 2, cell[1]] += 0.01
    perturbed = type(dist)(
        support=dist.support, outcome_levels=dist.outcome_levels,
        theta=dist.theta, joints=joints,
    )
    report = verify_consistency(perturbed, binary_instance)
    assert report.max_abs_deviation == pytest.approx(0.006, abs=1e-9)
    # deviation localized to k=0 cells
    dev = np.abs(report.implied_mass - binary_instance.mass)
    assert dev[:, 1, :].max() < 1e-12


def test_round_trip_random_tables_and_shares():
    rng = np.random.default_rng(42)
    for _ in range(30):
        K = int(rng.integers(2, 5))
        Q = int(rng.integers(2, 4))
        theta = rng.uniform(0, 1, (K, K)) * (rng.random((K, K)) < 0.7)
        theta[0, 0] += 0.2  # keep some always-takers around
        theta /= theta.sum()
        p0, p1 = theta.sum(axis=1), theta.sum(axis=0)
        mass = np.empty((2, K, Q))
        for k in range(K):
            mass[0, k] = p0[k] * rng.dirichlet(np.ones(Q))
            mass[1, k] = p1[k] * rng.dirichlet(np.ones(Q))
        mass[0] /= mass[0].sum()
        mass[1] /= mass[1].sum()
        table = make_table(mass)
        dist = construct_sharp_distribution(table, theta)
        report = verify_consistency(dist, table)
        assert report.max_abs_deviation < 1e-9
        target = eta_over_theta(table, theta)
        assert_allclose(report.disagreement, target, atol=1e-9)
        assert report.complier_disagreement == 0.0


def test_coupling_validation():
    with pytest.raises(StructuralError):
        Coupling(np.array([[0.5, -0.1], [0.3, 0.3]]))


def test_mismatched_shapes_raise_structural_errors(binary_instance):
    dist = construct_sharp_distribution(binary_instance, np.diag([0.6, 0.4]))
    rng = np.random.default_rng(3)
    for K, Q in ((3, 2), (2, 3)):
        with pytest.raises(StructuralError, match=f"K=2, Q=2, but the table has K={K}, Q={Q}"):
            verify_consistency(dist, random_table(rng, K=K, Q=Q))
    with pytest.raises(StructuralError, match=r"theta has shape \(2, 2\), but the table has K=3"):
        eta_over_theta(random_table(rng, K=3, Q=2), np.diag([0.6, 0.4]))


def _ordered_k10_table():
    """8000 units over a K=10 ordered mediator: treatment moves half of them
    up one step and raises the binary outcome of most of the others."""
    rng = np.random.default_rng(10)
    n, K = 8000, 10
    d = rng.integers(0, 2, n)
    m = rng.integers(0, K, n)
    moved = (d == 1) & (m < K - 1) & (rng.random(n) < 0.5)
    m = m + moved
    y = (rng.random(n) < 0.1 + 0.5 * m / K) | ((d == 1) & ~moved & (rng.random(n) < 0.8))
    return from_records(RecordSet(y=y.astype(float), m=m.astype(float), d=d))


def test_every_bounds_report_allocation_round_trips_through_the_witness():
    """The reported allocation builds a witness that reproduces the table and
    whose always-takers disagree at the targets; off the degenerate branch,
    the reported eta are those targets times theta_kk and attain the pooled
    bound."""
    rng = np.random.default_rng(36)
    tables = [random_table(rng, K=int(rng.integers(2, 7)), Q=int(rng.integers(2, 5)),
                           monotone_theta=bool(i % 2)) for i in range(40)]
    checked = degenerate = 0
    for table in tables + [_ordered_k10_table()]:
        sup = table.support
        for r in (RestrictionSet.monotone(sup), RestrictionSet.defier_budget(sup, 0.1),
                  RestrictionSet.unrestricted(sup)):
            try:
                report = bounds_report(table, r)
            except IdentificationError:
                continue
            theta = report.theta
            check = verify_consistency(construct_sharp_distribution(table, theta), table)
            target = eta_over_theta(table, theta)
            assert check.max_abs_deviation <= 1e-12
            assert check.complier_disagreement == 0.0
            assert np.abs(np.array(check.disagreement) - target).max() <= 1e-12
            checked += 1
            if report.pooled_degenerate:
                degenerate += 1
                continue
            assert np.abs(np.array(report.eta) - target * np.diag(theta)).max() <= 1e-12
            assert abs(sum(report.eta) / np.trace(theta) - report.nu_pooled_lb) <= 1e-12
    assert checked >= 100 and 0 < degenerate < checked - 50
