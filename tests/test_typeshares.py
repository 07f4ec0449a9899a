import json

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import linprog as scipy_linprog

from conftest import make_table, random_table, solution_bytes
from mechtest.errors import IdentificationError, StructuralError, UnsupportedCaseError
from mechtest.probtab import DistTable, support_from_values
from mechtest.typeshares import (
    RestrictionSet,
    build_identified_set,
    closed_form_theta_min,
    joint_theta_min_exists,
    max_type_share,
    min_defier_budget,
    share_polytope,
    theta_in_identified_set,
    theta_kk_min,
)
from mechtest.linprog import OPTIMAL, INFEASIBLE, solve_lp


def table_from_marginals(p0, p1):
    K = len(p0)
    mass = np.zeros((2, K, 1))
    mass[0, :, 0] = p0
    mass[1, :, 0] = p1
    return make_table(mass)


def test_binary_monotone_pins_defier_cell():
    table = table_from_marginals([0.6, 0.4], [0.4, 0.6])
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    assert spec.feasible
    assert max_type_share(spec, [(1, 0)]) == pytest.approx(0.0, abs=1e-10)


def test_three_point_marginals_both_allocations_feasible(fig2_marginals):
    p0, p1 = fig2_marginals
    table = table_from_marginals(p0, p1)
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    assert spec.feasible
    # single-jump allocation: only the 0->2 complier flow
    jump = np.array([
        [0.3, 0.0, 0.2],
        [0.0, 0.3, 0.0],
        [0.0, 0.0, 0.2],
    ])
    assert theta_in_identified_set(spec, jump)
    # cascade allocation: two one-step flows
    cascade = np.array([
        [0.3, 0.2, 0.0],
        [0.0, 0.1, 0.2],
        [0.0, 0.0, 0.2],
    ])
    assert theta_in_identified_set(spec, cascade)


def test_monotone_infeasible_when_dominance_fails():
    table = table_from_marginals([0.5, 0.5], [0.8, 0.2])
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    assert not spec.feasible
    with pytest.raises(IdentificationError) as err:
        theta_kk_min(spec, 0)
    assert err.value.min_dbar == pytest.approx(0.3, abs=1e-9)


def test_theta_min_three_point(fig2_marginals):
    p0, p1 = fig2_marginals
    table = table_from_marginals(p0, p1)
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    assert_allclose(
        [theta_kk_min(spec, k) for k in range(3)], [0.3, 0.1, 0.2], atol=1e-9
    )


def test_theta_min_equal_marginals_is_treated_mass():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(4))
    table = table_from_marginals(p, p)
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    for k in range(4):
        assert theta_kk_min(spec, k) == pytest.approx(p[k], abs=1e-9)


def test_theta11_min_zero_without_restrictions():
    table = table_from_marginals([0.5, 0.5], [0.7, 0.3])
    # P(M=1 | treated) = 0.3 < P(M=1 | control) = 0.5: no-overlap allocation
    # pushes all always-takers out of cell 11
    table = table_from_marginals([0.5, 0.5], [0.7, 0.3])
    spec = build_identified_set(table, RestrictionSet.unrestricted(table.support))
    assert theta_kk_min(spec, 1) == pytest.approx(0.0, abs=1e-10)


def test_max_defier_share_footnote_value():
    # marginals P(M=1|treated)=0.5, P(M=1|control)=0.3, unrestricted
    table = table_from_marginals([0.7, 0.3], [0.5, 0.5])
    spec = build_identified_set(table, RestrictionSet.unrestricted(table.support))
    assert max_type_share(spec, [(1, 0)]) == pytest.approx(0.3, abs=1e-9)


def test_max_type_share_full_set_is_one():
    table = table_from_marginals([0.7, 0.3], [0.5, 0.5])
    spec = build_identified_set(table, RestrictionSet.unrestricted(table.support))
    cells = [(l, k) for l in range(2) for k in range(2)]
    assert max_type_share(spec, cells) == pytest.approx(1.0, abs=1e-9)


def test_cascade_three_point(fig2_marginals):
    p0, p1 = fig2_marginals
    table = table_from_marginals(p0, p1)
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    theta = joint_theta_min_exists(spec)
    expected = np.array([
        [0.3, 0.2, 0.0],
        [0.0, 0.1, 0.2],
        [0.0, 0.0, 0.2],
    ])
    assert_allclose(theta, expected, atol=1e-12)


def test_cascade_equal_marginals_diagonal():
    p = np.array([0.25, 0.25, 0.5])
    table = table_from_marginals(p, p)
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    assert_allclose(joint_theta_min_exists(spec), np.diag(p), atol=1e-12)


def test_cascade_outside_ordered_monotone_unsupported():
    table = table_from_marginals([0.5, 0.5], [0.5, 0.5])
    spec = build_identified_set(table, RestrictionSet.unrestricted(table.support))
    with pytest.raises(UnsupportedCaseError):
        joint_theta_min_exists(spec)


def test_random_ordered_instances_lp_equals_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(40):
        K = int(rng.integers(2, 7))
        theta = np.triu(rng.uniform(0, 1, (K, K)))
        theta /= theta.sum()
        table = table_from_marginals(theta.sum(axis=1), theta.sum(axis=0))
        spec = build_identified_set(table, RestrictionSet.monotone(table.support))
        cascade = joint_theta_min_exists(spec)
        assert theta_in_identified_set(spec, cascade)
        for k in range(K):
            lp_min = theta_kk_min(spec, k)
            assert lp_min == pytest.approx(closed_form_theta_min(spec.p0, spec.p1, k), abs=1e-9)
            assert cascade[k, k] == pytest.approx(lp_min, abs=1e-9)


def test_theta_min_nonincreasing_in_defier_budget():
    table = table_from_marginals([0.5, 0.3, 0.2], [0.3, 0.3, 0.4])
    prev = np.inf
    for dbar in (0.0, 0.05, 0.1, 0.3, 1.0):
        spec = build_identified_set(
            table, RestrictionSet.defier_budget(table.support, dbar)
        )
        val = theta_kk_min(spec, 1)
        assert val <= prev + 1e-10
        prev = val


def test_feasible_iff_survival_dominance():
    rng = np.random.default_rng(9)
    for _ in range(60):
        K = int(rng.integers(2, 5))
        p0 = rng.dirichlet(np.ones(K))
        p1 = rng.dirichlet(np.ones(K))
        table = table_from_marginals(p0, p1)
        spec = build_identified_set(table, RestrictionSet.monotone(table.support))
        dominance = all(
            p1[k:].sum() >= p0[k:].sum() - 1e-12 for k in range(K)
        )
        assert spec.feasible == dominance


def test_returned_theta_matches_marginals():
    rng = np.random.default_rng(30)
    for _ in range(20):
        theta = np.triu(rng.uniform(0, 1, (3, 3)))
        theta /= theta.sum()
        table = table_from_marginals(theta.sum(axis=1), theta.sum(axis=0))
        spec = build_identified_set(table, RestrictionSet.monotone(table.support))
        out = joint_theta_min_exists(spec)
        assert np.abs(out.sum(axis=1) - spec.p0).max() < 1e-9
        assert np.abs(out.sum(axis=0) - spec.p1).max() < 1e-9


def test_restriction_constructors_cover_cli_forms():
    sup = support_from_values([0.0, 1.0, 2.0])
    for r in (
        RestrictionSet.monotone(sup),
        RestrictionSet.defier_budget(sup, 0.1),
        RestrictionSet.unrestricted(sup),
        RestrictionSet.bounded_effect(sup, 1.0, 0.2),
        RestrictionSet.custom(sup, np.ones((1, 9)), [0.5]),
    ):
        assert r.matrix.shape[1] == 9
    vec = support_from_values(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))
    elem = RestrictionSet.elementwise_monotone(vec)
    spec_rows = {tuple(np.nonzero(row)[0]) for row in elem.matrix}
    # theta_lk pinned exactly when m_l is not coordinatewise below m_k
    assert (1 * 4 + 2,) in spec_rows  # (0,1) vs (1,0) incomparable
    budget = RestrictionSet.elementwise_defier_budget(vec, 0.2)
    assert budget.matrix.shape == (1, 16)


def test_partial_order_hook():
    sup = support_from_values(np.array([[0, 0], [1, 0], [0, 1]]))
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = True  # only 0 -> 1 movement allowed
    r = RestrictionSet.partial_order_monotone(sup, leq)
    pinned = {tuple(np.nonzero(row)[0]) for row in r.matrix}
    assert (0 * 3 + 2,) in pinned  # 0 -> 2 movement pinned
    assert (0 * 3 + 1,) not in pinned


def test_min_defier_budget_zero_when_monotone_feasible():
    table = table_from_marginals([0.5, 0.5], [0.4, 0.6])
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    assert min_defier_budget(spec) == pytest.approx(0.0, abs=1e-10)


def test_restriction_support_size_mismatch():
    sup2 = support_from_values([0.0, 1.0])
    table = table_from_marginals([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
    with pytest.raises(StructuralError):
        build_identified_set(table, RestrictionSet.monotone(sup2))


def pinned(support, r):
    free = share_polytope(support, r)[0]
    K = support.k
    return {(int(i) // K, int(i) % K) for i in np.setdiff1d(np.arange(K * K), free)}


def test_pins_are_the_cells_each_constructor_zeroes():
    sup = support_from_values([0.0, 1.0, 2.0, 3.0])
    defiers = {(l, k) for l in range(4) for k in range(4) if l > k}
    far = {(l, k) for l in range(4) for k in range(4) if abs(l - k) > 1}
    assert pinned(sup, RestrictionSet.monotone(sup)) == defiers
    assert pinned(sup, RestrictionSet.defier_budget(sup, 0.0)) == defiers
    assert pinned(sup, RestrictionSet.defier_budget(sup, 0.1)) == set()
    assert pinned(sup, RestrictionSet.bounded_effect(sup, 1.0, 0.0)) == far
    assert pinned(sup, RestrictionSet.bounded_effect(sup, 1.0, 0.1)) == set()
    assert pinned(sup, RestrictionSet.unrestricted(sup)) == set()
    vec = support_from_values(np.array([[0, 0], [0, 1], [1, 0], [1, 1]]))
    below = {(l, k) for l in range(4) for k in range(4) if not vec.elementwise_leq(l, k)}
    assert pinned(vec, RestrictionSet.elementwise_monotone(vec)) == below
    assert pinned(vec, RestrictionSet.elementwise_defier_budget(vec, 0.0)) == below
    leq = np.eye(4, dtype=bool)
    leq[0, 1] = leq[2, 3] = True
    order = {(l, k) for l in range(4) for k in range(4) if not leq[l, k]}
    assert pinned(vec, RestrictionSet.partial_order_monotone(vec, leq)) == order
    # a custom theta_lk <= 0 row pins its cell; a row with a negative
    # coefficient or a positive rhs pins nothing
    rows = np.zeros((3, 16))
    rows[0, 1 * 4 + 2] = 1.0
    rows[1, [0, 5]] = 1.0, -1.0
    rows[2, 7] = 1.0
    r = RestrictionSet.custom(vec, rows, [0.0, 0.0, 0.2])
    free, eq, ub, rhs = share_polytope(vec, r)
    assert pinned(vec, r) == {(1, 2)}
    assert ub.shape == (2, 15) and rhs.tolist() == [0.0, 0.2] and eq.shape == (8, 15)


def test_identified_set_lps_match_highs_on_the_full_share_space():
    """The LPs over the free cells, with a trailing variable and extra rows,
    solve the K^2 programs HiGHS solves with every restriction row."""
    rng = np.random.default_rng(17)
    statuses = set()
    for trial in range(80):
        table = random_table(rng, monotone_theta=trial % 2 == 0)
        K, sup = table.n_mediators, table.support
        pins = np.zeros((2, K * K))
        pins[0, rng.integers(K * K)] = 1.0
        pins[1, rng.integers(K * K, size=2)] = 1.0
        r = [RestrictionSet.monotone(sup), RestrictionSet.defier_budget(sup, 0.0),
             RestrictionSet.bounded_effect(sup, 1.0, 0.05),
             RestrictionSet.custom(sup, pins, [0.0, 0.1])][trial % 4]
        spec = build_identified_set(table, r)
        # min c'theta + s over s >= theta_kk - b_k for two cells (l, l)
        ks = rng.integers(K, size=2)
        extra = np.zeros((2, K * K + 1))
        extra[[0, 1], ks * (K + 1)] = 1.0
        extra[:, -1] = -1.0
        b = rng.uniform(0.0, 0.3, 2)
        c = np.r_[rng.normal(size=K * K), 1.0]
        sol = solve_lp(spec.lp(c, extra, b, extra_bounds=((-np.inf, np.inf),)))
        ref = scipy_linprog(c, A_ub=np.vstack([np.hstack([r.matrix, np.zeros((len(r.rhs), 1))]),
                                               extra]),
                            b_ub=np.r_[r.rhs, b], A_eq=np.hstack([spec.eq_matrix, np.zeros((2 * K, 1))]),
                            b_eq=spec.eq_rhs, bounds=[(0, None)] * K * K + [(None, None)],
                            method="highs")
        statuses.add(ref.status)
        assert spec.feasible == (ref.status == 0)
        if ref.status == 2:
            assert sol.status == INFEASIBLE
            continue
        assert sol.status == OPTIMAL and abs(sol.value - ref.fun) < 1e-9
        point = spec.point(sol.point)
        assert point.shape == (K * K + 1,) and abs(c @ point - sol.value) < 1e-9
        assert theta_in_identified_set(spec, point[: K * K].reshape(K, K))
        sf = sol.standard
        assert (sf.cost - sol.dual @ sf.matrix).min() > -1e-8
        assert abs(sol.dual @ sf.rhs - (sol.value - sf.offset)) < 1e-8
    assert statuses == {0, 2}


def test_spec_minimizes_over_its_one_feasible_set(phase_one_runs):
    """Each objective minimized over a spec gives, byte for byte, the cold
    solve of its own LP; the spec's phase 1 runs once, when it is built."""
    rng = np.random.default_rng(31)
    statuses = set()
    for trial in range(40):
        table = random_table(rng, monotone_theta=trial % 3 == 0)
        sup = table.support
        r = [RestrictionSet.monotone(sup), RestrictionSet.defier_budget(sup, 0.05),
             RestrictionSet.unrestricted(sup)][trial % 3]
        del phase_one_runs[:]
        spec = build_identified_set(table, r)
        objectives = [rng.normal(size=sup.k**2), np.eye(sup.k**2)[0], -np.ones(sup.k**2)]
        sols = [spec.minimize(c) for c in objectives]
        if spec.feasible:
            theta_kk_min(spec, sup.k - 1)
            max_type_share(spec, [(0, sup.k - 1)])
        if r.kind == "unrestricted":
            min_defier_budget(spec)
        assert len(phase_one_runs) == 1
        for c, sol in zip(objectives, sols):
            statuses.add(sol.status)
            assert solution_bytes(sol) == solution_bytes(solve_lp(spec.lp(c)))
    assert statuses == {OPTIMAL, INFEASIBLE}


# -- the quantile start --------------------------------------------------


def test_a_dominated_table_starts_phase_one_at_a_feasible_quantile_coupling():
    """Under monotonicity and without restrictions, a K=10 table whose
    treated marginal dominates needs no phase 1 pivot, and its theta_kk
    minima are the closed forms: the monotone one, and the Frechet bound
    ``(p0_k + p1_k - 1)_+`` without restrictions."""
    rng = np.random.default_rng(19)
    theta = np.triu(rng.uniform(0.05, 1.0, (10, 10)))
    theta /= theta.sum()
    table = table_from_marginals(theta.sum(axis=1), theta.sum(axis=0))
    for r in (RestrictionSet.monotone(table.support), RestrictionSet.unrestricted(table.support)):
        spec = build_identified_set(table, r)
        assert spec.quantile_start is not None
        assert spec.feasible_set._phase1_pivots == 0
        for k in range(10):
            closed = (closed_form_theta_min(spec.p0, spec.p1, k) if r.kind == "monotone"
                      else max(spec.p0[k] + spec.p1[k] - 1.0, 0.0))
            assert abs(theta_kk_min(spec, k) - closed) <= 1e-12


def test_the_quantile_start_is_the_northwest_corner_rule(fig2_marginals):
    # (.5, .3, .2) against (.3, .3, .4): cells (0,0) (0,1) (1,1) (1,2) (2,2)
    table = table_from_marginals(*fig2_marginals)
    spec = build_identified_set(table, RestrictionSet.unrestricted(table.support))
    assert spec.quantile_start.tolist() == [1, 5, 8, 0, 4, -1]


def test_no_quantile_start_where_the_walk_meets_a_pinned_cell():
    # control mass sits above the treated mass: the walk steps onto a defier cell
    table = table_from_marginals([0.2, 0.8], [0.8, 0.2])
    assert build_identified_set(table, RestrictionSet.monotone(table.support)).quantile_start is None
    # a 3 x 3 vector mediator: the lexicographic walk leaves the elementwise order
    m = np.array([(a, b) for a in range(3) for b in range(3)], dtype=float)
    support = support_from_values(m)
    vector = DistTable(support=support, outcome_levels=(0.0,), mass=np.full((2, 9, 1), 1.0 / 9.0))
    spec = build_identified_set(vector, RestrictionSet.elementwise_monotone(support))
    assert spec.quantile_start is None and spec.feasible


@pytest.mark.parametrize("p0, p1", [((0.5, 0.3, 0.2), (0.5, 0.3, 0.2)),
                                    ((0.5, 0.3, 0.2), (0.5, 0.2, 0.3)),
                                    ((0.25, 0.25, 0.5), (0.25, 0.25, 0.5))])
def test_tied_cumulative_marginals_step_right_and_keep_the_quantile_start(p0, p1):
    # a step down at a tie would enter a defier cell, so the program would start cold
    table = table_from_marginals(p0, p1)
    spec = build_identified_set(table, RestrictionSet.monotone(table.support))
    assert spec.quantile_start is not None
    assert spec.feasible_set._phase1_pivots == 0
    for k in range(3):
        assert theta_kk_min(spec, k) == closed_form_theta_min(spec.p0, spec.p1, k)


def _ties_down_start(spec):
    """The quantile start as it was when ties of the cumulative marginals
    sent the walk down: the reference where no cumulative value ties."""
    K = spec.k
    F0, F1 = np.cumsum(spec.p0)[:-1], np.cumsum(spec.p1)[:-1]
    down = np.argsort(np.concatenate([F0, F1]), kind="stable") < K - 1
    l = np.concatenate([[0], np.cumsum(down)])
    k = np.concatenate([[0], np.cumsum(~down)])
    free = np.full(K * K, -1)
    free[spec.polytope[0]] = np.arange(spec.polytope[0].size)
    var = free[l * K + k]
    if (var < 0).any():
        return None
    start = np.full(2 * K, -1)
    start[np.append(np.where(down, l[:-1], K + k[:-1]), K - 1)] = var
    return start


def test_without_ties_the_quantile_start_is_the_ties_down_walk():
    rng = np.random.default_rng(36)
    grid = support_from_values(np.array([(a, b) for a in range(3) for b in range(3)], dtype=float))
    hinted = 0
    for trial in range(300):
        K = int(rng.integers(2, 7))
        if trial % 2:  # a dominated pair, whose monotone set is nonempty
            theta = np.triu(rng.uniform(0.0, 1.0, (K, K)))
            theta /= theta.sum()
            p0, p1 = theta.sum(axis=1), theta.sum(axis=0)
        else:
            p0, p1 = rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K))
        assert not np.isin(np.cumsum(p0)[:-1], np.cumsum(p1)[:-1]).any()
        table = table_from_marginals(p0, p1)
        sup = table.support
        vector = DistTable(support=grid, outcome_levels=(0.0,),
                           mass=rng.dirichlet(np.ones(9), size=2)[..., None])
        for t, r in ((table, RestrictionSet.monotone(sup)),
                     (table, RestrictionSet.defier_budget(sup, 0.1)),
                     (table, RestrictionSet.unrestricted(sup)),
                     (vector, RestrictionSet.elementwise_monotone(grid))):
            spec = build_identified_set(t, r)
            want = _ties_down_start(spec)
            if want is None:
                assert spec.quantile_start is None
            else:
                hinted += 1
                assert spec.quantile_start.tolist() == want.tolist()
    assert hinted > 600


def _cascade(p0, p1):
    """The column-by-column cascade that :func:`joint_theta_min_exists` ran
    before it placed the quantile coupling: the loop reference."""
    K = len(p0)
    theta = np.zeros((K, K))
    for k in range(K):
        need = min(p1[k], float(np.sum(p1[k:]) - np.sum(p0[k:])))
        theta[k, k] = p1[k] - need
        for l in range(k):
            assigned = theta[:l, k].sum()
            if assigned < need - 1e-15:
                theta[l, k] = min(need - assigned, p0[l] - theta[l, :k].sum())
        theta[:, k] = np.clip(theta[:, k], 0.0, None)
    return theta


def test_the_joint_minimal_allocation_is_the_cascade():
    rng = np.random.default_rng(51)
    for _ in range(1000):
        K = int(rng.integers(2, 8))
        theta = np.triu(rng.uniform(0.0, 1.0, (K, K)) * (rng.random((K, K)) < 0.7))
        theta[0, 0] += 0.05
        theta /= theta.sum()
        table = table_from_marginals(theta.sum(axis=1), theta.sum(axis=0))
        spec = build_identified_set(table, RestrictionSet.monotone(table.support))
        assert np.abs(joint_theta_min_exists(spec) - _cascade(spec.p0, spec.p1)).max() <= 1e-15


def test_a_mediator_value_without_mass_in_one_arm_matches_highs():
    """Zero masses make the quantile coupling degenerate; the identified
    set's programs still give HiGHS's answers."""
    rng = np.random.default_rng(23)
    for trial in range(30):
        K = int(rng.integers(3, 6))
        p0, p1 = rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K))
        (p0, p1)[trial % 2][rng.integers(K)] = 0.0
        p0, p1 = p0 / p0.sum(), p1 / p1.sum()
        table = table_from_marginals(p0, p1)
        sup = table.support
        for r in (RestrictionSet.unrestricted(sup), RestrictionSet.defier_budget(sup, 0.1),
                  RestrictionSet.monotone(sup)):
            spec = build_identified_set(table, r)
            c = rng.normal(size=K * K)
            sol = solve_lp(spec.lp(c))
            ref = scipy_linprog(c, A_ub=r.matrix if r.rhs.size else None,
                                b_ub=r.rhs if r.rhs.size else None, A_eq=spec.eq_matrix,
                                b_eq=spec.eq_rhs, bounds=[(0, None)] * K * K, method="highs")
            assert spec.feasible == (ref.status == 0)
            if ref.status == 0:
                assert sol.status == OPTIMAL and abs(sol.value - ref.fun) <= 1e-9


def test_half_the_least_defier_budget_is_certified_empty_from_the_quantile_start(tmp_path,
                                                                                  capsys):
    from mechtest.cli import main

    path = tmp_path / "defiers.csv"
    lines = ["y,d,m1"] + ["0,0,0"] * 2 + ["0,0,1"] * 8 + ["0,1,0"] * 8 + ["0,1,1"] * 2
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = table_from_marginals([0.2, 0.8], [0.8, 0.2])
    least = min_defier_budget(build_identified_set(table, RestrictionSet.unrestricted(
        table.support)))
    spec = build_identified_set(table, RestrictionSet.defier_budget(table.support, least / 2))
    assert spec.quantile_start is not None and not spec.feasible
    y, sf = spec.feasible_set.farkas, spec.feasible_set._standard
    assert np.all(y @ sf.matrix <= 1e-7) and y @ sf.rhs > 0
    code = main(["bounds", "--input", str(path), "--restriction", f"defier_budget:{least / 2!r}",
                 "--out", str(tmp_path / "b.json")])
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 3 and payload["error"] == "IdentificationError"
    assert payload["message"] == ("identified set is empty under the declared restriction; "
                                  f"smallest feasible defier budget is {least:.6g}")
