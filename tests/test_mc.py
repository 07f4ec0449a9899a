import numpy as np
import pytest

from mechtest.errors import StructuralError
from mechtest.mc import (
    MixtureDgp,
    SimulationSummary,
    _derive,
    binary_pools,
    cluster_pools,
    draw_sample,
    median_cell_count,
    ordered_pools,
    rejection_rate,
)
from mechtest.probtab import RecordSet, from_records
from mechtest.rng import substream


def two_sample_tv(rec):
    """TV distance between the treated and control empirical (y, m) laws."""
    table = from_records(rec)
    return 0.5 * np.abs(table.mass[1] - table.mass[0]).sum()


def test_t_zero_arms_converge():
    cp, tp = binary_pools()
    dgp = MixtureDgp(control_pool=cp, treated_pool=tp, t=0.0,
                     n_control=50000, n_treated=50000)
    rec = draw_sample(dgp, seed=1)
    assert two_sample_tv(rec) < 0.02


def test_t_one_draws_treated_pool():
    cp, tp = binary_pools()
    dgp = MixtureDgp(control_pool=cp, treated_pool=tp, t=1.0,
                     n_control=40000, n_treated=40000)
    rec = draw_sample(dgp, seed=2)
    table = from_records(rec)
    pool_table = from_records(
        RecordSet(
            y=np.concatenate([cp.y, tp.y]),
            m=np.vstack([cp.m, tp.m]),
            d=np.concatenate([cp.d, tp.d]),
        )
    )
    assert np.abs(table.mass[1] - pool_table.mass[1]).max() < 0.02
    assert np.abs(table.mass[0] - pool_table.mass[0]).max() < 0.02


def test_cluster_mode_relabels():
    cp, tp = cluster_pools()
    dgp = MixtureDgp(control_pool=cp, treated_pool=tp, t=0.5,
                     cluster_mode=True, clusters_per_arm=20)
    rec = draw_sample(dgp, seed=3)
    assert len(set(rec.cluster.tolist())) == 40
    # arm labels follow the arm, not the source pool
    assert set(rec.d[rec.cluster < 20]) == {0}
    assert set(rec.d[rec.cluster >= 20]) == {1}


def test_draw_determinism():
    cp, tp = binary_pools()
    dgp = MixtureDgp(control_pool=cp, treated_pool=tp, t=0.5,
                     n_control=100, n_treated=100)
    a = draw_sample(dgp, seed=11)
    b = draw_sample(dgp, seed=11)
    assert (a.y == b.y).all() and (a.m == b.m).all()
    c = draw_sample(dgp, seed=12)
    assert not (a.y == c.y).all()


def test_mixture_parameter_validation():
    cp, tp = binary_pools()
    with pytest.raises(StructuralError):
        MixtureDgp(control_pool=cp, treated_pool=tp, t=1.5, n_control=10, n_treated=10)
    with pytest.raises(StructuralError):
        MixtureDgp(control_pool=cp, treated_pool=tp, t=0.5)
    with pytest.raises(StructuralError):
        MixtureDgp(control_pool=tp, treated_pool=cp, t=0.5, n_control=10, n_treated=10)


class _Stub:
    def __init__(self, reject):
        self.reject = reject


def test_rejection_rate_stubs():
    cp, tp = binary_pools(scale=1)
    dgp = MixtureDgp(control_pool=cp, treated_pool=tp, t=0.0,
                     n_control=20, n_treated=20)
    always = rejection_rate(dgp, lambda rec, seed: _Stub(True), n_sims=10, seed=0)
    assert always.rate == 1.0
    never = rejection_rate(dgp, lambda rec, seed: _Stub(False), n_sims=10, seed=0)
    assert never.rate == 0.0
    assert isinstance(always, SimulationSummary)


def test_negative_seed_is_an_input_error():
    cp, tp = binary_pools(scale=1)
    dgp = MixtureDgp(control_pool=cp, treated_pool=tp, t=0.0, n_control=20, n_treated=20)
    calls = [lambda: substream(-1), lambda: substream(-1, 4), lambda: draw_sample(dgp, -1),
             lambda: rejection_rate(dgp, lambda rec, seed: _Stub(True), n_sims=1, seed=-1)]
    for call in calls:
        with pytest.raises(StructuralError, match="seed must be a non-negative integer, got -1"):
            call()


def test_rejection_rate_counts_errors_separately():
    cp, tp = binary_pools(scale=1)
    dgp = MixtureDgp(control_pool=cp, treated_pool=tp, t=0.0,
                     n_control=20, n_treated=20)
    calls = {"n": 0}

    def flaky(rec, seed):
        calls["n"] += 1
        if calls["n"] % 2:
            from mechtest.errors import EstimationError

            raise EstimationError("boom")
        return _Stub(True)

    out = rejection_rate(dgp, flaky, n_sims=10, seed=0)
    assert out.n_errors == 5
    assert out.rate == 1.0  # errors excluded from the denominator


def test_median_cell_count_uniform_grid():
    # 40 singleton rows spread uniformly over 2x2x2 cells -> 5 per cell
    y = np.tile([0.0, 1.0], 20)
    m = np.tile([0.0, 0.0, 1.0, 1.0], 10)
    d = np.repeat([0, 1], 20)
    rec = RecordSet(y=y, m=m, d=d)
    assert median_cell_count(rec) == 5.0


def test_median_cell_count_ignores_empty_cells():
    y = np.array([0.0] * 10 + [0.0, 1.0])
    m = np.zeros(12)
    d = np.array([0] * 10 + [1, 1])
    rec = RecordSet(y=y, m=m, d=d)
    # cells: (0, m0, y0)=10, (1, m0, y0)=1, (1, m0, y1)=1; median over nonempty
    assert median_cell_count(rec) == 1.0


def test_seed_derivation_is_stable():
    assert _derive(7, 3) == _derive(7, 3)
    assert _derive(7, 3) != _derive(7, 4)
    assert _derive(7, 3, 1) != _derive(7, 3)


def test_ordered_pools_shape():
    cp, tp = ordered_pools(n_rows=500)
    assert set(np.unique(cp.m)) <= {0.0, 1.0, 2.0, 3.0, 4.0}
    assert (cp.d == 0).all() and (tp.d == 1).all()


def test_rejection_rate_keeps_each_replicate():
    cp, tp = binary_pools(scale=1)
    dgp = MixtureDgp(control_pool=cp, treated_pool=tp, t=0.0,
                     n_control=20, n_treated=20)
    from mechtest.errors import EstimationError

    def alternate(rec, seed):
        if rec.y.sum() % 2:
            raise EstimationError("odd")
        return _Stub(True)

    out = rejection_rate(dgp, alternate, n_sims=10, seed=3)
    assert len(out.results) == 10
    errors = [r for r in out.results if isinstance(r, EstimationError)]
    assert len(errors) == out.n_errors and 0 < out.n_errors < 10
    assert out.rejections == 10 - out.n_errors
