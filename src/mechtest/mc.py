"""Simulation harness: mixture DGPs, rejection rates, cell diagnostics.

A :class:`MixtureDgp` holds one empirical pool per arm.  Control units are
always resampled from the control pool; treated units come from the
treated pool with probability ``t`` and from the control pool otherwise,
so ``t = 0`` puts the sampler exactly on the null (every moment binding)
and ``t = 1`` reproduces the violation encoded in the pools.  Cluster mode
resamples whole clusters and relabels their ids.

The application-calibrated pools behind the original tables are not
shipped; :func:`binary_pools`, :func:`cluster_pools`, and
:func:`ordered_pools` build synthetic stand-ins with the same shapes
(binary M / binary Y; binary M / many-valued Y with 20 clusters per arm;
K=5 ordered M).
"""

from dataclasses import dataclass

import numpy as np

from .errors import MechtestError, StructuralError
from .inference import median_cluster_cell_count
from .probtab import RecordSet
from .rng import check_seed, substream


@dataclass(frozen=True)
class MixtureDgp:
    """Resampling design interpolating treated-arm law between the pools."""

    control_pool: RecordSet
    treated_pool: RecordSet
    t: float
    cluster_mode: bool = False
    n_control: int = None
    n_treated: int = None
    clusters_per_arm: int = None

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise StructuralError("mixture parameter t must lie in [0, 1]")
        if self.control_pool.n == 0 or self.treated_pool.n == 0:
            raise StructuralError("pools must be nonempty")
        if (self.control_pool.d != 0).any() or (self.treated_pool.d != 1).any():
            raise StructuralError("pools must be arm-pure (d=0 control, d=1 treated)")
        if self.cluster_mode:
            if self.control_pool.cluster is None or self.treated_pool.cluster is None:
                raise StructuralError("cluster mode requires cluster columns in both pools")
            if not self.clusters_per_arm:
                raise StructuralError("cluster mode requires clusters_per_arm")
        else:
            if not (self.n_control and self.n_treated):
                raise StructuralError("unit mode requires n_control and n_treated")


def _pool_clusters(pool: RecordSet):
    ids = list(dict.fromkeys(pool.cluster.tolist()))
    return [np.nonzero(pool.cluster == c)[0] for c in ids]


def draw_sample(dgp: MixtureDgp, seed: int) -> RecordSet:
    """One simulated dataset; deterministic in ``(dgp, seed)``."""
    rng = substream(seed)
    cp, tp = dgp.control_pool, dgp.treated_pool
    if not dgp.cluster_mode:
        idx0 = rng.integers(0, cp.n, dgp.n_control)
        from_treated = rng.random(dgp.n_treated) < dgp.t
        idx_t = rng.integers(0, tp.n, dgp.n_treated)
        idx_c = rng.integers(0, cp.n, dgp.n_treated)
        y1 = np.where(from_treated, tp.y[idx_t], cp.y[idx_c])
        m1 = np.where(from_treated[:, None], tp.m[idx_t], cp.m[idx_c])
        return RecordSet(
            y=np.concatenate([cp.y[idx0], y1]),
            m=np.vstack([cp.m[idx0], m1]),
            d=np.concatenate([np.zeros(dgp.n_control, dtype=int),
                              np.ones(dgp.n_treated, dtype=int)]),
        )
    control_clusters = _pool_clusters(cp)
    treated_clusters = _pool_clusters(tp)
    ys, ms, ds, cids = [], [], [], []
    label = 0
    for arm in (0, 1):
        for _ in range(dgp.clusters_per_arm):
            if arm == 1 and rng.random() < dgp.t:
                pool, members = tp, treated_clusters
            else:
                pool, members = cp, control_clusters
            rows = members[rng.integers(0, len(members))]
            ys.append(pool.y[rows])
            ms.append(pool.m[rows])
            ds.append(np.full(rows.size, arm, dtype=int))
            cids.append(np.full(rows.size, label))
            label += 1
    return RecordSet(
        y=np.concatenate(ys),
        m=np.vstack(ms),
        d=np.concatenate(ds),
        cluster=np.concatenate(cids),
    )


@dataclass(frozen=True)
class SimulationSummary:
    """Rejection-rate summary; test failures are counted, not rejections.

    ``results[b]`` is what the test returned on draw b, or the
    :class:`MechtestError` it raised.
    """

    rate: float
    n_sims: int
    n_errors: int
    rejections: int
    results: tuple = ()


def rejection_rate(dgp: MixtureDgp, test_fn, n_sims: int, seed: int) -> SimulationSummary:
    """Fraction of simulation draws on which ``test_fn`` rejects.

    ``test_fn(records, seed)`` must return an object with a ``reject``
    attribute; draw b samples with the seed ``_derive(seed, b)`` and tests
    with ``_derive(seed, b, 1)``.  Errors raised by the test are tallied
    separately and excluded from the denominator.
    """
    if n_sims < 1:
        raise StructuralError("need at least one simulation draw")
    results = []
    for b in range(n_sims):
        records = draw_sample(dgp, _derive(seed, b))
        try:
            results.append(test_fn(records, _derive(seed, b, 1)))
        except MechtestError as exc:
            results.append(exc)
    errors = sum(isinstance(r, MechtestError) for r in results)
    rejections = sum(bool(r.reject) for r in results if not isinstance(r, MechtestError))
    ok = n_sims - errors
    rate = rejections / ok if ok else float("nan")
    return SimulationSummary(rate=rate, n_sims=n_sims, n_errors=errors, rejections=rejections,
                             results=tuple(results))


def _derive(seed, *stream):
    """Deterministic child seed for draw substreams."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(s) for s in stream))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def median_cell_count(records: RecordSet, bins=None) -> float:
    """Median distinct independent units per occupied (arm, M, binned-Y) cell."""
    return median_cluster_cell_count(records, bins=bins)


def _expand(counts):
    """Rows from a {(y, m): count} dict, deterministic order."""
    ys, ms = [], []
    for (y, m), c in counts.items():
        ys.extend([float(y)] * c)
        ms.extend([float(m)] * c)
    return np.array(ys), np.array(ms)


def binary_pools(scale: int = 10):
    """Binary M / binary Y pools with a pooled violation share of exactly
    0.25 at ``t = 1`` and identical mediator marginals in both pools.

    Control: M=0 w.p. 0.6 with P(Y=1)=0.2, M=1 w.p. 0.4 with P(Y=1)=0.5.
    Treated: same mediator law, P(Y=1 | M=0) = 0.55, P(Y=1 | M=1) = 0.6.
    """
    base = 100 * scale
    control = {
        (1, 0): int(0.12 * base), (0, 0): int(0.48 * base),
        (1, 1): int(0.20 * base), (0, 1): int(0.20 * base),
    }
    treated = {
        (1, 0): int(0.33 * base), (0, 0): int(0.27 * base),
        (1, 1): int(0.24 * base), (0, 1): int(0.16 * base),
    }
    cy, cm = _expand(control)
    ty, tm = _expand(treated)
    control_pool = RecordSet(y=cy, m=cm, d=np.zeros(cy.size, dtype=int))
    treated_pool = RecordSet(y=ty, m=tm, d=np.ones(ty.size, dtype=int))
    return control_pool, treated_pool


def cluster_pools(n_clusters: int = 20, cluster_size: int = 15, seed: int = 2024):
    """Binary M, many-valued Y, ``n_clusters`` clusters per pool.

    Control outcomes are cluster-shifted normals; the treated pool raises
    outcomes for low-mediator units without moving the mediator much, so
    the sharp null fails at t=1 while mediator marginals stay monotone.
    """
    rng = substream(seed)

    def make(pool_arm):
        ys, ms, cl = [], [], []
        for g in range(n_clusters):
            shift = rng.normal(0.0, 0.5)
            m = (rng.random(cluster_size) < 0.45).astype(float)
            y = shift + rng.normal(0.0, 1.0, cluster_size)
            if pool_arm == 1:
                y = y + 1.2 * (m == 0)
            ys.append(y)
            ms.append(m)
            cl.append(np.full(cluster_size, f"{pool_arm}-{g}"))
        return RecordSet(
            y=np.concatenate(ys),
            m=np.concatenate(ms),
            d=np.full(n_clusters * cluster_size, pool_arm, dtype=int),
            cluster=np.concatenate(cl),
        )

    return make(0), make(1)


def ordered_pools(n_rows: int = 4000, seed: int = 77):
    """K=5 ordered mediator pools; treated pool shifts M up one step for a
    quarter of units and adds a direct outcome bump at unmoved mediators."""
    rng = substream(seed)

    def make(pool_arm):
        m = rng.integers(0, 5, n_rows).astype(float)
        y = (rng.random(n_rows) < (0.2 + 0.1 * m)).astype(float)
        if pool_arm == 1:
            push = rng.random(n_rows) < 0.25
            m = np.minimum(m + push, 4.0)
            bump = (~push) & (rng.random(n_rows) < 0.3)
            y = np.where(bump, 1.0, y)
        return RecordSet(y=y, m=m, d=np.full(n_rows, pool_arm, dtype=int))

    return make(0), make(1)
