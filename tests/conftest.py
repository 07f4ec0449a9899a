import numpy as np
import pytest

from mechtest import linprog
from mechtest.probtab import DistTable, MediatorSupport, RecordSet


def make_table(mass, ordered=True, levels=None):
    """DistTable from a (2, K, Q) array; mediator points 0..K-1."""
    mass = np.asarray(mass, dtype=float)
    K, Q = mass.shape[1], mass.shape[2]
    support = MediatorSupport(
        points=tuple((float(k),) for k in range(K)), totally_ordered=ordered
    )
    if levels is None:
        levels = tuple(float(q) for q in range(Q))
    return DistTable(support=support, outcome_levels=levels, mass=mass)


def random_table(rng, K=None, Q=None, monotone_theta=False):
    """Random table; with ``monotone_theta`` the mediator marginals come
    from an upper-triangular (no-defier) type-share draw, so the identified
    set under monotonicity is guaranteed nonempty."""
    K = K or int(rng.integers(2, 5))
    Q = Q or int(rng.integers(2, 5))
    if monotone_theta:
        theta = np.triu(rng.uniform(0.05, 1.0, (K, K)))
        theta /= theta.sum()
        p0, p1 = theta.sum(axis=1), theta.sum(axis=0)
    else:
        p0 = rng.dirichlet(np.ones(K))
        p1 = rng.dirichlet(np.ones(K))
    mass = np.empty((2, K, Q))
    for k in range(K):
        mass[0, k] = p0[k] * rng.dirichlet(np.ones(Q))
        mass[1, k] = p1[k] * rng.dirichlet(np.ones(Q))
    mass[0] /= mass[0].sum()
    mass[1] /= mass[1].sum()
    return make_table(mass)


def solution_bytes(sol):
    """An LP solution's status, then its value, point, dual, Farkas ray and
    standard-form cost and offset as bytes."""
    arrays = (sol.value, sol.point, sol.dual, sol.farkas, sol.standard.cost, sol.standard.offset)
    return sol.status, [None if a is None else np.asarray(a).tobytes() for a in arrays]


@pytest.fixture
def phase_one_runs(monkeypatch):
    """A list that grows by one per phase 1 run, i.e. per ``FeasibleSet`` built."""
    runs = []
    original = linprog.FeasibleSet.__init__

    def counting(self, lp):
        runs.append(lp.n_vars)
        original(self, lp)

    monkeypatch.setattr(linprog.FeasibleSet, "__init__", counting)
    return runs


@pytest.fixture
def binary_instance():
    """The running binary example: point-identified shares, gap 0.2 at m=0.

    Outcome levels (0, 1); treated cells m=0: (.3, .3), m=1: (.2, .2);
    control cells m=0: (.5, .1), m=1: (.1, .3).  Known values: share lower
    bounds (1/3, 1/4), slack 0.2, pooled bound 0.3.
    """
    mass = np.zeros((2, 2, 2))
    mass[1, 0] = (0.3, 0.3)
    mass[1, 1] = (0.2, 0.2)
    mass[0, 0] = (0.5, 0.1)
    mass[0, 1] = (0.1, 0.3)
    return make_table(mass)


@pytest.fixture
def fig2_marginals():
    """Three-point mediator marginals (.5, .3, .2) vs (.3, .3, .4)."""
    return np.array([0.5, 0.3, 0.2]), np.array([0.3, 0.3, 0.4])


def records_from_table(table, per_arm=1000):
    """Exact-proportion records realizing ``table`` (masses must be
    multiples of 1/per_arm)."""
    ys, ms, ds = [], [], []
    for d in (0, 1):
        for k, point in enumerate(table.support.points):
            for q, y in enumerate(table.outcome_levels):
                count = table.mass[d, k, q] * per_arm
                assert abs(count - round(count)) < 1e-6, "table not exactly representable"
                n = int(round(count))
                ys.extend([y] * n)
                ms.extend([point[0]] * n)
                ds.extend([d] * n)
    return RecordSet(y=np.array(ys), m=np.array(ms), d=np.array(ds))
