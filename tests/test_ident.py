import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_table, random_table
from mechtest.errors import (
    IdentificationError,
    IncoherenceError,
    OverlapError,
    StructuralError,
    WeakInstrumentError,
)
from mechtest.ident import (
    StrategyTag,
    apply_strategy,
    correct_measurement_error,
    ipw_marginals,
    iv_complier_marginals,
    iv_relabel_comparison,
    misclassify_mediator,
)
from mechtest.probtab import RecordSet, from_records
from mechtest.typeshares import RestrictionSet
from mechtest.probtab import support_from_values


def test_randomized_equals_from_records():
    rng = np.random.default_rng(0)
    rec = RecordSet(
        y=rng.integers(0, 2, 200).astype(float),
        m=rng.integers(0, 2, 200).astype(float),
        d=rng.integers(0, 2, 200),
        z=rng.integers(0, 2, 200),  # present but ignored
    )
    a = from_records(rec)
    b = from_records(RecordSet(y=rec.y, m=rec.m, d=rec.d))
    assert_allclose(a.mass, b.mass)


def test_randomized_empty_arm_error():
    from mechtest.errors import EstimationError

    with pytest.raises(EstimationError):
        from_records(RecordSet(y=[1.0, 0.0], m=[0.0, 1.0], d=[1, 1]))


def perfect_compliance_records(rng, n=400):
    z = rng.integers(0, 2, n)
    m = rng.integers(0, 2, n).astype(float)
    y = (rng.random(n) < 0.3 + 0.4 * m).astype(float)
    return RecordSet(y=y, m=m, d=z, z=z)


def test_iv_perfect_compliance_collapses_to_randomized():
    rng = np.random.default_rng(1)
    rec = perfect_compliance_records(rng)
    table_iv = iv_complier_marginals(rec)
    table_rand = from_records(rec)
    assert_allclose(table_iv.mass, table_rand.mass, atol=1e-12)


def counterexample_records():
    """Half instrument-compliers who always take the mediator and respond
    directly; half instrument never-takers stuck at mediator 0, outcome 0."""
    rows = [
        # (y, m, d, z): complier with z=1 and z=0
        (1.0, 1.0, 1, 1),
        (0.0, 1.0, 0, 0),
        # never-taker with z=1 and z=0
        (0.0, 0.0, 0, 1),
        (0.0, 0.0, 0, 0),
    ]
    y, m, d, z = map(np.array, zip(*rows))
    return RecordSet(y=y, m=m, d=d.astype(int), z=z.astype(int))


def test_iv_counterexample_complier_laws():
    rec = counterexample_records()
    table = iv_complier_marginals(rec)
    k1 = table.support.index(1.0)
    q1 = table.outcome_levels.index(1.0)
    q0 = table.outcome_levels.index(0.0)
    assert table.mass[1, k1, q1] == pytest.approx(1.0, abs=1e-12)
    assert table.mass[0, k1, q0] == pytest.approx(1.0, abs=1e-12)


def test_iv_requires_variation_and_first_stage():
    rng = np.random.default_rng(2)
    n = 100
    z = rng.integers(0, 2, n)
    rec = RecordSet(
        y=np.zeros(n), m=np.zeros(n), d=np.zeros(n, dtype=int), z=z,
    )
    with pytest.raises(WeakInstrumentError):
        iv_complier_marginals(rec)
    with pytest.raises(StructuralError):
        iv_complier_marginals(RecordSet(y=[1.0, 0.0], m=[0.0, 1.0], d=[0, 1]))


def random_iv_population(rng, monotone_m=True, n_units=40):
    """Exact population as 2*n rows (one per unit x instrument value).

    Units carry D(z) with D(1) >= D(0), M(d) with optional monotonicity,
    and potential outcomes Y(d, m) over a binary outcome grid.
    """
    units = []
    for _ in range(n_units):
        d0 = int(rng.random() < 0.2)
        d1 = max(d0, int(rng.random() < 0.7))
        m0 = int(rng.integers(0, 3))
        m1 = int(rng.integers(m0, 3)) if monotone_m else int(rng.integers(0, 3))
        y_of = {(d, m): int(rng.random() < 0.3 + 0.2 * m + 0.1 * d * rng.random())
                for d in (0, 1) for m in range(3)}
        units.append((d0, d1, m0, m1, y_of))
    if not any(u[1] > u[0] for u in units):
        units[0] = (0, 1) + units[0][2:]
    rows = []
    for z in (0, 1):
        for d0, d1, m0, m1, y_of in units:
            d = d1 if z else d0
            m = m1 if d else m0
            rows.append((float(y_of[(d, m)]), float(m), d, z))
    y, m, d, z = map(np.array, zip(*rows))
    return RecordSet(y=y, m=m, d=d.astype(int), z=z.astype(int))


def test_iv_population_level_exact():
    """On a population where complier laws are computable directly, the
    Wald-ratio adapter reproduces them cell for cell."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        rec = random_iv_population(rng)
        table = iv_complier_marginals(rec)
        # direct computation among instrument-compliers
        n = rec.n // 2
        rows = list(zip(rec.y, rec.m[:, 0], rec.d, rec.z))
        first = rows[:n]
        second = rows[n:]
        compliers = [i for i in range(n) if second[i][2] > first[i][2]]
        assert compliers
        for d_arm in (0, 1):
            ref = np.zeros((table.n_mediators, table.n_outcomes))
            pick = second if d_arm else first
            for i in compliers:
                y, m, _, _ = pick[i]
                ref[table.support.index(m), table.outcome_levels.index(y)] += 1.0
            ref /= len(compliers)
            assert_allclose(table.mass[d_arm], ref, atol=1e-9)


def test_ipw_constant_half_equals_randomized():
    rng = np.random.default_rng(4)
    n = 300
    rec_plain = RecordSet(
        y=rng.integers(0, 2, n).astype(float),
        m=rng.integers(0, 2, n).astype(float),
        d=rng.integers(0, 2, n),
    )
    rec = RecordSet(y=rec_plain.y, m=rec_plain.m, d=rec_plain.d,
                    pscore=np.full(n, 0.5))
    assert_allclose(ipw_marginals(rec).mass, from_records(rec_plain).mass, atol=1e-12)


def test_ipw_two_strata_recovers_population_law():
    """Stratum A (pscore .25): M=0, Y=0.  Stratum B (pscore .75): M=1, Y=1.
    Equal stratum sizes; the weighted law must put mass 1/2 on each cell in
    both arms (exact by construction of the row counts)."""
    rows = []
    # stratum A: 8 units, 2 treated (pscore .25)
    for i in range(8):
        rows.append((0.0, 0.0, 1 if i < 2 else 0, 0.25))
    # stratum B: 8 units, 6 treated (pscore .75)
    for i in range(8):
        rows.append((1.0, 1.0, 1 if i < 6 else 0, 0.75))
    y, m, d, p = map(np.array, zip(*rows))
    rec = RecordSet(y=y, m=m, d=d.astype(int), pscore=p)
    table = ipw_marginals(rec)
    for arm in (0, 1):
        assert table.mass[arm, 0, 0] == pytest.approx(0.5, abs=1e-12)
        assert table.mass[arm, 1, 1] == pytest.approx(0.5, abs=1e-12)


def test_ipw_overlap_violation_lists_rows():
    rec = RecordSet(y=[1.0, 0.0], m=[0.0, 1.0], d=[1, 0], pscore=[0.0, 0.5])
    with pytest.raises(OverlapError) as err:
        ipw_marginals(rec)
    assert 0 in err.value.rows


def test_ipw_invariant_to_duplication():
    rng = np.random.default_rng(5)
    n = 100
    rec = RecordSet(
        y=rng.integers(0, 2, n).astype(float),
        m=rng.integers(0, 2, n).astype(float),
        d=rng.integers(0, 2, n),
        pscore=rng.uniform(0.3, 0.7, n),
    )
    doubled = RecordSet(
        y=np.concatenate([rec.y, rec.y]),
        m=np.concatenate([rec.m, rec.m]),
        d=np.concatenate([rec.d, rec.d]),
        pscore=np.concatenate([rec.pscore, rec.pscore]),
    )
    assert_allclose(ipw_marginals(rec).mass, ipw_marginals(doubled).mass, atol=1e-12)


def test_measurement_error_identity_noop():
    rng = np.random.default_rng(6)
    table = random_table(rng, K=2, Q=2)
    out = correct_measurement_error(table, np.eye(2))
    assert_allclose(out.mass, table.mass, atol=1e-12)


def test_measurement_error_round_trip():
    rng = np.random.default_rng(7)
    L = np.array([[0.9, 0.2], [0.1, 0.8]])
    for _ in range(10):
        table = random_table(rng, K=2, Q=3)
        noisy = misclassify_mediator(table, L)
        recovered = correct_measurement_error(noisy, L)
        assert_allclose(recovered.mass, table.mass, atol=1e-9)


def test_measurement_error_singular_matrix():
    rng = np.random.default_rng(8)
    table = random_table(rng, K=2, Q=2)
    with pytest.raises(IdentificationError):
        correct_measurement_error(table, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_measurement_error_incoherent_pair():
    mass = np.zeros((2, 2, 1))
    mass[:, 0, 0] = 1.0  # everything at observed m=0
    table = make_table(mass)
    # L says true m=1 mostly shows as observed m=1; inverting forces
    # negative mass on true m=1
    L = np.array([[0.6, 0.5], [0.4, 0.5]])
    with pytest.raises(IncoherenceError):
        correct_measurement_error(table, L)


def test_strategy_dispatch():
    rng = np.random.default_rng(9)
    rec = perfect_compliance_records(rng, n=200)
    assert_allclose(
        apply_strategy(rec, StrategyTag(kind="randomized")).mass,
        apply_strategy(rec, StrategyTag(kind="iv")).mass,
        atol=1e-12,
    )
    with pytest.raises(StructuralError):
        StrategyTag(kind="nope")
    with pytest.raises(StructuralError):
        StrategyTag(kind="me")  # missing matrix


def test_relabel_comparison_counterexample():
    rec = counterexample_records()
    support = support_from_values(rec.m)
    report = iv_relabel_comparison(rec, RestrictionSet.unrestricted(support))
    assert report.reject_direct
    assert not report.reject_relabel
    assert not report.agree


def test_relabel_comparison_perfect_compliance_identical():
    rng = np.random.default_rng(10)
    rec = perfect_compliance_records(rng)
    support = support_from_values(rec.m)
    report = iv_relabel_comparison(rec, RestrictionSet.monotone(support))
    assert report.slack_direct == pytest.approx(report.slack_relabel, abs=1e-9)
    assert report.agree


def test_relabel_comparison_agrees_under_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(15):
        rec = random_iv_population(rng, monotone_m=True)
        support = support_from_values(rec.m)
        report = iv_relabel_comparison(rec, RestrictionSet.monotone(support))
        assert report.agree, report
