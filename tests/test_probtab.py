import csv
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import make_table, random_table
from mechtest import ident, probtab
from mechtest.cli import main
from mechtest.errors import EstimationError, StructuralError
from mechtest.probtab import (
    RecordSet,
    delta_sup,
    discretize_outcome,
    encode,
    from_records,
    quantile_cutpoints,
    read_csv,
    support_from_values,
)


def test_from_records_direct_counting():
    rec = RecordSet(y=[1, 0, 1, 0], m=[0, 0, 1, 1], d=[0, 0, 1, 1])
    table = from_records(rec)
    # control rows: (1,0), (0,0); treated rows: (1,1), (0,1)
    assert_allclose(table.mass[0, 0, 1], 0.5)  # y=1, m=0 | control
    assert_allclose(table.mass[0, 0, 0], 0.5)
    assert_allclose(table.mass[1, 1, 0], 0.5)  # y=0, m=1 | treated
    assert_allclose(table.mass[1, 1, 1], 0.5)
    assert table.n_units == (2, 2)


def test_from_records_degenerate_control_arm():
    rec = RecordSet(y=[0, 0, 1], m=[0, 0, 1], d=[0, 0, 1])
    table = from_records(rec)
    assert_allclose(table.mass[0, 0, 0], 1.0)
    assert table.mass[0].sum() == pytest.approx(1.0)


def test_from_records_requires_both_arms():
    with pytest.raises(EstimationError):
        from_records(RecordSet(y=[1.0], m=[0.0], d=[1]))


def test_nonbinary_treatment_rejected():
    with pytest.raises(StructuralError):
        RecordSet(y=[1.0, 0.0], m=[0.0, 0.0], d=[0, 2])


def test_delta_sup_vs_subset_enumeration():
    mass = np.zeros((2, 1, 2))
    mass[1, 0] = (0.3, 0.3)
    mass[0, 0] = (0.1, 0.5)
    # pad a second mediator so arms normalize
    mass = np.concatenate([mass, mass[:, :, ::-1]], axis=1)
    mass[0] /= mass[0].sum()
    mass[1] /= mass[1].sum()
    table = make_table(mass)
    gap = delta_sup(table, 0)
    brute = max(
        sum(table.mass[1, 0, q] - table.mass[0, 0, q] for q in subset)
        for r in range(3)
        for subset in itertools.combinations(range(2), r)
    )
    assert_allclose(gap, brute, atol=1e-12)


def test_delta_sup_identical_arms_zero():
    rng = np.random.default_rng(0)
    table = random_table(rng, K=3, Q=4)
    same = make_table(np.stack([table.mass[0], table.mass[0]]))
    for k in range(3):
        assert delta_sup(same, k) == 0.0


def test_delta_sup_when_control_cell_empty():
    mass = np.zeros((2, 2, 2))
    mass[1, 0] = (0.4, 0.2)
    mass[1, 1] = (0.2, 0.2)
    mass[0, 1] = (0.5, 0.5)
    table = make_table(mass)
    assert_allclose(delta_sup(table, 0), 0.6)  # all of P(M=0 | treated)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_delta_sup_equals_brute_force_over_subsets(seed, Q):
    rng = np.random.default_rng(seed)
    table = random_table(rng, K=2, Q=Q)
    for k in range(2):
        diff = table.mass[1, k] - table.mass[0, k]
        brute = max(
            sum(diff[list(s)]) if s else 0.0
            for r in range(Q + 1)
            for s in itertools.combinations(range(Q), r)
        )
        assert delta_sup(table, k) == pytest.approx(brute, abs=1e-12)
        assert 0.0 <= delta_sup(table, k) <= table.marginal_m(1)[k] + 1e-12


def test_delta_sup_brute_force_twelve_levels():
    rng = np.random.default_rng(99)
    table = random_table(rng, K=2, Q=12)
    for k in range(2):
        diff = table.mass[1, k] - table.mass[0, k]
        brute = max(
            (diff[np.array(s, dtype=int)].sum() if s else 0.0)
            for r in range(13)
            for s in itertools.combinations(range(12), r)
        )
        assert delta_sup(table, k) == pytest.approx(brute, abs=1e-12)


def test_mass_normalized_after_transforms():
    rng = np.random.default_rng(1)
    table = random_table(rng, K=3, Q=6)
    disc = discretize_outcome(table, (1.5, 3.5))
    for d in (0, 1):
        assert disc.mass[d].sum() == pytest.approx(1.0, abs=1e-9)


def test_discretize_pairwise_sums():
    rng = np.random.default_rng(2)
    table = random_table(rng, K=2, Q=4)
    two = discretize_outcome(table, (1.5,))
    assert two.n_outcomes == 2
    assert_allclose(two.mass[:, :, 0], table.mass[:, :, :2].sum(axis=2))
    assert_allclose(two.mass[:, :, 1], table.mass[:, :, 2:].sum(axis=2))


def test_discretize_refinement_monotone():
    rng = np.random.default_rng(3)
    for _ in range(30):
        table = random_table(rng, K=2, Q=6)
        coarse = discretize_outcome(table, (2.5,))
        fine = discretize_outcome(table, (0.5, 2.5, 4.5))
        for k in range(2):
            assert delta_sup(coarse, k) <= delta_sup(fine, k) + 1e-12
            assert delta_sup(fine, k) <= delta_sup(table, k) + 1e-12


def test_discretize_idempotent_when_levels_respect_cuts():
    rng = np.random.default_rng(4)
    table = random_table(rng, K=2, Q=3)  # levels 0, 1, 2
    cuts = (0.5, 1.5)
    once = discretize_outcome(table, cuts)
    twice = discretize_outcome(once, cuts)
    assert once.outcome_levels == table.outcome_levels
    assert twice.outcome_levels == once.outcome_levels
    assert_allclose(twice.mass, once.mass, atol=0)


def test_discretize_rejects_empty_cutpoints():
    rng = np.random.default_rng(5)
    with pytest.raises(StructuralError):
        discretize_outcome(random_table(rng), ())


def test_quantile_cutpoints_quintiles_balanced():
    rng = np.random.default_rng(6)
    draws = rng.uniform(0, 1, 100)
    cuts = quantile_cutpoints(draws, 5)
    assert len(cuts) == 4
    bins = np.searchsorted(cuts, draws, side="left")
    counts = np.bincount(bins, minlength=5)
    assert all(abs(c - 20) <= 1 for c in counts)


def test_ties_go_to_lower_bin():
    cuts = quantile_cutpoints([1.0, 1.0, 2.0, 3.0], 2)
    table = make_table(np.full((2, 1, 1), 1.0), levels=(float(cuts[0]),))
    disc = discretize_outcome(table, cuts)
    assert disc.n_outcomes == 1  # the tied value lands in the lower bin


def test_support_registration_and_order():
    sup = support_from_values([3.0, 1.0, 2.0, 1.0])
    assert sup.points == ((1.0,), (2.0,), (3.0,))
    assert sup.totally_ordered
    vec = support_from_values(np.array([[0, 1], [1, 0], [0, 1]]))
    assert not vec.totally_ordered
    assert vec.k == 2
    with pytest.raises(StructuralError):
        sup.index(9.0)


def test_vector_mediator_partial_order():
    sup = support_from_values(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert sup.elementwise_leq(0, 3)
    assert not sup.elementwise_leq(1, 2)


def test_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text(
        "y,d,m1,cluster,z,pscore\n"
        "1.5,1,0,a,1,0.4\n"
        "0.5,0,1,b,0,0.6\n",
        encoding="utf-8",
    )
    rec = read_csv(path)
    assert rec.n == 2
    assert rec.mediator_dim == 1
    assert rec.z.tolist() == [1, 0]
    assert rec.cluster.tolist() == ["a", "b"]
    assert_allclose(rec.pscore, [0.4, 0.6])


def test_csv_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,d,m1\n1,0,0\noops,1,0\n", encoding="utf-8")
    with pytest.raises(StructuralError, match="line 3"):
        read_csv(path)


@pytest.mark.parametrize("column", ["d", "z"])
def test_csv_binary_columns_are_not_truncated(column, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("y,d,m1,z\n1,1.0,0,1.0\n0,0.0,1,0\n", encoding="utf-8")
    rec = read_csv(path)
    assert rec.d.tolist() == [1, 0] and rec.z.tolist() == [1, 0]
    for bad in ("0.5", "1.9", "-0.4"):
        row = {"y": "1", "d": "1", "m1": "0", "z": "1", column: bad}
        path.write_text("y,d,m1,z\n" + ",".join(row.values()) + "\n0,0,1,0\n", encoding="utf-8")
        with pytest.raises(StructuralError, match="must be binary 0/1"):
            read_csv(path)


def test_csv_missing_required_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("y,m1\n1,0\n", encoding="utf-8")
    with pytest.raises(StructuralError, match="'d'"):
        read_csv(path)


@pytest.mark.parametrize("col", ["y", "d", "cluster", "z", "pscore", "m1"])
def test_csv_repeated_column_is_an_input_error(col, tmp_path, capsys):
    # a plain copy and a quoted one, which only the csv module splits
    header = ["y", "d", "m1", "cluster", "z", "pscore", col]
    values = dict(zip(header, ["1", "0", "0", "a", "0", "0.5"]))
    rows = [header, [values[c] for c in header], [values[c] for c in header]]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    quoted.write_text("".join(",".join(f'"{f}"' for f in r) + "\n" for r in rows), encoding="utf-8")
    for path in (plain, quoted):
        with pytest.raises(StructuralError, match=f"column '{col}' appears more than once"):
            read_csv(path)
        assert main(["bounds", "--input", str(path), "--out", str(tmp_path / "b.json")]) == 2
        assert f"column '{col}' appears more than once" in capsys.readouterr().out


def test_empty_md_cells_keep_indices():
    # an (m, d) cell with no mass still occupies its slot
    mass = np.zeros((2, 2, 2))
    mass[0, 0] = (0.5, 0.5)
    mass[1, 0] = (0.25, 0.25)
    mass[1, 1] = (0.25, 0.25)
    table = make_table(mass)
    assert table.mass[0, 1].sum() == 0.0
    assert table.marginal_m(0)[1] == 0.0
    assert table.cond_outcome(0, 1).sum() == 0.0


def test_encode_matches_a_per_row_reference():
    rng = np.random.default_rng(21)
    n = 500
    m = rng.integers(0, 3, (n, 2)).astype(float)
    y = rng.integers(0, 4, n) * 0.5
    d = rng.integers(0, 2, n)
    cluster = np.array([f"c{g}" for g in rng.permutation(60)[rng.integers(0, 60, n)]])
    enc = encode(RecordSet(y=y, m=m, d=d, cluster=cluster))
    points = sorted({tuple(row) for row in m.tolist()})
    levels = sorted(set(y.tolist()))
    assert enc.support.points == tuple(points)
    assert enc.outcome_levels == tuple(levels)
    K, Q = len(points), len(levels)
    want = [(d[i] * K + points.index(tuple(m[i]))) * Q + levels.index(y[i]) for i in range(n)]
    assert enc.cell_of.tolist() == want
    first_seen = list(dict.fromkeys(cluster.tolist()))
    assert enc.cluster_of.tolist() == [first_seen.index(c) for c in cluster.tolist()]
    counts = np.zeros((2, K, Q))
    np.add.at(counts, (d, [points.index(tuple(r)) for r in m.tolist()],
                       [levels.index(v) for v in y.tolist()]), 1)
    assert np.array_equal(enc.cell_sums(), counts)
    table = from_records(RecordSet(y=y, m=m, d=d, cluster=cluster))
    assert np.array_equal(table.mass, counts / counts.sum(axis=(1, 2), keepdims=True))
    assert table.n_clusters == tuple(len(set(cluster[d == a].tolist())) for a in (0, 1))


def test_units_per_cell_matches_the_distinct_unit_count():
    rng = np.random.default_rng(23)
    n = 2000
    d = (rng.random(n) < 0.3).astype(int)
    # the treated arm never reaches the top outcome level: three empty cells
    rec = RecordSet(y=rng.integers(0, 5 - d, n).astype(float), m=rng.integers(0, 3, n).astype(float),
                    d=d)
    labels = {"none": None, "singletons": rng.permutation(n).astype(str),
              "pairs": np.arange(n) // 2, "mixed sizes": np.minimum(np.arange(n), n // 2),
              "arm-pure": 10_000 * rec.d + rng.integers(0, 40, n)}
    for name, cluster in labels.items():
        enc = encode(replace(rec, cluster=cluster))
        n_cells = int(np.prod(enc.shape))
        per_cell = np.bincount(np.unique(enc.cluster_of * n_cells + enc.cell_of) % n_cells)
        assert enc.unit_level == (name in ("none", "singletons"))
        assert (enc.cell_sums() == 0).sum() == 3
        assert np.array_equal(enc.units_per_cell(), per_cell[per_cell > 0]), name
    assert encode(replace(rec, cluster=labels["singletons"])).units_per_cell().sum() == n


@pytest.mark.parametrize("bins", [4, (-0.5, 0.25, 1.0)])
def test_encode_bins_label_each_bin_by_its_smallest_value(bins):
    rng = np.random.default_rng(22)
    y = rng.normal(0.0, 1.0, 400)
    rec = RecordSet(y=y, m=np.zeros(400), d=np.arange(400) % 2)
    enc = encode(rec, bins)
    cuts = quantile_cutpoints(y, bins) if isinstance(bins, int) else bins
    b = np.searchsorted(cuts, y, side="left")
    assert enc.outcome_levels == tuple(y[b == j].min() for j in np.unique(b))
    binned = _reference_bin_records(rec, bins)
    assert encode(binned).outcome_levels == enc.outcome_levels
    assert np.array_equal(encode(binned).cell_of, enc.cell_of)
    table = discretize_outcome(from_records(rec), cuts)
    assert table.outcome_levels == enc.outcome_levels
    with pytest.raises(StructuralError):
        encode(rec, (1.0, 0.0))
    # one quantile bin has no cutpoint: the error names the option, not the empty cut set
    for few in (1, 0):
        with pytest.raises(StructuralError, match=f"^bins must be at least 2, got {few}$"):
            encode(rec, few)


def test_encode_takes_any_integer_bin_count_and_names_bins_on_other_scalars():
    rng = np.random.default_rng(23)
    rec = RecordSet(y=rng.normal(0.0, 1.0, 20), m=rng.integers(0, 2, 20), d=np.arange(20) % 2)
    want = encode(rec, 5)
    got = encode(rec, np.int64(5))
    assert got.outcome_levels == want.outcome_levels
    assert np.array_equal(got.cell_of, want.cell_of)
    assert np.array_equal(from_records(rec, np.int64(5)).mass, from_records(rec, 5).mass)
    for scalar in (5.0, True, np.float64(5.0), np.bool_(True)):
        with pytest.raises(StructuralError, match="^bins must be an integer count"):
            encode(rec, scalar)
    with pytest.raises(StructuralError, match="^bins must be at least 2, got 1$"):
        encode(rec, np.int64(1))


def _reference_bin_records(records, bins):
    """The binned record set that tables were once identified from, kept as
    the reference for passing ``bins`` to :func:`encode`."""
    if bins is None:
        return records
    enc = encode(records, bins)
    q_of = enc.cell_of % len(enc.outcome_levels)
    return replace(records, y=np.asarray(enc.outcome_levels)[q_of])


@pytest.mark.parametrize("bins", [None, 4, (-0.5, 0.25, 1.0)])
def test_binned_tables_match_tables_of_binned_records(bins):
    rng = np.random.default_rng(23)
    n = 3000
    z = rng.integers(0, 2, n)
    d = np.where(rng.random(n) < 0.9, z, 1 - z)
    rec = RecordSet(y=rng.integers(0, 12, n) * 0.25 - 1.5, m=rng.integers(0, 3, n), d=d,
                    cluster=rng.integers(0, 400, n).astype(str), z=z,
                    pscore=rng.uniform(0.2, 0.8, n))
    L = np.full((3, 3), 0.02) + 0.94 * np.eye(3)
    tables = {"from_records": (from_records(rec, bins),
                               from_records(_reference_bin_records(rec, bins)))}
    for kind in (ident.RANDOMIZED, ident.IV, ident.IPW, ident.MEASUREMENT_ERROR):
        tag = ident.StrategyTag(kind, L if kind == ident.MEASUREMENT_ERROR else None)
        tables[kind] = (ident.apply_strategy(rec, tag, bins),
                        ident.apply_strategy(_reference_bin_records(rec, bins), tag))
    for name, (got, want) in tables.items():
        assert got.mass.tobytes() == want.mass.tobytes(), name
        assert got.outcome_levels == want.outcome_levels, name
        assert (got.n_units, got.n_clusters) == (want.n_units, want.n_clusters), name
    assert len(tables["iv"][0].outcome_levels) == (12 if bins is None else 4)


def _reference_read_csv(path):
    """The row-by-row reader that ``read_csv`` replaced, kept as its reference."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StructuralError(f"{path}: empty file")
        header = [h.strip() for h in header]
        for col in ("y", "d"):
            if col not in header:
                raise StructuralError(f"{path}: missing required column '{col}'")
        m_cols = sorted(
            (h for h in header if h.startswith("m") and h[1:].isdigit()),
            key=lambda h: int(h[1:]),
        )
        if not m_cols:
            raise StructuralError(f"{path}: no mediator columns m1..mp found")
        expected = [f"m{i + 1}" for i in range(len(m_cols))]
        if m_cols != expected:
            raise StructuralError(f"{path}: mediator columns must be contiguous m1..mp, got {m_cols}")
        idx = {h: header.index(h) for h in header}
        rows_y, rows_m, rows_d = [], [], []
        rows_c, rows_z, rows_p = [], [], []
        has_cluster = "cluster" in header
        has_z = "z" in header
        has_p = "pscore" in header
        while True:
            ln = reader.line_num + 1  # the physical line the record starts on
            row = next(reader, None)
            if row is None:
                break
            if len(row) != len(header):
                raise StructuralError(f"{path}: line {ln}: expected {len(header)} fields, got {len(row)}")
            try:
                rows_y.append(float(row[idx["y"]]))
                rows_d.append(float(row[idx["d"]]))
                rows_m.append([float(row[idx[c]]) for c in m_cols])
                if has_cluster:
                    rows_c.append(row[idx["cluster"]].strip())
                if has_z:
                    rows_z.append(float(row[idx["z"]]))
                if has_p:
                    rows_p.append(float(row[idx["pscore"]]))
            except ValueError as exc:
                raise StructuralError(f"{path}: line {ln}: {exc}")
    try:
        return RecordSet(
            y=np.array(rows_y),
            m=np.array(rows_m).reshape(-1, len(m_cols)),
            d=np.array(rows_d),
            cluster=np.array(rows_c) if has_cluster else None,
            z=np.array(rows_z) if has_z else None,
            pscore=np.array(rows_p) if has_p else None,
        )
    except StructuralError as exc:
        raise StructuralError(f"{path}: {exc}")


def _outcome(reader, path):
    """Every RecordSet field as (dtype, shape, bytes), or the error message."""
    try:
        rec = reader(path)
    except StructuralError as exc:
        return "error", str(exc)
    except csv.Error as exc:  # the reference lets it through
        return "csv error", str(exc)
    arrays = {name: getattr(rec, name) for name in ("y", "m", "d", "cluster", "z", "pscore")}
    return {name: None if arr is None else (arr.dtype.str, arr.shape, arr.tobytes())
            for name, arr in arrays.items()}


def _rows_text(header, rows):
    return "\r\n".join([header, *rows]) + "\r\n"


def _block_corpus(block):
    """Files around block boundaries, clean and with a fault in the last row
    of a block or the first row of the next one."""
    header = "y,d,m1,cluster,z,pscore"
    rows = [f"{i % 6},{i % 2},{(i // 2) % 3},c{i % 7},{(i // 3) % 2},0.{1 + i % 8}"
            for i in range(2 * block + 3)]
    yield "clean-1", _rows_text(header, rows[:block])
    yield "clean-2", _rows_text(header, rows[:block + 1])
    yield "clean-3", _rows_text(header, rows)
    for at in (block - 1, block, 2 * block - 1, 2 * block):
        for fault in ("x", "1,1", "1,0,0,c,0,0.5,9", ""):
            bad = list(rows)
            bad[at] = bad[at].replace("0.", fault + "0.", 1) if fault == "x" else fault
            yield f"fault-{at}-{fault!r}", _rows_text(header, bad)
    # a later fault in the same block and in a later block never masks the first
    bad = list(rows)
    bad[1], bad[2], bad[block + 1] = "1,q,0,c,0,0.5", "1,1", "z,0,0,c,0,0.5"
    yield "two-rows", _rows_text(header, bad)
    # a quoted label in block 3 after two plain blocks
    quoted = list(rows)
    quoted[2 * block + 1] = '1,0,1,"q",0,0.5'
    yield "quote-in-block-3", _rows_text(header, quoted)



def _repeat_corpus(block):
    """Files whose lines repeat, within a block and across block boundaries."""
    header = "y,d,m1,cluster,z,pscore"
    rows = ["1,0,0,a,0,0.5", "0,1,1,b,1,0.25", "2,1,0,a,1,0.5"]
    yield "identical", _rows_text(header, [rows[0]] * (2 * block + 1))
    # row block - 1 ends a block and row block, equal to it, opens the next
    around = [rows[i % 2] for i in range(block - 1)] + [rows[2], rows[2]] + rows[:2]
    yield "equal-across-a-boundary", _rows_text(header, around)
    yield "terminated-then-unterminated", "\n".join([header, *rows, rows[0], rows[0]])
    yield "crlf-then-unterminated", "\r\n".join([header, *rows * block, rows[1]])
    # the same records with both line ends: distinct lines, equal records
    yield "repeated-crlf-and-lf", "".join([header + "\r\n"] + [r + end for end in ("\r\n", "\n")
                                                                for r in rows * block])
    labels = [" a ", "a", "  a", " a ", "b ", " b"]
    yield "spaced-labels", _rows_text(header, [f"1,{i % 2},0,{g},0,0.5"
                                               for i, g in enumerate(labels * block)])
    # a bad line repeated after good copies of other lines: the first one is named
    bad = rows * block + ["1,x,0,a,0,0.5"] + rows + ["1,x,0,a,0,0.5"] * 2
    yield "repeated-bad-line", _rows_text(header, bad)
    yield "repeated-short-line", _rows_text(header, rows * block + ["1,0"] + rows + ["1,0"])


_HAND_CORPUS = {
    "quoted-and-spaced": 'y,d,m1,cluster\n" 1.5 ",1, 0 ,"a, b"\n2 ,"0",1,  x y \n',
    "space-before-quote": 'y,d,m1\n1,0,0\n2, "0",1\n',
    "float-forms": "y,d,m1,m2,pscore\n1_0,1,-0.0,1e-320,0.5\n-0.0,0,1E+2,.5,5e-1\n",
    "two-mediators": "y,d,m1,m2\n1,0,0,1\n0,1,1,0\n1,1,1,1\n",
    "mediators-out-of-order": "y,m2,d,m1\n1,0,0,1\n0,1,1,0\n",
    "cluster-with-spaces": "cluster,y,d,m1\n  north  east ,1,0,0\nsouth,0,1,1\n north  east,1,1,0\n",
    "header-only": "y,d,m1,m2,cluster,z,pscore\n",
    "header-only-crlf": "y,d,m1\r\n",
    "empty": "",
    "blank-header": "\ny,d,m1\n1,0,0\n",
    "bom": "\ufeffy,d,m1\n1,0,0\n",
    "missing-d": "y,m1\n1,0\n",
    "no-mediator": "y,d\n1,0\n",
    "gap-in-mediators": "y,d,m1,m3\n1,0,0,0\n",
    "blank-line": "y,d,m1\n1,0,0\n\n0,1,1\n",
    "trailing-blank-lines": "y,d,m1\n1,0,0\n0,1,1\n\n\n",
    "short-row": "y,d,m1\n1,0,0\n0,1\n",
    "long-row": "y,d,m1\n1,0,0\n0,1,1,1\n",
    "two-bad-columns": "y,d,m1,z,pscore\n1,0,0,0,0.5\n1,1,0,q,oops\n",
    "bad-value-then-short-row": "y,d,m1\n1,0,0\n1,x,0\n1,0\n",
    "short-row-then-bad-value": "y,d,m1\n1,0,0\n1,0\n1,x,0\n",
    "bad-mediator-then-bad-y": "y,d,m1,m2\n1,0,0,0\nbad,0,1,x\n",
    "nan-outcome": "y,d,m1\nnan,0,0\n1,1,1\n",
    "inf-pscore": "y,d,m1,pscore\n1,0,0,inf\n1,1,1,0.5\n",
    "nan-cluster-label": "y,d,m1,cluster\n1,0,0,nan\n1,1,1,inf\n",
    "fractional-treatment": "y,d,m1\n1,0.5,0\n1,1,1\n",
    "instrument-two": "y,d,m1,z\n1,0,0,2\n1,1,1,1\n",
    "treatment-as-float": "y,d,m1,z\n1,1.0,0,0.0\n0,0.0,1,1.0\n",
    "extra-columns": "id,y,note,d,m1\n7,1,hello,0,0\n8,0,,1,1\n",
    "multiline-label": 'y,d,m1,cluster\n1,0,0,"a\nb"\n0,1,1,c\n',
    "bad-row-after-multiline-label": 'y,d,m1,cluster\n1,0,0,"a\nb"\nx,1,1,c\n',
    "bad-row-after-crlf-and-cr-labels": 'y,d,m1,cluster\r\n1,0,0,"a\r\nb"\r\n1,1,1,"c\rd\n\ne"\r\n'
                                        '0,1,0,f\r\n\r\n1,1,1,g\r\n',
    "short-row-after-multiline-labels": 'y,d,m1,cluster\n1,0,0,"a\nb"\n0,1,1,"\n\n"\n'
                                        '1,1,1,c\n0,0,0,"d\ne"\n1,1\n',
    "parse-order-not-file-order": "pscore,z,m1,y,d\noops,q,x,0,0\n",
    "field-limit-after-bad-row": "y,d,m1,cluster\n1,0,0,a\nq,1,1,b\n1,0,0," + "c" * 131073 + "\n",
    "mixed-line-ends": "y,d,m1,cluster\r\n1,0,0,a\n0,1,1,b\r\n1,1,0,a\n",
    "bare-cr": "y,d,m1,cluster\n1,0,0,a\r\r\n0,1,1,b\n",
    "no-final-newline": "y,d,m1,cluster\r\n1,0,0,a\r\n0,1,1,b",
    "nul": "y,d,m1,cluster\n1,0,0,a\n0,1,1,b\x00\n",
    "non-ascii-digit": "y,d,m1\n\u0661,0,0\n0,1,1\n",
    "no-break-space": "y,d,m1,cluster\n\xa01,0,0,\xa0g\xa0\n0,1,1,g\n",
    "separator-label": "y,d,m1,cluster\n1,0,0,\x1cg\x1d\n0,1,1,g\n",
    **{f"label-{n}": "y,d,m1,cluster\n1,0,0,a\n0,1,1," + "c" * n + "\n" for n in (131071, 131072, 131073)},
}

# every field form float() takes or rejects, in every kind of column
_TOKENS = ["+1", "-0", "\t1", "\x0b1", "1__0", "_1", "1e400", "-nan", "Infinity", "-iNF",
           "0x1", "1.5.2", ""]
_TOKEN_COLUMNS = ("y", "d", "m1", "cluster", "z", "pscore")


def _token_corpus():
    for col in _TOKEN_COLUMNS:
        for token in _TOKENS:
            row = dict(zip(_TOKEN_COLUMNS, ("1", "1", "0", "a", "1", "0.5")), **{col: token})
            yield f"token-{col}-{token!r}", ",".join(_TOKEN_COLUMNS) + "\n" + ",".join(row.values()) \
                + "\n0,0,1,b,0,0.5\n"


def _fuzz_corpus(n_files, seed):
    """Small random files mixing clean and malformed fields."""
    rng = np.random.default_rng(seed)
    tokens = ["0", "1", "1.0", "0.0", " 1 ", '"0"', "2.5", "-0.0", "1e-320", "1_0",
              "nan", "inf", "", "x", "0x1", "1,5"]
    for i in range(n_files):
        header = ["y", "d", "m1"] + (["m2"] if rng.random() < 0.5 else [])
        header += [c for c in ("cluster", "z", "pscore") if rng.random() < 0.5]
        perm = rng.permutation(len(header))
        header = [header[j] for j in perm]
        rows = []
        for _ in range(int(rng.integers(0, 9))):
            row = []
            for col in header:
                if rng.random() < 0.04:
                    row.append(str(tokens[rng.integers(len(tokens))]))
                elif col in ("d", "z"):
                    row.append(str(rng.integers(0, 2)))
                elif col == "cluster":
                    row.append(f" g {rng.integers(0, 3)}")
                else:
                    row.append(str(rng.integers(0, 3) / 2))
            if rng.random() < 0.03:
                row = row[:-1] if rng.random() < 0.5 else row + ["1"]
            rows.append(",".join(row))
        yield f"fuzz-{i}", _rows_text(",".join(header), rows)


@pytest.mark.parametrize("block", [3, probtab.BLOCK_ROWS])
def test_read_csv_matches_the_row_by_row_reference(block, tmp_path, monkeypatch):
    monkeypatch.setattr(probtab, "BLOCK_ROWS", block)
    corpus = [*_block_corpus(block), *_repeat_corpus(block), *_HAND_CORPUS.items(),
              *_token_corpus(), *_fuzz_corpus(300, 12)]
    for name, text in corpus:
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got, want = _outcome(read_csv, path), _outcome(_reference_read_csv, path)
        if isinstance(want, tuple) and want[0] == "csv error":  # read_csv names its line
            line = re.escape(f"{path}: line ") + r"\d+: "
            assert isinstance(got, tuple) and got[0] == "error", name
            assert re.fullmatch(line + re.escape(want[1]), got[1]), name
        else:
            assert got == want, name


class _DialectRead(Exception):
    pass


def test_read_csv_reads_plain_files_without_the_csv_module(tmp_path, monkeypatch):
    monkeypatch.setattr(probtab, "BLOCK_ROWS", 3)
    corpus = {**dict(_block_corpus(3)), **_HAND_CORPUS, **dict(_token_corpus())}
    plain = ["clean-1", "clean-3", "mixed-line-ends", "no-final-newline", "separator-label",
             "label-131071", "nan-outcome", "float-forms", "fractional-treatment",
             "header-only-crlf", "bom"]
    dialect = ["quote-in-block-3", "quoted-and-spaced", "bare-cr", "nul", "non-ascii-digit",
               "no-break-space", "label-131072", "label-131073", "blank-line", "short-row",
               "long-row", "fault-3-'x'", "missing-d", "empty"]
    for col in _TOKEN_COLUMNS:
        for token in _TOKENS:
            try:
                if col != "cluster":  # a label is never a number
                    float(token)
                plain.append(f"token-{col}-{token!r}")
            except ValueError:
                dialect.append(f"token-{col}-{token!r}")
    paths = {}
    for name in plain + dialect:
        paths[name] = tmp_path / f"{len(paths)}.csv"
        paths[name].write_text(corpus[name], encoding="utf-8", newline="")
    want = {name: _outcome(_reference_read_csv, paths[name]) for name in plain}

    def no_dialect(path):
        raise _DialectRead(path)

    monkeypatch.setattr(probtab, "_read_dialect", no_dialect)
    for name in plain:
        assert _outcome(read_csv, paths[name]) == want[name], name
    for name in dialect:
        with pytest.raises(_DialectRead):
            read_csv(paths[name])



def test_read_csv_parses_each_distinct_line_of_a_block_once(tmp_path, monkeypatch):
    chunks, row_maps = [], []

    def recording_fields(chunk, width, limit):
        chunks.append(chunk)
        return plain_fields(chunk, width, limit)

    def recording_block(parts, column, fields, cluster, rows=None):
        row_maps.append(rows)
        return add_block(parts, column, fields, cluster, rows)

    plain_fields, add_block = probtab._plain_fields, probtab._add_block
    monkeypatch.setattr(probtab, "_plain_fields", recording_fields)
    monkeypatch.setattr(probtab, "_add_block", recording_block)
    lines = [b"1,0,0,a\n", b"0,1,1,b\n", b"1,1,0,a\n"]
    repeated = tmp_path / "repeated.csv"
    repeated.write_bytes(b"y,d,m1,cluster\n" + b"".join(lines[i % 3] for i in range(1000)))
    rec = read_csv(repeated)
    assert chunks[1:] == [b"".join(lines)]  # the header is parsed on its own
    assert [rows.tolist() for rows in row_maps] == [[i % 3 for i in range(1000)]]
    assert rec.n == 1000 and rec.cluster[997:].tolist() == ["b", "a", "a"]
    # a block of distinct lines is parsed as it stands, with no row map
    chunks.clear(), row_maps.clear()
    lines = [b"%d,%d,0,a\n" % (i, i % 2) for i in range(1000)]
    distinct = tmp_path / "distinct.csv"
    distinct.write_bytes(b"y,d,m1,cluster\n" + b"".join(lines))
    read_csv(distinct)
    assert chunks[1:] == [b"".join(lines)]
    assert len(row_maps) == 1 and row_maps[0] is None
    monkeypatch.setattr(probtab, "_plain_fields", plain_fields)
    monkeypatch.setattr(probtab, "_add_block", add_block)
    for path in (repeated, distinct):
        assert _outcome(read_csv, path) == _outcome(_reference_read_csv, path)

def test_read_csv_names_the_physical_line_a_bad_record_starts_on(tmp_path):
    path = tmp_path / "multiline.csv"
    path.write_text(_HAND_CORPUS["bad-row-after-multiline-label"], encoding="utf-8", newline="")
    with pytest.raises(StructuralError, match="^" + re.escape(f"{path}: line 4: could not")):
        read_csv(path)


def test_read_csv_header_only_keeps_the_mediator_columns(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("y,d,m1,m2\n", encoding="utf-8")
    rec = read_csv(path)
    assert rec.m.shape == (0, 2) and rec.mediator_dim == 2


@pytest.mark.parametrize("lines, where", [
    (["y,d,m1", "1,0,0", "1,1,\xff"], "line 3"),
    (["y,d,m1,cluster", "1,0,0,a", "0,1,1,\xc3"], "line 3"),
    (["y,d,\xe9m1", "1,0,0"], "line 1"),
    (["\xef\xbb\xbfy,d,m1", "1,0,0", "0,1,\xff"], "line 3"),  # after a UTF-8 byte-order mark
])
def test_read_csv_bytes_that_are_not_utf8_are_input_errors(lines, where, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    with pytest.raises(StructuralError) as info:
        read_csv(path)
    assert str(info.value).startswith(f"{path}: {where}: not UTF-8")


def test_read_csv_skips_a_leading_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with one
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    for name in ("two-mediators", "quoted-and-spaced", "cluster-with-spaces", "multiline-label",
                 "float-forms", "no-final-newline", "header-only"):
        plain.write_text(_HAND_CORPUS[name], encoding="utf-8", newline="")
        bom.write_text("\ufeff" + _HAND_CORPUS[name], encoding="utf-8", newline="")
        want = _outcome(read_csv, plain)
        assert isinstance(want, dict) and _outcome(read_csv, bom) == want, name


def test_read_csv_a_byte_order_mark_past_the_start_is_an_input_error(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffy,d,m1\n1,0,0\n\ufeff0,1,1\n", encoding="utf-8")
    with pytest.raises(StructuralError, match="^" + re.escape(f"{path}: line 3: could not")):
        read_csv(path)


def test_quantile_cutpoints_match_the_per_bin_loop():
    def per_bin(values, n_bins):
        vals = np.sort(np.asarray(values, dtype=float))
        cuts = []
        for i in range(1, n_bins):
            idx = int(np.ceil(i / n_bins * vals.size)) - 1
            cuts.append(vals[max(idx, 0)])
        return tuple(float(c) for c in sorted(set(cuts)))

    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 7, 100, 1001):
        signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        for values in (rng.normal(size=n), rng.integers(-2, 3, n) * 0.5, signed_zeros):
            for n_bins in (1, 2, 3, 5, 7, 10, 3 * n):
                got = quantile_cutpoints(values, n_bins)
                want = per_bin(values, n_bins)
                assert np.array_equal(np.array(got), np.array(want))
                assert np.signbit(got).tolist() == np.signbit(want).tolist()


def _reference_encoding(records, bins):
    """Encoding fields, unit counts per cell and table of ``records`` as they
    were computed before the codes were shared: every row through
    ``np.unique``, quantile cutpoints off the sorted outcomes and the distinct
    (unit, cell) pairs by ``np.unique``."""
    points, k_of = np.unique(records.m + 0.0, axis=0, return_inverse=True)
    levels, q_of = np.unique(records.y + 0.0, return_inverse=True)
    if bins is not None:
        cuts = bins if np.ndim(bins) else quantile_cutpoints(records.y, int(bins))
        labels = np.searchsorted(cuts, levels, side="left")
        _, first, bin_of_level = np.unique(labels, return_index=True, return_inverse=True)
        levels, q_of = levels[first], bin_of_level.reshape(-1)[q_of]
    if records.cluster is None:
        cluster_of = np.arange(records.n)
    else:
        first_seen = {}
        cluster_of = np.array([first_seen.setdefault(c, len(first_seen))
                               for c in records.cluster.tolist()])
    K, Q = len(points), levels.size
    cell_of = (records.d * K + k_of.reshape(-1)) * Q + q_of.reshape(-1)
    n_cells = 2 * K * Q
    per_cell = np.bincount(np.unique(cluster_of * n_cells + cell_of) % n_cells)
    arm_n = np.bincount(records.d, minlength=2)
    n_clusters = None
    if records.cluster is not None:
        n_clusters = tuple(len(set(records.cluster[records.d == a].tolist())) for a in (0, 1))
    return dict(points=tuple(map(tuple, points.tolist())), totally_ordered=records.m.shape[1] == 1,
                outcome_levels=tuple(levels.tolist()), cell_of=cell_of, cluster_of=cluster_of,
                units=per_cell[per_cell > 0],
                mass=np.bincount(cell_of, None, n_cells).reshape(2, K, Q) / arm_n[:, None, None],
                n_units=tuple(int(c) for c in arm_n), n_clusters=n_clusters)


def test_shared_codes_give_the_encodings_of_a_per_binning_encode():
    rng = np.random.default_rng(34)
    for case in range(120):
        n = int(rng.integers(2, 80))
        d = rng.integers(0, 2, n)
        d[:2] = (0, 1)
        p = 2 if case % 3 == 0 else 1
        m = rng.choice([-0.0, 0.0, 1.0, 2.5], (n, p))
        # tied outcomes, signed zeros, or distinct continuous values
        y = (rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], n) if case % 2
             else rng.normal(size=n).round(int(rng.integers(0, 4))))
        cluster = None
        if case % 4:
            # padded labels are labels of their own
            cluster = np.array([(" c%d", "c%d ", "c%d")[g % 3] % (g // 2)
                                for g in rng.integers(0, max(n // (case % 4 + 1), 1), n)])
        records = RecordSet(y=y, m=m, d=d, cluster=cluster)
        for bins in (None, 2, 3, 5, 10, n + 7, np.int64(5), (-0.5, 0.0, 1.0)):
            want = _reference_encoding(records, bins)
            enc = encode(records, bins)
            assert enc.support.points == want["points"]
            assert enc.support.totally_ordered == want["totally_ordered"]
            assert enc.outcome_levels == want["outcome_levels"]
            for name in ("cell_of", "cluster_of"):
                got = getattr(enc, name)
                assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
            units = enc.units_per_cell()
            assert units.dtype == want["units"].dtype and np.array_equal(units, want["units"])
            table = from_records(records, bins)
            assert np.array_equal(table.mass, want["mass"])
            assert table.n_units == want["n_units"] and table.n_clusters == want["n_clusters"]


def test_a_record_set_holds_read_only_copies_of_its_arrays():
    columns = dict(y=np.array([0.0, 1.0, 2.0, 1.0]), m=np.array([[0.0], [1.0], [1.0], [0.0]]),
                   d=np.array([0, 1, 1, 0]), cluster=np.array(["a", "b", "b", "a"]),
                   z=np.array([0, 1, 0, 1]), pscore=np.full(4, 0.5))
    records = RecordSet(**columns)
    before = encode(records, 2)
    for name, values in columns.items():
        with pytest.raises(ValueError, match="read-only"):
            getattr(records, name)[0] = values[1]
        values[0] = values[1]  # the caller's array stays writable and is not the record set's
    assert records.y[0] == 0.0 and records.cluster[0] == "a"
    after = encode(records, 2)
    assert after.outcome_levels == before.outcome_levels
    assert np.array_equal(after.cell_of, before.cell_of)
    with pytest.raises(ValueError, match="read-only"):
        encode(records).cell_of[0] = 1
