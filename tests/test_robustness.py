"""The ``robustness`` curve against the per-point path it replaced.

``cmd_robustness`` answers the grid points below the least defier budget
(empty set) and at or above the breakdown LP's covering mass (bound 0)
without an identified set of their own.  The reference here is the loop
that built every point's set and solved its pooled program; the curve must
carry the same labels and print the same values, except where that loop
printed a rounding residue below 1e-15 for a bound that is 0.
"""

import csv
import json

import numpy as np
import pytest

from conftest import make_table
from mechtest import bounds, cli
from mechtest.cli import main
from mechtest.typeshares import RestrictionSet, build_identified_set

ANY_INPUT = cli.__file__  # the table is patched in; the manifest only hashes this file


def _per_point_rows(table, grid):
    """Every grid point through its own identified set and pooled program."""
    rows = []
    for dbar in grid:
        spec = build_identified_set(table, RestrictionSet.defier_budget(table.support, float(dbar)))
        if not spec.feasible:
            rows.append([repr(float(dbar)), "", "infeasible"])
            continue
        value, *_ = bounds._pooled_lfp(table, spec)
        rows.append([repr(float(dbar)), f"{value:.10g}", "ok"])
    return rows


def _cli_curve(table, dbar_max, steps, tmp_path, monkeypatch, capsys):
    """Rows of the ``robustness`` CSV and the breakdown budget for ``table``."""
    monkeypatch.setattr(cli, "_load_table", lambda cfg: (None, table))
    out = tmp_path / "rob.csv"
    code = main(["robustness", "--input", ANY_INPUT, "--out", str(out),
                 "--dbar-max", repr(float(dbar_max)), "--dbar-steps", str(steps)])
    capsys.readouterr()
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dbar", "nu_pooled_lb", "status"]
    with open(tmp_path / "rob_breakdown.json", encoding="utf-8") as fh:
        breakdown = json.load(fh)["breakdown_dbar"]
    return rows[1:], breakdown


def _assert_matches_per_point(table, dbar_max, steps, tmp_path, monkeypatch, capsys):
    rows, breakdown = _cli_curve(table, dbar_max, steps, tmp_path, monkeypatch, capsys)
    assert breakdown == bounds.breakdown_defier_budget(table)
    want = _per_point_rows(table, np.linspace(0.0, dbar_max, steps))
    assert [r[0] for r in rows] == [w[0] for w in want]
    assert [r[2] for r in rows] == [w[2] for w in want]
    for (dbar, got, _), (_, ref, _) in zip(rows, want):
        if got != ref:  # only a residue of a vanishing bound may differ
            assert got == "0" and abs(float(ref)) < 1e-15, (dbar, got, ref)
    return rows


def _fuzz_tables(n):
    """The first ``n`` random ordered tables drawn from default_rng(1): K in
    2-5, Q in 2-4, Dirichlet(0.7) cell masses per arm."""
    rng = np.random.default_rng(1)
    for _ in range(n):
        K = int(rng.integers(2, 6))
        Q = int(rng.integers(2, 5))
        yield make_table(np.stack([rng.dirichlet(np.full(K * Q, 0.7)).reshape(K, Q)
                                   for _ in (0, 1)]))


def test_curve_matches_the_per_point_path_on_fuzzed_tables(tmp_path, monkeypatch, capsys):
    covered = set()
    for table in _fuzz_tables(30):
        covered.add(bool(np.isfinite(bounds._covering_lp(table)[0])))
        _assert_matches_per_point(table, 0.5, 26, tmp_path, monkeypatch, capsys)
    assert covered == {True, False}


# K=2: control m=0 cells (.1, .7), m=1 (.1, .1); treated m=0 (.4, .1), m=1 (.3, .2).
# The gap 0.3 at m=0 exceeds the control mass 0.2 at m=1, the only source of
# compliers into m=0, so no shares cover it: the bound never vanishes.
UNCOVERABLE = make_table([[[0.1, 0.7], [0.1, 0.1]], [[0.4, 0.1], [0.3, 0.2]]])
# K=2: control m=0 (.3, .3), m=1 (.2, .2); treated m=0 (.15, .15), m=1 (.35, .35).
# Compliers into m=1 cover its gap 0.3 at no defier mass: breakdown 0.
COVERED = make_table([[[0.3, 0.3], [0.2, 0.2]], [[0.15, 0.15], [0.35, 0.35]]])


def test_uncoverable_gaps_keep_a_positive_bound_at_every_feasible_budget(
        tmp_path, monkeypatch, capsys):
    assert bounds._covering_lp(UNCOVERABLE)[0] == np.inf
    rows = _assert_matches_per_point(UNCOVERABLE, 1.0, 11, tmp_path, monkeypatch, capsys)
    assert bounds.breakdown_defier_budget(UNCOVERABLE) == 1.0
    ok = [float(r[1]) for r in rows if r[2] == "ok"]
    assert ok and min(ok) > 0.0


def test_breakdown_zero_gives_a_zero_curve(tmp_path, monkeypatch, capsys):
    covered, least = bounds._covering_lp(COVERED)
    assert covered <= least + bounds.ZERO_TOL
    assert bounds.breakdown_defier_budget(COVERED) == 0.0
    rows = _assert_matches_per_point(COVERED, 0.5, 26, tmp_path, monkeypatch, capsys)
    assert {(r[1], r[2]) for r in rows} == {("0", "ok")}


def _exact_budget_tables():
    """Fuzzed tables whose least defier budget is positive and whose
    breakdown lies above it."""
    for table in _fuzz_tables(40):
        covered, least = bounds._covering_lp(table)
        if np.isfinite(covered) and least > 0.0 and covered > least + bounds.ZERO_TOL:
            yield table, least, covered


@pytest.mark.parametrize("at", ["least", "breakdown"])
def test_grid_points_exactly_at_the_least_and_the_breakdown_budget(
        at, tmp_path, monkeypatch, capsys):
    tables = list(_exact_budget_tables())[:5]
    assert tables
    for table, least, mass in tables:
        dbar = least if at == "least" else mass
        # the grid's last point is dbar_max itself, here the budget
        rows = _assert_matches_per_point(table, dbar, 3, tmp_path, monkeypatch, capsys)
        assert rows[-1][0] == repr(dbar)
        if at == "breakdown":
            assert rows[-1][1:] == ["0", "ok"]
        else:
            assert rows[-1][2] == "ok" and rows[0][2] == "infeasible"
