"""The robustness curve against the per-point path it replaced.

``bounds.robustness_curve``, which ``cmd_robustness`` writes out, answers
the grid points below the least defier budget (empty set) and at or above
the breakdown LP's covering mass (bound 0) without an identified set of
their own.  The reference here is the loop that built every point's set and
solved its pooled program; the curve must carry the same labels and print
the same values, except where that loop printed a rounding residue below
1e-15 for a bound that is 0.
"""

import csv
import json

import numpy as np
import pytest

from conftest import make_table
from mechtest import bounds, cli
from mechtest.cli import main
from mechtest.errors import UnsupportedCaseError
from mechtest.probtab import RecordSet, delta_sup, from_records
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
    _assert_rows_match(rows, _per_point_rows(table, np.linspace(0.0, dbar_max, steps)))
    return rows


def _assert_rows_match(rows, want):
    assert [r[0] for r in rows] == [w[0] for w in want]
    assert [r[2] for r in rows] == [w[2] for w in want]
    for (dbar, got, _), (_, ref, _) in zip(rows, want):
        if got != ref:  # only a residue of a vanishing bound may differ
            assert got == "0" and abs(float(ref)) < 1e-15, (dbar, got, ref)


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


def test_robustness_curve_matches_the_per_point_path_on_fuzzed_tables():
    grid = np.linspace(0.0, 0.5, 26)
    for table in _fuzz_tables(30):
        values, breakdown = bounds.robustness_curve(table, grid)
        assert breakdown == bounds.breakdown_defier_budget(table)
        # the rows as cmd_robustness writes them
        rows = [[repr(float(dbar)), "", "infeasible"] if value is None else
                [repr(float(dbar)), f"{value:.10g}", "ok"] for dbar, value in zip(grid, values)]
        _assert_rows_match(rows, _per_point_rows(table, grid))


def test_robustness_curve_on_an_empty_grid_is_the_breakdown_budget():
    for table in [*_fuzz_tables(10), UNCOVERABLE, COVERED]:
        assert bounds.robustness_curve(table, ()) == ([], bounds.breakdown_defier_budget(table))


def test_robustness_curve_solves_every_point_of_a_one_value_mediator(monkeypatch):
    # no stratum sends compliers into m=0, so its gap 0.3 is never covered; the
    # only shares are theta_00 = 1, and the bound is the gap at every budget
    table = make_table([[[0.6, 0.4]], [[0.3, 0.7]]])
    built = []

    def counting(table, r):
        built.append(r.params)
        return build_identified_set(table, r)

    monkeypatch.setattr(bounds, "build_identified_set", counting)
    grid = np.linspace(0.0, 0.5, 6)
    values, breakdown = bounds.robustness_curve(table, grid)
    assert breakdown == 1.0
    assert values == pytest.approx([delta_sup(table, 0)] * 6, abs=1e-12)
    assert built == [()] + [(float(d),) for d in grid]  # the covering LP's set, then each point


def test_robustness_curve_needs_a_scalar_ordered_mediator():
    m = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 2, dtype=float)
    table = from_records(RecordSet(y=[0, 1, 0, 1, 1, 0, 1, 0], m=m, d=[0] * 4 + [1] * 4))
    assert not table.support.totally_ordered
    with pytest.raises(UnsupportedCaseError):
        bounds.robustness_curve(table, [0.1])


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


def test_points_clear_of_the_least_budget_run_one_phase_one(
        phase_one_runs, tmp_path, monkeypatch, capsys):
    """Grid points at least ``ZERO_TOL`` above the least budget skip their
    identified set's phase 1: the pooled program's own phase 1 is the
    feasibility check there.  A point at the least budget runs both."""
    marked = []  # per point that builds a set: its budget and the phase 1 runs it starts

    def marking(table, r):
        if r.params:  # not the covering LP's unrestricted set
            marked.append((r.params[-1], len(phase_one_runs)))
        return build_identified_set(table, r)

    monkeypatch.setattr(bounds, "build_identified_set", marking)
    tables = [t for t in _exact_budget_tables() if t[0].n_mediators >= 3][:5]
    assert len(tables) == 5
    seen = set()
    for table, least, covered in tables:
        del phase_one_runs[:], marked[:]
        # 0, least / 2, least, 1.5 least, 2 least: the middle point is the least budget
        rows, _ = _cli_curve(table, 2.0 * least, 5, tmp_path, monkeypatch, capsys)
        assert float(rows[2][0]) == least
        starts = [n for _, n in marked] + [len(phase_one_runs)]
        for (dbar, start), end in zip(marked, starts[1:]):
            if dbar >= least + bounds.ZERO_TOL:
                assert end - start == 1, (dbar, least)
                seen.add("above")
            else:
                assert dbar == least and end - start == 2
                seen.add("at")
        # points below the least budget and at or above the breakdown build no set
        grid, tol = [float(r[0]) for r in rows], bounds.ZERO_TOL
        assert [d for d, _ in marked] == [
            d for d in grid if d >= least - tol and (d < covered or d < least + tol)]
        # the same rows as each point's own identified set and pooled bound
        for dbar, value, status in rows:
            r = RestrictionSet.defier_budget(table.support, float(dbar))
            if not build_identified_set(table, r).feasible:
                assert (value, status) == ("", "infeasible")
                seen.add("below")
                continue
            ref = f"{bounds.nu_pooled_lower_bound(table, r):.10g}"
            assert status == "ok"
            assert value == ref or (value == "0" and abs(float(ref)) < 1e-15), (dbar, value, ref)
            if float(dbar) >= covered:
                seen.add("covered")
    assert seen == {"below", "at", "above", "covered"}
