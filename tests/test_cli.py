import argparse
import csv
import json
import os
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from mechtest import inference, mc
from mechtest.cli import (
    OPTIONS, _load_table, _simulate_design, build_parser, main, resolve_config,
)
from mechtest.probtab import discretize_outcome, from_records, quantile_cutpoints

FIXTURE = Path(__file__).parent / "data" / "binary_fixture.csv"
SCHEMAS = Path(__file__).parents[1] / "src" / "mechtest" / "schemas"


def load_schema(name):
    with open(SCHEMAS / name, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(out[-1]) if out else {}
    return code, payload


def test_bounds_on_fixture(tmp_path, capsys):
    out = tmp_path / "b.json"
    code, payload = run_cli(
        ["bounds", "--input", str(FIXTURE), "--restriction", "monotone",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_schema("bounds_report.schema.json"))
    assert report["nu_lb"][0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert report["slack"] == pytest.approx(0.2, abs=1e-9)
    # per-cell plot data
    cells = tmp_path / "b_cells.csv"
    with open(cells, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 mediators x 2 outcomes
    got = {(r["m"], r["y"]): float(r["delta"]) for r in rows}
    assert got[("0.0", "1.0")] == pytest.approx(0.3 - 0.1, abs=1e-12)
    # manifest reproduces the run
    manifest = json.loads((tmp_path / "b.json.manifest.json").read_text())
    assert manifest["input_sha256"]
    assert manifest["config"]["restriction"] == "monotone"
    assert str(out.name) in [os.path.basename(p) for p in manifest["outputs"]]


def test_bounds_consistent_csv(tmp_path, capsys):
    path = tmp_path / "null.csv"
    lines = ["y,d,m1"]
    for d in (0, 1):
        lines += [f"1,{d},0"] * 2 + [f"0,{d},0"] * 4 + [f"1,{d},1"] * 3 + [f"0,{d},1"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "r.json"
    code, _ = run_cli(["bounds", "--input", str(path), "--out", str(out)], capsys)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["slack"] <= 1e-9
    assert max(report["nu_lb"]) == 0.0


def test_bad_column_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("outcome,d,m1\n1,0,0\n", encoding="utf-8")
    code, payload = run_cli(["test", "--input", str(path)], capsys)
    assert code == 2
    assert payload["error"] == "StructuralError"
    assert "'y'" in payload["message"]


def test_infeasible_monotone_exit_3(tmp_path, capsys):
    path = tmp_path / "infeasible.csv"
    lines = ["y,d,m1"]
    lines += ["0,0,0"] * 2 + ["0,0,1"] * 8  # control mostly at m=1
    lines += ["0,1,0"] * 8 + ["0,1,1"] * 2  # treated mostly at m=0
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, payload = run_cli(["bounds", "--input", str(path)], capsys)
    assert code == 3
    assert payload["error"] == "IdentificationError"


def test_test_subcommand_cond_chisq(tmp_path, capsys):
    out = tmp_path / "t.json"
    code, payload = run_cli(
        ["test", "--input", str(FIXTURE), "--method", "cond-chisq",
         "--alpha", "0.05", "--out", str(out)],
        capsys,
    )
    assert code == 0
    result = json.loads(out.read_text())
    jsonschema.validate(result, load_schema("test_result.schema.json"))
    assert result["method"] == "cond-chisq"


def test_test_subcommand_lf_boot_seeded(tmp_path, capsys):
    out1 = tmp_path / "t1.json"
    out2 = tmp_path / "t2.json"
    base = ["test", "--input", str(FIXTURE), "--method", "lf-boot",
            "--boot", "300", "--seed", "17"]
    assert run_cli(base + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(base + ["--out", str(out2)], capsys)[0] == 0
    assert json.loads(out1.read_text()) == json.loads(out2.read_text())


def test_test_rejects_non_randomized_strategy(capsys):
    code, payload = run_cli(
        ["test", "--input", str(FIXTURE), "--strategy", "iv"], capsys
    )
    assert code == 2
    assert payload["error"] == "UnsupportedCaseError"


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input = {FIXTURE}\nrestriction = monotone\nmethod = cond-chisq\nalpha = 0.10\n",
        encoding="utf-8",
    )
    out = tmp_path / "t.json"
    code, _ = run_cli(
        ["test", "--config", str(cfg), "--alpha", "0.05", "--out", str(out)],
        capsys,
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["alpha"] == 0.05  # flag wins over config file


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key in ("surprise", "eta"):
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        code, payload = run_cli(["test", "--config", str(cfg)], capsys)
        assert code == 2
        assert payload["message"] == f"unknown config key '{key}'"


def test_malformed_config_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {FIXTURE}\nboot = abc\n", encoding="utf-8")
    code, payload = run_cli(["test", "--config", str(cfg), "--out", str(tmp_path / "t.json")],
                            capsys)
    assert code == 2
    assert payload["error"] == "StructuralError"
    assert payload["message"] == f"{cfg}: invalid value 'abc' for config key 'boot'"


@pytest.mark.parametrize("command, seed", [("test", "-1"), ("simulate", "-3")])
def test_negative_seed_is_an_input_error(command, seed, tmp_path, capsys):
    args = ["--input", str(FIXTURE)] if command == "test" else ["--nsims", "2", "--n", "200"]
    code, payload = run_cli([command, *args, "--seed", seed, "--out", str(tmp_path / "o")],
                            capsys)
    assert code == 2
    assert payload["error"] == "StructuralError"
    assert payload["message"] == f"seed must be a non-negative integer, got {seed}"


@pytest.mark.parametrize("option, spec", [
    ("--bins", "abc"), ("--restriction", "defier_budget:x"), ("--restriction", "bounded:1"),
])
def test_malformed_spec_is_an_input_error(option, spec, tmp_path, capsys):
    code, payload = run_cli(["bounds", "--input", str(FIXTURE), option, spec,
                             "--out", str(tmp_path / "b.json")], capsys)
    assert code == 2
    assert payload["error"] == "StructuralError"
    assert f"'{spec}'" in payload["message"]


@pytest.mark.parametrize("command, option, value", [
    ("bounds", "--restriction", "defier_budget:nan"),
    ("bounds", "--restriction", "defier_budget:inf"),
    ("bounds", "--restriction", "elementwise_defier_budget:nan"),
    ("bounds", "--restriction", "bounded:nan,0.1"),
    ("bounds", "--restriction", "bounded:1,inf"),
    ("bounds", "--bins", "1,nan"),
    ("test", "--restriction", "defier_budget:nan"),
    ("robustness", "--dbar-max", "nan"),
    ("robustness", "--dbar-max", "inf"),
])
def test_non_finite_parameter_is_an_input_error(command, option, value, tmp_path, capsys):
    code = main([command, "--input", str(FIXTURE), option, value, "--out", str(tmp_path / "o")])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "StructuralError"
    assert not any(tmp_path.glob("o*"))


@pytest.mark.parametrize("command", [["test", "--method", "cond-chisq"],
                                     ["test", "--method", "lf-boot"], ["bounds"]])
def test_custom_restriction_no_shares_satisfy_exits_3(command, tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text("1,1,1,1,-1\n", encoding="utf-8")  # sum of theta <= -1
    code, payload = run_cli([*command, "--input", str(FIXTURE), "--restriction", f"custom:{path}",
                             "--out", str(tmp_path / "o.json")], capsys)
    assert code == 3
    assert payload["error"] == "IdentificationError"
    assert not any(tmp_path.glob("o*"))


@pytest.mark.parametrize("row", ["1,1,nan,1,0", "0,0,0,1,inf"])
def test_non_finite_custom_restriction_is_named(row, tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text(f"1,0,0,0,0.5\n{row}\n", encoding="utf-8")
    code, payload = run_cli(["bounds", "--input", str(FIXTURE), "--restriction", f"custom:{path}",
                             "--out", str(tmp_path / "b.json")], capsys)
    assert code == 2
    assert payload["message"] == "restriction custom has a NaN or infinite entry in row 2 of 2"


def test_measurement_error_matrix_with_text_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "L.csv"
    path.write_text("a,b\n1,x\n", encoding="utf-8")
    code, payload = run_cli(["bounds", "--input", str(FIXTURE), "--strategy", f"me:{path}",
                             "--out", str(tmp_path / "b.json")], capsys)
    assert code == 2
    assert payload["error"] == "StructuralError"
    assert f"'me:{path}'" in payload["message"]


# two non-default values of every option: (text, typed value)
OPTION_SAMPLES = {
    "input": [("a.csv", "a.csv"), ("b.csv", "b.csv")],
    "out": [("a.json", "a.json"), ("b.json", "b.json")],
    "strategy": [("iv", "iv"), ("ipw", "ipw")],
    "restriction": [("none", "none"), ("defier_budget:0.1", "defier_budget:0.1")],
    "bins": [("5", "5"), ("0,1.5", "0,1.5")],
    "alpha": [("0.1", 0.1), ("0.01", 0.01)],
    "method": [("cond-chisq", "cond-chisq"), ("lf-boot", "lf-boot")],
    "boot": [("300", 300), ("200", 200)],
    "seed": [("7", 7), ("0", 0)],
    "auto_relax": [("off", False), ("true", True)],
    "ade": [("no", False), ("1", True)],
    "t": [("0.5", 0.5), ("0", 0.0)],
    "nsims": [("3", 3), ("1", 1)],
    "clusters": [("20", 20), ("0", 0)],
    "n": [("600", 600), ("2", 2)],
    "design": [("ordered", "ordered"), ("cluster", "cluster")],
    "dbar_max": [("0.25", 0.25), ("1e-3", 0.001)],
    "dbar_steps": [("4", 4), ("0", 0)],
}


def _resolved(tmp_path, command, config=None, flags=()):
    argv = [command, *flags]
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config, encoding="utf-8")
        argv += ["--config", str(path)]
    return resolve_config(build_parser().parse_args(argv)).values


def _flag(key, text):
    flag = "--" + key.replace("_", "-")
    return [flag] if OPTIONS[key].kind is bool else [flag, text]


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_option_resolves_alike_from_config_and_flag(key, tmp_path):
    assert set(OPTION_SAMPLES) == set(OPTIONS)
    command = OPTIONS[key].commands[0]
    (text1, value1), (text2, value2) = OPTION_SAMPLES[key]
    for text, value in OPTION_SAMPLES[key]:
        got = _resolved(tmp_path, command, config=f"{key} = {text}\n")[key]
        assert got == value and type(got) is type(value)
        if OPTIONS[key].kind is not bool or value:
            got = _resolved(tmp_path, command, flags=_flag(key, text))[key]
            assert got == value and type(got) is type(value)
    # the flag wins over the config file
    assert _resolved(tmp_path, command, f"{key} = {text1}\n", _flag(key, text2))[key] == value2


@pytest.mark.parametrize("key, text", [
    ("method", "lfboot"), ("design", "grid"), ("boot", "10"), ("seed", "-2"), ("n", "-5"),
    ("n", "0"), ("n", "1"), ("clusters", "-3"), ("dbar_steps", "-1"), ("dbar_max", "-0.5"),
    ("alpha", "1.5"), ("nsims", "1.5"), ("ade", "maybe"),
])
def test_bad_option_value_exits_2_by_either_route(key, text, tmp_path, capsys):
    command = OPTIONS[key].commands[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
    routes = [["--config", str(cfg)]]
    if OPTIONS[key].kind is not bool:
        routes.append(_flag(key, text))
    for route in routes:
        code, payload = run_cli([command, *route, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert payload["error"] == "StructuralError"
        assert key in payload["message"] or key.replace("_", "-") in payload["message"]
    assert not any(tmp_path.glob("o*"))


def test_each_subcommand_takes_the_flags_it_reads():
    common = {"--config", "--out", "--restriction", "--bins", "--seed"}
    before = {
        "bounds": common | {"--input", "--strategy", "--auto-relax", "--ade"},
        "test": common | {"--input", "--strategy", "--alpha", "--method", "--boot"},
        "robustness": common | {"--input", "--strategy", "--dbar-max", "--dbar-steps"},
        "ade": common | {"--input", "--strategy", "--auto-relax"},
        "simulate": common | {"--alpha", "--method", "--boot", "--t", "--nsims", "--clusters",
                              "--n", "--design"},
        "diagnose": common | {"--input", "--strategy"},
    }
    # flags that their subcommand never read
    unread = {("bounds", "--seed"), ("ade", "--seed"), ("robustness", "--seed"),
              ("diagnose", "--seed"), ("robustness", "--restriction")}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(before)
    for name, parser in sub.choices.items():
        flags = {s for action in parser._actions for s in action.option_strings}
        assert flags - {"-h", "--help"} == {f for f in before[name] if (name, f) not in unread}


def test_robustness_subcommand(tmp_path, capsys):
    out = tmp_path / "rob.csv"
    code, payload = run_cli(
        ["robustness", "--input", str(FIXTURE), "--out", str(out),
         "--dbar-max", "0.4", "--dbar-steps", "9"],
        capsys,
    )
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    values = [float(r["nu_pooled_lb"]) for r in rows if r["status"] == "ok"]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))  # nonincreasing
    assert payload["breakdown_dbar"] == pytest.approx(0.2, abs=1e-3)


def test_robustness_builds_each_identified_set_once(tmp_path, capsys, monkeypatch):
    from mechtest import bounds, cli, typeshares

    built = []
    original = typeshares.build_identified_set

    def counting(table, r):
        built.append(r.kind)
        return original(table, r)

    monkeypatch.setattr(cli, "build_identified_set", counting)
    monkeypatch.setattr(bounds, "build_identified_set", counting)
    code, _ = run_cli(
        ["robustness", "--input", str(FIXTURE), "--out", str(tmp_path / "rob.csv"),
         "--dbar-max", "0.4", "--dbar-steps", "9"],
        capsys,
    )
    assert code == 0
    assert built.count(typeshares.DEFIER_BUDGET) == 9


@pytest.mark.parametrize("command", ["ade", "diagnose"])
def test_command_builds_the_identified_set_once(command, tmp_path, capsys, monkeypatch):
    from mechtest import bounds, cli, typeshares

    built = []
    original = typeshares.build_identified_set

    def counting(table, r):
        built.append(r.kind)
        return original(table, r)

    monkeypatch.setattr(cli, "build_identified_set", counting)
    monkeypatch.setattr(bounds, "build_identified_set", counting)
    code, _ = run_cli([command, "--input", str(FIXTURE), "--out", str(tmp_path / "out.json")],
                      capsys)
    assert code == 0
    assert built == [typeshares.MONOTONE]


def test_ade_runs_phase_one_once(tmp_path, capsys, phase_one_runs):
    # K=4 ordered records whose treated mediator sits one step up: every
    # theta_kk minimum is taken over the identified set's one feasible set
    rng = np.random.default_rng(5)
    m0, d = rng.integers(0, 4, 400), rng.integers(0, 2, 400)
    path = tmp_path / "k4.csv"
    np.savetxt(path, np.column_stack([rng.integers(0, 2, 400), d, np.minimum(m0 + d, 3)]),
               fmt="%d", delimiter=",", header="y,d,m1", comments="")
    code, _ = run_cli(["ade", "--input", str(path), "--out", str(tmp_path / "ade.json")], capsys)
    assert code == 0
    with open(tmp_path / "ade.json", encoding="utf-8") as fh:
        assert len(json.load(fh)["ade"]) == 4
    assert len(phase_one_runs) == 1


def test_ade_subcommand(tmp_path, capsys):
    out = tmp_path / "ade.json"
    code, _ = run_cli(["ade", "--input", str(FIXTURE), "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    lb, ub = payload["ade"]["0"]
    assert lb == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert ub == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_simulate_subcommand(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, payload = run_cli(
        ["simulate", "--t", "1.0", "--nsims", "4", "--n", "600",
         "--method", "cond-chisq", "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {
        "sim_id", "statistic", "p_value", "reject", "nu_pooled_lb", "median_cell_count",
    }
    assert payload["errors"] == 0


def test_diagnose_subcommand(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code, _ = run_cli(["diagnose", "--input", str(FIXTURE), "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["identified_set_feasible"] is True
    assert payload["sharp_null_slack"] == pytest.approx(0.2, abs=1e-9)
    assert "2" in payload["median_cell_counts"]


@pytest.mark.parametrize("bins, calls", [("5", 3), ("3", 4)])
def test_diagnose_takes_each_median_cell_count_once(bins, calls, tmp_path, capsys, monkeypatch):
    records = _load_table(resolve_config(build_parser().parse_args(
        ["diagnose", "--input", str(FIXTURE)])))[0]
    want = {str(nb): inference.median_cluster_cell_count(records, bins=nb) for nb in (2, 5, 10)}
    want["requested"] = inference.median_cluster_cell_count(records, bins=int(bins))
    seen = []
    original = inference.median_cluster_cell_count

    def counting(recs, bins=None):
        seen.append(bins)
        return original(recs, bins=bins)

    monkeypatch.setattr(inference, "median_cluster_cell_count", counting)
    out = tmp_path / "diag.json"
    code, _ = run_cli(["diagnose", "--input", str(FIXTURE), "--bins", bins, "--out", str(out)],
                      capsys)
    assert code == 0
    assert len(seen) == calls
    assert json.loads(out.read_text())["median_cell_counts"] == want


def test_missing_input_error(capsys):
    code, payload = run_cli(["bounds"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", ["bounds", "test", "robustness", "ade", "diagnose"])
def test_directory_input_is_an_input_error(command, tmp_path, capsys):
    code, payload = run_cli([command, "--input", str(tmp_path), "--out", str(tmp_path / "o")],
                            capsys)
    assert code == 2
    assert payload["error"] == "IsADirectoryError" and payload["exit_code"] == 2


def test_lf_simulate_rejects_only_with_p_at_most_alpha(tmp_path, capsys):
    # with 20 clusters per arm the bootstrap draws tie with the statistic up
    # to rounding; replicate 4 of this run is such a tie
    out = tmp_path / "sim.csv"
    code, _ = run_cli(
        ["simulate", "--design", "cluster", "--t", "0", "--method", "lf-boot",
         "--boot", "999", "--clusters", "20", "--nsims", "6", "--bins", "5",
         "--seed", "789609968", "--out", str(out)],
        capsys,
    )
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 and rows[4]["reject"] == "1"
    for row in rows:
        if row["reject"] == "1":
            assert float(row["p_value"]) <= 0.05
        else:
            assert float(row["p_value"]) >= 0.05 - 1.0 / 999


def test_simulate_needs_a_replicate(tmp_path, capsys):
    code, payload = run_cli(
        ["simulate", "--nsims", "0", "--out", str(tmp_path / "sim.csv")], capsys)
    assert code == 2 and payload["error"] == "StructuralError"


def test_simulate_without_a_successful_replicate_fails_as_test_does(tmp_path, capsys):
    # unbinned, the cluster design's continuous outcome leaves more cells than units
    args = ["simulate", "--design", "cluster", "--nsims", "2", "--method", "cond-chisq",
            "--out", str(tmp_path / "sim.csv")]
    code = main(args)
    lines = capsys.readouterr().out.strip().splitlines()
    payload = json.loads(lines[0])
    assert code == 2 and len(lines) == 1 and payload["error"] == "EstimationError"
    assert list(tmp_path.iterdir()) == []
    # the first replicate's sample, run through ``test``, fails alike
    dgp = _simulate_design(resolve_config(build_parser().parse_args(args)))
    sample = mc.draw_sample(dgp, mc._derive(0, 0))
    path = tmp_path / "sample.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "d", "m1"])
        writer.writerows(zip(map(repr, sample.y.tolist()), sample.d.tolist(),
                             map(repr, sample.m[:, 0].tolist())))
    assert run_cli(["test", "--input", str(path), "--method", "cond-chisq",
                    "--out", str(tmp_path / "test.json")], capsys) == (code, payload)


@pytest.mark.parametrize("content, where", [
    (b"y,d,m1\n1,0,0\n1,1,\xff\n", "line 3: not UTF-8"),
    (b"y,d,m1,cluster\n1,0,0,a\n0,1,1," + b"c" * 131073 + b"\n", "line 3: field larger than"),
])
def test_unreadable_input_is_an_input_error(content, where, tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    code = main(["bounds", "--input", str(path), "--out", str(tmp_path / "b.json")])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "StructuralError"
    assert payload["message"].startswith(f"{path}: {where}")


def _continuous_records_csv(path, n=2000, K=4, seed=41):
    """Continuous outcome, K-point mediator, randomized instrument with
    70% compliers, and the instrument's propensity score."""
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.5).astype(int)
    u = rng.random(n)
    d = np.where(u < 0.7, z, (u < 0.85).astype(int))
    m = np.minimum(rng.integers(0, K, n) + (d == 1) * (rng.random(n) < 0.3), K - 1)
    y = rng.normal(m + 0.8 * d * (m == 0), 1.0)
    pscore = np.where(z == 1, 0.85, 0.15)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "d", "m1", "z", "pscore"])
        writer.writerows(zip(map(repr, y.tolist()), d.tolist(), m.tolist(), z.tolist(),
                             pscore.tolist()))
    return y, m, d, z


def test_bins_apply_before_the_iv_strategy(tmp_path, capsys):
    data = tmp_path / "cont.csv"
    y, m, d, z = _continuous_records_csv(data)
    out = tmp_path / "iv.json"
    code, _ = run_cli(["bounds", "--input", str(data), "--strategy", "iv", "--bins", "5",
                       "--out", str(out)], capsys)
    assert code == 0
    with open(tmp_path / "iv_cells.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # Wald ratios of the binned outcome
    cuts = np.quantile(y, [0.2, 0.4, 0.6, 0.8], method="inverted_cdf")
    q = np.searchsorted(cuts, y, side="left")
    K, Q = 4, 5
    counts = np.bincount(((z * 2 + d) * K + m) * Q + q, minlength=4 * K * Q).reshape(2, 2, K, Q)
    wald = (counts[1] / (z == 1).sum() - counts[0] / (z == 0).sum()) / (
        d[z == 1].mean() - d[z == 0].mean())
    want = np.stack([np.clip(-wald[0], 0.0, None), np.clip(wald[1], 0.0, None)])
    want /= want.sum(axis=(1, 2), keepdims=True)
    got_treated = np.array([float(r["p_treated"]) for r in rows]).reshape(K, Q)
    got_control = np.array([float(r["p_control"]) for r in rows]).reshape(K, Q)
    assert np.allclose(got_treated, want[1], rtol=0, atol=1e-9)
    assert np.allclose(got_control, want[0], rtol=0, atol=1e-9)
    labels = sorted({float(r["y"]) for r in rows})
    assert labels == [y[q == b].min() for b in range(Q)]  # smallest value in each bin


def test_binned_randomized_table_matches_discretized_table(tmp_path):
    data = tmp_path / "cont.csv"
    _continuous_records_csv(data)
    args = build_parser().parse_args(["bounds", "--input", str(data), "--bins", "5"])
    records, table = _load_table(resolve_config(args))
    want = discretize_outcome(from_records(records), quantile_cutpoints(records.y, 5))
    assert table.outcome_levels == want.outcome_levels
    assert np.abs(table.mass - want.mass).max() <= 1e-15
    assert table.n_units == want.n_units


@pytest.mark.parametrize("method", ["cond-chisq", "lf-boot"])
def test_unbinned_continuous_outcome_is_an_input_error(method, tmp_path, capsys):
    # 200 units, 200 distinct outcomes: 2*2*200 + 4 = 804 cell probabilities
    rng = np.random.default_rng(11)
    path = tmp_path / "continuous.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "d", "m1"])
        for i in range(200):
            writer.writerow([rng.normal(), i % 2, int(rng.integers(2))])
    code, payload = run_cli(["test", "--input", str(path), "--method", method, "--boot", "200",
                             "--out", str(tmp_path / "t.json")], capsys)
    assert code == 2
    assert payload["error"] == "EstimationError"
    assert "804 cell probabilities" in payload["message"]
    assert "--bins" in payload["message"]
