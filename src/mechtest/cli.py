"""Command-line interface.

Subcommands: ``bounds`` (identification report + per-cell plot data),
``test`` (finite-sample test), ``robustness`` (pooled bound vs defier
budget plus the breakdown point), ``ade`` (average-effect intervals),
``simulate`` (Monte Carlo harness on the synthetic designs), ``diagnose``
(cell counts and feasibility).  Options may come from flags or from a
``key = value`` config file; flags win.  Every run writes a manifest with
the resolved config, seed, package version, and input hash, so outputs are
reproducible bit for bit.

Exit codes: 0 ok, 2 input error, 3 identification error (including an
empty identified set), 4 solver failure.  Failures print one JSON object
describing the error.
"""

import argparse
import csv
import functools
import hashlib
import json
import os
import sys
from collections import namedtuple

import numpy as np

from . import __version__, bounds as bounds_mod, ident, inference, mc
from .errors import MechtestError, SolverFailureError, StructuralError, UnsupportedCaseError
from .linprog import INFEASIBLE, OPTIMAL, solve_lp
from .probtab import DistTable, encode, from_records, read_csv, support_from_values
from .typeshares import RestrictionSet, build_identified_set, min_defier_budget, theta_kk_min


def _read_config_file(path):
    out = {}
    with open(path, encoding="utf-8-sig") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise StructuralError(f"{path}: line {ln}: expected key = value")
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _typed(key, text, error):
    """Typed value of option ``key`` from ``text``; raises ``error`` as a
    StructuralError when the text does not parse or is not allowed."""
    kind = OPTIONS[key].kind
    try:
        if kind is bool:
            return _BOOLS[text.lower()]
        if isinstance(kind, tuple):
            if text not in kind:
                raise ValueError(text)
            return text
        value = kind(text)
        if kind is float and not np.isfinite(value):
            raise ValueError(text)
        return value
    except (KeyError, ValueError):
        raise StructuralError(error) from None


def resolve_config(args) -> argparse.Namespace:
    """Layer defaults < config file < explicit flags.  Flags arrive as text
    too, so values from both sources are parsed and checked alike.  Returns
    the subcommand and every option's value as attributes."""
    values = {key: opt.default for key, opt in OPTIONS.items()}
    if args.config:
        for key, val in _read_config_file(args.config).items():
            if key not in OPTIONS:
                raise StructuralError(f"unknown config key '{key}'")
            values[key] = _typed(
                key, val, f"{args.config}: invalid value '{val}' for config key '{key}'")
    for key in OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _typed(key, flag, f"invalid value '{flag}' for --{key.replace('_', '-')}")
    for key, opt in OPTIONS.items():
        if opt.least is not None and values[key] < opt.least:
            noun = "integer" if opt.kind is int else "number"
            need = f"a non-negative {noun}" if opt.least == 0 else f"at least {opt.least}"
            raise StructuralError(f"{key} must be {need}, got {values[key]}")
    if not 0.0 < values["alpha"] < 1.0:
        raise StructuralError("alpha must lie in (0, 1)")
    return argparse.Namespace(command=args.command, **values)


def parse_restriction(spec_str: str, support) -> RestrictionSet:
    name, _, arg = spec_str.partition(":")
    name = name.strip().lower()
    try:
        if name == "monotone":
            return RestrictionSet.monotone(support)
        if name == "defier_budget":
            return RestrictionSet.defier_budget(support, float(arg))
        if name == "elementwise":
            return RestrictionSet.elementwise_monotone(support)
        if name == "elementwise_defier_budget":
            return RestrictionSet.elementwise_defier_budget(support, float(arg))
        if name == "bounded":
            kappa, _, dbar = arg.partition(",")
            return RestrictionSet.bounded_effect(support, float(kappa), float(dbar))
        if name == "none":
            return RestrictionSet.unrestricted(support)
        if name == "custom":
            rows = np.loadtxt(arg, delimiter=",", ndmin=2, encoding="utf-8-sig")
            return RestrictionSet.custom(support, rows[:, :-1], rows[:, -1])
    except ValueError as exc:
        raise StructuralError(f"invalid restriction '{spec_str}': {exc}") from None
    raise StructuralError(f"unknown restriction '{spec_str}'")


def parse_strategy(spec_str: str) -> ident.StrategyTag:
    name, _, arg = spec_str.partition(":")
    name = name.strip().lower()
    if name in (ident.RANDOMIZED, ident.IV, ident.IPW):
        return ident.StrategyTag(kind=name)
    if name == ident.MEASUREMENT_ERROR:
        try:
            l_matrix = np.loadtxt(arg, delimiter=",", ndmin=2, encoding="utf-8-sig")
            return ident.StrategyTag(kind=name, l_matrix=l_matrix)
        except ValueError as exc:
            raise StructuralError(f"invalid strategy '{spec_str}': {exc}") from None
    raise StructuralError(f"unknown strategy '{spec_str}'")


def parse_bins(spec_str):
    if spec_str in (None, "", "none"):
        return None
    try:
        return tuple(float(c) for c in spec_str.split(",")) if "," in spec_str else int(spec_str)
    except ValueError:
        raise StructuralError(f"invalid bins '{spec_str}'") from None


def _hash_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(cfg, outputs):
    manifest = {
        "command": cfg.command,
        "config": {k: v for k, v in sorted(vars(cfg).items())
                   if k not in ("command", "input", "out")},
        "input": cfg.input,
        "input_sha256": _hash_file(cfg.input) if cfg.input else None,
        "outputs": outputs,
        "version": __version__,
    }
    path = (cfg.out or f"mechtest_{cfg.command}") + ".manifest.json"
    _write_json(path, manifest)
    return path


def _load_table(cfg):
    """Raw records and the table the strategy identifies from them over the
    outcome bins."""
    records = read_csv(cfg.input)
    bins = parse_bins(cfg.bins)
    return records, ident.apply_strategy(records, parse_strategy(cfg.strategy), bins)


def _cells_csv(path, table: DistTable):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "y", "p_treated", "p_control", "delta"])
        for k, point in enumerate(table.support.points):
            m_label = point[0] if len(point) == 1 else "|".join(str(v) for v in point)
            for q, y in enumerate(table.outcome_levels):
                p1 = table.mass[1, k, q]
                p0 = table.mass[0, k, q]
                writer.writerow([m_label, y, f"{p1:.10g}", f"{p0:.10g}", f"{p1 - p0:.10g}"])


def cmd_bounds(cfg):
    _, table = _load_table(cfg)
    r = parse_restriction(cfg.restriction, table.support)
    report = bounds_mod.bounds_report(
        table, r, auto_relax=cfg.auto_relax, with_ade=cfg.ade
    )
    out = cfg.out or "bounds.json"
    _write_json(out, report.to_json_dict())
    cells = os.path.splitext(out)[0] + "_cells.csv"
    _cells_csv(cells, table)
    manifest = _write_manifest(cfg, [out, cells])
    print(json.dumps({"ok": True, "outputs": [out, cells, manifest]}))
    return 0


def _run_test(cfg, system, seed):
    """The test ``cfg.method`` on ``system``; ``seed`` drives lf-boot's draws."""
    if cfg.method == inference.LF_BOOT:
        return inference.test_least_favorable_bootstrap(
            system, alpha=cfg.alpha, b_draws=cfg.boot, seed=seed)
    return inference.test_conditional_chisq(system, alpha=cfg.alpha)


def cmd_test(cfg):
    if cfg.strategy != "randomized":
        raise UnsupportedCaseError(
            "finite-sample tests are implemented for the randomized design; "
            "use bounds/robustness for other identification strategies"
        )
    records = read_csv(cfg.input)
    r = parse_restriction(cfg.restriction, encode(records).support)
    system = inference.build_moment_system(records, r, bins=parse_bins(cfg.bins))
    result = _run_test(cfg, system, cfg.seed)
    out = cfg.out or "test.json"
    _write_json(out, result.to_json_dict())
    manifest = _write_manifest(cfg, [out])
    print(json.dumps({"ok": True, "outputs": [out, manifest], "reject": result.reject}))
    return 0


def cmd_robustness(cfg):
    """Pooled bound over a grid of defier budgets, and the breakdown budget
    (:func:`bounds.robustness_curve`)."""
    _, table = _load_table(cfg)
    if not table.support.totally_ordered:
        raise UnsupportedCaseError("robustness curves need a scalar ordered mediator")
    out = cfg.out or "robustness.csv"
    grid = np.linspace(0.0, cfg.dbar_max, cfg.dbar_steps)
    values, breakdown = bounds_mod.robustness_curve(table, grid)
    rows = [(dbar, "", "infeasible") if value is None else (dbar, f"{value:.10g}", "ok")
            for dbar, value in zip(map(float, grid), values)]
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dbar", "nu_pooled_lb", "status"])
        writer.writerows(rows)
    summary = os.path.splitext(out)[0] + "_breakdown.json"
    _write_json(summary, {"breakdown_dbar": breakdown})
    manifest = _write_manifest(cfg, [out, summary])
    print(json.dumps({"ok": True, "outputs": [out, summary, manifest],
                      "breakdown_dbar": breakdown}))
    return 0


def cmd_ade(cfg):
    _, table = _load_table(cfg)
    r = parse_restriction(cfg.restriction, table.support)
    spec, _ = bounds_mod.resolve_identified_set(table, r, cfg.auto_relax)
    intervals = {}
    for k in range(table.n_mediators):
        lb, ub = bounds_mod._ade_bounds(table, spec, k, theta_kk_min(spec, k))
        intervals[str(k)] = [lb, ub]
    out = cfg.out or "ade.json"
    _write_json(out, {"ade": intervals, "mediators": [list(p) for p in table.support.points]})
    manifest = _write_manifest(cfg, [out])
    print(json.dumps({"ok": True, "outputs": [out, manifest]}))
    return 0


def _simulate_design(cfg):
    if cfg.design == "binary":
        cp, tp = mc.binary_pools()
    elif cfg.design == "cluster":
        cp, tp = mc.cluster_pools(n_clusters=max(cfg.clusters, 20))
    else:
        cp, tp = mc.ordered_pools()
    if cfg.clusters:
        if cp.cluster is None:
            raise StructuralError("requested clusters on a design without them")
        return mc.MixtureDgp(
            control_pool=cp, treated_pool=tp, t=cfg.t,
            cluster_mode=True, clusters_per_arm=cfg.clusters,
        )
    half = max(cfg.n // 2, 1)
    return mc.MixtureDgp(
        control_pool=cp, treated_pool=tp, t=cfg.t,
        n_control=half, n_treated=cfg.n - half,
    )


_Replicate = namedtuple("_Replicate", "reject statistic p_value nu_pooled_lb median_cell_count")


def cmd_simulate(cfg):
    dgp = _simulate_design(cfg)
    bins = parse_bins(cfg.bins)
    # a malformed restriction is an input error, not an error in every replicate
    pooled_m = np.vstack([dgp.control_pool.m, dgp.treated_pool.m])
    parse_restriction(cfg.restriction, support_from_values(pooled_m))

    def replicate(records, seed):
        r = parse_restriction(cfg.restriction, encode(records).support)
        system = inference.build_moment_system(records, r, bins=bins, min_cell=0)
        result = _run_test(cfg, system, seed)
        pooled = bounds_mod.nu_pooled_lower_bound(from_records(records, bins), r, auto_relax=True)
        return _Replicate(result.reject, result.statistic, result.p_value, pooled,
                          system.median_cell_count)

    summary = mc.rejection_rate(dgp, replicate, cfg.nsims, cfg.seed)
    if summary.n_errors == summary.n_sims:
        # nothing to report: fail as ``test`` fails on the first sample
        raise summary.results[0]
    rows = []
    for sim, rep in enumerate(summary.results):
        if isinstance(rep, MechtestError):
            rows.append([sim, "error", "", "", "", type(rep).__name__])
            continue
        rows.append([
            sim,
            f"{rep.statistic:.10g}",
            f"{rep.p_value:.10g}",
            int(rep.reject),
            f"{rep.nu_pooled_lb:.10g}",
            f"{rep.median_cell_count:.10g}",
        ])
    out = cfg.out or "simulate.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sim_id", "statistic", "p_value", "reject",
                         "nu_pooled_lb", "median_cell_count"])
        writer.writerows(rows)
    manifest = _write_manifest(cfg, [out])
    print(json.dumps({
        "ok": True, "outputs": [out, manifest],
        "rejection_rate": summary.rate,
        "errors": summary.n_errors,
    }))
    return 0


def cmd_diagnose(cfg):
    records, table = _load_table(cfg)
    r = parse_restriction(cfg.restriction, table.support)
    spec = build_identified_set(table, r)
    counts = {}
    for nb in (2, 5, 10):
        try:
            counts[str(nb)] = inference.median_cluster_cell_count(records, bins=nb)
        except MechtestError:
            counts[str(nb)] = None
    requested = parse_bins(cfg.bins)
    if requested is not None:
        count = counts.get(str(requested))  # None where the loop failed: recompute to raise
        if count is None:
            count = inference.median_cluster_cell_count(records, bins=requested)
        counts["requested"] = count
    # the slack s is free, so the sharp-null slack LP is empty exactly when
    # the identified set is: its one phase 1 decides both
    slack = solve_lp(bounds_mod._slack_program(table, spec))
    if slack.status not in (OPTIMAL, INFEASIBLE):
        raise SolverFailureError("slack LP neither solved nor certified empty")
    feasible = slack.status == OPTIMAL
    marg = {d: table.marginal_m(d) for d in (0, 1)}
    payload = {
        "median_cell_counts": counts,
        "identified_set_feasible": feasible,
        "min_defier_budget": None if feasible else min_defier_budget(spec),
        "n_units": list(table.n_units) if table.n_units else None,
        "n_clusters": list(table.n_clusters) if table.n_clusters else None,
        # mediator values seen in only one arm are still registered in the
        # common (sorted) support; surface which arm carries each point
        "mediator_support": [
            {
                "point": list(p),
                "seen_in_control": bool(marg[0][k] > 0),
                "seen_in_treated": bool(marg[1][k] > 0),
            }
            for k, p in enumerate(table.support.points)
        ],
    }
    if feasible:
        payload["sharp_null_slack"] = float(slack.value)
    out = cfg.out or "diagnose.json"
    _write_json(out, payload)
    manifest = _write_manifest(cfg, [out])
    print(json.dumps({"ok": True, "outputs": [out, manifest]}))
    return 0


COMMANDS = {
    "bounds": cmd_bounds,
    "test": cmd_test,
    "robustness": cmd_robustness,
    "ade": cmd_ade,
    "simulate": cmd_simulate,
    "diagnose": cmd_diagnose,
}


_ON_INPUT = tuple(c for c in COMMANDS if c != "simulate")
_TESTING = ("test", "simulate")


# Each option: its default; its type, or a tuple of its allowed values; the
# subcommands that take it as a flag; its help text; and the least value below
# which later code would fail.  A config file may set any option for any
# subcommand, and flags and config values pass the same checks.
Option = namedtuple("Option", "default kind commands help least", defaults=(None, None))
OPTIONS = {
    "input": Option(None, str, _ON_INPUT, "input CSV (columns y, d, m1..mp, ...)"),
    "out": Option(None, str, tuple(COMMANDS), "output path"),
    "strategy": Option("randomized", str, _ON_INPUT, "randomized | iv | ipw | me:<L.csv>"),
    "restriction": Option(
        "monotone", str, ("bounds", "test", "ade", "simulate", "diagnose"),
        "monotone | defier_budget:<d> | elementwise | elementwise_defier_budget:<d> | "
        "bounded:<kappa>,<d> | none | custom:<csv>"),
    "bins": Option("none", str, tuple(COMMANDS), "outcome bins: int, comma cutpoints, or 'none'"),
    "alpha": Option(0.05, float, _TESTING, "test level in (0, 1)"),
    "method": Option(inference.LF_BOOT, (inference.LF_BOOT, inference.COND_CHISQ), _TESTING),
    "boot": Option(999, int, _TESTING, "bootstrap draws of lf-boot", least=200),
    "seed": Option(0, int, _TESTING, "master seed", least=0),
    "auto_relax": Option(False, bool, ("bounds", "ade"),
                         "relax an empty identified set to the least defier budget"),
    "ade": Option(False, bool, ("bounds",), "add average-direct-effect bounds"),
    "t": Option(1.0, float, ("simulate",), "share of treated units from the treated pool"),
    "nsims": Option(100, int, ("simulate",), "simulation replicates"),
    "clusters": Option(0, int, ("simulate",), "clusters per arm; 0 resamples units", least=0),
    "n": Option(2000, int, ("simulate",), "units per replicate", least=2),
    "design": Option("binary", ("binary", "cluster", "ordered"), ("simulate",)),
    "dbar_max": Option(0.5, float, ("robustness",), "largest defier budget of the curve",
                       least=0),
    "dbar_steps": Option(26, int, ("robustness",), "defier budgets on the curve", least=0),
}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser():
    parser = argparse.ArgumentParser(
        prog="mechtest",
        description="Test whether a treatment effect runs entirely through a mediator, "
        "and bound the violations when it does not.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value file; flags override it")
        for key, opt in OPTIONS.items():
            if name in opt.commands:
                # every flag arrives as text and is parsed like a config value
                switch = dict(action="store_const", const="true") if opt.kind is bool else {}
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               help=opt.help or " | ".join(opt.kind), **switch)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command in OPTIONS["input"].commands and not cfg.input:
            raise StructuralError("--input is required")
        return COMMANDS[args.command](cfg)
    except MechtestError as exc:
        print(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }))
        return exc.exit_code
    except OSError as exc:  # an input or output path that cannot be opened
        print(json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": 2}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
