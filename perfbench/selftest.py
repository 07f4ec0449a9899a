"""Self-test of the benchmark's checks, on small inputs.

    python3 perfbench/selftest.py

For every workload, in one process: make small inputs, run every operation
once, and require that each check accepts the genuine output and rejects
each of a set of deliberately perturbed copies of it. The known-fault
operations must fail, and their checks must accept the reference answer.
Then the runner itself runs each workload once in small mode, untraced and
traced. Exits 0 when everything holds.
"""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

HERE = Path(__file__).resolve().parent


def _bump(key, delta):
    def mutate(p):
        p[key] = p[key] + delta
    return mutate


def _first(key, delta):
    """Add ``delta`` to the first entry of the list ``report[key]``."""
    def mutate(p):
        row = p["report"][key]
        row = row["0"] if isinstance(row, dict) else row
        row = row[0] if isinstance(row[0], list) else row
        row[0] += delta
    return mutate


def _report_mutations(payload):
    out = {
        "nu_lb": _first("nu_lb", 1e-3),
        "slack": lambda p: _bump("slack", 1e-4)(p["report"]),
        "nu_pooled_lb": lambda p: _bump("nu_pooled_lb", 1e-4)(p["report"]),
        "theta": _first("theta", 1e-3),
        "cells": lambda p: p["cells"][0].__setitem__(
            "p_treated", repr(float(p["cells"][0]["p_treated"]) + 1e-6)),
    }
    if payload["report"]["ade"]:
        out["ade"] = _first("ade", -1e-3)
    return out


def _robustness_mutations(payload):
    def raise_curve(p):
        ok = [r for r in p["rows"] if r["status"] == "ok"]
        ok[-1]["nu_pooled_lb"] = repr(float(ok[0]["nu_pooled_lb"]) + 0.1)

    return {"breakdown": lambda p: _bump("breakdown", 1e-3)(p), "curve": raise_curve}


def _simulation_mutations(payload):
    def row(key, fn):
        return lambda p: p[0].__setitem__(key, fn(p[0][key]))

    return {
        "nu_pooled_lb": row("nu_pooled_lb", lambda v: repr(float(v) + 1e-3)),
        "median_cell_count": row("median_cell_count", lambda v: repr(float(v) + 1)),
        "statistic or decision": row("reject", lambda v: "0" if v == "1" else "1"),
        "replicate count": lambda p: p.pop(),
    }


def _test_mutations(payload):
    def flip(p):
        p["reject"] = not p["reject"]

    return {"decision": flip, "statistic": _bump("statistic", 0.5)}


def _diagnose_mutations(payload):
    def count(p):
        p["median_cell_counts"]["5"] += 1

    def units(p):
        p["n_units"][0] += 1

    def feasible(p):
        p["identified_set_feasible"] = not p["identified_set_feasible"]

    mutated = {"median cell count": count, "units": units, "feasibility": feasible}
    if "sharp_null_slack" in payload:  # reported only for a nonempty set
        mutated["slack"] = _bump("sharp_null_slack", 1e-4)
    return mutated


def _ade_mutations(payload):
    return {"ade": lambda p: p["ade"]["0"].__setitem__(1, p["ade"]["0"][1] + 1e-3)}


def mutations(op, payload):
    """Named perturbations of a genuine payload; the check must reject each."""
    if isinstance(payload, list):
        return _simulation_mutations(payload)
    if "report" in payload:
        return _report_mutations(payload)
    if "breakdown" in payload:
        return _robustness_mutations(payload)
    if "statistic" in payload:
        return _test_mutations(payload)
    if "median_cell_counts" in payload:
        return _diagnose_mutations(payload)
    if "ade" in payload:
        return _ade_mutations(payload)
    raise ValueError(f"{op.name}: no perturbations for this output")


def check_workload(name, workloads, oracle):
    problems = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        w = workloads.WORKLOADS[name](3, Path(tmp), small=True)
        w.prepare()
        w.references()
        for op in w.operations():
            try:
                payload = op.collect(op.call())
            except Exception as exc:  # known faults raise; anything else is a problem
                if not op.fault:
                    problems.append(f"{op.name}: raised {exc!r}")
                elif op.name.startswith("breakdown_fault"):
                    problems += _check_fault_reference(op, workloads, oracle)
                continue
            errors = op.check(payload)
            if op.fault:
                if not errors:
                    problems.append(f"{op.name}: the known fault no longer shows")
                continue
            if errors:
                problems.append(f"{op.name}: genuine output rejected: {errors[0]}")
            for label, mutate in mutations(op, payload).items():
                bad = copy.deepcopy(payload)
                mutate(bad)
                if not op.check(bad):
                    problems.append(f"{op.name}: perturbed {label} was accepted")
    return problems


def _check_fault_reference(op, workloads, oracle):
    """The breakdown fault's check accepts the HiGHS value and rejects a
    value off by 1e-3."""
    mass = workloads.fuzz_table(int(op.name.rsplit("_", 1)[1]))
    K, Q = mass.shape[1:]
    ref = oracle.breakdown_budget(
        oracle.Table(np.arange(K, dtype=float)[:, None], np.arange(Q, dtype=float), mass))
    problems = []
    if op.check(ref):
        problems.append(f"{op.name}: check rejects the reference value")
    if not op.check(ref + 1e-3):
        problems.append(f"{op.name}: check accepts a value off by 1e-3")
    return problems


def run_small(name, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
           "--seconds", "0", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None, [f"{name} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), []


def main():
    run.import_mechtest()
    import layers
    import oracle
    import workloads

    expected_faults = {"ordered-k10": 6, "records-200k": 0, "binary-mc": 0}
    problems = []
    for name in workloads.WORKLOADS:
        found = check_workload(name, workloads, oracle)
        print(f"{name}: checks {'ok' if not found else 'FAIL'}", flush=True)
        problems += found
        for trace in (0, 1):
            result, errs = run_small(name, trace)
            problems += errs
            if result is None:
                continue
            wanted = workloads.END_TO_END if not trace else layers.METRICS
            if sorted(result["metrics"]) != sorted(wanted):
                problems.append(f"{name} trace={trace}: metrics {sorted(result['metrics'])}")
            if not result["correct"] or result["failed"] != expected_faults[name]:
                problems.append(f"{name} trace={trace}: {result['correct']}, "
                                f"{result['failed']} failed of {result['attempted']}")
            print(f"{name}: runner trace={trace} {'ok' if not errs else 'FAIL'}", flush=True)
    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "passed" if not problems else f"failed ({len(problems)} problems)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
