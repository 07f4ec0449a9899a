"""Seeded, output-checked benchmark of the mechtest CLI and library.

    python3 perfbench/run.py --workload ordered-k10 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: mechtest is imported from ``src/``. The
runner imports mechtest, then three times generates the workload's inputs
from ``--seed``, writes them as CSV files and makes one warm-up CLI call
(the set-up), then runs whole rounds of the workload's operations until
``--seconds`` have passed. Every output
of the first round is checked against a reference computed apart from
mechtest; later rounds must reproduce it exactly. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer call counts and
self times with ``--trace 1``). See README.md for the workloads.
"""

import os

# One thread for every BLAS and OpenMP pool; must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 3
UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "sims_per_s": "1/s"}
RATES = ("sims_per_s",)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink every input (self-test); one round")
    return parser.parse_args(argv)


def import_mechtest():
    """Import mechtest from this checkout's ``src``; returns the seconds taken."""
    if not (SRC / "mechtest" / "__init__.py").is_file():
        raise SystemExit(f"mechtest sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import mechtest.cli  # noqa: F401

    elapsed = perf_counter() - start
    if not Path(mechtest.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported mechtest from {mechtest.cli.__file__}, not from {SRC}")
    return elapsed


def fingerprint(payload):
    return json.dumps(payload, sort_keys=True, default=repr)


class Runner:
    """Runs rounds of a workload's operations and tallies the outcome."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.verdicts = {}  # op name -> (fingerprint, errors) of the first round
        self.reported = set()

    def round(self):
        """One pass over every operation; returns each timed call's seconds."""
        times = {}
        for op in self.ops:
            if self.tracer:
                self.tracer.enabled = op.fault is None
            start = perf_counter()
            try:
                raw = op.call()
                error = None
            except Exception:  # an operation failure is counted, not fatal
                error = traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
            if self.tracer:
                self.tracer.enabled = False
            self.attempted += 1
            if op.metric:
                times[op.name] = elapsed
            errors = [error] if error else self.verify(op, raw)
            if not errors:
                continue
            if op.fault or error:
                self.failed += 1
            else:
                self.correct = False
            if op.name not in self.reported:
                self.reported.add(op.name)
                if op.fault:
                    print(f"{op.name}: known fault ({op.fault}): "
                          f"{errors[0].strip().splitlines()[-1]}", file=sys.stderr)
                else:
                    print(f"{op.name}: FAILED: {errors[0]}", file=sys.stderr)
        return times

    def verify(self, op, raw):
        payload = op.collect(raw)
        key = fingerprint(payload)
        if op.name not in self.verdicts:
            try:
                errors = op.check(payload)
            except Exception:  # a reference that cannot be computed is a failed check
                errors = [f"check raised {traceback.format_exc(limit=2)}"]
            self.verdicts[op.name] = (key, errors)
        first_key, errors = self.verdicts[op.name]
        if key != first_key:
            return ["output differs from the first round on the same inputs"]
        return errors


def metric_values(ops, rounds):
    """Each metric sums, over its calls, every call's median time across the
    rounds. On a shared machine the speed of the whole run drifts with other
    tenants' load in stretches of a minute or more; the median follows the
    share of slow time in the run smoothly, where the fastest repeat jumps
    with whether any fast moment fell in it (see README.md, "Reference
    figures")."""
    seconds, units = {}, {}
    for op in ops:
        if op.metric:
            typical = statistics.median(r[op.name] for r in rounds)
            seconds[op.metric] = seconds.get(op.metric, 0.0) + typical
            units[op.metric] = units.get(op.metric, 0) + op.units
    return {m: units[m] / seconds[m] if m in RATES else seconds[m] for m in seconds}


def main(argv=None):
    args = parse_args(argv)
    import_s = import_mechtest()
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload}; have {sorted(workloads.WORKLOADS)}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, WORK, small=args.small)
        setup = []
        for _ in range(1 if args.small else SETUP_REPEATS):
            start = perf_counter()
            workload.prepare()
            workload.warmup()
            setup.append(perf_counter() - start)
        workload.references()
        tracer = layers.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        runner = Runner(workload.operations(), tracer)
        rounds, snapshots = [], []
        start = perf_counter()
        while True:
            if tracer:
                tracer.reset()
            rounds.append(runner.round())
            if tracer:
                snapshots.append(tracer.snapshot())
            if args.small or perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    values = metric_values(runner.ops, rounds)
    print(f"{len(rounds)} round(s): " + ", ".join(f"{k}={v:.4g}" for k, v in values.items()),
          file=sys.stderr)
    if tracer:
        metrics = {name: {"value": statistics.median(snap[name] for snap in snapshots),
                          "unit": "count" if name.endswith(".calls") else "s"}
                   for name in layers.METRICS}
    else:
        values["setup_s"] = import_s + statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": values[name], "unit": UNITS.get(name, "s")}
                   for name in workloads.END_TO_END}
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
