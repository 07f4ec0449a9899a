"""Per-layer call counts and self times, recorded from outside mechtest.

:class:`Tracer` replaces each listed public function with a wrapper in every
mechtest module that binds its name (and in the CLI's command table), so
calls made through any import path are seen. A layer's self time is its
wall time minus the time spent in traced functions it called.
"""

import functools
import sys
from time import perf_counter

LAYERS = {
    "linprog": ("solve_lp", "solve_lfp", "solve_qp"),
    "typeshares": ("build_identified_set", "theta_kk_min", "min_defier_budget"),
    "bounds": ("bounds_report", "nu_pooled_lower_bound", "ade_bounds", "breakdown_defier_budget"),
    "probtab": ("read_csv", "support_from_values", "from_records", "discretize_outcome"),
    "ident": ("apply_strategy",),
    "inference": ("build_moment_system", "median_cluster_cell_count", "test_conditional_chisq",
                  "test_least_favorable_bootstrap", "p_from_cells"),
    "rng": ("substream",),
    "mc": ("draw_sample",),
    "cli": ("cmd_bounds", "cmd_test", "cmd_robustness", "cmd_ade", "cmd_simulate", "cmd_diagnose"),
}

METRICS = [f"{mod}.{fn}.{kind}" for mod, fns in LAYERS.items() for fn in fns
           for kind in ("calls", "self_s")]


class Tracer:
    """Counts and self times of the :data:`LAYERS` functions while
    ``enabled``; nothing is recorded while it is off."""

    def __init__(self):
        self.enabled = False
        self.calls = {}
        self.self_s = {}
        self._children = []  # time spent in traced callees, per open frame

    def reset(self):
        self.calls = {f"{m}.{f}": 0 for m, fns in LAYERS.items() for f in fns}
        self.self_s = dict.fromkeys(self.calls, 0.0)

    def install(self):
        self.reset()
        loaded = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "mechtest"]
        commands = sys.modules["mechtest.cli"].COMMANDS
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"mechtest.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in loaded:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                for key, cmd in commands.items():
                    if cmd is original:
                        commands[key] = wrapper

    def _wrap(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.calls[key] += 1
                self.self_s[key] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed

        return wrapper

    def snapshot(self):
        out = {f"{key}.calls": self.calls[key] for key in self.calls}
        out.update({f"{key}.self_s": self.self_s[key] for key in self.self_s})
        return out
