"""The functions the benchmark's per-layer tracer wraps by name exist.

``perfbench/layers.py`` looks each listed function up with ``getattr`` when
a traced run starts, so a name that goes from mechtest would stop every
traced benchmark run; this pins the names without importing the harness.
"""

import importlib
import importlib.util
from pathlib import Path

from mechtest import cli

LAYERS_PY = Path(__file__).parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_is_a_mechtest_function():
    layers = _layers()
    assert layers
    for mod_name, fns in layers.items():
        module = importlib.import_module(f"mechtest.{mod_name}")
        for fn_name in fns:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    commands = list(cli.COMMANDS.values())
    for fn_name in layers["cli"]:
        assert fn_name.startswith("cmd_")
        assert getattr(cli, fn_name) in commands, fn_name
