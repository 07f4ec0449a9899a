"""The README's library quick tour runs and prints what its comments state."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# each printed expression of the tour, the comment it carries and the value it prints
STATED = {
    "report.nu_lb": ("(0.333..., 0.25)", (1 / 3, 0.25)),
    "report.slack": ("0.2 ", 0.2),
    "report.nu_pooled_lb": ("0.3", 0.3),
    "verify_consistency(witness, table).max_abs_deviation": ("~1e-17", 0.0),
    "values": ("[0.3, 0.125, 0.0, 0.0, 0.0]", [0.3, 0.125, 0.0, 0.0, 0.0]),
    "breakdown": ("0.2", 0.2),
}


def _tour():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick tour")[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_quick_tour_runs_and_states_its_values(monkeypatch):
    source = _tour()
    comments = dict(re.findall(r"^print\((.+?)\) +# (.+)$", source, re.M))
    assert comments.keys() == STATED.keys()
    for expr, (comment, _) in STATED.items():
        assert comments[expr].startswith(comment)
    monkeypatch.chdir(ROOT)
    scope = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, "README.md", "exec"), scope)
    for expr, (_, value) in STATED.items():
        got = np.asarray(eval(expr, scope), dtype=float)
        assert np.abs(got - value).max() <= 1e-12, expr
