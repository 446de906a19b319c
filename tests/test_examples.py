"""Examples stay runnable: each one here executes as ``python examples/<name>.py``."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_parallel_engines_example_runs(capsys):
    runpy.run_path(str(EXAMPLES / "parallel_engines.py"), run_name="__main__")
    out = capsys.readouterr().out
    rows = {line.split()[0] for line in out.splitlines() if line.strip()}
    assert {"serial", "processes"} <= rows
    assert "archive served" in out
