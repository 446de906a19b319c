"""Time one workload's set-up in a fresh interpreter.

Usage (from the repository root, after ``perfbench/run.py`` has built
the extension)::

    python3 perfbench/setup_probe.py <workload> <seed> <extension dir>

Prints one JSON line ``{"setup_s": ..., "compiled": ...}``: the time from
this script's first statement until the first evaluation could start --
imports, problem or campaign construction, the per-scenario runtime
precompute, and the compiled core's import and self-check.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    from harness import env
    from harness.workloads import make_workload

    workload, seed, ext_dir = argv[0], int(argv[1]), Path(argv[2])
    root = Path.cwd()
    env.activate(root, ext_dir)
    from repro.manet.compiled import compiled_core_available

    make_workload(workload, seed, root / ".bench_build" / "probe",
                  env.nproc()).setup()
    compiled = compiled_core_available()
    elapsed = time.perf_counter() - _START
    print(json.dumps({"setup_s": elapsed, "compiled": compiled}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
