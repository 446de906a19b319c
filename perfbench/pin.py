"""Regenerate ``perfbench/pins.json``: output digests per workload and seed.

Run from the repository root after ``perfbench/run.py`` has built the
extension once (it lives under ``.bench_build/``)::

    python3 perfbench/pin.py

Pins the front digest of ``mls-serial-d300`` and the store digest of
``campaign-grid`` for every seed in ``PINNED_SEEDS``, one run each.  Only
regenerate them for a change that is meant to change results.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from harness import env
from harness.workloads import (
    PINNED_SEEDS,
    PINNED_WORKLOADS,
    PINS_PATH,
    make_workload,
)


def main() -> int:
    root = Path.cwd()
    work_dir = root / ".bench_build" / "pin"
    env.activate(root, env.build_evcore(root, root / ".bench_build"))
    from repro.manet.compiled import compiled_core_available

    if not compiled_core_available():
        print("pin: the compiled core is unavailable", file=sys.stderr)
        return 3
    pins: dict[str, dict[str, str]] = {}
    try:
        for name in PINNED_WORKLOADS:
            pins[name] = {}
            for seed in PINNED_SEEDS:
                workload = make_workload(name, seed, work_dir, env.nproc())
                workload.setup()
                pins[name][str(seed)] = workload.digest(workload.run_once(0))
                print(f"{name} seed {seed}: {pins[name][str(seed)]}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
