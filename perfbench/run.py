"""End-to-end benchmark of AEDB-MLS tuning and campaign grids.

Run from the repository root::

    python3 perfbench/run.py --workload mls-serial-d300 --seed 1 \
        --seconds 35 --trace 0

``--trace 0`` times the workload unmodified and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced runs of the same
inputs and prints the per-layer table instead.  Both check the
program's outputs.  The last stdout line is the result JSON
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before
it is the full record with the host, revision, seed, checks and per-run
figures.  A readable table goes to stderr.  See ``perfbench/README.md``.

Exit codes: 0 reported (``correct`` may still be false), 2 no program
or bad arguments, 3 refused: the compiled core is missing or does not
cover the share of simulations the workload implies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from harness import env
from harness.workloads import (
    WORKLOADS,
    CampaignWorkload,
    Rep,
    count_failures,
    make_workload,
)

#: Fresh-interpreter set-up measurements per run (median reported).
SETUP_PROBES = 7

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "sims_per_s": "1/s",
    "peak_rss_mb": "MB",
    "front_hv": "hv",
}


class Refused(Exception):
    """The benchmark must not report (its premise does not hold)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


# --------------------------------------------------------------------- #
def _timed_rep(workload, index: int, label: str | None = None
               ) -> tuple[Rep, float]:
    """One run, with its workers' summed peak RSS (kB) in its extras;
    returns it and the children CPU seconds it consumed."""
    cpu0 = env.children_cpu_s()
    steal0 = env.host_steal_s()
    with env.ChildPeakSampler() as sampler:
        rep = workload.run_once(index, label)
    rep.extra["steal_s"] = env.host_steal_s() - steal0
    rep.extra["workers_peak_kb"] = sampler.total_kb
    return rep, env.children_cpu_s() - cpu0


def _keep_last_store(workload, reps: list[Rep]) -> None:
    if len(reps) > 1:
        workload.discard(reps[-2])


def _another_fits(start: float, seconds: float, runs: int) -> bool:
    """Whether one more run, as long as the mean so far, ends within
    ``seconds`` of ``start`` (so a pass measures about ``seconds``)."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / runs <= seconds


def timed_pass(workload, seconds: float) -> dict:
    """Untraced runs of repetitions 0, 1, ..., each of its own inputs,
    while another fits in ``seconds`` (at least one)."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        rep, _cpu = _timed_rep(workload, len(reps))
        reps.append(rep)
        _keep_last_store(workload, reps)
        if not _another_fits(start, seconds, len(reps)):
            break
    return {"reps": reps}


def traced_pass(workload, seconds: float, trace_root: Path) -> dict:
    """Pairs of an untraced and a traced run of the same repetition's
    inputs, while another pair fits in ``seconds`` (at least one); then
    the merged trace."""
    from harness.layers import Instrumentation
    from harness.spans import Tracer, load_trace

    tracer = Tracer(trace_root / "runs")
    untraced: list[Rep] = []
    traced: list[Rep] = []
    chronological: list[Rep] = []
    children_cpu = 0.0
    start = time.perf_counter()
    while True:
        index = len(traced)
        rep, cpu = _timed_rep(workload, index)
        children_cpu += cpu
        untraced.append(rep)
        chronological.append(rep)
        _keep_last_store(workload, chronological)
        instrumentation = Instrumentation(tracer)
        try:
            instrumentation.install()
            rep = workload.run_once(index, f"traced-{index}")
        finally:
            instrumentation.uninstall()
        traced.append(rep)
        chronological.append(rep)
        _keep_last_store(workload, chronological)
        if not _another_fits(start, seconds, len(traced)):
            break
    tracer.dump()
    trace = load_trace(trace_root / "runs", os.getpid())

    cache_trace = None
    store_bytes = sidecar_bytes = 0
    if isinstance(workload, CampaignWorkload):
        cache_trace, store_bytes, sidecar_bytes = _cache_rerun(
            workload, traced[-1], trace_root / "cache")

    ctx = {
        "main_pid": os.getpid(),
        "workers": (workload.workers if isinstance(workload, CampaignWorkload)
                    else env.nproc()),
        "nproc": env.nproc(),
        "traced_run_s": sum(r.run_s for r in traced),
        # Traced over untraced time of the same inputs, pair by pair.
        "overhead": statistics.median(
            t.run_s / u.run_s for t, u in zip(traced, untraced)),
        "untraced_run_s": sum(r.run_s for r in untraced),
        "children_cpu_s": children_cpu,
        "evaluations": sum(r.extra.get("evaluations", 0) for r in traced),
        "archive_messages": sum(
            r.extra.get("archive_messages", 0) for r in traced),
        "cell_ms": [ms for r in traced for ms in r.extra.get("cell_ms", [])],
        "store_bytes": store_bytes,
        "sidecar_bytes": sidecar_bytes,
    }
    return {"reps": chronological, "trace": trace,
            "cache_trace": cache_trace, "ctx": ctx}


def _cache_rerun(workload, last: Rep, trace_dir: Path):
    """Reads beside the writes: the grid again, traced, into a fresh
    store served from ``last``'s warm sidecar.  Returns the trace and
    the sizes of ``last``'s cell files and sidecar."""
    from harness.layers import Instrumentation
    from harness.spans import Tracer, load_trace

    store_dir = last.extra["store_dir"]
    sidecar = store_dir / "evaluations.jsonl"
    store_bytes = sum(p.stat().st_size
                      for p in (store_dir / "cells").glob("*.jsonl"))
    tracer = Tracer(trace_dir)
    instrumentation = Instrumentation(tracer)
    try:
        instrumentation.install()
        rerun = workload.run_once(last.extra["index"], label="cache-rerun",
                                  eval_cache=str(sidecar))
    finally:
        instrumentation.uninstall()
    tracer.dump()
    if rerun.extra["digest"] != last.extra["digest"]:
        raise AssertionError("cache re-run changed the store contents")
    workload.discard(rerun)
    return (load_trace(trace_dir, os.getpid()), store_bytes,
            sidecar.stat().st_size)


def setup_seconds(workload_name: str, seed: int, ext_dir: Path,
                  root: Path) -> float:
    """Median set-up time over fresh interpreters."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), workload_name, str(seed),
             str(ext_dir)],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["compiled"]:
            raise Refused("set-up probe could not load the compiled core")
        samples.append(result["setup_s"])
    return statistics.median(samples)


# --------------------------------------------------------------------- #
def _check_share(measured: float, expected: float, where: str) -> None:
    if abs(measured - expected) > 1e-9:
        raise Refused(
            f"{where} compiled share {measured:.4f} differs from the "
            f"{expected:.4f} this workload implies: a kernel fallback "
            "would change the run's cost without saying so"
        )


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory starts.

    The campaign's shared runtime arena registers its segments with
    ``multiprocessing``'s resource tracker, a helper process that would
    otherwise outlive the benchmark until it sees the pipe close.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}", file=sys.stderr)


def measure(workload, args, ext_dir: Path, root: Path, work_dir: Path
            ) -> dict:
    """Set up, run the pass, check the outputs, compute the metrics.

    A run that raises is reported (``error``), not propagated: the
    result then says ``correct: false`` with every operation failed.
    :class:`Refused` propagates.
    """
    workload.setup()
    workload.warm()
    error = outcome = None
    try:
        if args.trace:
            outcome = traced_pass(workload, args.seconds, work_dir / "trace")
        else:
            outcome = timed_pass(workload, args.seconds)
    except Exception:
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    # After the runs: deciding builds runtimes the runs must not find.
    _check_share(workload.predicted_compiled_share(),
                 workload.expected_compiled_share, "dispatch")
    if outcome is None:
        return {"reps": [], "checks": [], "metrics": {}, "units": {},
                "error": error}
    reps = outcome["reps"]
    if args.trace:
        from harness.layers import layer_metric_names, layer_metrics

        counts = outcome["trace"].counts
        _check_share(counts.get("manet.sims_compiled", 0)
                     / max(counts.get("manet.sims", 0), 1),
                     workload.expected_compiled_share, "measured")
        units = layer_metric_names()
        table = layer_metrics(outcome["trace"], outcome["ctx"],
                              outcome["cache_trace"])
        metrics = {name: table[name] for name in units}
    else:
        # Means over repetitions: each ran its own inputs, and the mean
        # of a few unlike runs averages their work; a median of three
        # or four keeps mostly one of them.
        units = END_TO_END
        metrics = {
            "setup_s": setup_seconds(args.workload, args.seed, ext_dir, root),
            "run_s": statistics.fmean(r.run_s for r in reps),
            "sims_per_s": sum(r.sims for r in reps)
            / sum(r.run_s for r in reps),
            # Workers: the median over runs of their summed peaks.  One
            # grid run in five once read 50 MB above the others; a
            # maximum would carry such an outlier.
            "peak_rss_mb": (env.self_peak_rss_kb() + statistics.median(
                r.extra["workers_peak_kb"] for r in reps)) / 1024,
            "front_hv": statistics.fmean(workload.front_hv(r) for r in reps),
        }
    return {"reps": reps, "checks": workload.checks(reps),
            "metrics": metrics, "units": units, "error": error}


def report(args, root: Path, outcome: dict) -> None:
    """Print the checks and table (stderr), the record and the result."""
    from repro.manet.compiled import compiled_core_available

    reps, checks, error = outcome["reps"], outcome["checks"], outcome["error"]
    metrics, units = outcome["metrics"], outcome["units"]
    attempted, failed = count_failures(reps, error is not None)
    for check in checks:
        status = ("UNPINNED" if check.unpinned
                  else "ok" if check.ok else "FAILED")
        print(f"  check {check.name}: {status} ({check.detail})",
              file=sys.stderr)
    if metrics:
        _print_table(f"{args.workload} seed {args.seed}", metrics, units)
    print(f"  failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)", file=sys.stderr)
    record = {
        **env.host_record(root, args.workload, args.seed,
                          compiled_core_available()),
        "trace": args.trace,
        "seconds": args.seconds,
        "runs_s": [r.run_s for r in reps],
        # Hypervisor steal during each untraced run (null when traced).
        "steal_s": [r.extra.get("steal_s") for r in reps],
        # Peak RSS parts: summed workers' per untraced run, and this
        # process's own.
        "workers_peak_kb": [r.extra.get("workers_peak_kb") for r in reps],
        "self_peak_kb": env.self_peak_rss_kb(),
        "failed_frac": failed / attempted,
        "checks": [c.__dict__ for c in checks],
        "error": error,
    }
    result = {
        "correct": error is None and failed == 0
        and all(c.ok for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def run(args) -> int:
    root = Path.cwd()
    if not env.program_present(root):
        print("perfbench: no program here (need src/repro and setup.py); "
              "run from the repository root", file=sys.stderr)
        return 2
    build_dir = root / ".bench_build"
    work_dir = build_dir / "work" / str(os.getpid())
    try:
        ext_dir = env.build_evcore(root, build_dir)
        env.activate(root, ext_dir)
        from repro.manet.compiled import (
            compiled_core_available,
            compiled_core_reason,
        )

        if not compiled_core_available():
            raise Refused(
                f"the compiled core is unavailable ({compiled_core_reason()})"
                "; a pure-path number would be ~6x slower without saying so")
        workload = make_workload(args.workload, args.seed, work_dir,
                                 env.nproc())
        try:
            outcome = measure(workload, args, ext_dir, root, work_dir)
        finally:
            workload.finish()
            shutil.rmtree(work_dir, ignore_errors=True)
            _stop_resource_tracker()
    except (env.BuildError, Refused) as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 3
    report(args, root, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
