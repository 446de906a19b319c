"""Remote transport overhead benchmark: the loopback tax (§15).

PR 9's tentpole guarantee: shipping a shard as a content-keyed bundle
to a subprocess worker and streaming its store back costs little over
the local shard backend it generalises — both pay one interpreter
start per shard; remote adds the bundle stage, the request parse, and
the fetch-and-merge leg.  Two backends drive the same dense-300
evaluate campaign:

- ``shard``  — :class:`ShardBackend` x2: local subprocess workers
  writing straight into per-shard stores (the PR 5 baseline).
- ``remote`` — :class:`RemoteShardBackend` x2 over
  :class:`LoopbackTransport`: the full bundle → worker → fetch → merge
  protocol on this host.  **The gated mode.**

Timing interleaves the modes round by round (matched pairs cancel host
drift); the headline is the median per-round ratio of ``remote`` over
``shard``.  Every round's store is asserted byte-identical to a serial
inline reference — the transport must never perturb results.

Quick scale (the CI smoke) asserts the ratio stays within the budget
and writes nothing.  Full scale writes the ratios to ``BENCH_PR9.json``
at the repo root of the checkout it runs in; that file is a local
result and is not committed.
"""

import hashlib
import statistics
import time
from pathlib import Path

from _common import write_record

from repro.utils import flags
from repro.campaigns import (
    CampaignExecutor,
    CampaignSpec,
    LoopbackTransport,
    RemoteShardBackend,
    ResultStore,
    ShardBackend,
)
from repro.manet import AEDBParams

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR9.json"

WORKERS = 2

#: The repo's standard benchmark trio (same as bench_backends.py).
PARAM_VECTORS = tuple(
    tuple(float(v) for v in p.as_array())
    for p in (
        AEDBParams(),
        AEDBParams(0.0, 0.4, -78.0, 0.3, 3.0),
        AEDBParams(0.9, 4.5, -95.0, 3.0, 45.0),
    )
)

#: Full-scale budget (median ratio vs the local shard backend).  The
#: protocol adds a bundle copy, a request parse, a cold interpreter
#: start (the local backend forks warm workers), and a store fetch per
#: shard — fixed costs that shrink relative to real simulation work;
#: 1.25x bounds them once cells carry full-scale load.
REMOTE_OVERHEAD_BUDGET = 1.25

#: Quick-scale budget: with near-zero simulation work the fixed costs
#: ARE the measurement, so the smoke gates the absolute per-shard tax
#: (dominated by the worker's cold ``python -m repro`` start) instead
#: of a ratio the tiny denominator would render meaningless.
QUICK_PER_SHARD_BUDGET_S = 4.0


def bench_spec(quick: bool) -> CampaignSpec:
    """A dense-300 evaluate campaign, shard-backend shaped."""
    return CampaignSpec(
        name="bench-remote",
        densities=(300,),
        n_seeds=4,
        params=PARAM_VECTORS[:1] if quick else PARAM_VECTORS,
        n_networks=1,
        n_nodes=16 if quick else 300,
    )


def _backends():
    return {
        "shard": ShardBackend(WORKERS),
        "remote": RemoteShardBackend(WORKERS, transport=LoopbackTransport()),
    }


def _store_digests(root: Path) -> dict:
    return {
        p.name: hashlib.sha1(p.read_bytes()).hexdigest()
        for p in sorted((root / "cells").glob("*.jsonl"))
    }


def _run_once(spec, backend, root) -> float:
    store = ResultStore(root)
    start = time.perf_counter()
    report = CampaignExecutor(
        spec, store, backend=backend, max_workers=WORKERS
    ).run()
    elapsed = time.perf_counter() - start
    assert report.failed == [], "fault-free run must not quarantine"
    assert len(report.executed) == spec.n_cells
    return elapsed


def test_remote_transport_overhead(emit, tmp_path):
    quick = (flags.read_raw("REPRO_SCALE") or "quick") == "quick"
    spec = bench_spec(quick)
    reps = 3 if quick else 7

    # The identity reference: a serial inline run of the same spec.
    inline_root = tmp_path / "inline-ref"
    ResultStore(inline_root)
    CampaignExecutor(spec, ResultStore(inline_root), serial=True).run()
    reference = _store_digests(inline_root)
    assert reference

    # Warm runtime caches and interpreter startup once per mode.
    for mode, backend in _backends().items():
        _run_once(spec, backend, tmp_path / f"warmup-{mode}")

    modes = list(_backends())
    times: dict[str, list[float]] = {m: [] for m in modes}
    for rep in range(reps):
        for mode, backend in _backends().items():
            root = tmp_path / f"{mode}-{rep}"
            times[mode].append(_run_once(spec, backend, root))
            # THE invariant: the transport never perturbs results.
            assert _store_digests(root) == reference, (
                f"{mode} round {rep} diverged from the inline reference"
            )

    ratios = {
        mode: statistics.median(
            t / base for t, base in zip(times[mode], times["shard"])
        )
        for mode in modes
    }
    # The transport's fixed tax, per shard: matched-pair deltas spread
    # over the shard count (both modes run one worker per shard).
    per_shard_s = statistics.median(
        (r - s) / WORKERS for r, s in zip(times["remote"], times["shard"])
    )

    n_sims = spec.n_cells * spec.n_networks
    emit()
    emit(
        f"remote transport overhead, {WORKERS} shards, "
        f"{spec.n_cells}-cell dense-300 campaign "
        f"({'quick' if quick else 'full'} scale, median of {reps} "
        f"interleaved rounds)"
    )
    for mode in modes:
        emit(
            f"  {mode:>6s}: min {min(times[mode]):7.3f} s / campaign, "
            f"median ratio vs shard {ratios[mode]:.3f}x"
        )
    emit(
        f"  transport tax: {per_shard_s:.3f} s / shard "
        f"(bundle + cold start + fetch)"
    )
    emit(
        f"  (campaign = {n_sims} simulations; every store byte-identical "
        f"to the inline reference)"
    )

    if quick:
        # The CI gate: the fixed per-shard tax stays bounded (the
        # ratio needs full-scale cells to mean anything).
        assert per_shard_s <= QUICK_PER_SHARD_BUDGET_S, (
            f"remote-loopback tax {per_shard_s:.3f}s/shard exceeds "
            f"{QUICK_PER_SHARD_BUDGET_S}s budget"
        )
        emit("  (quick scale: record not written)")
        return

    # The full-scale gate: with real simulation work the whole protocol
    # must stay within budget of the local shard backend.
    assert ratios["remote"] <= REMOTE_OVERHEAD_BUDGET, (
        f"remote-loopback overhead {ratios['remote']:.3f}x exceeds "
        f"{REMOTE_OVERHEAD_BUDGET}x budget"
    )
    write_record(
        RECORD_PATH,
        "remote_transport_overhead",
        {
            "scale": "full",
            "workload": {
                "backends": f"shard x{WORKERS} vs remote x{WORKERS} "
                "(loopback transport)",
                "density_per_km2": 300,
                "n_nodes": 300,
                "n_cells": spec.n_cells,
                "n_simulations_per_campaign": n_sims,
                "timing": (
                    f"{reps} interleaved rounds (shard, remote per "
                    "round); headline = median per-round ratio vs shard"
                ),
            },
            "baseline": (
                "ShardBackend x2 — local subprocess workers writing "
                "straight into per-shard stores (no bundle, no fetch)"
            ),
            "modes": {
                mode: {
                    "min_s_per_campaign": min(times[mode]),
                    "median_ratio_vs_shard": ratios[mode],
                }
                for mode in modes
            },
            "median_transport_tax_s_per_shard": per_shard_s,
            "remote_overhead_budget": REMOTE_OVERHEAD_BUDGET,
            "stores_byte_identical_to_inline": True,
        },
    )
    emit(f"  -> {RECORD_PATH.name} written")
