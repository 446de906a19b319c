"""Per-layer spans around the program's public functions, and the table.

:class:`Instrumentation` wraps each layer's public entry points with
:class:`~harness.spans.Tracer` spans for the traced pass only, and
restores the originals afterwards: the untraced runs that give the
end-to-end metrics execute the program unmodified.  A function is
replaced in every loaded ``repro`` module that holds a reference to it,
so ``from x import f`` call sites are traced too.  Spans inside the
program itself are a separate, later change.

:func:`layer_metrics` turns a merged :class:`~harness.spans.Trace`
into the per-layer table.  Layers are named after the modules.
"""

from __future__ import annotations

import sys

import numpy as np

from harness.spans import Trace, Tracer, summarize

__all__ = [
    "FALLBACK_KEYS",
    "TIMINGS",
    "Instrumentation",
    "fallback_key",
    "layer_metric_names",
    "layer_metrics",
]

#: Fallback-reason keys reported as ``manet.fallback.<key>``.  Every
#: reason that is not an unsupported mobility model counts as ``other``.
FALLBACK_KEYS = (
    "mobility_random_waypoint",
    "mobility_gauss_markov",
    "other",
)

#: Timings reported as ``<name>.p50`` / ``.tail`` / ``.n`` (ms, count).
TIMINGS = (
    "manet.kernel_ms_per_sim",
    "manet.shell_ms_per_sim",
    "manet.sim_construct_ms",
    "manet.warm_rounds_ms",
    "manet.pure_window_ms",
    "manet.runtime_build_ms",
    "manet.arena_create_ms",
    "campaigns.cell_ms",
    "campaigns.store_write_ms",
    "tuning.persistent_put_ms",
    "tuning.persistent_get_ms",
    "tuning.evaluate_ms",
    "core.step_self_ms",
    "moo.archive.add_ms",
)

#: Scalar per-layer metrics: name -> unit.
SCALARS = {
    "manet.sims": "count",
    "manet.kernel_share": "ratio",
    "manet.compiled_share": "ratio",
    **{f"manet.fallback.{key}": "count" for key in FALLBACK_KEYS},
    "manet.events_per_sim": "events/sim",
    "manet.frames_per_sim": "frames/sim",
    "manet.runtime_builds": "count",
    "manet.arena_bytes": "bytes",
    "utils.flag_reads_per_sim": "reads/sim",
    "campaigns.pool_worker_util": "ratio",
    "campaigns.store_bytes": "bytes",
    "campaigns.sidecar_bytes": "bytes",
    "tuning.cache_read_ms_per_entry": "ms",
    "tuning.evaluate_calls": "count",
    "tuning.sims_per_evaluate_call": "sims/call",
    "core.steps": "count",
    "core.resets": "count",
    "moo.archive.add_calls": "count",
    "moo.archive.accept_ratio": "ratio",
    "moo.archive.sample_calls": "count",
    "core.ipc_messages_per_eval": "msgs/eval",
    "core.worker_cpu_util": "ratio",
    "trace.overhead": "ratio",
}


def layer_metric_names() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    out: dict[str, str] = {}
    for timing in TIMINGS:
        out[f"{timing}.p50"] = "ms"
        out[f"{timing}.tail"] = "ms"
        out[f"{timing}.n"] = "count"
    out.update(SCALARS)
    return out


def fallback_key(sim) -> str:
    """The ``manet.fallback.<key>`` a pure-path simulator counts under."""
    reason = sim.compiled_reason or ""
    if reason.startswith("unsupported mobility model"):
        key = "mobility_" + sim.scenario.mobility_model.replace("-", "_")
        if key in FALLBACK_KEYS:
            return key
    return "other"


# --------------------------------------------------------------------- #
def _after_sim_run(tracer: Tracer, args, _result) -> None:
    sim = args[0]
    tracer.count("manet.sims")
    if sim.compiled_active:
        tracer.count("manet.sims_compiled")
    else:
        tracer.count(f"manet.fallback.{fallback_key(sim)}")
    tracer.count("manet.events", sim.queue.fired)
    tracer.count("manet.frames", sim.medium.transmission_count)


def _after_arena_create(tracer: Tracer, _args, arena) -> None:
    if arena is not None:
        tracer.count("manet.arena_bytes", arena.nbytes())


def _after_cache_open(tracer: Tracer, args, _result) -> None:
    tracer.count("tuning.cache_entries_loaded", len(args[0]))


def _after_archive_add(tracer: Tracer, _args, accepted) -> None:
    if accepted:
        tracer.count("moo.archive.accepted")


_MISSING = object()


class _KernelProxy:
    """The ``_evcore`` module with ``run_window`` traced."""

    def __init__(self, ext, run_window):
        self._ext = ext
        self.run_window = run_window

    def __getattr__(self, name):
        return getattr(self._ext, name)


class Instrumentation:
    """Installs and removes the traced wrappers (one tracer per install)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        # _MISSING: the attribute was inherited; undo deletes the override.
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        wrapped = self.tracer.wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _method(self, cls, attr: str, name: str, after=None,
                count_only: bool = False) -> None:
        original = cls.__dict__.get(attr) or getattr(cls, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self.tracer.wrap(original.__func__, name, after))
        elif count_only:
            wrapped = self.tracer.counting(original, name)
        else:
            wrapped = self.tracer.wrap(original, name, after)
        self._set(cls, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary and enable the tracer."""
        from repro.campaigns.store import ResultStore
        from repro.core import localsearch
        from repro.core.localsearch import LocalSearchProcedure
        from repro.manet import compiled, runtime
        from repro.manet.beacons import NeighborTables
        from repro.manet.runtime import ScenarioRuntime
        from repro.manet.shared import SharedRuntimeArena
        from repro.manet.simulator import BroadcastSimulator
        from repro.moo.archive.adaptive_grid import AdaptiveGridArchive
        from repro.tuning.cache import PersistentEvaluationCache
        from repro.tuning.evaluation import NetworkSetEvaluator
        from repro.utils.flags import Flag

        # manet
        self._method(BroadcastSimulator, "__init__", "manet.sim_construct")
        self._method(BroadcastSimulator, "run", "manet.sim_run",
                     after=_after_sim_run)
        self._function(compiled, "execute_compiled_run", "manet.compiled_run")
        ext = compiled._resolve_extension()[0]
        if ext is not None:
            self._set(compiled, "_STATE", (
                _KernelProxy(ext, self.tracer.wrap(ext.run_window,
                                                   "manet.kernel")),
                None,
            ))
        self._method(NeighborTables, "beacon_round", "manet.beacon_round")
        self._function(runtime, "run_beacon_schedule",
                       "manet.beacon_schedule")
        self._method(ScenarioRuntime, "__init__", "manet.runtime_build")
        self._method(SharedRuntimeArena, "create", "manet.arena_create",
                     after=_after_arena_create)
        # utils: every registered-flag environment read goes through here
        self._method(Flag, "read", "utils.flag_reads", count_only=True)
        # tuning
        self._method(NetworkSetEvaluator, "evaluate", "tuning.evaluate")
        self._method(NetworkSetEvaluator, "evaluate_many",
                     "tuning.evaluate_many")
        self._method(PersistentEvaluationCache, "__init__",
                     "tuning.cache_open", after=_after_cache_open)
        self._method(PersistentEvaluationCache, "get_metrics",
                     "tuning.persistent_get")
        self._method(PersistentEvaluationCache, "put_metrics",
                     "tuning.persistent_put")
        # campaigns
        self._method(ResultStore, "write_cell", "campaigns.store_write")
        # core / moo
        self._method(LocalSearchProcedure, "step", "core.step")
        self._function(localsearch, "drain_population", "core.reset")
        self._method(AdaptiveGridArchive, "add", "moo.archive.add",
                     after=_after_archive_add)
        self._method(AdaptiveGridArchive, "sample", "moo.archive.sample")
        self.tracer.enabled = True

    def uninstall(self) -> None:
        """Disable the tracer and restore every original."""
        self.tracer.enabled = False
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


# --------------------------------------------------------------------- #
def _ms(seconds) -> np.ndarray:
    return np.asarray(seconds, dtype=float) * 1e3


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(trace: Trace, ctx: dict, cache_trace: Trace | None = None
                  ) -> dict[str, float]:
    """The per-layer table from one traced pass.

    ``ctx`` carries what the trace cannot know: ``main_pid``,
    ``workers``, ``nproc``, ``traced_run_s`` (summed over traced runs),
    ``overhead`` (median traced ÷ untraced time of one pair's inputs),
    ``evaluations`` and
    ``archive_messages`` (traced runs), ``children_cpu_s`` and
    ``untraced_run_s`` (untraced runs of the pass), ``cell_ms``
    (completion intervals from the campaign's progress callback),
    ``store_bytes`` / ``sidecar_bytes``.  ``cache_trace`` is the traced
    re-run of a campaign from its warm sidecar.
    """
    c = trace.counts
    sims = c.get("manet.sims", 0)
    timings: dict[str, np.ndarray] = {}

    # Self time of a span is its duration minus its direct children's
    # (``Trace.child_sums``); the kernel has no traced children.
    kernel = trace.of("manet.kernel")
    compiled_run = trace.of("manet.compiled_run")
    timings["manet.kernel_ms_per_sim"] = _ms(kernel)
    timings["manet.shell_ms_per_sim"] = _ms(
        compiled_run - trace.child_sums("manet.compiled_run", "manet.kernel"))
    timings["manet.sim_construct_ms"] = _ms(trace.of("manet.sim_construct"))
    sim_run = trace.of("manet.sim_run")
    compiled_sims = trace.child_sums("manet.sim_run", "manet.compiled_run") > 0
    # Warm rounds: the beacon rounds a compiled simulation replays before
    # its kernel call, i.e. direct children of its run span (the
    # writeback replays the window's rounds further down).
    timings["manet.warm_rounds_ms"] = _ms(trace.child_sums(
        "manet.sim_run", "manet.beacon_round")[compiled_sims])
    # A fallback simulation runs the beacon schedule, then the broadcast
    # window in Python over the event queue (a C type when the extension
    # is loaded, so its run_until cannot be wrapped): the window is the
    # run minus the schedule.
    schedule = trace.child_sums("manet.sim_run", "manet.beacon_schedule")
    timings["manet.pure_window_ms"] = _ms(
        (sim_run - schedule)[schedule > 0])
    timings["manet.runtime_build_ms"] = _ms(trace.of("manet.runtime_build"))
    timings["manet.arena_create_ms"] = _ms(trace.of("manet.arena_create"))
    timings["campaigns.cell_ms"] = np.asarray(ctx.get("cell_ms", []), float)
    timings["campaigns.store_write_ms"] = _ms(
        trace.of("campaigns.store_write"))
    gets = [trace.of("tuning.persistent_get")]
    if cache_trace is not None:
        gets.append(cache_trace.of("tuning.persistent_get"))
    timings["tuning.persistent_put_ms"] = _ms(
        trace.of("tuning.persistent_put"))
    timings["tuning.persistent_get_ms"] = _ms(np.concatenate(gets))
    # Evaluator calls: batches, and single calls outside a batch (the
    # base evaluate_many loops over evaluate, which is not another call).
    evaluate = np.concatenate([
        trace.not_under("tuning.evaluate", "tuning.evaluate_many"),
        trace.of("tuning.evaluate_many"),
    ])
    timings["tuning.evaluate_ms"] = _ms(evaluate)
    timings["core.step_self_ms"] = _ms(
        trace.of("core.step")
        - trace.child_sums("core.step", "tuning.evaluate")
        - trace.child_sums("core.step", "tuning.evaluate_many"))
    timings["moo.archive.add_ms"] = _ms(trace.of("moo.archive.add"))

    out: dict[str, float] = {}
    for name in TIMINGS:
        summary = summarize(timings[name])
        out[f"{name}.p50"] = summary.p50
        out[f"{name}.tail"] = summary.tail
        out[f"{name}.n"] = summary.n

    sim_total = sim_run.sum()
    worker = trace.pids != ctx["main_pid"]
    worker_sim_s = trace.durations[trace.mask("manet.sim_run") & worker].sum()
    add_calls = len(trace.of("moo.archive.add"))
    evaluate_calls = len(evaluate)
    cache_open_s = (
        cache_trace.of("tuning.cache_open").sum() if cache_trace else 0.0)
    cache_entries = (
        cache_trace.counts.get("tuning.cache_entries_loaded", 0)
        if cache_trace else 0)
    out.update({
        "manet.sims": sims,
        "manet.kernel_share": _ratio(kernel.sum(), sim_total),
        "manet.compiled_share": _ratio(c.get("manet.sims_compiled", 0), sims),
        **{
            f"manet.fallback.{key}": c.get(f"manet.fallback.{key}", 0)
            for key in FALLBACK_KEYS
        },
        "manet.events_per_sim": _ratio(c.get("manet.events", 0), sims),
        "manet.frames_per_sim": _ratio(c.get("manet.frames", 0), sims),
        "manet.runtime_builds": len(trace.of("manet.runtime_build")),
        "manet.arena_bytes": c.get("manet.arena_bytes", 0),
        "utils.flag_reads_per_sim": _ratio(c.get("utils.flag_reads", 0), sims),
        "campaigns.pool_worker_util": _ratio(
            worker_sim_s, ctx["workers"] * ctx["traced_run_s"]),
        "campaigns.store_bytes": ctx.get("store_bytes", 0),
        "campaigns.sidecar_bytes": ctx.get("sidecar_bytes", 0),
        "tuning.cache_read_ms_per_entry": _ratio(
            cache_open_s * 1e3, cache_entries),
        "tuning.evaluate_calls": evaluate_calls,
        "tuning.sims_per_evaluate_call": _ratio(sims, evaluate_calls),
        "core.steps": len(trace.of("core.step")),
        "core.resets": len(trace.of("core.reset")),
        "moo.archive.add_calls": add_calls,
        "moo.archive.accept_ratio": _ratio(
            c.get("moo.archive.accepted", 0), add_calls),
        "moo.archive.sample_calls": len(trace.of("moo.archive.sample")),
        "core.ipc_messages_per_eval": _ratio(
            ctx.get("archive_messages", 0), ctx.get("evaluations", 0)),
        "core.worker_cpu_util": _ratio(
            ctx.get("children_cpu_s", 0.0),
            ctx["nproc"] * ctx.get("untraced_run_s", 0.0)),
        "trace.overhead": ctx["overhead"],
    })
    return {k: float(v) for k, v in out.items()}
