"""Compiled event-core selection, marshalling, and writeback.

This module is the Python half of ``repro.manet._evcore`` (DESIGN.md
§14).  It decides whether the compiled core may run (the fallback
ladder) and runs one :class:`~repro.manet.simulator.BroadcastSimulator`'s
broadcast window through the kernel.  Everything that depends only on
the scenario runtime — the post-warm neighbour tables, the window
snapshots, the mobility arrays, the radio constants — is packed once
per runtime into a :class:`CompiledPlan`; a run fills the five
parameter slots and hands the kernel fresh output arrays.

The kernel's outputs (:class:`KernelOutputs`) are enough for the
metrics and the telemetry counters, so evaluation builds no simulator
objects.  :func:`write_back` turns them into the pure path's object
state (protocol arrays and phases, decision log, frame history, medium
counters, neighbour tables, queue clock and pending events) when a
caller first reads the simulator's objects, byte for byte what the
pure-Python reference leaves.

Selection (``REPRO_COMPILED``, overridable per simulator via the
``compiled=`` argument):

* ``auto`` (default) — use the compiled core when the extension imports,
  its arithmetic self-check passes, and the run shape is supported;
  otherwise fall back silently (``sim.compiled_reason`` says why).
* ``on`` — require the extension: raise at simulator construction if it
  cannot be imported or fails the self-check.  Unsupported run shapes
  still fall back (the pure path is the reference; ``on`` asserts the
  *toolchain*, not the workload).
* ``off`` — pure Python everywhere (the reference path).

The fallback ladder, in order: extension import → ``probe_ops``
arithmetic self-check (sqrt / FMA-contraction canary / floored-mod
replica vs numpy) → per-run preconditions (runtime attached, replay RNG
stream, log-distance path loss, static or random-walk mobility).  Every
rung lands on the pure path with a human-readable reason.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.manet.aedb import AEDBNodeState
from repro.manet.medium import Frame
from repro.manet.mobility import RandomWalkMobility, StaticMobility
from repro.manet.propagation import LogDistancePathLoss
from repro.manet.runtime import UniformStream
from repro.utils import flags

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.manet.simulator import BroadcastSimulator

__all__ = [
    "CompiledPlan",
    "KernelOutputs",
    "compiled_core_available",
    "compiled_core_reason",
    "compiled_plan",
    "execute_compiled_run",
    "precondition_blocker",
    "resolve_compiled_mode",
    "write_back",
]

#: Lazily-resolved (extension module | None, reason | None).
_STATE: tuple[object, str | None] | None = None

_MODES = ("auto", "on", "off")


def resolve_compiled_mode(override=None) -> str:
    """The effective compiled-core mode: ``auto`` | ``on`` | ``off``.

    ``override`` is the simulator's ``compiled=`` argument: ``None``
    defers to ``REPRO_COMPILED`` (default ``auto``); a bool maps to
    ``on``/``off``; a string names a mode directly.
    """
    if override is None:
        mode = (flags.read_raw("REPRO_COMPILED") or "auto").strip().lower() or "auto"
    elif isinstance(override, str):
        mode = override.strip().lower()
    else:
        mode = "on" if override else "off"
    if mode not in _MODES:
        raise ValueError(
            f"REPRO_COMPILED/compiled= must be one of {_MODES}, got {mode!r}"
        )
    return mode


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.tobytes() == b.tobytes()


def _self_check(ext) -> str | None:
    """Verify the extension's native arithmetic against numpy, bitwise.

    The kernel's identity argument (DESIGN.md §14) rests on C sqrt and
    the IEEE basics matching numpy exactly, on the compiler not having
    contracted ``a*a + b*b`` into an FMA, and on the floored-mod replica
    of ``np.mod`` used by the mobility fold.  A host where any of these
    fails (exotic libm, forced -ffast-math, FMA contraction) must land
    on the pure path, not produce subtly different metrics.
    """
    rng = np.random.default_rng(0x5EDB)
    a = rng.uniform(0.5, 1200.0, 257)
    b = rng.uniform(0.5, 1200.0, 257)
    out = np.empty(257)
    ext.probe_ops(0, a, b, out)
    if not _bits_equal(out, np.sqrt(a)):
        return "self-check failed: sqrt differs from numpy"
    ext.probe_ops(1, a, b, out)
    if not _bits_equal(out, np.add(np.multiply(a, a), np.multiply(b, b))):
        return "self-check failed: FMA-contraction canary tripped"
    signed = a - 600.0  # negatives exercise the floored-mod adjustment
    period = np.full(257, 713.0)
    ext.probe_ops(2, signed, period, out)
    if not _bits_equal(out, np.mod(signed, period)):
        return "self-check failed: floored mod differs from np.mod"
    return None


def _resolve_extension() -> tuple[object, str | None]:
    global _STATE
    if _STATE is None:
        try:
            from repro.manet import _evcore
        except ImportError as exc:
            _STATE = (None, f"extension not built ({exc})")
        else:
            reason = _self_check(_evcore)
            _STATE = (None, reason) if reason else (_evcore, None)
    return _STATE


def compiled_core_available() -> bool:
    """True when the extension imports and passes its self-check."""
    return _resolve_extension()[0] is not None


def compiled_core_reason() -> str | None:
    """Why the compiled core is unavailable (None when it is usable)."""
    return _resolve_extension()[1]


def precondition_blocker(sim: "BroadcastSimulator") -> str | None:
    """First unsupported-run-shape reason, or None if the kernel applies.

    The kernel covers exactly the warm evaluation path the campaign and
    tuning layers run: a :class:`ScenarioRuntime` substrate, the replay
    RNG stream, the log-distance model, and a static or random-walk
    trace.  Anything else is the pure path's job.
    """
    if sim.runtime is None:
        return "no ScenarioRuntime attached"
    if type(sim._protocol_rng) is not UniformStream:
        return "protocol rng is not the runtime's replay stream"
    # ``type is`` (not isinstance): a subclass overriding loss_db must
    # not be silently replaced by the kernel's inlined log-distance.
    if type(sim.runtime.path_loss) is not LogDistancePathLoss:
        return "path-loss model is not plain log-distance"
    if type(sim._mobility) not in (StaticMobility, RandomWalkMobility):
        return f"unsupported mobility model {type(sim._mobility).__name__}"
    if not sim.runtime.window_times:
        return "runtime has no in-window beacon ticks"
    return None


# --------------------------------------------------------------------- #
# marshalling                                                           #
# --------------------------------------------------------------------- #

# fparams/iparams slot order — must match the enums in _evcore.c.
_N_FPARAMS = 21
_N_IPARAMS = 8
_N_COUNTS = 5
#: The five fparams slots a run's AEDBParams fill; every other slot is
#: fixed by the runtime.
_FP_BORDER, _FP_DELAY_LO, _FP_DELAY_HI, _FP_NBR_THRESHOLD, _FP_MARGIN = (
    range(11, 16)
)
#: The two per-run iparams slots.
_IP_RECORD, _IP_RNG_OFFSET = 3, 7

#: Decision-kind codes emitted by the kernel, formatted here with the
#: exact f-strings of :class:`~repro.manet.aedb.AEDBProtocol`.
_DECISION_SOURCE = 0
_DECISION_DROP_FIRST = 1
_DECISION_ARM = 2
_DECISION_DROP_TIMER = 3
_DECISION_FORWARD = 4


class CompiledPlan:
    """Everything a compiled run needs that depends only on the runtime.

    Built once per :class:`~repro.manet.runtime.ScenarioRuntime`, on its
    first compiled run, and cached on it.  The kernel starts from the
    post-warm neighbour tables (the snapshot after the last warm-up
    round, exactly what replaying the warm rounds leaves), takes the
    window snapshots read-only, and reads the mobility arrays; a run
    only fills the parameter slots of copies of the two param vectors.
    The two scratch vectors are the kernel's bridge into numpy's own
    ``log10``/``power`` ufuncs and are reused by every run.
    """

    __slots__ = (
        "fparams", "iparams", "doubles", "start_tables", "window_times",
        "win_rx", "win_seen", "mobility_arrays", "scratch_a", "scratch_b",
        "all_nan", "all_minus_inf", "decisions_scratch",
    )

    def __init__(self, runtime) -> None:
        scenario = runtime.scenario
        cfg = runtime.sim
        radio = cfg.radio
        loss = runtime.path_loss
        mobility = runtime.mobility
        n = scenario.n_nodes
        # The kernel's (static_pos, walk_starts, walk_vel, walk_neg).
        if type(mobility) is RandomWalkMobility:
            mob_mode = 1
            n_epochs = int(mobility._n_epochs)
            epoch_s = float(mobility._epoch_s)
            fold_one = 1 if mobility._fold_is_one_period else 0
            self.mobility_arrays = (None, mobility._starts, mobility._vel,
                                    mobility._epoch_has_negative)
        else:  # StaticMobility (precondition-checked)
            mob_mode, n_epochs, epoch_s, fold_one = 0, 1, 1.0, 0
            self.mobility_arrays = (mobility._pos, None, None, None)
        self.window_times = np.asarray(runtime.window_times, dtype=np.float64)
        # Radio and protocol constants with the expressions
        # RadioMedium.__init__ and AEDBProtocol.__init__ hoist; the five
        # parameter slots are filled per run.
        self.fparams = np.array(
            [
                cfg.warmup_s,
                cfg.horizon_s,
                float(radio.frame_airtime_s),
                float(radio.detection_threshold_dbm),
                10.0 ** (radio.capture_threshold_db / 10.0),
                float(radio.min_tx_power_dbm),
                float(radio.default_tx_power_dbm),
                float(radio.default_tx_power_dbm),
                float(loss.reference_distance_m),
                float(loss.reference_loss_db),
                10.0 * loss.exponent,
                np.nan, np.nan, np.nan, np.nan, np.nan,
                float(radio.detection_threshold_dbm),
                float(cfg.mac_jitter_s),
                float(cfg.neighbor_expiry_s),
                epoch_s,
                float(mobility.area_side_m),
            ],
            dtype=np.float64,
        )
        assert self.fparams.size == _N_FPARAMS
        self.iparams = np.array(
            [n, scenario.source, len(self.window_times), 0, mob_mode,
             n_epochs, fold_one, 0],
            dtype=np.int64,
        )
        assert self.iparams.size == _N_IPARAMS
        self.doubles = np.asarray(runtime.protocol_doubles, dtype=np.float64)
        self.start_tables = (
            runtime.table_snapshot(runtime.warm_times[-1])
            if runtime.warm_times else runtime.initial_tables
        )
        snaps = [runtime.table_snapshot(t) for t in runtime.window_times]
        self.win_rx = tuple(s[0] for s in snaps)
        self.win_seen = tuple(s[1] for s in snaps)
        self.scratch_a = np.empty(n)
        self.scratch_b = np.empty(n)
        #: Pristine per-node vectors a run copies (cheaper than np.full).
        self.all_nan = np.full(n, np.nan)
        self.all_minus_inf = np.full(n, -np.inf)
        #: Decision rows of runs that record none: the kernel requires
        #: the buffer but never writes it.
        self.decisions_scratch = np.empty((2 * n + 1, 4))


def compiled_plan(runtime) -> CompiledPlan:
    """The runtime's :class:`CompiledPlan`, built on first use."""
    plan = getattr(runtime, "_evcore_plan", None)
    if plan is None:
        plan = runtime._evcore_plan = CompiledPlan(runtime)
    return plan


class KernelOutputs:
    """What one kernel run leaves behind: the protocol's end-of-run
    arrays, the frame table, timer deadlines, decision rows, the counter
    block, and the total energy.

    Metrics and deep-telemetry counters read these directly;
    :func:`write_back` turns them into the pure path's object state when
    a caller first reads the simulator's objects.
    """

    __slots__ = (
        "first_rx", "strongest", "state_code", "heard_from", "frame_out",
        "timer_deadline", "decisions", "fired", "n_frames", "n_resolved",
        "n_decisions", "energy",
    )


def execute_compiled_run(sim: "BroadcastSimulator") -> KernelOutputs:
    """Run the broadcast window of ``sim`` through the kernel.

    Preconditions (:func:`precondition_blocker`) must hold.  The kernel
    starts from the runtime's post-warm tables and writes into fresh
    protocol arrays; the simulator's RNG cursor advances by the draws
    it made.  No simulator object is read or built.
    """
    ext = _resolve_extension()[0]
    assert ext is not None, "execute_compiled_run without a usable extension"

    plan = compiled_plan(sim.runtime)
    params = sim.params
    rng = sim._protocol_rng
    n = sim.scenario.n_nodes

    fparams = plan.fparams.copy()
    fparams[_FP_BORDER] = params.border_threshold_dbm
    fparams[_FP_DELAY_LO], fparams[_FP_DELAY_HI] = params.delay_interval
    fparams[_FP_NBR_THRESHOLD] = params.neighbors_threshold
    fparams[_FP_MARGIN] = params.margin_threshold_db
    iparams = plan.iparams.copy()
    iparams[_IP_RECORD] = 1 if sim._record_decisions else 0
    iparams[_IP_RNG_OFFSET] = rng._i

    out = KernelOutputs()
    out.first_rx = plan.all_nan.copy()
    out.strongest = plan.all_minus_inf.copy()
    out.state_code = np.zeros(n, dtype=np.int8)
    out.heard_from = np.zeros((n, n), dtype=bool)
    out.frame_out = np.empty((4, n))
    out.timer_deadline = plan.all_nan.copy()
    out.decisions = (np.empty((2 * n + 1, 4)) if sim._record_decisions
                     else plan.decisions_scratch)
    counts = np.zeros(_N_COUNTS, dtype=np.int64)

    out.energy = ext.run_window(
        fparams,
        iparams,
        plan.doubles,
        *plan.start_tables,
        plan.window_times,
        plan.win_rx,
        plan.win_seen,
        *plan.mobility_arrays,
        plan.scratch_a,
        plan.scratch_b,
        np.log10,
        np.power,
        out.first_rx,
        out.strongest,
        out.state_code,
        out.heard_from,
        out.frame_out,
        out.timer_deadline,
        out.decisions,
        counts,
    )
    out.fired, out.n_frames, out.n_resolved, draws, out.n_decisions = (
        counts.tolist()
    )
    rng._i += draws
    return out


def write_back(sim: "BroadcastSimulator", out: KernelOutputs) -> None:
    """Give ``sim``'s objects the end state of the kernel run ``out``.

    The objects must be fresh: nothing has run on them.  On return the
    protocol arrays, phases, decision log, frame history, medium
    counters, neighbour tables, and the queue's clock, counters and
    pending events are what a pure-Python ``run()`` leaves.
    """
    protocol = sim.protocol
    medium = sim.medium
    tables = sim.tables
    queue = sim.queue

    # -- protocol ----------------------------------------------------- #
    # Copied, not adopted: arrays a caller took before the run stay
    # the protocol's own.
    np.copyto(protocol.first_rx_time, out.first_rx)
    np.copyto(protocol.strongest_copy_dbm, out.strongest)
    np.copyto(protocol._state_code, out.state_code)
    np.copyto(protocol._heard_from, out.heard_from)
    states_by_code = (
        AEDBNodeState.IDLE,
        AEDBNodeState.WAITING,
        AEDBNodeState.DROPPED,
        AEDBNodeState.FORWARDED,
    )
    protocol.state[:] = [states_by_code[code] for code in out.state_code.tolist()]

    if protocol._record_decisions and out.n_decisions:
        append = protocol.decisions.append
        for t, node_f, kind_f, value in out.decisions[:out.n_decisions].tolist():
            kind = int(kind_f)
            if kind == _DECISION_ARM:
                label = f"arm:{value:.4f}"
            elif kind == _DECISION_FORWARD:
                label = f"forward:{value:.2f}dBm"
            elif kind == _DECISION_SOURCE:
                label = "source"
            elif kind == _DECISION_DROP_FIRST:
                label = "drop:border-first"
            else:
                label = "drop:border-timer"
            append((t, int(node_f), label))

    # -- medium ------------------------------------------------------- #
    n_frames = out.n_frames
    airtime = medium._airtime_s
    frame_out = out.frame_out
    senders = frame_out[0, :n_frames].tolist()
    powers = frame_out[1, :n_frames].tolist()
    starts = frame_out[2, :n_frames].tolist()
    flags = frame_out[3, :n_frames].tolist()
    frames = [
        Frame(
            sender=int(senders[i]),
            tx_power_dbm=powers[i],
            start_s=starts[i],
            end_s=starts[i] + airtime,
            seq=i,
        )
        for i in range(n_frames)
    ]
    medium.history.extend(frames)
    medium._active = [f for f, flag in zip(frames, flags) if flag == 1.0]
    medium._recent = [f for f, flag in zip(frames, flags) if flag == 2.0]
    medium._seq = n_frames
    medium._n_frames = n_frames
    medium._n_resolved = out.n_resolved
    medium._energy_dbm = out.energy

    # -- neighbour tables --------------------------------------------- #
    # The kernel consumed the snapshots read-only; replaying the
    # canonical rounds (warm-up and window) through the live tables is
    # O(1) snapshot swaps that land rounds_run, the timeline cursor, and
    # the current-view arrays exactly where the pure event loop leaves
    # them.
    for t in sim.runtime.beacon_times:
        tables.beacon_round(t)

    # -- event queue --------------------------------------------------- #
    # Rebuild the pending set the pure run leaves behind: in-flight
    # frame resolutions and armed timers past the horizon.  (Timers are
    # re-armed through the real scheduler so cancellation handles work.)
    for f in medium._active:
        queue.post(f.end_s, lambda t, fr=f: medium._resolve(fr, t))
    timers = protocol._timers
    for node in np.flatnonzero(out.state_code == 1).tolist():
        timers[node] = queue.schedule(
            float(out.timer_deadline[node]),
            lambda t, nd=node: protocol._on_timer(nd, t),
        )
    horizon = sim.scenario.sim.horizon_s
    try:
        queue._fired = out.fired
        queue._now = horizon
    except AttributeError:  # compiled queue: settable properties
        queue.fired = out.fired
        queue.now = horizon
