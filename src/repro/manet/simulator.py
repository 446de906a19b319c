"""End-to-end broadcast simulation (the ns3 run of the paper's Sect. V).

One :class:`BroadcastSimulator` runs one AEDB configuration on one
:class:`~repro.manet.scenarios.NetworkScenario`:

1. the mobility trace evolves from t = 0;
2. HELLO beacons fire every second, warming the neighbour tables;
3. at ``warmup_s`` (30 s) the scenario's source node injects the broadcast;
4. the AEDB state machines react to deliveries through the shared medium;
5. at ``horizon_s`` (40 s) the run stops and the four metrics are read out.

Determinism: all randomness (mobility, protocol delays, MAC jitter) is
derived from the scenario seed, so ``run()`` is a pure function of
``(scenario, params)`` — the property the optimiser's fitness relies on.

Passing a :class:`~repro.manet.runtime.ScenarioRuntime` swaps the
parameter-independent substrate (beacon-table timeline, position
snapshots, path-loss model) for its precomputed form: evaluation #2..#N
of different parameters on the same network pays zero beacon cost, and
the metrics are bit-identical to the recompute path (DESIGN.md §8).

With a runtime (and the default protocol seed), the broadcast window
runs through the compiled kernel where the run shape allows
(DESIGN.md §14).  ``run()`` then reads the metrics straight from the
kernel's outputs, and the simulation's objects (``queue``, ``tables``,
``medium``, ``protocol``) are built only when a caller first reads one,
holding exactly the state the pure path leaves.
"""

from __future__ import annotations

import numpy as np

from repro.manet.aedb import AEDBParams, AEDBProtocol
from repro.manet.beacons import NeighborTables
from repro.manet.compiled import (
    KernelOutputs,
    compiled_core_available,
    compiled_core_reason,
    execute_compiled_run,
    precondition_blocker,
    resolve_compiled_mode,
    write_back,
)
from repro.manet.config import SimulationConfig
from repro.manet.events import EventQueue, make_event_queue
from repro.manet.medium import Frame, RadioMedium
from repro.manet.metrics import BroadcastMetrics, broadcast_metrics
from repro.manet.mobility import MobilityModel
from repro.manet.runtime import (
    ScenarioRuntime,
    get_runtime,
    resolve_mobility,
    run_beacon_schedule,
)
from repro.manet.scenarios import NetworkScenario
from repro.telemetry import MODE_DEEP, MODE_OFF, get_recorder, telemetry_mode

__all__ = ["BroadcastSimulator", "simulate_broadcast"]


#: The pure path's object graph, which a compiled simulator builds on
#: first read (see :meth:`BroadcastSimulator.__getattr__`).
_GRAPH_ATTRS = frozenset({"queue", "tables", "medium", "protocol"})


class BroadcastSimulator:
    """Single-message AEDB dissemination experiment."""

    #: The simulation's objects.  A pure-path simulator builds them at
    #: construction; a compiled one builds them on first read.
    queue: EventQueue
    tables: NeighborTables
    medium: RadioMedium
    protocol: AEDBProtocol

    def __init__(
        self,
        scenario: NetworkScenario,
        params: AEDBParams,
        protocol_seed: int | None = None,
        mobility: MobilityModel | None = None,
        runtime: ScenarioRuntime | None = None,
        record_decisions: bool = False,
        compiled: bool | str | None = None,
    ):
        """``record_decisions`` opts into the protocol's per-event decision
        log (off by default: evaluation loops never read it and the
        per-event formatting is measurable).  ``compiled`` overrides
        ``REPRO_COMPILED`` (``auto``/``on``/``off`` or a bool) for the
        compiled event core of DESIGN.md §14; the decision is captured
        here, so toggling the env var between construction and
        :meth:`run` has no effect."""
        self.scenario = scenario
        self.params = params
        self._sim: SimulationConfig = scenario.sim
        self.runtime = runtime
        self._mobility = resolve_mobility(scenario, mobility, runtime)
        # Protocol randomness is keyed off the scenario so evaluation is a
        # pure function of (scenario, params).  For the default seed the
        # runtime replays the precomputed raw uniform stream (bit-identical
        # draws, no per-run generator construction).
        if runtime is not None and protocol_seed is None:
            self._protocol_rng = runtime.protocol_uniform_stream()
        else:
            seed = (
                protocol_seed
                if protocol_seed is not None
                else (scenario.mobility_seed ^ 0x5EDB) & 0xFFFFFFFF
            )
            self._protocol_rng = np.random.default_rng(seed)
        self._record_decisions = record_decisions
        self._ran = False
        #: Kernel outputs of a compiled run (None until it has run).
        self._kernel_out: KernelOutputs | None = None
        # Captured once: the off path pays one test per run, never a
        # per-event recorder call (DESIGN.md §12).
        self._telemetry = telemetry_mode()

        self._compiled_mode = resolve_compiled_mode(compiled)
        if self._compiled_mode == "on" and not compiled_core_available():
            raise RuntimeError(
                "compiled=on but the compiled event core is unavailable: "
                f"{compiled_core_reason()}"
            )
        # Compiled-core dispatch (DESIGN.md §14), decided once per
        # simulator: the fallback ladder is extension availability →
        # arithmetic self-check → run-shape preconditions.  ``on`` only
        # asserts the toolchain (checked above); unsupported shapes fall
        # back with the reason recorded (and counted, see run()).
        #: True when :meth:`run` will execute through the compiled kernel.
        self.compiled_active = False
        #: Why the compiled core is not in use (None when it is).
        self.compiled_reason: str | None = None
        if self._compiled_mode == "off":
            self.compiled_reason = "disabled (REPRO_COMPILED=off)"
        elif not compiled_core_available():
            self.compiled_reason = compiled_core_reason()
        else:
            self.compiled_reason = precondition_blocker(self)
            self.compiled_active = self.compiled_reason is None
        self._graph_built = False
        if not self.compiled_active:
            self._build_graph()

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails: a compiled simulator
        # whose objects nobody has read yet.
        if name in _GRAPH_ATTRS and self.__dict__.get("_graph_built") is False:
            self._build_graph()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _build_graph(self) -> None:
        """Construct the queue, tables, medium and protocol.

        After a compiled run, the objects then take the run's end state
        (:func:`~repro.manet.compiled.write_back`).
        """
        runtime = self.runtime
        self.queue = make_event_queue(self._compiled_mode)
        self.tables = NeighborTables(
            self.scenario.n_nodes, self._sim, self._mobility, runtime=runtime
        )
        self.medium = RadioMedium(
            self.queue, self._mobility, self._sim.radio, self._deliver,
            runtime=runtime,
        )
        self.protocol = AEDBProtocol(
            params=self.params,
            n_nodes=self.scenario.n_nodes,
            queue=self.queue,
            tables=self.tables,
            radio=self._sim.radio,
            transmit=self._transmit,
            rng=self._protocol_rng,
            mac_jitter_s=self._sim.mac_jitter_s,
            record_decisions=self._record_decisions,
        )
        self._graph_built = True
        if self._kernel_out is not None:
            write_back(self, self._kernel_out)

    # -- wiring ---------------------------------------------------------- #
    def _deliver(self, receiver: int, frame: Frame, rx_dbm: float, t: float) -> None:
        self.protocol.on_receive(receiver, frame.sender, rx_dbm, t)

    def _transmit(self, sender: int, power_dbm: float, t: float) -> None:
        # Protocol asks for a transmission "now" (or now + jitter); the
        # medium schedules the frame-end resolution on the queue.
        now = self.queue.now
        if t <= now:
            self.medium.transmit(sender, power_dbm, now)
        else:
            self.queue.post(
                t, lambda fire_t, s=sender, p=power_dbm: self.medium.transmit(s, p, fire_t)
            )

    # -- execution ------------------------------------------------------- #
    def run(self) -> BroadcastMetrics:
        """Execute the experiment once and return its metrics."""
        if self._ran:
            raise RuntimeError("BroadcastSimulator instances are single-use")
        self._ran = True
        sim = self._sim
        n_nodes = self.scenario.n_nodes
        rec = get_recorder()

        with rec.span("sim.run", n_nodes=n_nodes):
            # Warm-up and in-window beacons on the canonical integer-indexed
            # grid (shared with ScenarioRuntime, so precomputed snapshots and
            # the live schedule agree exactly).  The grid starts just early
            # enough to fully warm the tables: entries older than
            # ``neighbor_expiry_s`` at broadcast time can never influence a
            # query (identical semantics, ~3x fewer pairwise-loss matrices).
            if self.compiled_active:
                # Compiled core (DESIGN.md §14): the kernel starts from
                # the runtime's post-warm tables and runs the whole
                # broadcast window — window beacons, frames, timers,
                # deliveries — in one call.  Metrics come straight from
                # its outputs; the objects are built only if read.
                with rec.span("sim.beacon_schedule"):
                    pass  # the warm rounds are the runtime's post-warm tables
                with rec.span("sim.broadcast_window"):
                    out = self._kernel_out = execute_compiled_run(self)
                    if self._graph_built:  # objects read before the run
                        write_back(self, out)
                first_rx, n_frames, energy = out.first_rx, out.n_frames, out.energy
                fired, resolved = out.fired, out.n_resolved
            else:
                with rec.span("sim.beacon_schedule"):
                    run_beacon_schedule(sim, self.runtime, self.tables, self.queue)

                self.protocol.start_broadcast(self.scenario.source, sim.warmup_s)
                with rec.span("sim.broadcast_window"):
                    self.queue.run_until(sim.horizon_s)
                medium = self.medium
                first_rx = self.protocol.first_rx_time
                n_frames, energy = medium.transmission_count, medium.energy_dbm_total()
                fired, resolved = self.queue.fired, medium.resolved_count
            metrics = broadcast_metrics(
                first_rx, self.scenario.source, n_frames, energy,
                sim.warmup_s, n_nodes,
            )
        if self._telemetry == MODE_DEEP:
            # Fine-grained readout: totals kept as plain ints on the warm
            # path (the kernel's counter block on the compiled one),
            # shipped as counters once per run — zero recorder traffic
            # inside the event loop.
            rec.count("sim.events_fired", fired)
            rec.count("sim.frames_transmitted", n_frames)
            rec.count("sim.frames_resolved", resolved)
            rec.count("sim.runs")
        if self._telemetry != MODE_OFF and not self.compiled_active:
            # Loud fallback: every pure-path run says why it did not run
            # compiled (DESIGN.md §14) — one counter per simulation.
            rec.count("sim.compiled_fallback", reason=self.compiled_reason)
        return metrics


def simulate_broadcast(
    scenario: NetworkScenario,
    params: AEDBParams,
    protocol_seed: int | None = None,
    runtime: ScenarioRuntime | None = None,
) -> BroadcastMetrics:
    """Convenience wrapper: build, run, and return the metrics.

    Without a runtime or an explicit ``protocol_seed``, the scenario's
    shared runtime (:func:`~repro.manet.runtime.get_runtime`) is
    attached, so a one-shot run takes the compiled core where it
    applies; the metrics are the same either way.
    """
    if runtime is None and protocol_seed is None:
        runtime = get_runtime(scenario)
    return BroadcastSimulator(
        scenario, params, protocol_seed=protocol_seed, runtime=runtime
    ).run()
