"""Compiled evaluation computes its metrics straight from the kernel.

A compiled ``BroadcastSimulator.run()`` returns the metrics from the
kernel's outputs and builds the pure path's objects (queue, neighbour
tables, medium, protocol, frames) only when a caller reads them
(DESIGN.md §14).  These tests guard that saving on the evaluator's hot
path and check that one-shot runs (``simulate_broadcast``, the CLI's
``simulate``) attach the shared runtime and so run compiled too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.manet import AEDBParams, make_scenarios
from repro.manet.aedb import AEDBProtocol
from repro.manet.beacons import NeighborTables
from repro.manet.medium import Frame, RadioMedium
from repro.manet.runtime import get_runtime
from repro.manet.simulator import BroadcastSimulator, simulate_broadcast
from repro.tuning import NetworkSetEvaluator

PARAMS = (
    AEDBParams(),
    AEDBParams(0.0, 0.0, -70.0, 0.0, 0.0),
    AEDBParams(0.9, 4.5, -95.0, 3.0, 45.0),
)


def metric_bytes(metrics) -> bytes:
    return np.array(metrics.as_tuple() + (float(metrics.n_nodes),)).tobytes()


def count_constructions(monkeypatch, classes) -> dict[str, int]:
    """Count ``__init__`` calls of each class from now on."""
    counts = {cls.__name__: 0 for cls in classes}
    for cls in classes:
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__,
                     **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.compiled
def test_evaluate_builds_no_object_graph(monkeypatch):
    scenarios = make_scenarios(
        100, n_networks=3, master_seed=21, n_nodes=20,
        mobility_model="random-walk",
    )
    for scenario in scenarios:
        get_runtime(scenario)  # the precompute replays real tables
    monkeypatch.setenv("REPRO_COMPILED", "auto")
    counts = count_constructions(
        monkeypatch, (AEDBProtocol, NeighborTables, RadioMedium, Frame)
    )
    compiled = [NetworkSetEvaluator(scenarios).evaluate(p) for p in PARAMS]
    assert counts == {
        "AEDBProtocol": 0, "NeighborTables": 0, "RadioMedium": 0, "Frame": 0,
    }

    monkeypatch.setenv("REPRO_COMPILED", "off")
    reference = [NetworkSetEvaluator(scenarios).evaluate(p) for p in PARAMS]
    assert counts["AEDBProtocol"] == len(PARAMS) * len(scenarios)
    assert [metric_bytes(m) for m in compiled] == [
        metric_bytes(m) for m in reference
    ]


@pytest.mark.compiled
def test_reading_an_object_builds_the_graph_once(monkeypatch):
    scenario = make_scenarios(100, n_networks=1, master_seed=4, n_nodes=16)[0]
    sim = BroadcastSimulator(
        scenario, AEDBParams(), runtime=get_runtime(scenario), compiled="auto"
    )
    sim.run()
    assert sim.compiled_active, sim.compiled_reason
    counts = count_constructions(monkeypatch, (AEDBProtocol, RadioMedium))
    queue = sim.queue
    assert counts == {"AEDBProtocol": 1, "RadioMedium": 1}
    assert sim.protocol._queue is queue
    assert sim.medium.transmission_count >= 1
    assert counts == {"AEDBProtocol": 1, "RadioMedium": 1}
    with pytest.raises(AttributeError, match="no_such_attribute"):
        sim.no_such_attribute


def test_simulate_broadcast_attaches_the_shared_runtime(monkeypatch):
    scenario = make_scenarios(100, n_networks=1, master_seed=9, n_nodes=14)[0]
    runtimes = []
    original = BroadcastSimulator.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        runtimes.append(self.runtime)

    monkeypatch.setattr(BroadcastSimulator, "__init__", recording)
    metrics = simulate_broadcast(scenario, AEDBParams())
    assert runtimes == [get_runtime(scenario)]
    # An explicit protocol seed keeps the runtime-less path.
    simulate_broadcast(scenario, AEDBParams(), protocol_seed=5)
    assert runtimes[-1] is None
    reference = BroadcastSimulator(scenario, AEDBParams(), compiled="off").run()
    assert metric_bytes(metrics) == metric_bytes(reference)


@pytest.mark.compiled
def test_cli_simulate_runs_compiled(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_COMPILED", "auto")
    ran = []
    original = BroadcastSimulator.run

    def recording(self):
        ran.append((self.compiled_active, self.compiled_reason))
        return original(self)

    monkeypatch.setattr(BroadcastSimulator, "run", recording)
    assert main(["simulate", "--density", "100", "--network", "0"]) == 0
    assert ran == [(True, None)]
    assert "metrics:" in capsys.readouterr().out
