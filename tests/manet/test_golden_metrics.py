"""Golden digests of the AEDB broadcast simulation.

One committed sha1 per run pins everything a run exposes to the layers
above it: the metrics as raw IEEE-754 bytes, the protocol decision log,
the protocol RNG cursor, and the number of events the queue fired.  The
grid covers every mobility model × densities 100/300 (small networks) ×
the four corner parameter vectors of ``test_property_compiled_core.py``,
each run both with and without a :class:`ScenarioRuntime`.

The digests are independent of how a run executes: the same literal must
hold for the pure per-event path and, where it engages, for the compiled
kernel (CI's tier2-compiled step runs this file with ``_evcore`` built).
A changed digest is a changed simulation, never a refactoring detail.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.manet import MOBILITY_MODELS, AEDBParams, make_scenarios
from repro.manet.runtime import ScenarioRuntime, UniformStream
from repro.manet.simulator import BroadcastSimulator

CORNER_PARAMS = (
    AEDBParams(),
    AEDBParams(0.0, 0.0, -70.0, 0.0, 0.0),
    AEDBParams(0.0, 0.4, -78.0, 0.3, 3.0),
    AEDBParams(0.9, 4.5, -95.0, 3.0, 45.0),
)

#: Network size per density: d100 at its natural size on the 500 m
#: arena (25 nodes), d300 trimmed from 75 to 40 nodes to keep the grid
#: fast while frames still reach more receivers than at d100.
N_NODES = {100: 25, 300: 40}

CASES = [
    (model, density, k, with_runtime)
    for model in MOBILITY_MODELS
    for density in N_NODES
    for k in range(len(CORNER_PARAMS))
    for with_runtime in (False, True)
]


def case_id(case) -> str:
    model, density, k, with_runtime = case
    return f"{model}-d{density}-p{k}-{'rt' if with_runtime else 'nort'}"


def run_digest(model: str, density: int, k: int, with_runtime: bool) -> str:
    scenario = make_scenarios(
        density, n_networks=1, master_seed=11, n_nodes=N_NODES[density],
        mobility_model=model,
    )[0]
    runtime = ScenarioRuntime(scenario) if with_runtime else None
    sim = BroadcastSimulator(
        scenario, CORNER_PARAMS[k], runtime=runtime, record_decisions=True
    )
    metrics = sim.run()
    rng = sim._protocol_rng
    if type(rng) is UniformStream:
        cursor = repr(rng._i)
    else:  # a live Generator: its bit-generator state is the cursor
        cursor = repr(rng.bit_generator.state)
    h = hashlib.sha1()
    h.update(
        np.array(
            [
                metrics.coverage,
                metrics.energy_dbm,
                metrics.forwardings,
                metrics.broadcast_time_s,
                float(metrics.n_nodes),
            ],
            dtype=np.float64,
        ).tobytes()
    )
    h.update(repr(sim.protocol.decisions).encode())
    h.update(cursor.encode())
    h.update(repr(sim.queue.fired).encode())
    return h.hexdigest()


GOLDEN: dict[str, str] = {
    "random-walk-d100-p0-nort": "ccb8d3718323742a987e4747b22860e4bf1cf82b",
    "random-walk-d100-p0-rt": "8ac70af6acd58c59a4b17dd0cb41735b8abde8f2",
    "random-walk-d100-p1-nort": "a9b579cda081b4f627ed1dbdffb9365a625e287c",
    "random-walk-d100-p1-rt": "9d16854093eb10d13d9f9472c15b11dc94c6540b",
    "random-walk-d100-p2-nort": "cf3f59bb5bf7420940fca5fabc5665260a69bf68",
    "random-walk-d100-p2-rt": "ab4ab8d937d0e2223e1fe2f4c3805d146bdea311",
    "random-walk-d100-p3-nort": "151829909b054de67b9a0f393d34b173b725cffd",
    "random-walk-d100-p3-rt": "6cf237631d0c5d1c0bdbaac212b7847328407c40",
    "random-walk-d300-p0-nort": "47ef4cd7bca8db8a92014c445efc89ca40f1e840",
    "random-walk-d300-p0-rt": "b5c8dd3064afb0e17394d0c539251237ee6af080",
    "random-walk-d300-p1-nort": "80b5e03c4b82f500ffc74473bcad04b0eac04fd9",
    "random-walk-d300-p1-rt": "fd6f4e2dec55e07405922c803730d499c9f87cd1",
    "random-walk-d300-p2-nort": "e27f4932dbafede0d1a9bdd3dde2385041ca681d",
    "random-walk-d300-p2-rt": "9f5fa1d74717027f4096622c3d18c5a4a4e127dc",
    "random-walk-d300-p3-nort": "f13dabea648bc90c8acf7a5a83c8c34347378098",
    "random-walk-d300-p3-rt": "f6ac940f3290eb324c9e805dd3ae659ec26d8fa1",
    "random-waypoint-d100-p0-nort": "e1fc01d08641b03132bf92ce955ce5c1a00641bf",
    "random-waypoint-d100-p0-rt": "c325eea7eb2eb325ff2e5d9c15930e43e210034b",
    "random-waypoint-d100-p1-nort": "809de67391498d5663127286b8e526f8b73f0c44",
    "random-waypoint-d100-p1-rt": "dd40ac87f5df64f15e882f108f10e154aa592b8c",
    "random-waypoint-d100-p2-nort": "5c4b27dd67979c01ce5d1607477f9baf6968c014",
    "random-waypoint-d100-p2-rt": "0c0f32cdeec9910765e08960f4fe51ec93c2baf1",
    "random-waypoint-d100-p3-nort": "c19b50ef6439a9f47643d7219bbd3c2d82e2ba05",
    "random-waypoint-d100-p3-rt": "77124037f72823aab564f3062b596c2a357aad53",
    "random-waypoint-d300-p0-nort": "b461771bee11f3d3370fa360d228e645b35168ec",
    "random-waypoint-d300-p0-rt": "687c4d887287f52138a57d98b42e7215d6a761a4",
    "random-waypoint-d300-p1-nort": "c00e647b278f32aa6a1177dcbc9110d72782915a",
    "random-waypoint-d300-p1-rt": "fa80f8bee8a151b9f53acc8b7890473a8c81950b",
    "random-waypoint-d300-p2-nort": "008d403dac19887d64e74eb572647eca3abd9feb",
    "random-waypoint-d300-p2-rt": "896a96dd26e2313047afb4e640c5b4d6cc405a81",
    "random-waypoint-d300-p3-nort": "c04d9c690ad86fb912d0a90650bacc55930718a6",
    "random-waypoint-d300-p3-rt": "6861cdcc5f50afbdc4f80101c65071203428c5b4",
    "gauss-markov-d100-p0-nort": "641e819459246c52168d26a65a9d1b7be0d07e7a",
    "gauss-markov-d100-p0-rt": "14e6baba8d47cb84e94648a9589c9764ce66ae3f",
    "gauss-markov-d100-p1-nort": "2312718b229a5256290011b26eb29765c9f7cfaf",
    "gauss-markov-d100-p1-rt": "fcd21baba75b0e06ff1125055d2647ccf528c018",
    "gauss-markov-d100-p2-nort": "0ae2c4b8d02b7117c73d7d18d71841ab9d7d0b73",
    "gauss-markov-d100-p2-rt": "aba177e7a6ea016c927d8752ea53fca04e63ed32",
    "gauss-markov-d100-p3-nort": "641e819459246c52168d26a65a9d1b7be0d07e7a",
    "gauss-markov-d100-p3-rt": "14e6baba8d47cb84e94648a9589c9764ce66ae3f",
    "gauss-markov-d300-p0-nort": "17e76437e1f1d6a72aa963890d1f1b3effe811be",
    "gauss-markov-d300-p0-rt": "03e723bb4d1b74c9b095c45931a3240c0ac6f52c",
    "gauss-markov-d300-p1-nort": "eaac2e703e06394001fc54eb2eda7dab6835b155",
    "gauss-markov-d300-p1-rt": "ea6caae391712f2be1004fab5c16926089640bb5",
    "gauss-markov-d300-p2-nort": "e2eb41d43810762b56bd4d164bea529a69507dc0",
    "gauss-markov-d300-p2-rt": "67eceaa05a2d5313e0a5d6d5dd7468af59a73d36",
    "gauss-markov-d300-p3-nort": "411283af01cddbe4b060a823949c8bdfdfebb20a",
    "gauss-markov-d300-p3-rt": "e2b51e8f3e7693526ec5ad277c52cf27fc731e60",
    "random-direction-d100-p0-nort": "8846b5d7723a3ac42d8ae459c72a693807ca97e0",
    "random-direction-d100-p0-rt": "41764b2b367758e94bd69fb5034d9612f4b78896",
    "random-direction-d100-p1-nort": "e9f609ff395d43787da68b9493eeac15d7aff6e1",
    "random-direction-d100-p1-rt": "8074d9e4d011a83272cf8b7fd765c0d250c58b20",
    "random-direction-d100-p2-nort": "5589e793d35a667eafdaa102c21b80f6007b3b72",
    "random-direction-d100-p2-rt": "59108b45509142ab90701aea0ddecb6c03acbe2a",
    "random-direction-d100-p3-nort": "bcdbee2a79b2e0fcc5867b586a176c7b010918bf",
    "random-direction-d100-p3-rt": "42a98f05aa94ec3cb19c82bab38e7cd3e394a304",
    "random-direction-d300-p0-nort": "ddfa75affac1fe9eb3d547fd7bb0c3fcbedfc8ad",
    "random-direction-d300-p0-rt": "3f2ca8f9b7aa4df77a4d7f6f43ebbc2e664a354f",
    "random-direction-d300-p1-nort": "f2ab945297b83b507ee8c00f540bd1f5ec0ca879",
    "random-direction-d300-p1-rt": "43b1812ee4c3b064768f4dbeeabb1d53677ef13a",
    "random-direction-d300-p2-nort": "02d406527eec5124d0b8e4978cac24e8d19ee178",
    "random-direction-d300-p2-rt": "ff93bc5c964ba9981b0b12a3a3f4c46ee9e4e52e",
    "random-direction-d300-p3-nort": "17f9ae3d99be774399515247b73b79208214086f",
    "random-direction-d300-p3-rt": "e095700b2c57316407c212e9bf1e25df43826491",
}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_golden_digest(case):
    assert run_digest(*case) == GOLDEN[case_id(case)]


def test_grid_covers_every_mobility_model():
    assert {case[0] for case in CASES} == set(MOBILITY_MODELS)
    assert len(GOLDEN) == len(CASES)
