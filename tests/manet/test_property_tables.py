"""Property-based contract for runtime-backed neighbour tables.

Hypothesis (derandomized, like tests/campaigns/test_backend_properties.py)
over the DESIGN.md §8 invariant: tables that restore a
:class:`ScenarioRuntime`'s snapshots answer every live-neighbour query
exactly like tables that compute each beacon round themselves — at
arbitrary query times, and also after the tables leave the canonical
timeline through off-grid beacon rounds (where snapshot restores must
stop for good).

Networks are kept tiny (hypothesis runs many examples).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.manet import make_scenarios
from repro.manet.beacons import NeighborTables
from repro.manet.runtime import ScenarioRuntime

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRestoredEqualsComputed:
    @given(
        seed=st.integers(0, 2**16),
        n_nodes=st.integers(4, 20),
        n_canonical=st.integers(0, 8),
        off_grid_offsets=st.lists(
            st.floats(0.01, 0.99), min_size=0, max_size=3
        ),
        query_offsets=st.lists(
            st.floats(0.0, 12.0), min_size=1, max_size=6
        ),
    )
    @SETTINGS
    def test_queries_match_after_divergence(
        self, seed, n_nodes, n_canonical, off_grid_offsets, query_offsets
    ):
        """Replay a canonical prefix, then (possibly) leave the timeline
        through off-grid rounds; every subsequent query must equal the
        runtime-less tables'."""
        scenario = make_scenarios(
            100, n_networks=1, master_seed=seed, n_nodes=n_nodes
        )[0]
        runtime = ScenarioRuntime(scenario)
        restored = NeighborTables(
            n_nodes, scenario.sim, runtime.mobility, runtime=runtime
        )
        computed = NeighborTables(n_nodes, scenario.sim, runtime.mobility)
        rounds = list(runtime.beacon_times[:n_canonical])
        last = rounds[-1] if rounds else 0.0
        # Off-grid rounds diverge the timeline for good (beacon rounds
        # must be non-decreasing in time, like the event queue fires
        # them).
        for offset in sorted(off_grid_offsets):
            rounds.append(last + offset)
        for t in rounds:
            restored.beacon_round(t)
            computed.beacon_round(t)
        np.testing.assert_array_equal(restored.last_seen, computed.last_seen)
        np.testing.assert_array_equal(restored.rx_power, computed.rx_power)
        t_base = rounds[-1] if rounds else 0.0
        for offset in query_offsets:
            t = t_base + offset
            for i in range(n_nodes):
                np.testing.assert_array_equal(
                    restored.live_mask(i, t), computed.live_mask(i, t)
                )
                assert restored.degree(i, t) == computed.degree(i, t)
                np.testing.assert_array_equal(
                    restored.neighbors_of(i, t), computed.neighbors_of(i, t)
                )
            assert restored.mean_degree(t) == computed.mean_degree(t)
