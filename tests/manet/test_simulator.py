"""End-to-end broadcast simulations."""

import pytest

from repro.manet.aedb import AEDBParams
from repro.manet.metrics import BroadcastMetrics, aggregate_metrics
from repro.manet.runtime import ScenarioRuntime
from repro.manet.scenarios import make_scenarios
from repro.manet.simulator import BroadcastSimulator, simulate_broadcast
from repro.telemetry import MemoryRecorder, using


@pytest.fixture(scope="module")
def scenario():
    return make_scenarios(100, n_networks=1, n_nodes=15, master_seed=7)[0]


@pytest.fixture(scope="module")
def params():
    return AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0)


class TestDeterminism:
    def test_same_inputs_same_metrics(self, scenario, params):
        a = simulate_broadcast(scenario, params)
        b = simulate_broadcast(scenario, params)
        assert a == b

    def test_different_params_usually_differ(self, scenario):
        a = simulate_broadcast(scenario, AEDBParams(0.0, 0.5, -90.0, 1.0, 10.0))
        b = simulate_broadcast(scenario, AEDBParams(0.0, 0.5, -72.0, 1.0, 10.0))
        assert a != b

    def test_single_use(self, scenario, params):
        sim = BroadcastSimulator(scenario, params)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()


class TestMetricInvariants:
    def test_ranges(self, scenario, params):
        m = simulate_broadcast(scenario, params)
        assert 0 <= m.coverage <= scenario.n_nodes - 1
        assert 0 <= m.forwardings <= scenario.n_nodes - 1
        assert m.broadcast_time_s >= 0.0
        assert m.n_nodes == scenario.n_nodes

    def test_energy_bounded_by_transmissions(self, scenario, params):
        m = simulate_broadcast(scenario, params)
        max_power = scenario.sim.radio.default_tx_power_dbm
        assert m.energy_dbm <= (m.forwardings + 1) * max_power + 1e-9

    def test_broadcast_time_within_window(self, scenario, params):
        m = simulate_broadcast(scenario, params)
        assert m.broadcast_time_s <= scenario.sim.broadcast_window_s + 1e-9

    def test_coverage_counts_exclude_source(self, scenario, params):
        sim = BroadcastSimulator(scenario, params)
        m = sim.run()
        covered = sim.protocol.covered_nodes()
        assert m.coverage == len(covered) - 1  # source always covered


class TestParameterEffects:
    def test_long_delays_slow_broadcast(self, scenario):
        fast = simulate_broadcast(
            scenario, AEDBParams(0.0, 0.1, -90.0, 1.0, 10.0)
        )
        slow = simulate_broadcast(
            scenario, AEDBParams(1.0, 5.0, -90.0, 1.0, 10.0)
        )
        if fast.coverage > 1 and slow.coverage > 1:
            assert slow.broadcast_time_s > fast.broadcast_time_s

    def test_narrow_forwarding_area_reduces_forwardings(self, scenario):
        # border -95 dBm keeps only the ring [-96, -95] as candidates.
        narrow = simulate_broadcast(
            scenario, AEDBParams(0.0, 0.5, -95.0, 1.0, 10.0)
        )
        wide = simulate_broadcast(
            scenario, AEDBParams(0.0, 0.5, -85.0, 1.0, 10.0)
        )
        assert narrow.forwardings <= wide.forwardings


class TestAggregation:
    def test_aggregate_means(self):
        a = BroadcastMetrics(10, 100.0, 5, 1.0, n_nodes=15)
        b = BroadcastMetrics(14, 200.0, 7, 2.0, n_nodes=15)
        mean = aggregate_metrics([a, b])
        assert mean.coverage == 12
        assert mean.energy_dbm == 150.0
        assert mean.forwardings == 6
        assert mean.broadcast_time_s == 1.5
        assert mean.n_nodes == 15

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_aggregate_rejects_mixed_sizes(self):
        a = BroadcastMetrics(1, 1.0, 1, 1.0, n_nodes=10)
        b = BroadcastMetrics(1, 1.0, 1, 1.0, n_nodes=20)
        with pytest.raises(ValueError):
            aggregate_metrics([a, b])

    def test_coverage_ratio(self):
        m = BroadcastMetrics(7, 0.0, 0, 0.0, n_nodes=15)
        assert m.coverage_ratio == pytest.approx(0.5)
        assert BroadcastMetrics(0, 0, 0, 0, n_nodes=1).coverage_ratio == 0.0


class TestScenarios:
    def test_nodes_for_density(self):
        from repro.manet.scenarios import nodes_for_density

        assert nodes_for_density(100) == 25
        assert nodes_for_density(200) == 50
        assert nodes_for_density(300) == 75

    def test_scenarios_reproducible(self):
        a = make_scenarios(200, n_networks=3)
        b = make_scenarios(200, n_networks=3)
        assert a == b

    def test_networks_differ_within_set(self):
        scens = make_scenarios(200, n_networks=3)
        seeds = {s.mobility_seed for s in scens}
        assert len(seeds) == 3

    def test_node_count_override(self):
        scens = make_scenarios(300, n_networks=1, n_nodes=10)
        assert scens[0].n_nodes == 10
        assert scens[0].density_per_km2 == 300

    def test_rejects_bad_args(self):
        from repro.manet.scenarios import nodes_for_density

        with pytest.raises(ValueError):
            make_scenarios(100, n_networks=0)
        with pytest.raises(ValueError):
            nodes_for_density(-5)


class TestCompiledFallbackTelemetry:
    """Under ``REPRO_TELEMETRY=on`` and ``deep`` every pure-path run
    counts ``sim.compiled_fallback`` once, tagged with the reason it did
    not run compiled; a compiled run counts nothing, and ``off`` records
    nothing at all."""

    def _run(self, monkeypatch, mobility_model, mode):
        monkeypatch.setenv("REPRO_TELEMETRY", mode)
        monkeypatch.setenv("REPRO_COMPILED", "auto")
        scenario = make_scenarios(
            100, n_networks=1, n_nodes=12, mobility_model=mobility_model
        )[0]
        rec = MemoryRecorder()
        with using(rec):
            sim = BroadcastSimulator(
                scenario, AEDBParams(), runtime=ScenarioRuntime(scenario)
            )
            sim.run()
        fallbacks = {
            dict(attrs)["reason"]: n
            for (name, attrs), n in rec.counters.items()
            if name == "sim.compiled_fallback"
        }
        return sim, fallbacks

    def _report_extension_usable(self, monkeypatch):
        # Report the extension as usable, so the run falls back at the
        # mobility precondition whether or not the kernel is built (the
        # precondition is checked before the kernel could be called).
        import repro.manet.simulator as simulator_mod

        monkeypatch.setattr(simulator_mod, "compiled_core_available", lambda: True)

    def test_unsupported_mobility_counts_one_fallback(self, monkeypatch):
        self._report_extension_usable(monkeypatch)
        for mode in ("on", "deep"):
            sim, fallbacks = self._run(monkeypatch, "gauss-markov", mode)
            assert not sim.compiled_active
            assert fallbacks == {sim.compiled_reason: 1}, mode
            assert sim.compiled_reason.startswith("unsupported mobility model")

    def test_off_counts_nothing(self, monkeypatch):
        self._report_extension_usable(monkeypatch)
        sim, fallbacks = self._run(monkeypatch, "gauss-markov", "off")
        assert not sim.compiled_active
        assert fallbacks == {}

    @pytest.mark.compiled
    def test_compiled_run_counts_no_fallback(self, monkeypatch):
        for mode in ("on", "deep"):
            sim, fallbacks = self._run(monkeypatch, "random-walk", mode)
            assert sim.compiled_active
            assert fallbacks == {}, mode

    @pytest.mark.compiled
    def test_deep_counters_come_from_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "deep")
        scenario = make_scenarios(
            100, n_networks=1, n_nodes=12, mobility_model="random-walk"
        )[0]
        counters = []
        for compiled in ("auto", "off"):
            rec = MemoryRecorder()
            with using(rec):
                BroadcastSimulator(
                    scenario, AEDBParams(), runtime=ScenarioRuntime(scenario),
                    compiled=compiled,
                ).run()
            counters.append({
                name: n for (name, _), n in rec.counters.items()
                if name in ("sim.events_fired", "sim.frames_transmitted",
                            "sim.frames_resolved", "sim.runs")
            })
        assert counters[0] == counters[1]
        assert counters[0]["sim.runs"] == 1
