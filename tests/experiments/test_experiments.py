"""Experiment harness: scales, campaigns, artefacts, figures, tables, io."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import MLSConfig
from repro.experiments import (
    Campaign,
    build_density_artifacts,
    domination_counts,
    get_scale,
    run_campaign,
)
from repro.experiments.config import SCALES, ExperimentScale
from repro.experiments.figures import fig6_series, fig7_series
from repro.experiments.fronts import front_matrix
from repro.experiments.io import (
    front_from_jsonable,
    front_to_jsonable,
    load_artifacts,
    save_artifacts,
)
from repro.experiments.report import render_fig6, render_fig7
from repro.experiments.runner import make_algorithm
from repro.experiments.tables import table4
from repro.moo.algorithms.base import AlgorithmResult
from repro.moo.solution import FloatSolution
from repro.tuning import make_tuning_problem


def sol(objectives, violation=0.0):
    s = FloatSolution(np.zeros(5), len(objectives))
    s.objectives = np.asarray(objectives, dtype=float)
    s.constraint_violation = violation
    return s


def synthetic_campaign(name, density, offset, n_runs=4, seed=0):
    """Fronts on shifted non-dominated surfaces (energy, -cov, fwd)."""
    gen = np.random.default_rng(seed)
    campaign = Campaign(algorithm=name, density=density)
    for _ in range(n_runs):
        front = []
        for _ in range(12):
            c = gen.uniform(5, 20)
            front.append(
                sol([
                    4.0 * c + offset + gen.normal(0, 2),
                    -c,
                    0.4 * c + offset * 0.05 + gen.normal(0, 0.5),
                ])
            )
        campaign.results.append(
            AlgorithmResult(
                front=front, evaluations=100, runtime_s=1.0, algorithm=name
            )
        )
    return campaign


@pytest.fixture(scope="module")
def synthetic_artifacts():
    campaigns = {
        "NSGAII": synthetic_campaign("NSGAII", 100, offset=5.0, seed=1),
        "CellDE": synthetic_campaign("CellDE", 100, offset=0.0, seed=2),
        "AEDB-MLS": synthetic_campaign("AEDB-MLS", 100, offset=10.0, seed=3),
    }
    return build_density_artifacts(campaigns, 100)


class TestScales:
    def test_presets_exist(self):
        assert set(SCALES) == {"quick", "medium", "paper"}

    def test_paper_matches_publication(self):
        paper = SCALES["paper"]
        assert paper.n_runs == 30
        assert paper.n_networks == 10
        assert paper.mls.total_evaluations == 24000
        assert paper.cellde_grid_side == 10
        assert paper.nsgaii_population == 100

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert get_scale().name == "medium"
        assert get_scale("quick").name == "quick"

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("huge")


class TestMakeAlgorithm:
    @pytest.fixture(scope="class")
    def problem(self):
        return make_tuning_problem(100, n_networks=1, n_nodes=8)

    def test_types(self, problem):
        scale = get_scale("quick")
        from repro.core import AEDBMLS
        from repro.moo.algorithms import (
            PAES,
            SPEA2,
            CellDE,
            MOCell,
            NSGAII,
            RandomSearch,
        )

        for name, cls in (
            ("NSGAII", NSGAII),
            ("CellDE", CellDE),
            ("AEDB-MLS", AEDBMLS),
            ("RandomSearch", RandomSearch),
            ("MOCell", MOCell),
            ("SPEA2", SPEA2),
            ("PAES", PAES),
        ):
            assert isinstance(make_algorithm(name, problem, scale, 0), cls)

    def test_mls_engine_override(self, problem):
        scale = get_scale("quick")
        alg = make_algorithm("AEDB-MLS", problem, scale, 0, mls_engine="processes")
        assert alg.config.engine == "processes"

    def test_mls_engine_override_keeps_other_fields(self, problem):
        # Overriding the engine must change the engine and nothing else.
        quick = get_scale("quick")
        mls = replace(
            quick.mls,
            symmetric_blx=True,
            criterion_weights=(0.5, 0.25, 0.25),
            max_init_attempts=3,
        )
        scale = replace(quick, mls=mls)
        alg = make_algorithm("AEDB-MLS", problem, scale, 0, mls_engine="processes")
        assert alg.config == replace(mls, engine="processes")

    def test_unknown_rejected(self, problem):
        with pytest.raises(ValueError):
            make_algorithm("SMS-EMOA", problem, get_scale("quick"), 0)

    def test_zoo_campaigns_run(self):
        # One-run campaigns for the extension MOEAs on a tiny problem.
        from repro.experiments.runner import run_campaign

        scale = ExperimentScale(
            name="test",
            n_runs=1,
            n_networks=1,
            moea_evaluations=40,
            nsgaii_population=10,
            cellde_grid_side=3,
            mls=MLSConfig(
                n_populations=1,
                threads_per_population=2,
                evaluations_per_thread=10,
                reset_iterations=5,
            ),
        )
        for name in ("MOCell", "SPEA2", "PAES"):
            campaign = run_campaign(name, 100, scale=scale)
            assert len(campaign.results) == 1
            assert campaign.results[0].evaluations == 40


class TestRunCampaign:
    def test_tiny_campaign(self):
        scale = ExperimentScale(
            name="test",
            n_runs=2,
            n_networks=1,
            moea_evaluations=60,
            nsgaii_population=10,
            cellde_grid_side=3,
            mls=MLSConfig(
                n_populations=1,
                threads_per_population=2,
                evaluations_per_thread=20,
                reset_iterations=10,
            ),
        )
        campaign = run_campaign("NSGAII", 100, scale=scale)
        assert len(campaign.results) == 2
        assert all(r.evaluations == 60 for r in campaign.results)
        assert campaign.runtimes and campaign.fronts

    def test_progress_callback(self):
        scale = ExperimentScale(
            name="test", n_runs=1, n_networks=1, moea_evaluations=30,
            nsgaii_population=10,
        )
        seen = []
        run_campaign(
            "RandomSearch", 100, scale=scale,
            progress=lambda *a: seen.append(a),
        )
        assert len(seen) == 1


class TestDomination:
    def test_counts(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 1.0], [0.5, 0.5], [-1.0, 5.0]])
        b_dominated, a_dominated = domination_counts(a, b)
        assert b_dominated == 2
        assert a_dominated == 0


class TestArtifacts:
    def test_reference_front_nondominated(self, synthetic_artifacts):
        ref = synthetic_artifacts.reference_matrix()
        from repro.moo.dominance import non_dominated_objectives_mask

        assert non_dominated_objectives_mask(ref).all()

    def test_indicator_samples_complete(self, synthetic_artifacts):
        for name in ("NSGAII", "CellDE", "AEDB-MLS"):
            samples = synthetic_artifacts.indicators[name]
            assert len(samples.spread) == 4
            assert len(samples.igd) == 4
            assert len(samples.hypervolume) == 4
            assert all(v >= 0 for v in samples.hypervolume)

    def test_better_offset_scores_better(self, synthetic_artifacts):
        # CellDE (offset 0) dominates AEDB-MLS (offset 10) by design.
        igd_cellde = np.median(synthetic_artifacts.indicators["CellDE"].igd)
        igd_mls = np.median(synthetic_artifacts.indicators["AEDB-MLS"].igd)
        assert igd_cellde < igd_mls

    def test_domination_direction(self, synthetic_artifacts):
        ref_dom, own_dom = synthetic_artifacts.domination["AEDB-MLS"]
        assert own_dom > ref_dom  # the worse front gets dominated more

    def test_density_mismatch_rejected(self):
        campaigns = {"NSGAII": synthetic_campaign("NSGAII", 200, 0.0)}
        with pytest.raises(ValueError):
            build_density_artifacts(campaigns, 100)


class TestFiguresAndTables:
    def test_fig6(self, synthetic_artifacts):
        series = fig6_series(synthetic_artifacts)
        assert series.reference.shape[1] == 3
        assert series.mls.shape[1] == 3
        # Display axes: coverage is positive again.
        assert series.reference[:, 1].min() >= 0
        text = render_fig6(series)
        assert "Figure 6" in text and "domination" in text

    def test_fig7(self, synthetic_artifacts):
        data = fig7_series(synthetic_artifacts)
        assert set(data.boxes) == {"spread", "igd", "hypervolume"}
        assert "AEDB-MLS" in data.boxes["igd"]
        text = render_fig7(data)
        assert "Figure 7" in text and "med=" in text

    def test_table4(self, synthetic_artifacts):
        data = table4({100: synthetic_artifacts})
        text = data.render()
        assert "Table IV" in text
        # CellDE must beat AEDB-MLS on igd at this separation.
        igd_cells = data.cells["igd"]
        cell = next(
            c for c in igd_cells
            if c.row == "CellDE" and c.column == "AEDB-MLS"
        )
        assert cell.symbols[0] == "▲"


class TestIO:
    def test_front_roundtrip(self):
        front = [sol([1.0, -2.0, 3.0], violation=0.5)]
        back = front_from_jsonable(front_to_jsonable(front))
        np.testing.assert_array_equal(back[0].objectives, [1.0, -2.0, 3.0])
        assert back[0].constraint_violation == 0.5

    def test_artifacts_roundtrip(self, synthetic_artifacts, tmp_path):
        path = tmp_path / "artifacts.json"
        save_artifacts(path, {100: synthetic_artifacts})
        loaded = load_artifacts(path)
        assert 100 in loaded
        entry = loaded[100]
        assert len(entry["reference_front"]) == len(
            synthetic_artifacts.reference_front
        )
        np.testing.assert_allclose(
            entry["indicators"]["CellDE"].igd,
            synthetic_artifacts.indicators["CellDE"].igd,
        )
        assert entry["domination"]["AEDB-MLS"] == tuple(
            synthetic_artifacts.domination["AEDB-MLS"]
        )


class TestFrontMatrix:
    def test_empty(self):
        assert front_matrix([]).shape == (0, 0)

    def test_stacks(self):
        m = front_matrix([sol([1, 2, 3]), sol([4, 5, 6])])
        assert m.shape == (2, 3)


class TestReportRendering:
    def test_render_fig2(self):
        from repro.experiments.figures import fig2_series
        from repro.experiments.report import render_fig2

        data = fig2_series(100, n_networks=1, n_samples=65)
        text = render_fig2(data)
        assert "Figure 2" in text
        for objective in ("broadcast_time", "coverage", "forwardings", "energy"):
            assert objective in text
        assert "main effect" in text

    def test_render_front_sample_empty(self):
        import numpy as np

        from repro.experiments.report import render_front_sample

        assert "(empty)" in render_front_sample(np.empty((0, 3)), "X")


class TestCampaignAccessors:
    def test_campaign_properties(self, synthetic_artifacts):
        campaign = synthetic_campaign("X", 100, offset=0.0, n_runs=2)
        assert len(campaign.fronts) == 2
        assert campaign.evaluations == [100, 100]
        assert campaign.runtimes == [1.0, 1.0]
