"""The benchmark's workloads: seed -> inputs, one timed run, output checks.

Every input the program receives is generated from the workload seed
by :func:`derive_seeds`; the benchmark passes nothing else.  Repetition
``i`` of a run draws its own inputs (:func:`rep_seed`), so one run
averages over several searches or parameter draws instead of timing
one of them again; repetition 0's inputs are the ones ``pins.json``
pins.  Why each workload exists is in ``perfbench/README.md``.

Workload objects import the program lazily, so :func:`derive_seeds`
and the digest/normalisation helpers work without it (the harness
tests use them that way).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "WORKLOADS",
    "Check",
    "Rep",
    "CampaignWorkload",
    "count_failures",
    "MLSWorkload",
    "derive_seeds",
    "front_digest",
    "hypervolume_of",
    "make_workload",
    "normalized_objectives",
    "pin_check",
    "rep_seed",
    "same_inputs_same_digest",
]

#: Workload name -> salt mixed into its seed stream, so two workloads
#: run with the same ``--seed`` still draw unrelated inputs.
_SALTS = {
    "mls-serial-d300": 1,
    "mls-processes-d100": 2,
    "campaign-grid": 3,
}
WORKLOADS = tuple(_SALTS)

#: Objective normalisation for ``front_hv``, fixed here.  Per node,
#: energy (sum of data-frame TX powers, dBm) lies within the radio's
#: [-40, 16.02] dBm power range because a node transmits the message at
#: most once; coverage and forwardings lie in [0, n - 1].  Every
#: normalised objective is minimised and lies in [0, 1].
ENERGY_DBM_RANGE = (-40.0, 16.02)
HV_REFERENCE = (1.1, 1.1, 1.1)

PINS_PATH = Path(__file__).resolve().parent.parent / "pins.json"
#: Workloads whose outputs ``pins.json`` pins exactly, and the seeds it
#: pins them for (``perfbench/pin.py`` writes every one of them).
PINNED_WORKLOADS = ("mls-serial-d300", "campaign-grid")
PINNED_SEEDS = range(20)


def derive_seeds(workload: str, seed: int, n: int = 4) -> list[int]:
    """``n`` independent 32-bit seeds for ``workload`` from ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    state = np.random.SeedSequence([seed, _SALTS[workload]]).generate_state(n)
    return [int(v) for v in state]


def rep_seed(workload: str, seed: int, index: int) -> int:
    """The seed of repetition ``index`` of a ``workload`` run.

    Different seeds make the program do different amounts of work (on
    ``mls-serial-d300`` kernel events vary ~17% interquartile between
    search seeds), so each repetition draws its own inputs and a run
    reports the mean over them.  Repetition 0 uses
    ``derive_seeds(workload, seed, 1)[0]``: the stream is prefix-stable.
    """
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return derive_seeds(workload, seed, index + 1)[index]


def normalized_objectives(energy, coverage, forwardings, n_nodes) -> np.ndarray:
    """Rows of (energy, 1 - coverage ratio, forwarding ratio) in [0, 1]."""
    energy = np.asarray(energy, dtype=float)
    n = np.asarray(n_nodes, dtype=float)
    lo, hi = ENERGY_DBM_RANGE
    return np.column_stack([
        (energy / n - lo) / (hi - lo),
        1.0 - np.asarray(coverage, dtype=float) / (n - 1),
        np.asarray(forwardings, dtype=float) / (n - 1),
    ])


def hypervolume_of(rows: np.ndarray) -> float:
    """Hypervolume of normalised rows against :data:`HV_REFERENCE`."""
    from repro.moo.indicators import hypervolume

    rows = np.asarray(rows, dtype=float)
    if not len(rows):
        return 0.0
    return float(hypervolume(rows, np.asarray(HV_REFERENCE)))


def front_digest(objective_rows) -> str:
    """sha1 of objective rows, sorted, as exact float64 bytes."""
    rows = np.asarray(objective_rows, dtype=np.float64).reshape(-1, 3)
    order = np.lexsort(rows.T[::-1])
    return hashlib.sha1(np.ascontiguousarray(rows[order]).tobytes()).hexdigest()


def load_pins() -> dict:
    """Pinned output digests: workload -> {seed: digest}."""
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text())


@dataclass
class Rep:
    """One timed run of a workload."""

    run_s: float
    sims: int
    #: Operations attempted / failed (evaluations for MLS, cells for the
    #: campaign grid).
    attempted: int
    failed: int
    result: object
    extra: dict = field(default_factory=dict)


def same_inputs_same_digest(name: str, reps: list[Rep], digest
                            ) -> Check | None:
    """Repetitions that ran the same inputs (an untraced and a traced run
    of one pair) must give identical outputs; None when none repeat."""
    by_index: dict[int, set[str]] = {}
    for r in reps:
        by_index.setdefault(r.extra["index"], set()).add(digest(r))
    if len(by_index) == len(reps):
        return None
    differ = sorted(i for i, d in by_index.items() if len(d) > 1)
    return Check(name, not differ,
                 f"{len(reps)} runs of {len(by_index)} inputs, "
                 f"differing {differ}")


def count_failures(reps: list[Rep], crashed: bool) -> tuple[int, int]:
    """``(attempted, failed)`` operations over ``reps``.

    A run that raised (``crashed``) counts every operation attempted as
    failed; with no completed run that is one attempted, one failed.
    """
    attempted = sum(r.attempted for r in reps) or 1
    failed = attempted if crashed else sum(r.failed for r in reps)
    return attempted, failed


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    #: A pin check for a seed outside :data:`PINNED_SEEDS`: nothing to
    #: compare with, so it passes, and the report says so.
    unpinned: bool = False


def pin_check(name: str, workload: str, seed: int, digests: list[str]
              ) -> Check:
    """``digests`` (of repetition 0's outputs) against the pinned digest.

    Inside :data:`PINNED_SEEDS` a missing pin fails; outside it the
    check is marked ``unpinned``.
    """
    if seed not in PINNED_SEEDS:
        return Check(name, True, f"unpinned: seed {seed} is outside the "
                     f"pinned seeds {PINNED_SEEDS.start}-"
                     f"{PINNED_SEEDS.stop - 1}", unpinned=True)
    pinned = load_pins().get(workload, {}).get(str(seed))
    return Check(name, pinned is not None and digests == [pinned],
                 f"pinned {pinned}")


# --------------------------------------------------------------------- #
class MLSWorkload:
    """AEDB-MLS on ``make_tuning_problem(density, n_networks=10)``."""

    n_networks = 10

    def __init__(self, name: str, seed: int, density: int, engine: str,
                 populations: int, threads: int, evals_per_thread: int):
        self.name = name
        self.seed = seed
        self.density = density
        self._config_args = dict(
            n_populations=populations,
            threads_per_population=threads,
            evaluations_per_thread=evals_per_thread,
            engine=engine,
        )
        self.budget = populations * threads * evals_per_thread
        self.expected_compiled_share = 1.0

    def setup(self) -> None:
        """Problem construction and the per-scenario runtime precompute."""
        from repro.core.config import MLSConfig
        from repro.manet.runtime import get_runtime
        from repro.tuning import make_tuning_problem

        # Paper alpha / reset cadence / archive: MLSConfig's defaults.
        self.config = MLSConfig(**self._config_args)
        # The paper's fixed evaluation networks ("always the same for
        # evaluating every solution"); the seed drives the search.
        self.problem = make_tuning_problem(
            self.density, n_networks=self.n_networks)
        self.scenarios = self.problem.evaluator.scenarios
        for scenario in self.scenarios:
            get_runtime(scenario)

    def warm(self) -> None:
        """One evaluation, so lazily built per-runtime state exists."""
        from repro.manet.aedb import AEDBParams

        self.problem.evaluator.evaluate(AEDBParams())

    def search_seed(self, index: int) -> int:
        return rep_seed(self.name, self.seed, index)

    def run_once(self, index: int, label: str | None = None) -> Rep:
        """Repetition ``index``'s search.  ``label`` names a run's files
        (see :meth:`CampaignWorkload.run_once`); a search writes none."""
        from repro.core.mls import AEDBMLS

        search_seed = self.search_seed(index)
        start = time.perf_counter()
        result = AEDBMLS(self.problem, self.config, seed=search_seed).run()
        run_s = time.perf_counter() - start
        return Rep(
            run_s=run_s,
            sims=result.evaluations * self.n_networks,
            attempted=self.budget,
            failed=self.budget - result.evaluations,
            result=result,
            extra={
                "index": index,
                "evaluations": result.evaluations,
                "archive_messages": result.info.get("archive_messages", 0),
            },
        )

    def discard(self, rep: Rep) -> None:
        pass

    def finish(self) -> None:
        pass

    # ------------------------------------------------------------------ #
    def _rows(self, solutions) -> np.ndarray:
        return np.array([s.objectives for s in solutions], dtype=np.float64)

    def front_hv(self, rep: Rep) -> float:
        feasible = [s for s in rep.result.front if s.constraint_violation == 0]
        n = self.scenarios[0].n_nodes
        rows = self._rows(feasible)
        if not len(rows):
            return 0.0
        return hypervolume_of(normalized_objectives(
            rows[:, 0], -rows[:, 1], rows[:, 2], n
        ))

    def predicted_compiled_share(self) -> float:
        """Share of this workload's simulations the dispatch runs compiled."""
        from repro.manet.aedb import AEDBParams
        from repro.manet.runtime import get_runtime
        from repro.manet.simulator import BroadcastSimulator

        active = [
            BroadcastSimulator(s, AEDBParams(), runtime=get_runtime(s))
            .compiled_active
            for s in self.scenarios
        ]
        return sum(active) / len(active)

    def digest(self, rep: Rep) -> str:
        return front_digest(self._rows(rep.result.front))

    def checks(self, reps: list[Rep]) -> list[Check]:
        from repro.moo.dominance import non_dominated

        last = reps[-1].result
        out = [
            Check(
                "evaluations_equal_budget",
                all(r.result.evaluations == self.budget for r in reps),
                f"budget {self.budget}, got "
                f"{sorted({r.result.evaluations for r in reps})}",
            ),
            Check(
                "fronts_mutually_non_dominated",
                all(len(non_dominated(r.result.front)) == len(r.result.front)
                    for r in reps),
                f"{len(last.front)} members in the last",
            ),
        ]
        if self.config.engine == "serial":
            same = same_inputs_same_digest(
                "front_identical_for_the_same_inputs", reps, self.digest)
            if same is not None:
                out.append(same)
            out.append(pin_check(
                "front_digest_matches_pin", self.name, self.seed,
                sorted({self.digest(r) for r in reps
                        if r.extra["index"] == 0})))
        out.append(self._reevaluate_pure(last.front))
        return out

    def _reevaluate_pure(self, front) -> Check:
        """Three front members re-simulated on the pure reference path."""
        from repro.manet.metrics import aggregate_metrics
        from repro.manet.runtime import get_runtime
        from repro.manet.simulator import BroadcastSimulator
        from repro.moo.solution import FloatSolution

        if not front:
            return Check("pure_reevaluation_bit_identical", False, "empty front")
        rows = self._rows(front)
        order = np.lexsort(rows.T[::-1])
        picks = sorted({int(order[0]), int(order[len(order) // 2]),
                        int(order[-1])})
        mismatches = []
        for i in picks:
            member = front[i]
            params = self.problem.params_of(member)
            runs = [
                BroadcastSimulator(s, params, runtime=get_runtime(s),
                                   compiled="off").run()
                for s in self.scenarios
            ]
            probe = FloatSolution(member.variables.copy(),
                                  self.problem.n_objectives)
            self.problem._fill(probe, aggregate_metrics(runs))
            same = (
                probe.objectives.tobytes() == np.asarray(
                    member.objectives, dtype=np.float64).tobytes()
                and probe.constraint_violation == member.constraint_violation
            )
            if not same:
                mismatches.append(i)
        return Check(
            "pure_reevaluation_bit_identical", not mismatches,
            f"members {picks}, mismatched {mismatches}",
        )


# --------------------------------------------------------------------- #
class CampaignWorkload:
    """Evaluate-only campaign grid through the default pool backend."""

    name = "campaign-grid"
    densities = (100, 200, 300)
    n_seeds = 2
    n_networks = 10
    #: Six parameter vectors: with three, the grid's front (which the
    #: best-placed vectors decide) swings ~16% interquartile from seed to
    #: seed; with six, ~5%.
    n_params = 6

    def __init__(self, seed: int, work_dir: Path, workers: int):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.workers = workers
        self.params = self.params_of(0)
        self._specs: dict = {}
        self.expected_compiled_share = None  # set in setup()

    def params_of(self, index: int) -> tuple[tuple[float, ...], ...]:
        """Repetition ``index``'s parameter vectors."""
        return self.draw_params(rep_seed(self.name, self.seed, index))

    @classmethod
    def draw_params(cls, params_seed: int) -> tuple[tuple[float, ...], ...]:
        """A Latin hypercube over the Table III domains.

        Each variable's range is cut into ``n_params`` equal strata and
        every stratum gets exactly one vector, so every draw spans each
        domain; independent uniform draws would sometimes cluster, and
        the grid's front would then swing more from seed to seed.
        """
        from repro.tuning.bounds import lower_bounds, upper_bounds

        lo, hi = lower_bounds(), upper_bounds()
        rng = np.random.default_rng(params_seed)
        strata = np.column_stack(
            [rng.permutation(cls.n_params) for _ in range(len(lo))])
        unit = (strata + rng.uniform(size=strata.shape)) / cls.n_params
        draws = lo + unit * (hi - lo)
        return tuple(tuple(float(v) for v in row) for row in draws)

    def spec_of(self, index: int):
        """Repetition ``index``'s campaign: the same grid, its own
        parameter vectors."""
        from repro.campaigns import CampaignSpec

        if index not in self._specs:
            self._specs[index] = CampaignSpec(
                name="perfbench-campaign-grid",
                densities=self.densities,
                mobility_models=("random-walk", "random-waypoint",
                                 "gauss-markov"),
                n_seeds=self.n_seeds,
                params=self.params_of(index),
                n_networks=self.n_networks,
            )
        return self._specs[index]

    def setup(self) -> None:
        self.spec = self.spec_of(0)
        self.cells = self.spec.cells()
        # Only random-walk cells have a compiled kernel today.
        rw = sum(c.n_simulations for c in self.cells
                 if c.mobility_model == "random-walk")
        self.expected_compiled_share = rw / sum(
            c.n_simulations for c in self.cells)

    def warm(self) -> None:
        pass

    def run_once(self, index: int, label: str | None = None,
                 eval_cache="auto") -> Rep:
        """Repetition ``index``'s grid into a fresh store in the
        directory ``label`` (default ``rep-<index>``)."""
        from repro.campaigns import CampaignExecutor, ResultStore

        spec = self.spec_of(index)
        store_dir = self.work_dir / (label or f"rep-{index}")
        shutil.rmtree(store_dir, ignore_errors=True)
        store = ResultStore(store_dir)
        executor = CampaignExecutor(
            spec, store=store, max_workers=self.workers,
            backend="pool", eval_cache=eval_cache,
        )
        done_at: list[float] = []
        start = time.perf_counter()
        report = executor.run(progress=lambda _r: done_at.append(
            time.perf_counter()))
        run_s = time.perf_counter() - start
        cell_ms = np.diff([start] + done_at) * 1e3
        rep = Rep(
            run_s=run_s,
            sims=report.simulations_executed + report.cache_hits,
            attempted=len(self.cells),
            # Cells neither completed now nor already complete: the
            # quarantined ones, plus any a failing run left behind.
            failed=len(self.cells) - len(report.executed)
            - len(report.skipped),
            result=report,
            extra={
                "index": index,
                "spec": spec,
                "store_dir": store_dir,
                "digest": store.content_digest(),
                "cell_ms": cell_ms.tolist(),
                "simulations_executed": report.simulations_executed,
                "cache_hits": report.cache_hits,
            },
        )
        # Read now: the store of an earlier repetition is discarded.
        rep.extra["front_hv"] = self._grid_hv(store, spec)
        return rep

    def discard(self, rep: Rep) -> None:
        """Free a repetition's store (the last one is kept for checks)."""
        shutil.rmtree(rep.extra["store_dir"], ignore_errors=True)

    def finish(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    def front_hv(self, rep: Rep) -> float:
        return rep.extra["front_hv"]

    def _grid_hv(self, store, spec) -> float:
        """Hypervolume of every simulation outcome of the grid."""
        if not store.status(spec).is_complete:
            return 0.0
        runs = [
            m
            for cell in spec.cells() for r in store.read_cell(cell)
            for m in r["per_network"]
        ]
        rows = normalized_objectives(
            [m["energy_dbm"] for m in runs], [m["coverage"] for m in runs],
            [m["forwardings"] for m in runs], [m["n_nodes"] for m in runs],
        )
        return hypervolume_of(rows)

    def predicted_compiled_share(self) -> float:
        """Share of the grid's simulations the dispatch runs compiled.

        The kernel decision depends on the scenario's mobility model and
        simulation config, which every cell of one (density, mobility)
        group shares, so one simulator per group decides for the group.
        """
        from repro.manet.runtime import get_runtime
        from repro.manet.simulator import BroadcastSimulator

        decided: dict[tuple, bool] = {}
        compiled = total = 0
        for cell in self.cells:
            group = (cell.density_per_km2, cell.mobility_model)
            if group not in decided:
                scenario = cell.scenarios()[0]
                decided[group] = BroadcastSimulator(
                    scenario, cell.param_sets()[0],
                    runtime=get_runtime(scenario),
                ).compiled_active
            total += cell.n_simulations
            compiled += cell.n_simulations if decided[group] else 0
        return compiled / total

    def digest(self, rep: Rep) -> str:
        return rep.extra["digest"]

    def checks(self, reps: list[Rep]) -> list[Check]:
        from repro.campaigns import ResultStore

        last = reps[-1]
        out = [
            Check("no_quarantined_cells",
                  all(not r.result.failed for r in reps),
                  f"{sum(len(r.result.failed) for r in reps)} quarantined"),
            Check("grid_complete", ResultStore(last.extra["store_dir"])
                  .status(last.extra["spec"]).is_complete,
                  f"{len(self.cells)} cells"),
        ]
        same = same_inputs_same_digest(
            "store_identical_for_the_same_inputs", reps, self.digest)
        if same is not None:
            out.append(same)
        out.append(pin_check(
            "store_digest_matches_pin", self.name, self.seed,
            sorted({r.extra["digest"] for r in reps
                    if r.extra["index"] == 0})))
        out.append(self._reevaluate_pure(last))
        return out

    def _reevaluate_pure(self, rep: Rep) -> Check:
        """Three compiled (random-walk) jobs re-simulated on the pure path."""
        from repro.campaigns import ResultStore
        from repro.manet.runtime import get_runtime
        from repro.manet.simulator import BroadcastSimulator

        fields = ("coverage", "energy_dbm", "forwardings",
                  "broadcast_time_s", "n_nodes")
        rw_cells = [c for c in rep.extra["spec"].cells()
                    if c.mobility_model == "random-walk"]
        picks = [rw_cells[0], rw_cells[len(rw_cells) // 2], rw_cells[-1]]
        store = ResultStore(rep.extra["store_dir"])
        mismatches = []
        for k, cell in enumerate(picks):
            i = k % self.n_params
            j = (3 * k) % self.n_networks
            scenario = cell.scenarios()[j]
            metrics = BroadcastSimulator(
                scenario, cell.param_sets()[i],
                runtime=get_runtime(scenario), compiled="off",
            ).run()
            stored = store.read_cell(cell)[i]["per_network"][j]
            if any(getattr(metrics, f) != stored[f] for f in fields):
                mismatches.append(cell.key)
        return Check(
            "pure_resimulation_bit_identical", not mismatches,
            f"{len(picks)} jobs, mismatched {mismatches}",
        )


# --------------------------------------------------------------------- #
def make_workload(name: str, seed: int, work_dir: Path, workers: int):
    """The named workload, with its inputs drawn from ``seed``, for a
    host that runs ``workers`` processes at once."""
    if name == "mls-serial-d300":
        # ~2 400 evaluations: every population resets at iteration 50.
        return MLSWorkload(name, seed, density=300, engine="serial",
                           populations=4, threads=6, evals_per_thread=100)
    if name == "mls-processes-d100":
        # Two population processes (nproc on the reference host), the
        # paper's 12 threads each; 6 000 evaluations.
        return MLSWorkload(name, seed, density=100, engine="processes",
                           populations=2, threads=12,
                           evals_per_thread=250)
    if name == "campaign-grid":
        # One pool worker fewer than ``workers`` (nproc): the benchmark
        # process is busy too (result handling, store and sidecar
        # writes, arena packing: ~2.4 s CPU of a ~6 s grid), and nproc
        # workers beside it would time the scheduler.  On 2 vCPUs, one
        # worker ran identical grids in 6.0-6.3 s, two in 6.4-7.8 s.
        return CampaignWorkload(seed, work_dir, max(1, workers - 1))
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
