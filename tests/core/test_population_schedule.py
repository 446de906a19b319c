"""One population's schedule is the unit both AEDB-MLS engines run.

With a single population there is nothing to interleave, so each engine
must reproduce, solution for solution, what the population schedule does
on a local archive:

* the serial engine, with the schedule drawing from ``RngFactory(seed)``;
* the process engine, with the schedule drawing from the worker's own
  seed (derived as in ``ProcessEngine.run``) and the archive living in
  the parent.  The pipe port reports every ``add`` as accepted, so the
  per-procedure ``archived`` counter is the only statistic that differs.
"""

import numpy as np
import pytest

from repro.core import MLSConfig
from repro.core.engines.processes import ProcessEngine
from repro.core.engines.serial import SerialEngine
from repro.core.localsearch import ArchivePort, run_population
from repro.moo.archive import AdaptiveGridArchive
from repro.utils.rng import RngFactory
from tests.core.test_localsearch import ToyAEDBLike

CFG = MLSConfig(
    n_populations=1,
    threads_per_population=4,
    evaluations_per_thread=30,
    reset_iterations=6,
    archive_capacity=25,
)
SEEDS = (3, 5, 7)


def _local_run(problem, seed: int, factory: RngFactory):
    """The schedule on a local AGA seeded as the engines seed theirs."""
    archive = AdaptiveGridArchive(
        capacity=CFG.archive_capacity,
        n_objectives=problem.n_objectives,
        bisections=CFG.archive_bisections,
        rng=RngFactory(seed).generator("archive"),
    )
    port = ArchivePort(archive.add, archive.sample)
    stats = run_population(problem, CFG, 0, port, factory)
    return archive.members, stats


def _assert_same_members(actual, expected) -> None:
    assert len(actual) == len(expected) > 0
    for a, b in zip(actual, expected):
        np.testing.assert_array_equal(a.variables, b.variables)
        np.testing.assert_array_equal(a.objectives, b.objectives)
        assert a.constraint_violation == b.constraint_violation


def _worker_seed(seed: int, population: int = 0) -> int:
    return int(
        RngFactory(seed).seed_sequence("worker", population).generate_state(1)[0]
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_serial_engine_is_the_schedule(seed):
    problem = ToyAEDBLike()
    members, stats = SerialEngine().run(problem, CFG, seed=seed)
    local_members, local_stats = _local_run(problem, seed, RngFactory(seed))
    _assert_same_members(members, local_members)
    assert stats["per_population"] == [local_stats]
    assert stats["evaluations"] == CFG.total_evaluations
    assert stats["population_resets"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_process_engine_is_the_schedule(seed):
    problem = ToyAEDBLike()
    members, stats = ProcessEngine().run(problem, CFG, seed=seed)
    local_members, local_stats = _local_run(
        problem, seed, RngFactory(_worker_seed(seed))
    )
    _assert_same_members(members, local_members)

    def without_archived(per_procedure):
        return [
            {k: v for k, v in s.items() if k != "archived"}
            for s in per_procedure
        ]

    (remote_stats,) = stats["per_population"]
    assert without_archived(remote_stats) == without_archived(local_stats)
    assert all(
        r["archived"] >= s["archived"]
        for r, s in zip(remote_stats, local_stats)
    )
