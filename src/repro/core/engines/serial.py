"""Serial (deterministic) AEDB-MLS engine.

Every population runs a :class:`~repro.core.localsearch.PopulationSchedule`
in one thread: all populations initialise in order, then take rounds in
turn.  Given a seed, runs are bit-for-bit reproducible, which makes this
engine the behavioural reference for the tests.
"""

from __future__ import annotations

from repro.core.config import MLSConfig
from repro.core.localsearch import ArchivePort, PopulationSchedule, make_archive
from repro.moo.problem import Problem
from repro.moo.solution import FloatSolution
from repro.utils.rng import RngFactory

__all__ = ["SerialEngine"]


class SerialEngine:
    """Single-threaded reference engine."""

    name = "serial"

    def run(
        self,
        problem: Problem,
        config: MLSConfig,
        seed: int = 0,
    ) -> tuple[list[FloatSolution], dict]:
        """Execute a full AEDB-MLS run; return (archive members, stats)."""
        factory = RngFactory(seed)
        archive = make_archive(problem, config, factory)
        port = ArchivePort(archive.add, archive.sample)
        schedules = [
            PopulationSchedule(problem, config, p, port, factory)
            for p in range(config.n_populations)
        ]

        for schedule in schedules:
            schedule.initialise()
        while not all(schedule.done for schedule in schedules):
            for schedule in schedules:
                schedule.step_round()

        per_population = [schedule.stats() for schedule in schedules]
        stats = {
            "engine": self.name,
            "evaluations": sum(
                s["evaluations"] for pop in per_population for s in pop
            ),
            "population_resets": sum(s.resets for s in schedules),
            "archive_size": len(archive),
            "per_population": per_population,
        }
        return [m.copy() for m in archive.members], stats
