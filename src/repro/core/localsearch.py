"""The per-thread local-search procedure (paper Fig. 3).

One :class:`LocalSearchProcedure` owns one population slot and improves
its solution iteratively:

1. pick a random peer ``t`` from the same population (the perturbation
   reference of Eq. 2);
2. pick a search criterion at random and apply the BLX-α step;
3. evaluate; if the perturbed solution is *feasible* (broadcast time
   within limit), accept it unconditionally and offer it to the archive;
4. on the reset condition, replace the owned solution with an archive
   sample (the population schedule below coordinates the
   population-wide synchronisation).

A :class:`PopulationSchedule` steps one population's T procedures in
lockstep: one :meth:`~LocalSearchProcedure.step` per live procedure per
round, then the population-wide reset when the round reaches the reset
condition.  Both engines run this schedule; they differ only in where
the archive lives (DESIGN.md §17).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.config import MLSConfig
from repro.core.criteria import select_criterion
from repro.core.operators import blx_alpha_step
from repro.moo.archive import AdaptiveGridArchive
from repro.moo.problem import Problem
from repro.moo.solution import FloatSolution
from repro.utils.rng import RngFactory, as_generator

__all__ = [
    "ArchivePort",
    "Population",
    "LocalSearchProcedure",
    "PopulationSchedule",
    "drain_population",
    "make_archive",
    "run_population",
]


class ArchivePort:
    """The two archive operations a procedure needs.

    The serial engine binds these to a local AGA instance; the process
    engine to a pipe toward the archive server in the parent.
    """

    def __init__(
        self,
        add: Callable[[FloatSolution], bool],
        sample: Callable[[int], list[FloatSolution]],
    ):
        self._add = add
        self._sample = sample

    def add(self, solution: FloatSolution) -> bool:
        """Offer a (copy of a) solution to the shared archive."""
        return self._add(solution)

    def sample(self, k: int) -> list[FloatSolution]:
        """Draw ``k`` random archive members (copies)."""
        return self._sample(k)


class Population:
    """A fixed-size slot array shared by the procedures of one population.

    The procedures of a population run in one thread (see
    :class:`PopulationSchedule`), so the slots need no synchronisation.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.slots: list[FloatSolution | None] = [None] * size

    def set_slot(self, index: int, solution: FloatSolution) -> None:
        """Publish the current solution of one procedure."""
        self.slots[index] = solution

    def peer_of(
        self, index: int, rng: np.random.Generator
    ) -> FloatSolution | None:
        """A random *other* populated slot (None if alone)."""
        candidates = [
            i for i, s in enumerate(self.slots) if s is not None and i != index
        ]
        if not candidates:
            return None
        return self.slots[int(rng.choice(candidates))]

    def solutions(self) -> list[FloatSolution]:
        """All populated slots."""
        return [s for s in self.slots if s is not None]

    def __len__(self) -> int:
        return len(self.slots)


class LocalSearchProcedure:
    """One thread of the AEDB-MLS algorithm (one slot, one solution)."""

    def __init__(
        self,
        problem: Problem,
        config: MLSConfig,
        population: Population,
        slot: int,
        archive: ArchivePort,
        rng: np.random.Generator | int | None = None,
    ):
        self.problem = problem
        self.config = config
        self.population = population
        self.slot = int(slot)
        self.archive = archive
        self.rng = as_generator(rng)
        self.current: FloatSolution | None = None
        self.evaluations = 0
        self.iterations = 0
        self.accepted = 0
        self.archived = 0

    # ------------------------------------------------------------------ #
    @property
    def budget_left(self) -> int:
        """Evaluations remaining for this thread."""
        return max(self.config.evaluations_per_thread - self.evaluations, 0)

    @property
    def done(self) -> bool:
        """True once the thread's evaluation budget is exhausted."""
        return self.budget_left <= 0

    def _evaluate(self, solution: FloatSolution) -> FloatSolution:
        self.problem.evaluate(solution)
        self.evaluations += 1
        return solution

    # ------------------------------------------------------------------ #
    def initialise(self) -> None:
        """Fig. 3 lines 1–3: random feasible start, evaluated, archived.

        Feasibility is sought by rejection sampling (each attempt costs an
        evaluation, honestly charged against the thread budget); if no
        feasible point appears within ``max_init_attempts`` the best
        (least-violating) attempt is kept — constraint-domination then
        drives the search back to feasibility.
        """
        best: FloatSolution | None = None
        attempts = min(self.config.max_init_attempts, self.budget_left)
        for _ in range(max(attempts, 1)):
            candidate = self._evaluate(self.problem.create_solution(self.rng))
            if best is None or (
                candidate.constraint_violation < best.constraint_violation
            ):
                best = candidate
            if candidate.is_feasible:
                break
        assert best is not None
        self.current = best
        self.population.set_slot(self.slot, best)
        if self.archive.add(best.copy()):
            self.archived += 1

    def step(self) -> None:
        """Fig. 3 lines 6–12: one perturbation iteration."""
        if self.current is None:
            raise RuntimeError("step() before initialise()")
        if self.done:
            return
        self.iterations += 1

        reference = self.population.peer_of(self.slot, self.rng)
        if reference is None:
            reference = self.current  # alone: Eq. 2 degenerates to a no-op
        criterion = select_criterion(self.rng, self.config.criterion_weights)
        child_vars = blx_alpha_step(
            self.current.variables,
            reference.variables,
            criterion,
            self.config.alpha,
            self.problem.lower_bounds,
            self.problem.upper_bounds,
            self.rng,
            symmetric=self.config.symmetric_blx,
        )
        child = FloatSolution(child_vars, self.problem.n_objectives)
        self._evaluate(child)

        if child.is_feasible:
            self.accepted += 1
            self.current = child
            self.population.set_slot(self.slot, child)
            if self.archive.add(child.copy()):
                self.archived += 1

    # ------------------------------------------------------------------ #
    def needs_reset(self) -> bool:
        """Fig. 3 line 13: the re-initialisation condition."""
        return (
            self.iterations > 0
            and self.iterations % self.config.reset_iterations == 0
        )

    def reset_from(self, solution: FloatSolution) -> None:
        """Fig. 3 line 14: restart from an archive sample (no evaluation
        needed — the sample is already evaluated)."""
        self.current = solution
        self.population.set_slot(self.slot, solution)

    def stats(self) -> dict:
        """Per-thread counters for the run report."""
        return {
            "evaluations": self.evaluations,
            "iterations": self.iterations,
            "accepted": self.accepted,
            "archived": self.archived,
        }


def drain_population(
    procedures: Sequence[LocalSearchProcedure],
    archive: ArchivePort,
    rng: np.random.Generator,
) -> int:
    """Population-wide reset: every procedure restarts from the archive.

    Returns the number of procedures reset.  Called by
    :meth:`PopulationSchedule.step_round`.
    """
    live = [p for p in procedures if not p.done]
    if not live:
        return 0
    samples = archive.sample(len(live))
    for proc, sample in zip(live, samples):
        proc.reset_from(sample)
    return len(live)


class PopulationSchedule:
    """One population's T procedures stepped in lockstep (paper Fig. 3).

    :meth:`initialise` starts every procedure; each :meth:`step_round`
    then advances every live procedure by one iteration.  Live procedures
    therefore share their iteration count, so the reset condition fires
    for the whole population in the same round, and the round ends with
    :func:`drain_population`.
    """

    def __init__(
        self,
        problem: Problem,
        config: MLSConfig,
        population_index: int,
        archive: ArchivePort,
        factory: RngFactory,
    ):
        population = Population(config.threads_per_population)
        self._archive = archive
        self.procedures = [
            LocalSearchProcedure(
                problem,
                config,
                population,
                slot=t,
                archive=archive,
                rng=factory.generator("mls", population_index, t),
            )
            for t in range(config.threads_per_population)
        ]
        self._reset_rng = factory.generator("reset", population_index)
        #: Population-wide resets performed so far.
        self.resets = 0

    @property
    def done(self) -> bool:
        """True once every procedure has exhausted its budget."""
        return all(proc.done for proc in self.procedures)

    def initialise(self) -> None:
        """Fig. 3 lines 1–4: every procedure draws and archives its start."""
        for proc in self.procedures:
            proc.initialise()

    def step_round(self) -> None:
        """One iteration of every live procedure, then the reset check."""
        live = [proc for proc in self.procedures if not proc.done]
        for proc in live:
            proc.step()
        if live and live[0].needs_reset():
            drain_population(self.procedures, self._archive, self._reset_rng)
            self.resets += 1

    def stats(self) -> list[dict]:
        """Per-procedure counters, in slot order."""
        return [proc.stats() for proc in self.procedures]


def run_population(
    problem: Problem,
    config: MLSConfig,
    population_index: int,
    archive: ArchivePort,
    factory: RngFactory,
) -> list[dict]:
    """Run one population's schedule to completion; return its stats."""
    schedule = PopulationSchedule(
        problem, config, population_index, archive, factory
    )
    schedule.initialise()
    while not schedule.done:
        schedule.step_round()
    return schedule.stats()


def make_archive(
    problem: Problem, config: MLSConfig, factory: RngFactory
) -> AdaptiveGridArchive:
    """The run's shared Adaptive Grid Archive, seeded from ``factory``."""
    return AdaptiveGridArchive(
        capacity=config.archive_capacity,
        n_objectives=problem.n_objectives,
        bisections=config.archive_bisections,
        rng=factory.generator("archive"),
    )
