"""The benchmark's three workloads: grid, engine, backend and workers.

Each workload is a :class:`~repro.engine.grid.SweepGrid` derived from a
named scenario.  The command-line seed goes only into the grid's
``base_seed``; the program under test receives the expanded
:class:`~repro.engine.spec.JobSpec` units and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.grid import SweepGrid
from repro.engine.scenarios import get_scenario
from repro.engine.spec import JobSpec

__all__ = ["WORKLOADS", "Workload"]


@dataclass(frozen=True)
class Workload:
    """One workload: how its units are made and how they are run.

    ``engine`` is the ``use_engine`` override (``None`` keeps the
    default engine, as ``repro-eds sweep`` does).  ``per_unit`` runs
    every unit as its own ``api.run_sweep`` call, so one failing unit
    cannot hide the rest; otherwise the whole grid is one call.
    ``overrides`` are the :class:`SweepGrid` fields changed from the
    scenario's.
    """

    name: str
    why: str
    scenario: str
    overrides: dict[str, object]
    engine: str | None
    workers: int
    per_unit: bool

    @property
    def backend(self) -> str | None:
        """Per-unit calls run inline; ``None`` is ``run_sweep``'s
        default (``auto``)."""
        return "inline" if self.per_unit else None

    def grid(self, seed: int) -> SweepGrid:
        return get_scenario(self.scenario).override(
            base_seed=seed, **self.overrides
        )

    def units(self, seed: int) -> list[JobSpec]:
        return self.grid(seed).expand()

    def provenance(self, seed: int) -> str:
        grid = self.grid(seed)
        return (
            f"workload {self.name}: scenario {self.scenario} "
            f"family={grid.family} degrees={list(grid.degrees)} "
            f"sizes={list(grid.sizes)} seeds={grid.seeds} "
            f"algorithms={list(grid.algorithms)} optimum={grid.optimum} "
            f"base_seed={seed} | engine={self.engine or 'default'} "
            f"backend={self.backend or 'auto'} workers={self.workers}"
        )


_HUGE = dict(degrees=(3, 4), seeds=1)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="huge-sparse",
            why=(
                "pairing_regular n=131072 d in {3,4}, no optimum: graph "
                "build and output decode dominate, the bounds layer is idle"
            ),
            scenario="huge-regular",
            overrides=dict(_HUGE, sizes=(131072,), optimum="none"),
            engine="auto",
            workers=1,
            per_unit=True,
        ),
        Workload(
            name="certified",
            why=(
                "pairing_regular n=32768 with the certified nu sandwich: "
                "bounds and verify dominate; the only ratio-quality guard"
            ),
            scenario="huge-regular",
            overrides=dict(_HUGE, sizes=(32768,), optimum="dual_bound"),
            engine="auto",
            workers=1,
            per_unit=True,
        ),
        Workload(
            name="sweep-small",
            why=(
                "192 cheap networkx regular units on 2 workers with a "
                "cache: dispatch, blossom bound and cache I/O dominate"
            ),
            scenario="large-regular",
            overrides=dict(degrees=(2, 3, 4, 5, 6),
                           sizes=(64, 128, 256, 512), seeds=4),
            engine=None,
            workers=2,
            per_unit=False,
        ),
    )
}
