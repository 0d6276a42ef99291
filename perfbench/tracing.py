"""The traced run: spans around the calls into each layer's public API.

The program under test is not instrumented.  :func:`traced_unit`
re-executes one work unit step by step through the same public
functions the engine's pipeline calls, timing each call from here, and
returns the facts the correctness gate compares against the engine's
record.  Spans stay in memory (:class:`Tracer`) and are written at the
end as Chrome trace-event JSON, which Perfetto loads.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.bounds import (
    BoundResult,
    MatchingCertificate,
    SandwichCertificate,
    fractional_vertex_cover,
    primal_matching,
    verify_certificate,
)
from repro.eds.bounds import eds_lower_bound, eds_lower_bound_from_nu
from repro.eds.properties import is_edge_dominating_set
from repro.engine.cache import ResultCache, cache_key
from repro.engine.measures import unit_rng_seed
from repro.engine.spec import JobSpec, derive_seed
from repro.exceptions import CertificateError
from repro.registry import resolve
from repro.runtime.scheduler import run_anonymous

__all__ = [
    "COLD_PATH_LAYERS",
    "LAYERS",
    "Span",
    "Tracer",
    "UnitFacts",
    "traced_unit",
]

#: Layers on a cold unit's path, in pipeline order: together with the
#: unaccounted remainder they add up to the untraced unit wall.
COLD_PATH_LAYERS = (
    "engine.cache.key",
    "generators.build",
    "portgraph.compile",
    "registry.resolve",
    "runtime.rounds",
    "runtime.decode",
    "eds.feasibility",
    "eds.lower_bound",
    "bounds.primal",
    "bounds.dual",
    "bounds.verify",
    "engine.cache.put",
)

#: Every timed layer; ``engine.cache.get`` is the warm (rerun) path.
LAYERS = COLD_PATH_LAYERS + ("engine.cache.get",)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder: name, start, end, parent span, unit id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, unit: str = "") -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if not unit and parent is not None:
            unit = self.spans[parent].unit
        record = Span(name, time.perf_counter(), 0.0, parent, unit)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def totals(self, names: tuple[str, ...] = LAYERS) -> dict[str, float]:
        """Σ duration per span name (layer spans are leaves, so this is
        also their self time)."""
        out = dict.fromkeys(names, 0.0)
        for record in self.spans:
            if record.name in out:
                out[record.name] += record.duration
        return out

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as a Chrome trace-event document (µs timestamps)."""
        events: list[dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": "perfbench traced run"},
        }]
        for index, record in enumerate(self.spans):
            events.append({
                "name": record.name,
                "cat": record.name.split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((record.start - self._origin) * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "args": {"id": index, "parent": record.parent,
                         "unit": record.unit},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()), encoding="utf-8")


@dataclass
class UnitFacts:
    """What the traced recomputation of one unit found.

    ``optimum_lower``/``optimum_upper`` are sound bounds on the optimum
    EDS size, ``None`` where the unit's optimum mode computes no such
    bound; ``certificate_error`` holds the reason when
    ``verify_certificate`` rejected the recomputed ν bracket.
    """

    num_edges: int
    solution_size: int
    rounds: int
    feasible: bool
    optimum_lower: int | None = None
    optimum_upper: int | None = None
    nu_gap: int = 0
    certificate_error: str | None = None


def traced_unit(
    spec: JobSpec,
    tracer: Tracer,
    cache: ResultCache,
    record: dict[str, Any] | None,
) -> UnitFacts:
    """Recompute *spec* layer by layer under *tracer*'s spans.

    *record* (the engine's JSON record for the unit, when it produced
    one) is written to and read back from *cache* to time the cache
    layer on real bytes.  The caller picks the engine with
    ``use_engine``.
    """
    with tracer.span("unit", unit=f"{spec.algorithm} {spec.display_label()}"):
        with tracer.span("engine.cache.key"):
            key = cache_key(spec)
        with tracer.span("generators.build"):
            graph = spec.graph.build()
        with tracer.span("portgraph.compile"):
            graph.compiled()
        with tracer.span("registry.resolve"):
            algorithm = resolve(
                spec.algorithm, dict(spec.algorithm_params),
                rng_seed=unit_rng_seed(key),
            )
            if algorithm.factory is None:
                raise ValueError(
                    f"the traced run needs an anonymous-model algorithm, "
                    f"got {spec.algorithm!r} ({algorithm.model})"
                )
            program = algorithm.factory(graph)
        with tracer.span("runtime.rounds"):
            result = run_anonymous(graph, program)
        with tracer.span("runtime.decode"):
            edges = result.edge_set()
        with tracer.span("eds.feasibility"):
            feasible = is_edge_dominating_set(graph, edges)
        facts = UnitFacts(
            num_edges=graph.num_edges,
            solution_size=len(edges),
            rounds=result.rounds,
            feasible=feasible,
        )
        if spec.optimum == "lower_bound":
            with tracer.span("eds.lower_bound"):
                facts.optimum_lower = eds_lower_bound(graph)
        elif spec.optimum == "dual_bound":
            # nu_sandwich, one layer call at a time.
            with tracer.span("bounds.primal"):
                matching = primal_matching(
                    graph, seed=derive_seed("bounds", spec.to_json_dict())
                )
            with tracer.span("bounds.dual"):
                cover = fractional_vertex_cover(graph, matching)
            nu = BoundResult(
                lower=len(matching),
                upper=cover.bound,
                certificate=SandwichCertificate(
                    matching=MatchingCertificate(edges=matching, maximal=True),
                    cover=cover,
                ),
                exact=False,
            )
            with tracer.span("bounds.verify"):
                try:
                    verify_certificate(graph, nu)
                except CertificateError as exc:
                    facts.certificate_error = str(exc)
            facts.nu_gap = nu.gap
            facts.optimum_lower = eds_lower_bound_from_nu(
                nu.lower, graph.num_edges, graph.max_degree
            )
            # A maximal matching is itself an EDS, so it bounds the
            # optimum from above, as does the (feasible) solution.
            facts.optimum_upper = min(len(matching), len(edges))
        if record is not None:
            with tracer.span("engine.cache.put"):
                cache.put(key, record)
            with tracer.span("engine.cache.get"):
                cache.get(key)
    return facts
