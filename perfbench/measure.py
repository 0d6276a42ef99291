"""One benchmark run: cold and warm passes, set-up probes, traced pass.

:func:`run_workload` drives one workload through the public
``repro.api.run_sweep`` entry point and returns a :class:`RunData`
with everything measured; :func:`end_to_end_metrics` and
:func:`per_layer_metrics` turn it into the named metrics.  Nothing here
touches the program's internals: the traced pass times calls into each
layer's public functions from :mod:`tracing`.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from repro import api
from repro.eds.bounds import eds_lower_bound_from_nu
from repro.engine.cache import ResultCache
from repro.engine.records import ResultRecord
from repro.runtime.scheduler import use_engine

import gate
from tracing import COLD_PATH_LAYERS, LAYERS, Tracer, UnitFacts, traced_unit
from workloads import Workload

__all__ = [
    "RunData",
    "end_to_end_metrics",
    "machine_line",
    "per_layer_metrics",
    "ratio_width",
    "reconciliation_table",
    "result_line",
    "run_workload",
    "work_dir",
    "write_trace",
]

#: Fresh interpreters started per run to time set-up; the median counts.
SETUP_PROBES = 9

#: Time spent on warm calls after each cold call, as a share of its wall.
RERUN_SHARE = 0.1

#: The machine-speed probe: a fixed pure-Python loop of this many
#: multiply-adds, timed next to every cold call and set-up probe.
REFERENCE_LOOP = 100_000

#: The loop's time on the nominal machine that the end-to-end timings
#: are stated for ("reference seconds"; see ``perfbench/README.md``).
REFERENCE_S = 0.005

#: What a fresh interpreter does before it can run a unit: import the
#: façade and make the registry catalogue ready (built-ins + plugins).
_SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import repro.api
t1 = time.perf_counter()
from repro.registry import algorithm_names, family_names, measure_names
algorithm_names(); family_names(); measure_names()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


@dataclass
class Pass:
    """One pass over the workload's units."""

    outcomes: list[gate.Outcome]
    wall_s: float
    #: Per-unit call walls (only when every unit is its own call).
    unit_walls: list[float]
    #: The reference loop's time around each call of the pass.
    ref_s: list[float] = field(default_factory=list)


@dataclass
class Rerun:
    """One warm call against the cache a cold pass filled.

    Its records are checked on arrival and dropped, so holding many
    warm samples does not inflate the run's peak RSS.
    """

    cold: int
    units: int
    wall_s: float
    #: The reference loop's time right before the call.
    ref_s: float
    hit_rate: float
    #: Gate failures by unit index (:func:`gate.rerun_failures`).
    failures: dict[int, str]


@dataclass
class RunData:
    workload: Workload
    units: list
    cold: list[Pass] = field(default_factory=list)
    reruns: list[Rerun] = field(default_factory=list)
    #: Untraced per-unit calls interleaved with the traced passes (the
    #: traced run only): the walls the traced layers reconcile to.
    untraced: list[Pass] = field(default_factory=list)
    #: One tracer per traced pass; ``facts`` come from the first.
    tracers: list[Tracer] = field(default_factory=list)
    facts: list[UnitFacts | str] = field(default_factory=list)
    cache_bytes: int = 0
    peak_rss_mib: float = 0.0
    #: (import_s, catalogue_s, reference loop time) per set-up probe.
    setup: list[tuple[float, float, float]] = field(default_factory=list)

    def failures(self) -> dict[tuple[int, int], list[str]]:
        return gate.failures(
            [p.outcomes for p in self.cold],
            self.facts,
            self.units[0].optimum,
            [(r.cold, r.failures) for r in self.reruns],
        )

    @property
    def attempted(self) -> int:
        return len(self.units) * len(self.cold)


def reference_s() -> float:
    """The reference loop's time now: the best of three runs, so one
    scheduling hiccup does not pass for a slow machine."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best


def reference_seconds(wall_s: float, ref_s: float) -> float:
    """*wall_s* measured while the reference loop took *ref_s*, stated
    in reference seconds: as if the loop took :data:`REFERENCE_S`."""
    return wall_s * REFERENCE_S / ref_s


def _engine(workload: Workload):
    """The workload's ``use_engine`` override (default engine if none)."""
    return use_engine(workload.engine) if workload.engine else nullcontext()


def _error(exc: Exception) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


def _call(
    workload: Workload, units: list, cache: ResultCache, backend: str | None
) -> tuple[list[gate.Outcome], float, int]:
    """One ``api.run_sweep`` call: (outcomes, wall, cache hits).

    A call that raises loses all its units, so per-unit workloads make
    one call per unit and one failure cannot hide the rest.
    """
    with _engine(workload):
        started = time.perf_counter()
        try:
            report = api.run_sweep(
                units, workers=workload.workers, backend=backend, cache=cache
            )
            outcomes, hits = list(report.records), report.cache_hits
        except Exception as exc:
            outcomes, hits = [_error(exc)] * len(units), 0
        return outcomes, time.perf_counter() - started, hits


def _warm(
    data: RunData, cold: int, indices: list[int], expected: list[gate.Outcome],
    cache: ResultCache, seconds: float, ref_s: float,
) -> None:
    """Warm calls for *indices* against *cache*, checked against the
    *expected* cold outcomes: at least three, for at least *seconds*.
    *ref_s* is the reference loop's time measured just before."""
    units = [data.units[i] for i in indices]
    until = time.perf_counter() + seconds
    for count in itertools.count():
        if count >= 3 and time.perf_counter() >= until:
            break
        outcomes, wall, hits = _call(
            data.workload, units, cache, data.workload.backend
        )
        hit_rate = hits / len(units)
        found = gate.rerun_failures(expected, outcomes, hit_rate)
        data.reruns.append(Rerun(
            cold, len(units), wall, ref_s, hit_rate,
            {indices[u]: reason for u, reason in found.items()},
        ))


def cold_pass(data: RunData, cache: ResultCache) -> None:
    """Every unit once on the fresh *cache*, each call followed by warm
    reruns of what it just cached, so warm samples span the window."""
    workload, n = data.workload, len(data.units)
    groups = [[i] for i in range(n)] if workload.per_unit else [list(range(n))]
    outcomes: list[gate.Outcome] = []
    walls: list[float] = []
    refs: list[float] = []
    gc.collect()
    for group in groups:
        before = reference_s()
        out, wall, _ = _call(
            workload, [data.units[i] for i in group], cache, workload.backend
        )
        after = reference_s()
        outcomes += out
        walls.append(wall)
        refs.append((before + after) / 2)
        _warm(
            data, len(data.cold), group, out, cache, wall * RERUN_SHARE, after
        )
    data.cold.append(Pass(
        outcomes, sum(walls), walls if workload.per_unit else [], refs
    ))


def _fresh_cache(work: Path, name: str) -> ResultCache:
    path = work / name
    shutil.rmtree(path, ignore_errors=True)
    return ResultCache(path)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*.json"))


def _peak_rss_mib() -> float:
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return usage / 1024  # ru_maxrss is in KiB on Linux


def probe_setup(src: Path) -> tuple[float, float, float]:
    """(import_s, catalogue_s, reference loop time) of one fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    before = reference_s()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    import_s, catalogue_s = map(float, done.stdout.split())
    return import_s, catalogue_s, (before + reference_s()) / 2


def traced_pass(data: RunData, work: Path, *, interleave: bool) -> None:
    """Recompute every unit layer by layer.

    With *interleave*, each unit first runs untraced as its own inline
    call (into :attr:`RunData.untraced`), right before its traced
    recomputation, so a slow stretch of the machine hits both alike.
    Otherwise the records come from the last cold pass.  The first pass
    keeps the facts the gate checks.
    """
    tracer = Tracer()
    traced_cache = _fresh_cache(work, "traced")
    untraced = Pass([], 0.0, [])
    untraced_cache = _fresh_cache(work, "untraced")
    facts: list[UnitFacts | str] = []
    gc.collect()
    for index, unit in enumerate(data.units):
        if interleave:
            out, wall, _ = _call(data.workload, [unit], untraced_cache, "inline")
            untraced.outcomes += out
            untraced.unit_walls.append(wall)
            outcome = out[0]
        else:
            outcome = data.cold[-1].outcomes[index]
        record = (
            outcome.to_json_dict()
            if isinstance(outcome, ResultRecord) else None
        )
        with _engine(data.workload):
            try:
                facts.append(traced_unit(unit, tracer, traced_cache, record))
            except Exception as exc:
                facts.append(_error(exc))
    if interleave:
        untraced.wall_s = sum(untraced.unit_walls)
        data.untraced.append(untraced)
    if not data.tracers:
        data.facts = facts
    data.tracers.append(tracer)


def run_workload(
    workload: Workload,
    units: list,
    *,
    seconds: float,
    trace: bool,
    src: Path,
    work: Path,
) -> RunData:
    """Measure *units* for about *seconds* and check every record.

    A run repeats a cycle — a pass over the units, then one set-up
    probe — while the next cycle and everything that must follow it
    still fit in *seconds*: the set-up probes still owed and, in the
    end-to-end run, the gate's traced recomputation.  Spreading the
    samples over the window keeps a slow stretch of a shared machine
    from biasing one metric.  At least one cycle always runs.

    In the end-to-end run (``trace=False``) a pass is a cold pass on a
    fresh cache with its warm reruns.  The traced run makes one cold
    pass first for pooled workloads; its passes are traced passes with
    each unit's untraced call interleaved, and for per-unit workloads
    the last interleaved pass stands in for the cold pass.
    """
    data = RunData(workload, units)
    started = time.perf_counter()
    if trace and not workload.per_unit:
        cache = _fresh_cache(work, "cold")
        cold_pass(data, cache)
    while True:
        cycle = time.perf_counter()
        if trace:
            traced_pass(data, work, interleave=True)
            closing = 0.0
        else:
            cache = _fresh_cache(work, f"cold-{len(data.cold)}")
            cold_pass(data, cache)
            # The closing traced pass recomputes every unit serially.
            closing = workload.workers * data.cold[-1].wall_s
        probe = time.perf_counter()
        data.setup.append(probe_setup(src))
        now = time.perf_counter()
        owed = max(0, SETUP_PROBES - len(data.setup) - 1) * (now - probe)
        if now - started + (now - cycle) + owed + closing > seconds:
            break
    if trace and workload.per_unit:
        data.cold.append(data.untraced[-1])
        cache = ResultCache(work / "untraced")
        ref = reference_s()
        for index, outcome in enumerate(data.cold[0].outcomes):
            _warm(data, 0, [index], [outcome], cache, 0.0, ref)
    data.cache_bytes = _dir_bytes(cache.root)
    data.peak_rss_mib = _peak_rss_mib()
    if not trace:
        traced_pass(data, work, interleave=False)
    while len(data.setup) < SETUP_PROBES:
        data.setup.append(probe_setup(src))
    return data


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def ratio_width(record: ResultRecord) -> Fraction:
    """Width of the approximation-ratio bracket *record* certifies.

    Certified records carry ``[ratio_lo, ratio_hi]``.  Otherwise the
    bracket is ``[1, size / lower]`` — no EDS beats the optimum — with
    the record's lower bound on the optimum or, when it measured none,
    the degree bound ``⌈m / (2Δ − 1)⌉`` (an edge dominates at most
    ``2Δ − 1`` edges).
    """
    if record.has_interval:
        return record.ratio_hi - record.ratio_lo
    lower = record.optimum or eds_lower_bound_from_nu(
        0, record.num_edges, record.max_degree
    )
    return Fraction(record.solution_size, lower) - 1 if lower else Fraction(0)


def _records(outcomes: list[gate.Outcome]) -> list[ResultRecord]:
    return [o for o in outcomes if isinstance(o, ResultRecord)]


def _cold_units_per_s(data: RunData) -> float:
    """Units per reference second over the cold passes: from each
    unit's median wall where units run as their own calls, else from
    the median pass."""
    n = len(data.units)
    if data.workload.per_unit:
        walls = zip(*(
            map(reference_seconds, p.unit_walls, p.ref_s) for p in data.cold
        ))
        return n / sum(statistics.median(w) for w in walls)
    return statistics.median(
        n / reference_seconds(p.wall_s, p.ref_s[0]) for p in data.cold
    )


def end_to_end_metrics(data: RunData) -> dict[str, tuple[float, str]]:
    records = _records(data.cold[-1].outcomes)
    widths = [ratio_width(r) for r in records]
    return {
        "units_per_s": (_cold_units_per_s(data), "1/s"),
        "rerun_units_per_s": (statistics.median(
            r.units / reference_seconds(r.wall_s, r.ref_s)
            for r in data.reruns
        ), "1/s"),
        "peak_rss_mib": (data.peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(
            reference_seconds(a + b, ref) for a, b, ref in data.setup
        ), "s"),
        "ratio_width_mean": (
            float(sum(widths) / len(widths)) if widths else 0.0, "ratio"),
    }


def machine_line(data: RunData) -> str:
    """The machine's speed during the run, and the raw wall figures the
    reference-second metrics were scaled from."""
    n = len(data.units)
    refs = [r for p in data.cold for r in p.ref_s]
    refs += [ref for _, _, ref in data.setup]
    cold = statistics.median(n / p.wall_s for p in data.cold)
    warm = statistics.median(r.units / r.wall_s for r in data.reruns)
    setup = statistics.median(a + b for a, b, _ in data.setup)
    return (
        f"machine: reference loop median {statistics.median(refs) * 1e3:.2f}"
        f" ms (nominal {REFERENCE_S * 1e3:.2f} ms); raw wall: "
        f"{cold:.6g} cold units/s (median pass), {warm:.6g} warm units/s, "
        f"set-up {setup:.4f} s"
    )


def _unit_wall(data: RunData) -> float:
    """Median over traced passes of Σ untraced unit walls: what the
    traced layers reconcile to."""
    return statistics.median(p.wall_s for p in data.untraced)


def _layer_totals(data: RunData) -> dict[str, float]:
    per_pass = [t.totals() for t in data.tracers]
    return {
        name: statistics.median(p[name] for p in per_pass) for name in LAYERS
    }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer_metrics(data: RunData) -> dict[str, tuple[float, str]]:
    layers = _layer_totals(data)
    facts = [f for f in data.facts if isinstance(f, UnitFacts)]
    edges = sum(f.num_edges for f in facts)
    rounds = sum(f.rounds for f in facts)
    unit_wall = _unit_wall(data)
    cold_wall = data.cold[0].wall_s
    workers = data.workload.workers
    traced_sum = sum(layers[name] for name in COLD_PATH_LAYERS)
    reruns = data.reruns
    metrics = {f"{name}_s": (layers[name], "s") for name in LAYERS}
    metrics.update({
        "generators.edges": (edges, "count"),
        "generators.edges_per_s": (_rate(
            edges, layers["generators.build"] + layers["portgraph.compile"]
        ), "1/s"),
        "runtime.rounds": (rounds, "count"),
        "runtime.rounds_per_s": (
            _rate(rounds, layers["runtime.rounds"]), "1/s"),
        "runtime.selected_edges": (
            sum(f.solution_size for f in facts), "count"),
        "bounds.gap": (sum(f.nu_gap for f in facts), "count"),
        "engine.backends.parallel_efficiency": (
            _rate(unit_wall, workers * cold_wall), "ratio"),
        "engine.backends.overhead_s": (cold_wall - unit_wall / workers, "s"),
        "engine.cache.bytes": (data.cache_bytes, "bytes"),
        "engine.cache.hit_rate": (
            sum(r.hit_rate for r in reruns) / len(reruns), "ratio"),
        "setup.import_s": (
            statistics.median(a for a, _, _ in data.setup), "s"),
        "setup.catalogue_s": (
            statistics.median(b for _, b, _ in data.setup), "s"),
        "unaccounted_share": (
            _rate(unit_wall - traced_sum, unit_wall), "ratio"),
    })
    return metrics


def reconciliation_table(data: RunData) -> str:
    """Each cold-path layer's share of the untraced unit wall."""
    layers = _layer_totals(data)
    unit_wall = _unit_wall(data)
    lines = [
        f"reconciliation: {data.workload.name} — Σ untraced unit wall "
        f"{unit_wall:.3f} s over {len(data.units)} unit(s), median of "
        f"{len(data.tracers)} traced pass(es)",
        f"  {'layer':<22} {'total s':>10} {'share':>8}",
    ]
    for name in COLD_PATH_LAYERS:
        lines.append(
            f"  {name:<22} {layers[name]:>10.4f} "
            f"{_rate(layers[name], unit_wall):>8.1%}"
        )
    rest = unit_wall - sum(layers[name] for name in COLD_PATH_LAYERS)
    lines.append(
        f"  {'unaccounted':<22} {rest:>10.4f} {_rate(rest, unit_wall):>8.1%}"
    )
    return "\n".join(lines)


def write_trace(data: RunData, path: Path) -> None:
    data.tracers[0].write_chrome_trace(path)


def work_dir(out: Path, workload: str) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out))


def result_line(
    data: RunData, metrics: dict[str, tuple[float, str]], failed: int
) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": data.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })
