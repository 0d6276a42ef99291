"""The simulation-core perf trajectory: pernode vs vector.

The two engines that remain are the node programs over the compiled
flat arrays (``pernode``, the executable paper spec and the path of
every algorithm without a kernel) and the numpy struct-of-arrays
kernels (``vector``, the default).  For representative
``large-regular`` and ``xlarge-regular`` cells this benchmark times
them against each other, asserts they produce identical results, and
derives rounds/sec throughput.

Two timing disciplines:

* **cold** — a fresh graph every rep, so the figure *includes* graph
  compilation plus program construction (the engine-realistic
  first-contact cost);
* **warm** — one graph reused across reps after an untimed priming
  run, so the memoised derived tables (vector view, kernel schedules)
  are already in place and the figure is the round loop itself.

pernode warm is only timed on the ``large`` cells: node programs keep
no per-graph tables beyond the compiled form, so on the ``xlarge``
cells it would add minutes of runtime while measuring nothing new.

Run as a script to emit the machine-readable trajectory artifact::

    PYTHONPATH=src:benchmarks python benchmarks/bench_runtime_core.py --out BENCH_runtime.json

CI uploads the JSON as a build artifact.  The pytest entry points double
as the perf-smoke gate (vector ≥ 2× pernode cold on two units — a
deliberately generous floor; the measured margins are far higher), the
≥ 5× acceptance number on every round-dominated cell, and the
telemetry-overhead gate on both engines.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import pytest

from repro.obs import recording
from repro.registry.algorithms import resolve
from repro.registry.families import get_family
from repro.runtime import use_engine

from conftest import emit

#: Representative cells of the ``large-regular`` scenario (n = 1024)
#: plus ``xlarge-regular`` cells (n = 16384).  ``round_dominated``
#: marks units whose cost is the round loop itself — the speedup claim
#: attaches to those; ``port_one`` is a single round, so its run is
#: setup-dominated and reported without the claim.
UNITS = (
    {"algorithm": "port_one", "d": 5, "n": 1024,
     "round_dominated": False, "xlarge": False},
    {"algorithm": "regular_odd", "d": 5, "n": 1024,
     "round_dominated": True, "xlarge": False},
    {"algorithm": "bounded_degree", "d": 5, "n": 1024,
     "round_dominated": True, "xlarge": False},
    {"algorithm": "bounded_degree", "d": 9, "n": 1024,
     "round_dominated": True, "xlarge": False},
    {"algorithm": "regular_odd", "d": 5, "n": 16384,
     "round_dominated": True, "xlarge": True},
    {"algorithm": "regular_odd", "d": 9, "n": 16384,
     "round_dominated": True, "xlarge": True},
    {"algorithm": "bounded_degree", "d": 9, "n": 16384,
     "round_dominated": True, "xlarge": True},
)

REPS = 3


def _build(unit):
    return get_family("regular").make(
        {"d": unit["d"], "n": unit["n"]}, 1
    )


def _time_engine(unit, engine: str, *, warm: bool = False):
    """Best-of-REPS wall time of one unit under *engine*.

    Cold reps build a fresh graph each (the graph build itself is
    untimed, everything derived from it is timed); warm reps reuse one
    graph primed by an untimed run, so memoised derived tables are hot.
    """
    bound = resolve(unit["algorithm"])
    best = float("inf")
    outcome = None
    if warm:
        graph = _build(unit)
        with use_engine(engine):
            outcome = bound.run(graph)  # prime the memos, untimed
            for _ in range(REPS):
                started = time.perf_counter()
                outcome = bound.run(graph)
                best = min(best, time.perf_counter() - started)
        return best, outcome
    for _ in range(REPS):
        graph = _build(unit)
        with use_engine(engine):
            started = time.perf_counter()
            outcome = bound.run(graph)
            elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best, outcome


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return round(numerator / denominator, 2)


def measure_units() -> dict:
    """Time every unit on both engines; assemble the rows."""
    rows = []
    for unit in UNITS:
        pernode_cold, pernode_out = _time_engine(unit, "pernode")
        vector_cold, vector_out = _time_engine(unit, "vector")
        vector_warm, _ = _time_engine(unit, "vector", warm=True)
        assert vector_out == pernode_out, f"engines disagree on {unit}"
        pernode_warm = None
        if not unit["xlarge"]:
            pernode_warm, _ = _time_engine(unit, "pernode", warm=True)
        rounds = vector_out[1]
        rows.append({
            **unit,
            "rounds": rounds,
            "pernode_cold_s": round(pernode_cold, 6),
            "pernode_warm_s": (
                None if pernode_warm is None else round(pernode_warm, 6)
            ),
            "vector_cold_s": round(vector_cold, 6),
            "vector_warm_s": round(vector_warm, 6),
            "rounds_per_s_pernode_cold": round(rounds / pernode_cold, 1),
            "rounds_per_s_vector_cold": round(rounds / vector_cold, 1),
            "rounds_per_s_vector_warm": round(rounds / vector_warm, 1),
            "speedup_cold": _ratio(pernode_cold, vector_cold),
            "speedup_warm": _ratio(pernode_warm, vector_warm),
        })

    dominated = [r["speedup_cold"] for r in rows if r["round_dominated"]]
    return {
        "benchmark": (
            "runtime-core pernode vs vector (large/xlarge-regular cells)"
        ),
        "reps_best_of": REPS,
        "units": rows,
        "summary": {
            # cold pernode-over-vector on the round-dominated cells
            "round_dominated_min_speedup": min(dominated),
            "round_dominated_max_speedup": max(dominated),
        },
    }


def _fmt_ms(seconds) -> str:
    return "      —" if seconds is None else f"{seconds * 1000:7.1f}"


def format_table(payload: dict) -> str:
    lines = [
        "runtime core: pernode vs vector (best of "
        f"{payload['reps_best_of']}; cold = fresh graph per rep, "
        "warm = memoised tables)",
        f"{'unit':30s} {'pn cold':>9s} {'pn warm':>9s} "
        f"{'vec cold':>9s} {'vec warm':>9s} {'cold x':>7s}",
    ]
    for row in payload["units"]:
        label = f"{row['algorithm']} d={row['d']} n={row['n']}"
        lines.append(
            f"{label:30s} {_fmt_ms(row['pernode_cold_s'])}ms"
            f" {_fmt_ms(row['pernode_warm_s'])}ms"
            f" {_fmt_ms(row['vector_cold_s'])}ms"
            f" {_fmt_ms(row['vector_warm_s'])}ms"
            f" {row['speedup_cold']:6.1f}x"
        )
    summary = payload["summary"]
    lines.append(
        "round-dominated, pernode → vector (cold): "
        f"{summary['round_dominated_min_speedup']:.1f}x – "
        f"{summary['round_dominated_max_speedup']:.1f}x"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("unit", [
    {"algorithm": "regular_odd", "d": 5, "n": 512},
    {"algorithm": "bounded_degree", "d": 9, "n": 16384},
], ids=lambda unit: f"{unit['algorithm']}-d{unit['d']}-n{unit['n']}")
def test_perf_smoke_vector_beats_pernode(unit):
    """CI gate: vector ≥ 2× over pernode cold on a large-regular and an
    xlarge-regular round-dominated unit.  The floor is far below the
    measured margin (≥ 10×) so shared-runner noise cannot flake it."""
    pernode_s, pernode_out = _time_engine(unit, "pernode")
    vector_s, vector_out = _time_engine(unit, "vector")
    assert vector_out == pernode_out
    emit(
        f"perf smoke {unit['algorithm']} d={unit['d']} n={unit['n']}: "
        f"pernode={pernode_s * 1000:.1f} ms, "
        f"vector={vector_s * 1000:.1f} ms "
        f"({pernode_s / vector_s:.1f}x)"
    )
    assert pernode_s / vector_s >= 2.0


def test_round_dominated_units_speed_up_5x():
    """The acceptance number on the full unit set (the committed
    BENCH_runtime.json was produced by exactly this measurement): cold
    vector-over-pernode ≥ 5× on every round-dominated cell."""
    payload = measure_units()
    emit(format_table(payload))
    assert payload["summary"]["round_dominated_min_speedup"] >= 5.0


#: Telemetry-overhead unit per engine.  Each timed sample runs three
#: fresh graphs; the vector unit is sized so one sample (~135 ms on a
#: 2-core Xeon) lasts at least as long as the former compiled-engine
#: sample on ``regular_odd`` d=5 n=1024 (~120 ms), keeping the 5%
#: margin well above timer and scheduler noise.
TELEMETRY_UNITS = {
    "pernode": {"algorithm": "regular_odd", "d": 5, "n": 1024},
    "vector": {"algorithm": "bounded_degree", "d": 9, "n": 8192},
}


@pytest.mark.parametrize("engine", sorted(TELEMETRY_UNITS))
def test_telemetry_overhead_under_5_percent(engine):
    """The always-on-cheap gate for the telemetry subsystem: on a
    round-dominated unit the instrumented round loop may cost at most
    5% extra.  Measured with a recorder actively *collecting* — a strict
    superset of the disabled path (one flag check), so passing here
    bounds both.

    Measurement discipline (shared runners shift CPU speed regimes
    mid-run, with run-to-run swings far above the effect under test):
    gc is off while timing, each sample batches three executions, the
    variants run as off/on pairs with the order alternating per rep,
    and the verdict is the *median* per-pair ratio — pairs land in the
    same speed regime, the median throws away the ones straddling a
    regime shift.  A median over the threshold re-measures (up to three
    attempts): a real 5% regression reproduces, a scheduler artefact
    does not."""
    import gc as _gc
    import statistics

    unit = TELEMETRY_UNITS[engine]
    bound = resolve(unit["algorithm"])
    reps = 11
    batch = 3

    def one_sample(with_recorder: bool) -> float:
        graphs = [_build(unit) for _ in range(batch)]
        with use_engine(engine):
            if with_recorder:
                with recording():
                    started = time.perf_counter()
                    for graph in graphs:
                        bound.run(graph)
                    return time.perf_counter() - started
            started = time.perf_counter()
            for graph in graphs:
                bound.run(graph)
            return time.perf_counter() - started

    def measure() -> tuple[float, list[float]]:
        ratios = []
        _gc.disable()
        try:
            one_sample(False)  # warm both variants up, untimed
            one_sample(True)
            for rep in range(reps):
                if rep % 2:
                    on = one_sample(True)
                    off = one_sample(False)
                else:
                    off = one_sample(False)
                    on = one_sample(True)
                ratios.append(on / off)
        finally:
            _gc.enable()
        return statistics.median(ratios), ratios

    for attempt in range(3):
        median_ratio, ratios = measure()
        emit(
            f"telemetry overhead {engine} {unit['algorithm']} "
            f"d={unit['d']} n={unit['n']} (median of {reps} pairs of "
            f"{batch}, attempt {attempt + 1}): "
            f"{(median_ratio - 1.0) * 100:+.1f}% "
            f"(spread {min(ratios):.3f}..{max(ratios):.3f})"
        )
        if median_ratio <= 1.05:
            break
    assert median_ratio <= 1.05


def ledger_entries(payload: dict):
    """The bench rows as perf-ledger entries, one per engine.

    Each unit's cold time becomes a pseudo-phase named after the unit,
    so ``repro-eds perf compare`` flags per-unit regressions within one
    engine's trajectory (engines never compare against each other).
    """
    from repro.obs.perf import LedgerEntry, git_sha

    sha = git_sha()
    stamp = time.time()
    column = {"pernode": "pernode_cold_s", "vector": "vector_cold_s"}
    entries = []
    for engine, key in column.items():
        phases = {
            f"{row['algorithm']} d={row['d']} n={row['n']}": row[key]
            for row in payload["units"]
            if row.get(key) is not None
        }
        if not phases:
            continue
        entries.append(LedgerEntry(
            scenario="bench:runtime-core",
            engine=engine,
            phases=phases,
            unit_wall_s=sum(phases.values()),
            units=len(phases),
            reps=payload["reps_best_of"],
            git_sha=sha,
            recorded_unix=stamp,
            python=platform.python_version(),
        ))
    return entries


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="BENCH_runtime.json",
        help="where to write the machine-readable trajectory",
    )
    parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="also append one perf-ledger entry per engine "
        "(see `repro-eds perf`)",
    )
    args = parser.parse_args()
    payload = measure_units()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(format_table(payload))
    print(f"wrote {args.out}")
    if args.ledger:
        from repro.obs.perf import append_entry

        entries = ledger_entries(payload)
        for entry in entries:
            append_entry(args.ledger, entry)
        print(f"appended {len(entries)} ledger entr(ies) to {args.ledger}")
