"""The repository's end-to-end benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload huge-sparse --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` is the separate traced run that gives the per-layer
metrics, prints the per-layer reconciliation table and writes the spans
as Chrome trace-event JSON (Perfetto loads it) under ``.perfbench-out/``.
Both check every record through the correctness gate (:mod:`gate`) and
exit 1 if any unit failed.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("huge-sparse", "certified", "sweep-small")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="goes only into the grid's base_seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Spawned pool workers import repro from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    import shutil

    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    units = workload.units(args.seed)
    print(workload.provenance(args.seed))
    work = measure.work_dir(OUT, workload.name)
    try:
        data = measure.run_workload(
            workload, units, seconds=args.seconds, trace=bool(args.trace),
            src=SRC, work=work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"samples: {len(data.cold)} cold pass(es), {len(data.reruns)} "
          f"warm call(s), {len(data.setup)} set-up probe(s), "
          f"{len(data.tracers)} traced pass(es)")
    found = data.failures()
    for (p, u), reasons in sorted(found.items()):
        print(f"FAILED pass {p} unit {u} ({units[u].display_label()} "
              f"{units[u].algorithm}): {'; '.join(reasons)}")
    print(f"error_rate {len(found) / data.attempted:.6f} ratio "
          f"({len(found)} of {data.attempted} unit run(s) failed)")
    if args.trace:
        metrics = measure.per_layer_metrics(data)
        print(measure.reconciliation_table(data))
        path = OUT / f"{workload.name}-seed{args.seed}.trace.json"
        measure.write_trace(data, path)
        print(f"trace: {path.relative_to(ROOT)}")
    else:
        metrics = measure.end_to_end_metrics(data)
        print(measure.machine_line(data))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(measure.result_line(data, metrics, len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
