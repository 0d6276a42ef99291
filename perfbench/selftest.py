"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so the repository's own test run
does not collect it: the smoke runs every workload end to end (tiny
sizes, about half a minute in all).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The same workloads at toy sizes.
_HUGE = dict(degrees=(3, 4), seeds=1)
TINY = {
    "huge-sparse": dict(_HUGE, sizes=(512,), optimum="none"),
    "certified": dict(_HUGE, sizes=(256,), optimum="dual_bound"),
    "sweep-small": dict(degrees=(2, 3), sizes=(16, 32), seeds=1),
}
TINY_WORKLOADS = {
    name: replace(w, overrides=TINY[name]) for name, w in WORKLOADS.items()
}


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(workloads, "WORKLOADS", TINY_WORKLOADS)


def _run(workload: str, trace: int) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace),
        ])
    return code, out.getvalue()


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, stdout = _run(workload, trace)
    assert code == 0, stdout
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(
            line.startswith(f"{metric['name']} ")
            and line.endswith(f" {metric['unit']}")
            for line in lines
        ), metric["name"]
        if not trace:
            assert printed["value"] > 0, metric["name"]
    if trace:
        assert any(line.startswith("reconciliation:") for line in lines)
        trace_file = ROOT / ".perfbench-out" / f"{workload}-seed3.trace.json"
        events = json.loads(trace_file.read_text())["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} >= {"unit", "runtime.rounds"}
        assert all(e["args"]["unit"] for e in spans)


@pytest.fixture(scope="module")
def certified_run() -> measure.RunData:
    w = TINY_WORKLOADS["certified"]
    work = measure.work_dir(ROOT / ".perfbench-out", "selftest")
    try:
        return measure.run_workload(
            w, w.units(3), seconds=0.1, trace=False,
            src=ROOT / "src", work=work,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_untampered_run_passes_the_gate(certified_run):
    assert certified_run.failures() == {}


def test_tampered_solution_size_counts_as_a_failure(certified_run):
    data = certified_run
    last = data.cold[-1].outcomes
    good = last[0]
    last[0] = replace(good, solution_size=good.solution_size + 1)
    try:
        found = data.failures()
    finally:
        last[0] = good
    last_pass = len(data.cold) - 1
    assert set(found) == {(last_pass, 0)}
    assert "solution_size" in " ".join(found[(last_pass, 0)])


def test_tampered_record_fails_the_command(monkeypatch):
    real = measure.api.run_sweep

    def tampering(units, **kwargs):
        report = real(units, **kwargs)
        first = report.store.records[0]
        report.store.records[0] = replace(first, rounds=first.rounds + 1)
        return report

    monkeypatch.setattr(measure.api, "run_sweep", tampering)
    code, stdout = _run("huge-sparse", 0)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "FAILED" in stdout and "rounds" in stdout


def test_certified_checks_reject_a_broken_bracket(certified_run):
    record = certified_run.cold[-1].outcomes[0]
    facts = certified_run.facts[0]
    broken = replace(record, optimum_upper=record.solution_size + 1)
    reasons = gate.record_failures(broken, facts, "dual_bound")
    assert any("bracket out of order" in r for r in reasons)
    disjoint = replace(record, optimum_lower=facts.optimum_upper + 1)
    reasons = gate.record_failures(disjoint, facts, "dual_bound")
    assert any("misses the traced" in r for r in reasons)
    failed_verify = replace(facts, certificate_error="cover infeasible")
    reasons = gate.record_failures(record, failed_verify, "dual_bound")
    assert any("verify_certificate" in r for r in reasons)


def test_rerun_misses_and_changed_bytes_count_as_failures(certified_run):
    data = certified_run
    cold = [p.outcomes for p in data.cold]
    missed = gate.rerun_failures(cold[0], cold[0], 0.8)
    found = gate.failures(cold, data.facts, "dual_bound", [(0, missed)])
    assert set(found) == {(0, u) for u in range(len(data.units))}
    assert all("hit_rate" in r[0] for r in found.values())
    warm = list(cold[0])
    warm[1] = replace(warm[1], num_edges=warm[1].num_edges + 1)
    changed = gate.rerun_failures(cold[0], warm, 1.0)
    assert list(changed) == [1] and "bytes differ" in changed[1]


def test_missing_program_exits_nonzero_without_a_result(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "certified", "--seed", "1",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
