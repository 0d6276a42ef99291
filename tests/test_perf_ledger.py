"""Tests for the perf ledger (``repro.obs.perf``) and its CLI.

The acceptance criterion: ``repro-eds perf compare`` detects an
artificially injected ≥25% phase slowdown and exits nonzero, while
back-to-back identical runs compare clean (exit 0).  The noise
machinery that makes that gate trustworthy — per-phase medians across
reps, baseline medians across runs, and the minimum-phase noise floor —
is tested piecewise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.engine import SweepGrid
from repro.obs import telemetry
from repro.obs.perf import (
    DEFAULT_MIN_PHASE_S,
    DEFAULT_THRESHOLD,
    WALL_PHASE,
    LedgerEntry,
    append_entry,
    compare_entries,
    compare_ledger,
    entry_from_sessions,
    format_entry,
    format_ledger,
    git_sha,
    read_ledger,
)

SEED_LEDGER = Path(__file__).parent / "data" / "perf_ledger_seed.jsonl"

GRID = SweepGrid(
    name="ledger-test",
    algorithms=("port_one",),
    family="regular",
    degrees=(2, 3),
    sizes=(12,),
    seeds=1,
)


def make_entry(phases: dict[str, float], *, wall: float | None = None,
               scenario: str = "s", engine: str = "e") -> LedgerEntry:
    return LedgerEntry(
        scenario=scenario,
        engine=engine,
        phases=dict(phases),
        unit_wall_s=wall if wall is not None else sum(phases.values()),
        units=4,
        reps=3,
        git_sha="abc1234",
        recorded_unix=1_700_000_000.0,
        python="3.11.7",
    )


class TestLedgerEntry:
    def test_json_round_trip(self):
        entry = make_entry({"simulate": 0.25, "optimum": 0.125})
        entry.mem_peak_b = 1 << 20
        entry.rss_peak_b = 1 << 26
        entry.note = "round trip"
        restored = LedgerEntry.from_json_dict(
            json.loads(json.dumps(entry.to_json_dict()))
        )
        assert restored == entry

    def test_reads_entries_with_numpy_flag(self):
        """Ledgers written before numpy became a core dependency carry a
        ``numpy`` flag; it is ignored on read."""
        data = make_entry({"simulate": 0.1}).to_json_dict()
        assert "numpy" not in data
        restored = LedgerEntry.from_json_dict({**data, "numpy": False})
        assert restored == make_entry({"simulate": 0.1})

    def test_json_omits_absent_memory(self):
        data = make_entry({"simulate": 0.1}).to_json_dict()
        assert "mem_peak_b" not in data and "rss_peak_b" not in data
        assert "note" not in data

    def test_group_key(self):
        entry = make_entry({}, scenario="large-regular", engine="vector")
        assert entry.group == ("large-regular", "vector")

    def test_append_and_read(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = make_entry({"simulate": 0.1})
        second = make_entry({"simulate": 0.2})
        append_entry(path, first)
        append_entry(path, second)
        entries = read_ledger(path)
        assert entries == [first, second]
        # Append-only: a third write never disturbs the first two lines.
        head = path.read_text().splitlines()[:2]
        append_entry(path, make_entry({"simulate": 0.3}))
        assert path.read_text().splitlines()[:2] == head

    def test_read_missing_ledger_is_empty(self, tmp_path):
        assert read_ledger(tmp_path / "nope.jsonl") == []


class TestEntryFromSessions:
    @pytest.fixture(scope="class")
    def sessions(self):
        out = []
        for _ in range(3):
            with telemetry() as session:
                api.run_sweep(GRID.expand(), cache=None, backend="inline")
            out.append(session)
        return out

    def test_medians_across_reps(self, sessions):
        entry = entry_from_sessions(
            sessions, scenario="default", engine="compiled"
        )
        assert entry.reps == 3
        assert entry.units == len(GRID.expand())
        assert entry.unit_wall_s == statistics.median(
            s.unit_wall_total_s() for s in sessions
        )
        simulate_samples = [
            s.metrics.summary("phase.simulate")["total"] for s in sessions
        ]
        assert entry.phases["simulate"] == statistics.median(simulate_samples)
        assert entry.mem_peak_b is None

    def test_memory_lands_in_entry(self):
        with telemetry(capture_memory=True) as session:
            api.run_sweep(GRID.expand()[:1], cache=None, backend="inline")
        entry = entry_from_sessions(
            [session], scenario="default", engine="compiled"
        )
        assert entry.mem_peak_b and entry.mem_peak_b > 0
        assert entry.rss_peak_b and entry.rss_peak_b > entry.mem_peak_b

    def test_empty_sessions_rejected(self):
        with pytest.raises(ValueError):
            entry_from_sessions([], scenario="s", engine="e")


class TestCompareEntries:
    def test_identical_entries_compare_clean(self):
        entry = make_entry({"simulate": 0.1, "optimum": 0.05})
        report = compare_entries([entry], entry)
        assert report.ok
        assert all(d.ratio == 1.0 for d in report.deltas)

    def test_injected_slowdown_is_flagged(self):
        base = make_entry({"simulate": 0.1, "optimum": 0.05})
        slow = make_entry({"simulate": 0.15, "optimum": 0.05})
        report = compare_entries([base], slow)
        assert not report.ok
        flagged = {d.phase for d in report.regressions}
        assert "simulate" in flagged
        assert "optimum" not in flagged

    def test_wall_participates_as_pseudo_phase(self):
        base = make_entry({"simulate": 0.01}, wall=0.1)
        slow = make_entry({"simulate": 0.01}, wall=0.2)
        report = compare_entries([base], slow)
        assert {d.phase for d in report.regressions} == {WALL_PHASE}

    def test_noise_floor_suppresses_tiny_phases(self):
        # 1 ms -> 2 ms is a 2x "regression" entirely below the floor.
        tiny = DEFAULT_MIN_PHASE_S / 5
        base = make_entry({"feasibility": tiny}, wall=1.0)
        slow = make_entry({"feasibility": tiny * 2}, wall=1.0)
        report = compare_entries([base], slow)
        assert report.ok
        # ...but the same ratio above the floor is flagged.
        base = make_entry({"feasibility": DEFAULT_MIN_PHASE_S * 2}, wall=1.0)
        slow = make_entry(
            {"feasibility": DEFAULT_MIN_PHASE_S * 4}, wall=1.0
        )
        assert not compare_entries([base], slow).ok

    def test_threshold_boundary(self):
        base = make_entry({"simulate": 0.1}, wall=1.0)
        at = make_entry(
            {"simulate": 0.1 * (1 + DEFAULT_THRESHOLD)}, wall=1.0
        )
        assert compare_entries([base], at).ok  # strict inequality
        over = make_entry(
            {"simulate": 0.1 * (1 + DEFAULT_THRESHOLD) + 0.001}, wall=1.0
        )
        assert not compare_entries([base], over).ok

    def test_improvement_is_marked_not_flagged(self):
        base = make_entry({"simulate": 0.2})
        fast = make_entry({"simulate": 0.1})
        report = compare_entries([base], fast)
        assert report.ok
        delta = next(d for d in report.deltas if d.phase == "simulate")
        assert delta.improved

    def test_baseline_is_median_of_runs(self):
        # One outlier run must not move the baseline: median of
        # [0.1, 0.1, 0.5] is 0.1, so current 0.15 regresses.
        baseline = [
            make_entry({"simulate": 0.1}),
            make_entry({"simulate": 0.1}),
            make_entry({"simulate": 0.5}),
        ]
        current = make_entry({"simulate": 0.15})
        report = compare_entries(baseline, current)
        assert "simulate" in {d.phase for d in report.regressions}
        # With mean aggregation the outlier would have masked it.

    def test_new_phase_without_baseline_is_skipped(self):
        base = make_entry({"simulate": 0.1}, wall=1.0)
        current = make_entry({"simulate": 0.1, "brand_new": 9.0}, wall=1.0)
        report = compare_entries([base], current)
        assert report.ok
        assert "brand_new" not in {d.phase for d in report.deltas}


class TestCompareLedger:
    def test_groups_compare_independently(self):
        entries = [
            make_entry({"simulate": 0.1}, engine="legacy"),
            make_entry({"simulate": 0.1}, engine="legacy"),
            make_entry({"simulate": 0.1}, engine="vector"),
            make_entry({"simulate": 0.2}, engine="vector"),
        ]
        reports = compare_ledger(entries)
        assert len(reports) == 2
        by_engine = {r.engine: r for r in reports}
        assert by_engine["legacy"].ok
        assert not by_engine["vector"].ok

    def test_single_entry_group_is_skipped(self):
        assert compare_ledger([make_entry({"simulate": 0.1})]) == []

    def test_baseline_window_bounds_history(self):
        # Ancient slowness beyond the window must not excuse a current
        # regression: with baseline_runs=2 only the two recent fast
        # runs count.
        entries = [
            make_entry({"simulate": 0.9}),
            make_entry({"simulate": 0.1}),
            make_entry({"simulate": 0.1}),
            make_entry({"simulate": 0.15}),
        ]
        (report,) = compare_ledger(entries, baseline_runs=2)
        assert report.baseline_runs == 2
        assert not report.ok
        # A wide window lets the ancient 0.9 pull the median up... but
        # the median still resists: [0.9, 0.1, 0.1] -> 0.1.
        (report,) = compare_ledger(entries, baseline_runs=5)
        assert not report.ok

    def test_scenario_and_engine_filters(self):
        entries = [
            make_entry({"simulate": 0.1}, scenario="a"),
            make_entry({"simulate": 0.2}, scenario="a"),
            make_entry({"simulate": 0.1}, scenario="b"),
            make_entry({"simulate": 0.1}, scenario="b"),
        ]
        reports = compare_ledger(entries, scenario="b")
        assert [r.scenario for r in reports] == ["b"]
        assert compare_ledger(entries, engine="no-such") == []


class TestSeedFixture:
    def test_seed_ledger_parses_and_compares_clean(self):
        entries = read_ledger(SEED_LEDGER)
        assert len(entries) >= 4
        assert all(e.scenario == "default" for e in entries)
        assert {e.engine for e in entries} == {"default", "compiled"}
        reports = compare_ledger(entries)
        assert reports and all(r.ok for r in reports)

    def test_seed_ledger_renders(self):
        text = format_ledger(read_ledger(SEED_LEDGER))
        assert "perf ledger" in text
        assert "dominant phase" in text


class TestRendering:
    def test_format_entry_mentions_slowest_phases(self):
        entry = make_entry({"simulate": 0.3, "optimum": 0.1})
        entry.mem_peak_b = 2 << 20
        text = format_entry(entry)
        assert "simulate" in text and "abc1234" in text
        assert "2.0MiB" in text

    def test_format_empty_ledger(self):
        assert "empty" in format_ledger([])

    def test_compare_report_format_shows_verdict(self):
        base = make_entry({"simulate": 0.1}, wall=1.0)
        report = compare_entries(
            [base], make_entry({"simulate": 0.2}, wall=1.0)
        )
        text = report.format()
        assert "<< REGRESSION" in text
        assert "1 phase(s) regressed" in text

    def test_git_sha_in_repo(self):
        sha = git_sha()
        assert sha != "unknown" and len(sha) >= 7


class TestCli:
    """The end-to-end acceptance path through ``repro-eds perf``."""

    def _record(self, ledger: Path) -> int:
        return main([
            "perf", "record", "--ledger", str(ledger),
            "--scenario", "default", "--limit", "2", "--reps", "2",
            "--algorithms", "port_one",
        ])

    def test_back_to_back_records_compare_clean(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert self._record(ledger) == 0
        assert self._record(ledger) == 0
        code = main(["perf", "compare", "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == 0
        assert "no perf regressions" in captured.out

    def test_injected_slowdown_fails_compare(self, tmp_path, capsys):
        """Acceptance: a synthetic ≥25% slowdown appended to the ledger
        makes `perf compare` exit nonzero and name the phase."""
        ledger = tmp_path / "ledger.jsonl"
        assert self._record(ledger) == 0
        entries = read_ledger(ledger)
        slow = read_ledger(ledger)[-1]
        # Scale every phase well past both the +25% threshold and the
        # noise floor; re-stamp so it reads as a newer run.
        slow.phases = {k: v * 20 + 0.05 for k, v in slow.phases.items()}
        slow.unit_wall_s = slow.unit_wall_s * 20 + 0.05
        slow.recorded_unix += 60
        append_entry(ledger, slow)
        assert len(read_ledger(ledger)) == len(entries) + 1

        code = main(["perf", "compare", "--ledger", str(ledger)])
        captured = capsys.readouterr()
        assert code == 1
        assert "<< REGRESSION" in captured.out
        assert "VERDICT: perf regression" in captured.err

    def test_report_renders_trajectory(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self._record(ledger)
        capsys.readouterr()
        assert main(["perf", "report", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "perf ledger" in out and "default" in out

    def test_compare_missing_ledger_errors(self, tmp_path, capsys):
        code = main([
            "perf", "compare", "--ledger", str(tmp_path / "none.jsonl"),
        ])
        assert code == 2
        assert "no perf ledger" in capsys.readouterr().err.lower()

    def test_compare_single_run_is_ok(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        self._record(ledger)
        code = main(["perf", "compare", "--ledger", str(ledger)])
        assert code == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_record_with_memory(self, tmp_path):
        ledger = tmp_path / "mem.jsonl"
        code = main([
            "perf", "record", "--ledger", str(ledger),
            "--scenario", "default", "--limit", "1", "--reps", "1",
            "--algorithms", "port_one", "--mem",
        ])
        assert code == 0
        (entry,) = read_ledger(ledger)
        assert entry.mem_peak_b and entry.mem_peak_b > 0
