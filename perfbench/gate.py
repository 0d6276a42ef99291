"""The correctness gate: every record the benchmark times is checked.

Three checks, any mismatch counts against ``error_rate`` and makes the
benchmark exit non-zero:

* every record agrees with the traced recomputation of its spec on
  ``num_edges``, ``solution_size`` and ``rounds`` (and on the optimum
  bound its mode computes), and the recomputed solution is feasible;
* certified (``dual_bound``) records satisfy ``optimum_lower <=
  optimum_upper <= solution_size`` and ``ratio_lo <= ratio_hi``,
  ``verify_certificate`` accepts the recomputed ν bracket, and the
  record's optimum bracket overlaps the one the recomputation proves
  (both hold the optimum; they need not be equal);
* warm rerun passes report ``hit_rate == 1.0`` and records
  byte-identical to the cold pass they re-read.
"""

from __future__ import annotations

from repro.engine.records import ResultRecord
from repro.engine.spec import canonical_json

from tracing import UnitFacts

__all__ = ["Outcome", "failures", "record_failures", "rerun_failures"]

#: One unit's result in a pass: its record, or the error it raised.
Outcome = ResultRecord | str


def record_failures(
    record: ResultRecord, facts: UnitFacts, optimum: str
) -> list[str]:
    """Why *record* disagrees with its traced recomputation (or [])."""
    reasons = [
        f"{name}: record {getattr(record, name)} != traced "
        f"{getattr(facts, name)}"
        for name in ("num_edges", "solution_size", "rounds")
        if getattr(record, name) != getattr(facts, name)
    ]
    if not facts.feasible:
        reasons.append("traced solution is not an edge dominating set")
    if optimum == "lower_bound" and record.optimum != facts.optimum_lower:
        reasons.append(
            f"optimum: record {record.optimum} != traced "
            f"{facts.optimum_lower}"
        )
    if optimum == "dual_bound":
        reasons.extend(_certified_failures(record, facts))
    return reasons


def _certified_failures(record: ResultRecord, facts: UnitFacts) -> list[str]:
    reasons = []
    if facts.certificate_error is not None:
        reasons.append(f"verify_certificate: {facts.certificate_error}")
    if not record.has_interval:
        return reasons + ["certified record carries no optimum bracket"]
    lo, up = record.optimum_lower, record.optimum_upper
    if not lo <= up <= record.solution_size:
        reasons.append(
            f"bracket out of order: optimum_lower {lo} <= optimum_upper "
            f"{up} <= solution_size {record.solution_size} fails"
        )
    if record.ratio_lo > record.ratio_hi:
        reasons.append(
            f"ratio_lo {record.ratio_lo} > ratio_hi {record.ratio_hi}"
        )
    if lo > facts.optimum_upper or up < facts.optimum_lower:
        reasons.append(
            f"bracket: record [{lo}, {up}] misses the traced "
            f"[{facts.optimum_lower}, {facts.optimum_upper}]"
        )
    return reasons


def rerun_failures(
    cold: list[Outcome], warm: list[Outcome], hit_rate: float
) -> dict[int, str]:
    """Positions where a warm call fails the cold records it re-read."""
    found = {}
    for u, (before, after) in enumerate(zip(cold, warm)):
        if hit_rate != 1.0:
            found[u] = f"rerun: hit_rate {hit_rate} != 1.0"
        elif isinstance(after, str):
            found[u] = f"rerun: unit raised: {after}"
        elif not isinstance(before, str) and _bytes(before) != _bytes(after):
            found[u] = "rerun: record bytes differ from the cold pass"
    return found


def failures(
    cold_passes: list[list[Outcome]],
    facts: list[UnitFacts | str],
    optimum: str,
    reruns: list[tuple[int, dict[int, str]]],
) -> dict[tuple[int, int], list[str]]:
    """Every failed (cold pass, unit) pair with its reasons.

    *facts* holds one traced recomputation per unit (or the error it
    raised).  Each rerun is ``(cold pass index, {unit index: reason})``
    from :func:`rerun_failures`, charged to that pass's units.
    """
    found: dict[tuple[int, int], list[str]] = {}
    for p, outcomes in enumerate(cold_passes):
        for u, (outcome, fact) in enumerate(zip(outcomes, facts)):
            if isinstance(outcome, str):
                reasons = [f"unit raised: {outcome}"]
            elif isinstance(fact, str):
                reasons = [f"traced recomputation raised: {fact}"]
            else:
                reasons = record_failures(outcome, fact, optimum)
            if reasons:
                found[(p, u)] = reasons
    for p, rerun in reruns:
        for u, reason in rerun.items():
            reasons = found.setdefault((p, u), [])
            if reason not in reasons:
                reasons.append(reason)
    return found


def _bytes(record: ResultRecord) -> str:
    return canonical_json(record.to_json_dict())
