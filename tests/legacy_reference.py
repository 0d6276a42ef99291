"""The legacy dict-based scheduler: the differential tests' reference.

This is the original pure-Python round loop: per-round inbox dicts for
every running node, involution lookups through the graph's ``dict[Port,
Port]``, and per-node ``send``/``receive`` dispatch.  The vector and
pernode engines (:mod:`repro.runtime.scheduler`) replace it as
execution paths; it survives here as the reference of the differential
tests (``test_runtime_compiled.py``, ``test_failure_injection.py``),
which assert both engines are output-, round-, and trace-identical to
it.

:func:`execute_legacy` has the pernode loop's signature, so
:func:`use_reference` runs it *in place of* that loop: every algorithm
still gets its node programs from the scheduler's one program builder,
and only the round loop differs.

Two deliberate deviations from the historical code, both invisible to
outputs, round counts, and message totals: sends are collected in the
fixed deterministic node order (the old code iterated a ``set``, so the
within-round trace order depended on hash layout), and sends to halted
nodes are recorded with ``SentMessage.dropped`` set (they were always
recorded; now they are labelled).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.exceptions import RoundLimitExceeded, SimulationError
from repro.obs.spans import current_recorder
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node
from repro.runtime import scheduler
from repro.runtime.algorithm import NodeProgram
from repro.runtime.trace import ExecutionTrace, RoundTrace, SentMessage

__all__ = ["REFERENCE", "execute_legacy", "use_reference", "run_under"]

#: The name the differential tests give the reference next to the
#: engines (``[legacy]`` test ids).
REFERENCE = "legacy"


def execute_legacy(
    graph: PortNumberedGraph,
    programs: dict[Node, NodeProgram],
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool = False,
) -> scheduler.RunResult:
    """The reference implementation of one synchronous execution."""
    trace = ExecutionTrace() if record_trace else None
    running = {v for v, prog in programs.items() if not prog.halted}
    # The deterministic delivery order never changes; fix it once instead
    # of re-sorting the running set every round.
    node_order = sorted(programs, key=repr)
    rnd = 0
    rec = current_recorder()
    n_delivered = 0
    n_dropped = 0

    while running:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(
                f"{len(running)} node(s) still running after "
                f"{max_rounds} rounds"
            )

        round_trace = RoundTrace(rnd) if record_trace else None

        # 1. collect sends from running nodes
        inboxes: dict[Node, dict[int, object]] = {v: {} for v in running}
        for v in (u for u in node_order if u in running):
            out = programs[v].send(rnd)
            degree = graph.degree(v)
            for port, payload in out.items():
                if not 1 <= port <= degree:
                    raise SimulationError(
                        f"node {v!r} sent on invalid port {port} "
                        f"(degree {degree})"
                    )
                u, j = graph.connection(v, port)
                # Messages to halted nodes are dropped (their programs no
                # longer receive); in the paper's algorithms all nodes halt
                # simultaneously so this never matters.  ``strict_delivery``
                # turns the silent drop into an error so other algorithms
                # surface the bug.
                dropped = u not in inboxes
                if not dropped:
                    inboxes[u][j] = payload
                elif strict_delivery:
                    raise SimulationError(
                        f"node {v!r} sent to halted node {u!r} in round "
                        f"{rnd} (strict_delivery is enabled)"
                    )
                else:
                    n_dropped += 1
                if round_trace is not None:
                    round_trace.messages.append(
                        SentMessage((v, port), (u, j), payload, dropped)
                    )

        if rec is not None:
            n_delivered += sum(len(box) for box in inboxes.values())

        # 2. deliver and let nodes step / halt
        newly_halted: list[Node] = []
        for v in (u for u in node_order if u in running):
            programs[v].receive(rnd, inboxes[v])
            if programs[v].halted:
                newly_halted.append(v)
        for v in newly_halted:
            running.discard(v)
            if round_trace is not None:
                round_trace.halted_nodes.append(v)

        if trace is not None and round_trace is not None:
            trace.rounds.append(round_trace)
        rnd += 1

    outputs: dict[Node, frozenset[int]] = {}
    for v, prog in programs.items():
        assert prog.output is not None  # halted implies output set
        outputs[v] = prog.output
    if rec is not None:
        scheduler._record_run(rec, rnd, n_delivered, n_dropped)
    return scheduler.RunResult(
        graph=graph, outputs=outputs, rounds=rnd, trace=trace
    )


@contextmanager
def use_reference() -> Iterator[None]:
    """Run a region's node programs on the legacy loop.

    The region runs under the ``pernode`` engine (so no vector kernel
    takes over) with :func:`execute_legacy` substituted for the pernode
    round loop.
    """
    with scheduler.use_engine("pernode"), mock.patch.object(
        scheduler, "_execute", execute_legacy
    ):
        yield


def run_under(engine: str):
    """A context running a region on *engine*, or on the reference when
    *engine* is :data:`REFERENCE`."""
    if engine == REFERENCE:
        return use_reference()
    return scheduler.use_engine(engine)
