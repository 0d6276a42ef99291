"""The synchronous scheduler: executes node programs per paper §2.2.

Each round the scheduler

1. asks every running node program for its outgoing messages,
2. routes every message through the involution ``p`` (the message sent by
   ``v`` to its port ``i`` is received by ``u`` from port ``j`` where
   ``p(v, i) = (u, j)``),
3. delivers each node's inbox.

The run ends when every node has halted; a configurable round limit
guards against non-terminating programs.  :class:`RunResult` bundles the
outputs, the round count, and (optionally) a full message trace.

Execution engines
-----------------

Two engines share the public entry points:

* ``"vector"`` (default) — the numpy struct-of-arrays loop
  (:mod:`repro.runtime.vector`): one round is a handful of whole-graph
  array operations, and the solution stays a port mask (see below).
  Algorithms without a vector kernel (the randomised algorithms,
  ``forest_dds``, ``greedy_mds_line``, plugins) run through their node
  programs on the ``"pernode"`` loop instead;
* ``"pernode"`` — the node programs over the graph's **compiled CSR
  form** (:meth:`~repro.portgraph.graph.PortNumberedGraph.compiled`,
  read through its memoised plain-list copies): routing is one read of
  the flat involution list, the delivery order is the
  graph's own construction order, per-node inbox mappings are
  preallocated once and reused across rounds, and traces are
  reconstructed from a flat log after the run.

``"auto"`` is accepted as a synonym of ``"vector"``.  Both engines are
observationally identical — same outputs, rounds, and traces;
``tests/test_runtime_compiled.py`` enforces this across the full
algorithm × graph-family matrix against the original dict-based loop,
which lives under ``tests/`` as the reference.  :func:`use_engine` is
the one selector: it picks the engine for a whole region (the CLI's
``--engine``, the benchmarks and the tests all go through it).

Every node-program run — anonymous, identified, randomised, and the
Theorem 5 split in :mod:`repro.algorithms.bounded_degree` — builds its
programs with :func:`run_node_programs`, the one place that halts
degree-0 nodes and hands the programs to the pernode loop.

Solution types
--------------

The pernode engine returns ``RunResult.outputs`` as a
``dict`` of per-node port sets, and :meth:`RunResult.edge_set` decodes
it with :func:`~repro.runtime.outputs.decode_edge_set`.  The vector
engine keeps its solution as a **port mask** (``RunResult.port_mask``,
one bool per global CSR port): ``outputs`` is then a lazy
:class:`~repro.runtime.outputs.PortMaskOutputs` mapping and
``edge_set()`` a checked :class:`~repro.runtime.outputs.PortMaskEdgeSet`
view, equal to the dict and frozenset the pernode engine gives but with
§2.2 consistency, size and (in :mod:`repro.eds.properties`) feasibility
computed as array operations.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro.exceptions import RoundLimitExceeded, SimulationError
from repro.obs.spans import current_recorder
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, PortEdge
from repro.runtime.algorithm import (
    AnonymousAlgorithm,
    IdentifiedAlgorithm,
    NodeProgram,
)
from repro.runtime.outputs import (
    PortMaskEdgeSet,
    PortMaskOutputs,
    decode_edge_set,
)
from repro.runtime.trace import ExecutionTrace, trace_from_log

__all__ = [
    "ENGINES",
    "RunResult",
    "run_anonymous",
    "run_identified",
    "run_node_programs",
    "use_engine",
    "DEFAULT_MAX_ROUNDS",
]

DEFAULT_MAX_ROUNDS = 100_000

#: The selectable execution engines (see the module docstring);
#: ``"auto"`` is also accepted, as a synonym of ``"vector"``.
ENGINES = ("vector", "pernode")

_engine_override: ContextVar[str | None] = ContextVar(
    "repro_runtime_engine", default=None
)


@contextmanager
def use_engine(name: str) -> Iterator[None]:
    """Run a region under *name*, one of :data:`ENGINES` or ``"auto"``.

    This is the only engine selector: the CLI's ``--engine``, the
    benchmarks and the tests wrap calls in it instead of threading a
    parameter through every caller.  The override is a
    :class:`~contextvars.ContextVar`, so concurrent threads (the thread
    backend) see only their own setting.  An unknown name raises
    :class:`ValueError` listing the engines.
    """
    _resolve_engine(name)  # validate eagerly
    token = _engine_override.set(name)
    try:
        yield
    finally:
        _engine_override.reset(token)


def _resolve_engine(engine: str | None) -> str:
    """The engine *engine* names; ``None`` reads :func:`use_engine`."""
    if engine is None:
        engine = _engine_override.get() or "vector"
    if engine == "auto":
        return "vector"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; available: {ENGINES}"
        )
    return engine


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated execution.

    ``port_mask`` is set by the vector engine only: the solution as one
    bool per global CSR port, with ``outputs`` a lazy view over it.
    """

    graph: PortNumberedGraph
    outputs: Mapping[Node, frozenset[int]]
    rounds: int
    trace: ExecutionTrace | None = None
    port_mask: Any = field(default=None, compare=False, repr=False)

    def edge_set(self) -> "frozenset[PortEdge] | PortMaskEdgeSet":
        """Decode the outputs into the selected edge set (checked)."""
        if self.port_mask is not None:
            return PortMaskEdgeSet(self.graph.compiled(), self.port_mask)
        return decode_edge_set(self.graph, self.outputs)


def _execute(
    graph: PortNumberedGraph,
    programs: dict[Node, NodeProgram],
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool = False,
) -> RunResult:
    """The pernode round loop over the compiled CSR tables.

    Routing runs over the plain-list copies of the compiled graph's
    tables (:meth:`~repro.portgraph.compiled.CompiledGraph.flat_lists`:
    list indexing yields Python ints without boxing); the only
    per-round allocations are the messages themselves.  Inbox mappings
    are preallocated per node and reused — they are cleared after each
    round's delivery, so programs must copy anything they want to keep
    (see :class:`~repro.runtime.algorithm.NodeProgram`).
    """
    cg = graph.compiled()
    nodes = cg.nodes
    n = cg.num_nodes
    progs = [programs[v] for v in nodes]
    offsets, degrees, mate, port_node = cg.flat_lists()

    running = bytearray(0 if prog.halted else 1 for prog in progs)
    num_running = sum(running)
    inboxes: list[dict[int, object]] = [{} for _ in range(n)]
    touched: list[int] = []
    rounds_log: list | None = [] if record_trace else None
    rnd = 0
    # Telemetry is sampled once per run, never per message: delivered
    # messages are summed from the touched inboxes each round (only when
    # a recorder is active), drops are counted in the already-rare
    # halted-target branch.
    rec = current_recorder()
    n_delivered = 0
    n_dropped = 0

    while num_running:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(
                f"{num_running} node(s) still running after "
                f"{max_rounds} rounds"
            )

        log: list | None = [] if record_trace else None

        # 1. collect sends from running nodes (fixed construction order)
        for k in range(n):
            if not running[k]:
                continue
            out = progs[k].send(rnd)
            if not out:
                continue
            base = offsets[k]
            degree = degrees[k]
            for port, payload in out.items():
                if not 1 <= port <= degree:
                    raise SimulationError(
                        f"node {nodes[k]!r} sent on invalid port {port} "
                        f"(degree {degree})"
                    )
                target = mate[base + port - 1]
                tk = port_node[target]
                if running[tk]:
                    box = inboxes[tk]
                    if not box:
                        touched.append(tk)
                    box[target - offsets[tk] + 1] = payload
                    if log is not None:
                        log.append((base + port - 1, target, payload, False))
                else:
                    # Messages to halted nodes are dropped (their
                    # programs no longer receive); the paper's algorithms
                    # halt simultaneously so this never fires for them.
                    if strict_delivery:
                        raise SimulationError(
                            f"node {nodes[k]!r} sent to halted node "
                            f"{nodes[tk]!r} in round {rnd} "
                            "(strict_delivery is enabled)"
                        )
                    n_dropped += 1
                    if log is not None:
                        log.append((base + port - 1, target, payload, True))

        if rec is not None:
            for tk in touched:
                n_delivered += len(inboxes[tk])

        # 2. deliver and let nodes step / halt
        newly_halted: list[int] = []
        for k in range(n):
            if not running[k]:
                continue
            prog = progs[k]
            prog.receive(rnd, inboxes[k])
            if prog.halted:
                newly_halted.append(k)
        for k in newly_halted:
            running[k] = 0
        num_running -= len(newly_halted)
        for tk in touched:
            inboxes[tk].clear()
        touched.clear()

        if rounds_log is not None:
            rounds_log.append((log, newly_halted))
        rnd += 1

    outputs: dict[Node, frozenset[int]] = {}
    for k, v in enumerate(nodes):
        out = progs[k].output
        assert out is not None  # halted implies output set
        outputs[v] = out
    if rec is not None:
        _record_run(rec, rnd, n_delivered, n_dropped)
    trace = trace_from_log(cg, rounds_log) if rounds_log is not None else None
    return RunResult(graph=graph, outputs=outputs, rounds=rnd, trace=trace)


def _record_run(rec, rounds: int, delivered: float, dropped: float) -> None:
    """Report one scheduler run's counters onto the active recorder."""
    rec.count("runtime.runs")
    rec.count("runtime.rounds", rounds)
    rec.count("runtime.messages.delivered", delivered)
    rec.count("runtime.messages.dropped", dropped)
    rec.annotate(rounds=rounds)


def _execute_vector(
    graph: PortNumberedGraph,
    vec,
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool = False,
) -> RunResult:
    """The vector round loop: one array-ops ``step_all`` per round.

    The result carries the program's output mask as is; no per-node
    outputs are built.
    """
    vec.record = record_trace
    vec.strict = strict_delivery
    rec = current_recorder()
    vec.collect = rec is not None
    rnd = 0

    while vec.num_running:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(
                f"{vec.num_running} node(s) still running after "
                f"{max_rounds} rounds"
            )
        vec.step_all(rnd)
        rnd += 1

    cg = vec.cg
    if rec is not None:
        _record_run(rec, rnd, vec.delivered, vec.dropped)
        rec.count("runtime.vector.runs")
        rec.annotate(vector=True)
    trace = None
    if record_trace:
        trace = trace_from_log(cg, vec.materialise_log())
    mask = vec.out_mask
    return RunResult(
        graph=graph,
        outputs=PortMaskOutputs(cg, mask),
        rounds=rnd,
        trace=trace,
        port_mask=mask,
    )


def _annotate_engine(resolved: str) -> None:
    """Tag the enclosing telemetry span (if any) with the engine name."""
    rec = current_recorder()
    if rec is not None:
        rec.annotate(engine=resolved)


def run_node_programs(
    graph: PortNumberedGraph,
    make: Callable[[Node, int], NodeProgram],
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    strict_delivery: bool = False,
) -> tuple[RunResult, dict[Node, NodeProgram]]:
    """Build one program per node and run them on the pernode loop.

    ``make(v, degree)`` is called once per node in ``graph.nodes``
    order.  Nodes of degree 0 are halted at once with empty output (they
    can never receive information).  Returns the run and the programs,
    whose final states some analyses read.
    """
    programs: dict[Node, NodeProgram] = {}
    for v in graph.nodes:
        degree = graph.degree(v)
        prog = make(v, degree)
        if degree == 0 and not prog.halted:
            prog.halt(frozenset())
        programs[v] = prog
    result = _execute(
        graph, programs, max_rounds, record_trace, strict_delivery
    )
    return result, programs


def _dispatch(
    graph: PortNumberedGraph,
    algorithm,
    ids: Mapping[Node, int] | None,
    max_rounds: int,
    record_trace: bool,
    strict_delivery: bool,
) -> RunResult:
    """Run *algorithm* on the engine :func:`use_engine` selects.

    Under ``"vector"`` a factory exposing ``vector_program(graph)``
    (anonymous) or ``vector_program(graph, ids)`` (identified) is
    stepped as array ops; a factory without the hook, or whose hook
    returns ``None``, runs its node programs on the pernode loop.
    """
    if _resolve_engine(None) == "vector":
        hook = getattr(algorithm, "vector_program", None)
        if hook is not None:
            vec = hook(graph) if ids is None else hook(graph, ids)
            if vec is not None:
                _annotate_engine("vector")
                return _execute_vector(
                    graph, vec, max_rounds, record_trace, strict_delivery
                )
    _annotate_engine("pernode")
    if ids is None:
        def make(v, degree):
            return algorithm(degree)
    else:
        def make(v, degree):
            return algorithm(degree, ids[v])
    result, _ = run_node_programs(
        graph, make, max_rounds=max_rounds, record_trace=record_trace,
        strict_delivery=strict_delivery,
    )
    return result


def run_anonymous(
    graph: PortNumberedGraph,
    algorithm: AnonymousAlgorithm,
    *,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    strict_delivery: bool = False,
) -> RunResult:
    """Run a deterministic anonymous algorithm on *graph*.

    *algorithm* is a factory mapping a degree to a fresh
    :class:`NodeProgram`; it is invoked once per node with only the node's
    degree, which structurally enforces the anonymity of the model.

    Nodes of degree 0 are halted immediately with empty output (they can
    never receive information).

    With ``strict_delivery`` a message addressed to a node that has
    already halted raises :class:`SimulationError` instead of being
    silently dropped; the paper's algorithms halt all nodes simultaneously
    so they are unaffected, but the option surfaces lifecycle bugs in
    user-supplied algorithms.

    The engine is the one :func:`use_engine` selects (default
    ``"vector"``).
    """
    return _dispatch(
        graph, algorithm, None, max_rounds, record_trace, strict_delivery
    )


def run_identified(
    graph: PortNumberedGraph,
    algorithm: IdentifiedAlgorithm,
    *,
    ids: Mapping[Node, int] | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
    strict_delivery: bool = False,
) -> RunResult:
    """Run an algorithm in the stronger unique-identifier model.

    *ids* assigns each node a distinct integer; by default nodes are
    numbered by their deterministic order in ``graph.nodes``.  Keys
    that are not graph nodes are ignored.  This runner exists for
    baseline comparisons (paper §1.3); the paper's own algorithms never
    use it.
    """
    if ids is None:
        ids = {v: k for k, v in enumerate(graph.nodes)}
    for v in graph.nodes:
        if v not in ids:
            raise SimulationError(f"node {v!r} has no identifier")
    if len({ids[v] for v in graph.nodes}) != graph.num_nodes:
        raise SimulationError("node identifiers must be unique")
    return _dispatch(
        graph, algorithm, ids, max_rounds, record_trace, strict_delivery
    )
