"""Synchronous message-passing runtime for the port-numbering model (§2.2)."""

from repro.runtime.algorithm import (
    AnonymousAlgorithm,
    IdentifiedAlgorithm,
    Message,
    NodeProgram,
)
# The scheduler goes first: it loads ``repro.portgraph``, whose
# refinement module reaches ``repro.runtime.outputs`` through
# ``repro.eds``, so ``outputs`` must not be mid-import at that point.
from repro.runtime.scheduler import (
    DEFAULT_MAX_ROUNDS,
    ENGINES,
    RunResult,
    run_anonymous,
    run_identified,
    use_engine,
)
from repro.runtime.outputs import (
    check_consistency,
    decode_edge_set,
    edge_set_to_outputs,
)
from repro.runtime.trace import ExecutionTrace, RoundTrace, SentMessage
from repro.runtime.vector import VectorProgram

__all__ = [
    "NodeProgram",
    "AnonymousAlgorithm",
    "IdentifiedAlgorithm",
    "Message",
    "VectorProgram",
    "RunResult",
    "run_anonymous",
    "run_identified",
    "use_engine",
    "ENGINES",
    "DEFAULT_MAX_ROUNDS",
    "check_consistency",
    "decode_edge_set",
    "edge_set_to_outputs",
    "ExecutionTrace",
    "RoundTrace",
    "SentMessage",
]
