"""Decoding node outputs into edge sets (paper Section 2.2).

A node ``v`` announces a subset ``X(v)`` of its ports; the selected edge
set is ``D = {edge at (v, i) : i in X(v)}``.  The paper requires internal
consistency: if ``i ∈ X(v)`` and ``p(v, i) = (u, j)`` then ``j ∈ X(u)``.
:func:`decode_edge_set` enforces this and returns the edges.

The vector engine produces the same information as a **port mask**: one
bool per global CSR port of the compiled graph, ``True`` where the port
is in its owner's ``X(v)``.  Consistency is then ``mask == mask[mate]``
(:func:`check_mask_consistency`), and the two views below stand in for
the per-node dict and the edge frozenset without building one Python
object per node or edge: :class:`PortMaskOutputs` is the node → ``X(v)``
mapping, :class:`PortMaskEdgeSet` the checked edge set.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from collections.abc import Set as SetABC
from typing import Mapping

import numpy as np

from repro.exceptions import InconsistentOutputError
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, PortEdge

__all__ = [
    "PortMaskEdgeSet",
    "PortMaskOutputs",
    "check_consistency",
    "check_mask_consistency",
    "decode_edge_set",
    "edge_set_to_outputs",
]


def _inconsistency(
    v: Node, i: int, u: Node, j: int
) -> InconsistentOutputError:
    return InconsistentOutputError(
        f"inconsistent output: {i} ∈ X({v!r}) and "
        f"p({v!r}, {i}) = ({u!r}, {j}) but {j} ∉ X({u!r})"
    )


def check_consistency(
    graph: PortNumberedGraph,
    outputs: Mapping[Node, frozenset[int]],
) -> None:
    """Raise :class:`InconsistentOutputError` on any §2.2 violation."""
    missing = [v for v in graph.nodes if v not in outputs]
    if missing:
        raise InconsistentOutputError(
            f"nodes without output: {missing[:5]!r}"
        )
    for v in graph.nodes:
        for i in outputs[v]:
            if not 1 <= i <= graph.degree(v):
                raise InconsistentOutputError(
                    f"node {v!r} output invalid port {i}"
                )
            u, j = graph.connection(v, i)
            if j not in outputs[u]:
                raise _inconsistency(v, i, u, j)


def check_mask_consistency(cg, mask) -> None:
    """:func:`check_consistency` for a port mask over compiled graph *cg*.

    Raises the same message, naming the first selected port (in global
    port order) whose mate is not selected.
    """
    mate = cg.mate
    mate_bits = mask[mate]
    if np.array_equal(mask, mate_bits):
        return
    g = int(np.flatnonzero(mask & ~mate_bits)[0])
    v, i = cg.port(g)
    u, j = cg.port(int(mate[g]))
    raise _inconsistency(v, i, u, j)


def decode_edge_set(
    graph: PortNumberedGraph,
    outputs: Mapping[Node, frozenset[int]],
) -> frozenset[PortEdge]:
    """Convert per-node port sets into the selected edge set.

    Consistency is checked first; the result contains each selected edge
    exactly once.
    """
    check_consistency(graph, outputs)
    edges: set[PortEdge] = set()
    for v in graph.nodes:
        for i in outputs[v]:
            edges.add(graph.edge_at(v, i))
    return frozenset(edges)


def edge_set_to_outputs(
    graph: PortNumberedGraph,
    edges: frozenset[PortEdge] | set[PortEdge],
) -> dict[Node, frozenset[int]]:
    """Inverse of :func:`decode_edge_set`: the port sets selecting *edges*."""
    ports = graph.induced_subgraph_ports(edges)
    return {v: frozenset(ports[v]) for v in graph.nodes}


class PortMaskOutputs(MappingABC):
    """Node → ``X(v)`` over a port mask, built per node on lookup.

    Compares equal to the ``dict[Node, frozenset[int]]`` the other
    engines return.
    """

    __slots__ = ("cg", "mask")

    def __init__(self, cg, mask) -> None:
        self.cg = cg
        self.mask = mask

    def __getitem__(self, node: Node) -> frozenset[int]:
        k = self.cg.node_index[node]
        offsets = self.cg.offsets
        ports = np.flatnonzero(self.mask[offsets[k]:offsets[k + 1]]) + 1
        return frozenset(ports.tolist())

    def __iter__(self):
        return iter(self.cg.nodes)

    def __len__(self) -> int:
        return self.cg.num_nodes


class PortMaskEdgeSet(SetABC):
    """The selected edge set ``D`` as a checked view over a port mask.

    Construction runs :func:`check_mask_consistency`.  ``len`` is
    precomputed; :class:`PortEdge` objects are built only when the set
    is iterated, hashed or compared.  It compares and hashes equal to
    the frozenset :func:`decode_edge_set` returns, and set operations
    yield frozensets.
    """

    __slots__ = ("cg", "mask", "_len", "_edges")

    def __init__(self, cg, mask) -> None:
        check_mask_consistency(cg, mask)
        self.cg = cg
        self.mask = mask
        # Every edge has two selected ports except a directed loop.
        fixed = cg.fixed_ports
        ports = int(np.count_nonzero(mask))
        self._len = (ports + int(np.count_nonzero(mask[fixed]))) // 2
        self._edges: frozenset[PortEdge] | None = None

    def __len__(self) -> int:
        return self._len

    def _materialise(self) -> frozenset[PortEdge]:
        if self._edges is None:
            cg = self.cg
            g = np.flatnonzero(self.mask & (cg.all_ports <= cg.mate))
            h = cg.mate[g]
            nodes = cg.nodes
            self._edges = frozenset(
                PortEdge(nodes[a], i, nodes[b], j)
                for a, i, b, j in zip(
                    cg.port_node[g].tolist(),
                    cg.local[g].tolist(),
                    cg.port_node[h].tolist(),
                    cg.local[h].tolist(),
                )
            )
        return self._edges

    def __iter__(self):
        return iter(self._materialise())

    def __contains__(self, edge: object) -> bool:
        if not isinstance(edge, PortEdge):
            return False
        cg = self.cg
        k = cg.node_index.get(edge.u)
        if k is None or not 1 <= edge.i <= cg.degrees[k]:
            return False
        g = cg.gport(k, edge.i)
        return bool(self.mask[g]) and (
            cg.port(int(cg.mate[g])) == (edge.v, edge.j)
        )

    def __hash__(self) -> int:
        return hash(self._materialise())

    @classmethod
    def _from_iterable(cls, it) -> frozenset[PortEdge]:
        return frozenset(it)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PortMaskEdgeSet({len(self)} edges)"
