"""Edge dominating set definitions (paper Sections 1-2).

An edge ``e1`` *dominates* every edge adjacent to it, including itself.
A set ``D`` of edges is an *edge dominating set* (EDS) when every edge of
the graph is dominated by some edge of ``D``.  These predicates operate on
sets of :class:`~repro.portgraph.ports.PortEdge` and are deliberately
independent of the matching substrate (no import cycle).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, PortEdge
from repro.runtime.outputs import PortMaskEdgeSet

__all__ = [
    "dominates",
    "dominated_edges",
    "undominated_edges",
    "is_edge_dominating_set",
    "domination_deficiency",
]


def dominates(e1: PortEdge, e2: PortEdge) -> bool:
    """True when *e1* dominates *e2* (shared endpoint, or identical)."""
    return bool(e1.endpoints & e2.endpoints)


def dominated_edges(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> frozenset[PortEdge]:
    """All graph edges dominated by the set *dominating*."""
    covered: set[Node] = set()
    chosen: set[PortEdge] = set()
    for e in dominating:
        covered |= e.endpoints
        chosen.add(e)
    return frozenset(
        e for e in graph.edges if e in chosen or (e.endpoints & covered)
    )


def undominated_edges(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> frozenset[PortEdge]:
    """All graph edges *not* dominated by *dominating*."""
    return frozenset(graph.edges) - dominated_edges(graph, dominating)


def covered_nodes(cg, mask) -> np.ndarray:
    """The nodes a consistent port mask over *cg* covers: exactly the
    owners of its selected ports (both ends of a selected edge are
    selected)."""
    covered = np.zeros(cg.num_nodes, dtype=bool)
    covered[cg.port_node[mask]] = True
    return covered


def undominated_ports(cg, covered) -> np.ndarray:
    """The global ports of compiled graph *cg* whose edge has neither
    end in the node vector *covered*, ascending."""
    return np.flatnonzero(~(covered[cg.port_node] | covered[cg.peer_node]))


def is_edge_dominating_set(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> bool:
    """True when every edge of *graph* is dominated (paper §1.1).

    One array check over the compiled graph: an edge is dominated iff
    one of its endpoints is an endpoint of some dominating edge.  A
    :class:`PortMaskEdgeSet` of this graph covers the owners of its
    selected ports; any other set (a mask of another graph included)
    covers the endpoints of its edges, and endpoints that are not graph
    nodes cover nothing — as in :func:`undominated_edges`, where a
    foreign endpoint never meets a graph edge.
    """
    cg = graph.compiled()
    if isinstance(dominating, PortMaskEdgeSet) and dominating.cg is cg:
        covered = covered_nodes(cg, dominating.mask)
    else:
        covered = np.zeros(cg.num_nodes, dtype=bool)
        index = cg.node_index
        for e in dominating:
            for v in e.endpoints:
                k = index.get(v)
                if k is not None:
                    covered[k] = True
    return not undominated_ports(cg, covered).size


def domination_deficiency(
    graph: PortNumberedGraph, dominating: Iterable[PortEdge]
) -> int:
    """The number of undominated edges (0 iff *dominating* is an EDS)."""
    return len(undominated_edges(graph, dominating))
