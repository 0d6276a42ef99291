"""Truncated views: what a node can possibly learn in t rounds.

The classical tool of anonymous distributed computing (Angluin [2];
Yamashita-Kameda [24]; used implicitly throughout paper §2.3): the
*view* of node ``v`` at depth ``t`` is the tree of everything reachable
by following connections for ``t`` hops, recording degrees and port
numbers along the way.  After ``t`` synchronous rounds, the state of a
deterministic anonymous node is a function of its depth-``t`` view —
so nodes with equal views produce equal outputs.

View trees grow exponentially with depth (branching = degree), so the
bulk API :func:`views_at_depth` never materialises them: it hash-conses
level by level through a :class:`ViewInterner`, assigning one small
integer per distinct view.  Two nodes (possibly of *different* graphs,
when the interner is shared) have the same view id iff their depth-t
views are isomorphic.  :func:`view` still builds the explicit tree for
small depths, for inspection and tests.

Relationships verified by the test suite:

* equal views at depth = running time  ⇒  equal outputs;
* the partition by depth-``n`` views equals the stable partition of
  :mod:`repro.portgraph.refinement`;
* covering maps preserve views at every depth.
"""

from __future__ import annotations

from typing import Hashable

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node

__all__ = ["view", "views_at_depth", "view_partition", "ViewInterner"]


class ViewInterner:
    """Hash-consing table assigning stable ids to view signatures.

    Ids are canonical within one interner instance; share an instance to
    compare views across graphs (e.g. a cover and its base).
    """

    def __init__(self) -> None:
        self._table: dict[Hashable, int] = {}

    def intern(self, signature: Hashable) -> int:
        return self._table.setdefault(signature, len(self._table))

    def __len__(self) -> int:
        return len(self._table)


def view(graph: PortNumberedGraph, node: Node, depth: int) -> Hashable:
    """The explicit depth-*depth* view tree of *node*.

    Encoded as nested tuples: ``(degree, ((peer_port, subview), ...))``
    with one entry per port in port order.  Exponential in *depth* —
    intended for small depths; use :func:`views_at_depth` for bulk work.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth == 0:
        return (graph.degree(node), ())
    children = []
    for i in graph.ports(node):
        u, j = graph.connection(node, i)
        children.append((j, view(graph, u, depth - 1)))
    return (graph.degree(node), tuple(children))


def views_at_depth(
    graph: PortNumberedGraph,
    depth: int,
    interner: ViewInterner | None = None,
) -> dict[Node, int]:
    """Interned view ids of every node at the given depth.

    Linear in ``depth * sum(degrees)``.  Equal ids ⇔ isomorphic views
    (within one interner; pass a shared interner to compare graphs).
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    interner = interner if interner is not None else ViewInterner()
    # The level loop runs over the compiled flat arrays: following a
    # connection is one read of the flat involution instead of a
    # tuple-hash dict lookup.  Signatures are unchanged, so ids stay
    # compatible across interners fed by either representation.
    cg = graph.compiled()
    offsets, degrees, mate, port_node = cg.flat_lists()
    intern = interner.intern
    peer_label = cg.peer_local_list()
    current = [intern(("leaf", degree)) for degree in degrees]
    for level in range(1, depth + 1):
        current = [
            intern((
                level,
                degrees[k],
                tuple(
                    (peer_label[g], current[port_node[mate[g]]])
                    for g in range(offsets[k], offsets[k + 1])
                ),
            ))
            for k in range(cg.num_nodes)
        ]
    return {v: current[k] for k, v in enumerate(cg.nodes)}


def view_partition(
    graph: PortNumberedGraph, depth: int
) -> dict[Node, int]:
    """Block ids of the partition "equal views at *depth*"."""
    views = views_at_depth(graph, depth)
    ordered = sorted(set(views.values()))
    block_of_view = {vid: idx for idx, vid in enumerate(ordered)}
    return {v: block_of_view[views[v]] for v in graph.nodes}
