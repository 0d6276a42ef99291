"""The compiled CSR form of a port-numbered graph.

:class:`PortNumberedGraph` stores the involution as a ``dict[Port, Port]``
— ideal for validation and graph-theoretic queries, but every simulated
message pays a tuple-hash dict lookup, and a round loop over it churns
through per-node dictionaries.  :class:`CompiledGraph` lowers the same
structure once into flat ``np.int64`` arrays indexed by *global port
index*:

* port ``(v, i)`` of the node with construction index ``k`` becomes the
  integer ``g = offsets[k] + i - 1`` (a CSR-style layout: the ports of
  node ``k`` occupy the half-open range ``offsets[k]..offsets[k + 1]``);
* the involution ``p`` becomes one flat array ``mate`` with ``mate[g]``
  the global index of ``p``'s image — routing a message is a single
  array read;
* ``port_node[g]`` recovers the owning node index, so local port numbers
  are ``g - offsets[port_node[g]] + 1`` with no dict in sight.

This is the one lowered form of a graph.  The vector kernels, the
certified bounds and the feasibility check run whole-graph numpy
operations over its tables and the per-port tables derived from them
(``local``, ``peer_node``, ``peer_local``, ... — computed on first use);
CPython loops (the pernode round loop, view refinement, the scalar
accessors) read the memoised plain-list copies from :meth:`flat_lists`.
Every table is read-only: graphs are immutable, and the compiled form is
shared by every run on the same graph object.

The compiled form is cached on the graph
(:meth:`PortNumberedGraph.compiled`), so the one-time ``O(|P|)``
lowering is shared by every run, measure, and benchmark touching the
same graph object.  Node order is the graph's own deterministic
construction order (``graph.nodes``) — the scheduler takes its fixed
delivery order from here instead of re-deriving it per run.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, Port, PortEdge

__all__ = ["CompiledGraph"]


#: Sentinel for "no value" in int64 segment reductions.
_INT64_MAX = (1 << 63) - 1


def _frozen_int64(values) -> np.ndarray:
    """*values* as a read-only C-contiguous ``np.int64`` array.

    An ``int64`` ndarray that owns its buffer is adopted and frozen in
    place (the builder hands it over); anything else is copied.
    """
    if not (
        isinstance(values, np.ndarray)
        and values.dtype == np.int64
        and values.flags.c_contiguous
        and values.flags.owndata
    ):
        values = np.array(values, dtype=np.int64)
    values.flags.writeable = False
    return values


class CompiledGraph:
    """CSR lowering of one :class:`PortNumberedGraph`.

    Attributes
    ----------
    nodes:
        The graph's nodes in their deterministic construction order;
        node *index* below means position in this tuple.
    degrees:
        ``degrees[k]`` — degree of node ``k``.
    offsets:
        Length ``n + 1``; node ``k``'s ports occupy global indices
        ``offsets[k] .. offsets[k + 1] - 1``.
    mate:
        Length ``num_ports``; the involution as a flat map from global
        port index to global port index.
    port_node:
        The owning node index of each global port.

    All four are read-only ``np.int64`` arrays.  The derived per-port
    tables (``local``, ``peer_node``, ``peer_local``, ``all_ports``,
    ``fixed_ports``, ``lower_ports``) are built on first use.
    """

    def __init__(self, graph: PortNumberedGraph) -> None:
        nodes = graph.nodes
        n = len(nodes)
        node_index: dict[Node, int] = {v: k for k, v in enumerate(nodes)}
        degree_of = graph.degrees
        degree_list = [degree_of[v] for v in nodes]

        offset_list = [0] * (n + 1)
        port_owner: list[int] = []
        total = 0
        for k, degree in enumerate(degree_list):
            offset_list[k] = total
            port_owner.extend([k] * degree)
            total += degree
        offset_list[n] = total

        # One pass over the involution (the graph's internal dict — the
        # public ``involution`` property would copy it).
        mate_list = [0] * total
        for (v, i), (u, j) in graph._p.items():
            mate_list[offset_list[node_index[v]] + i - 1] = (
                offset_list[node_index[u]] + j - 1
            )
        self._assemble(
            nodes, node_index, degree_list, offset_list, mate_list,
            port_owner,
        )
        # The list forms are the construction intermediates themselves.
        self.memo["flat_lists"] = (
            offset_list, degree_list, mate_list, port_owner
        )

    @classmethod
    def from_arrays(
        cls,
        nodes: tuple[Node, ...],
        degrees,
        offsets,
        mate,
        port_node,
    ) -> "CompiledGraph":
        """Assemble a compiled graph directly from its CSR arrays.

        The direct-to-CSR construction path: generators that already
        know the flat layout (``repro.generators.direct``,
        ``pairing_regular``) hand the arrays over without ever
        materialising the ``dict[Port, Port]`` involution that
        ``__init__`` would walk.

        The tables go through :func:`_frozen_int64`: an owned ``int64``
        ndarray is adopted as is, anything else is copied.  Structural
        validity (involution, ranges) is the caller's responsibility;
        the :class:`ArrayGraph` constructor validates by default.  The
        list forms materialise lazily on first use.
        """
        self = object.__new__(cls)
        nodes = tuple(nodes)
        self._assemble(
            nodes, {v: k for k, v in enumerate(nodes)},
            degrees, offsets, mate, port_node,
        )
        return self

    def _assemble(
        self, nodes, node_index, degrees, offsets, mate, port_node
    ) -> None:
        # No back reference to the graph: the graph owns its compiled
        # form, so both are freed by reference counting, not left for
        # the cycle collector with their arrays.
        self.nodes = nodes
        self.node_index = node_index
        self.num_nodes = len(nodes)
        self.degrees = _frozen_int64(degrees)
        self.offsets = _frozen_int64(offsets)
        self.mate = _frozen_int64(mate)
        self.port_node = _frozen_int64(port_node)
        n = self.num_nodes
        self.num_ports = int(self.offsets[n]) if len(self.offsets) > n else 0
        #: Derived read-only tables keyed by their producer (vector
        #: kernels stash per-algorithm schedules here so repeated runs
        #: on one graph pay the derivation once, like the compiled form
        #: itself).  Entries must be immutable or never mutated.
        self.memo: dict = {}

    def flat_lists(self) -> tuple[list, list, list, list]:
        """``(offsets, degrees, mate, port_node)`` as plain lists, memoised.

        The arrays are the source of truth; CPython loops read the list
        form (list indexing returns cached Python ints instead of boxing
        an ``np.int64`` per read).
        """
        try:
            return self.memo["flat_lists"]
        except KeyError:
            lists = (
                self.offsets.tolist(),
                self.degrees.tolist(),
                self.mate.tolist(),
                self.port_node.tolist(),
            )
            self.memo["flat_lists"] = lists
            return lists

    def peer_local_list(self) -> list[int]:
        """``peer_local`` as a plain list, memoised."""
        try:
            return self.memo["peer_local_list"]
        except KeyError:
            table = self.peer_local.tolist()
            self.memo["peer_local_list"] = table
            return table

    # -- derived per-port tables -------------------------------------------

    @cached_property
    def all_ports(self) -> np.ndarray:
        """``np.arange(num_ports)`` — the identity send list of a total
        broadcast round."""
        return _read_only(np.arange(self.num_ports, dtype=np.int64))

    @cached_property
    def local(self) -> np.ndarray:
        """1-based local port number of every global port."""
        return _read_only(
            self.all_ports - self.offsets[self.port_node] + 1
        )

    @cached_property
    def peer_node(self) -> np.ndarray:
        """Owning node index at the far end of every global port."""
        return _read_only(self.port_node[self.mate])

    @cached_property
    def peer_local(self) -> np.ndarray:
        """Local port number at the far end of every global port."""
        return _read_only(self.local[self.mate])

    @cached_property
    def fixed_ports(self) -> np.ndarray:
        """The fixed points of ``mate`` (directed loops, the only edges
        with one port), so edge counts over a port mask stay exact."""
        return _read_only(np.flatnonzero(self.mate == self.all_ports))

    @cached_property
    def lower_ports(self) -> np.ndarray:
        """The lower global port of every edge, ascending: edge ``e`` of
        the graph's canonical ``edges`` order is the edge at global port
        ``lower_ports[e]``."""
        return _read_only(np.flatnonzero(self.mate >= self.all_ports))

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray]:
        # reduceat segment starts of the nodes that own ports.  Only
        # empty segments lie between two of them, so each reduction
        # spans exactly its node's ports (the last one runs to the end).
        has_ports = self.degrees > 0
        return has_ports, self.offsets[:-1][has_ports]

    def segment_min(self, values, empty: int = _INT64_MAX):
        """Per-node minimum of a per-port int64 array.

        ``values[offsets[k]:offsets[k+1]].min()`` for every node, with
        *empty* filled in for degree-0 nodes (``reduceat`` has no empty
        -segment semantics, so they are left out of the reduction).
        """
        has_ports, starts = self._segments
        if len(starts) == self.num_nodes:
            return np.minimum.reduceat(values, starts)
        out = np.full(self.num_nodes, empty, dtype=np.int64)
        out[has_ports] = np.minimum.reduceat(values, starts)
        return out

    # -- graph predicates ----------------------------------------------------

    def is_simple(self) -> bool:
        """No loops and no parallel edges, memoised.

        A loop (directed or undirected) is a port whose peer is its own
        node; a parallel edge is a node listing the same neighbour on
        two ports.
        """
        try:
            return self.memo["is_simple"]
        except KeyError:
            pass
        owner, peer = self.port_node, self.peer_node
        value = not bool((peer == owner).any())
        if value:
            # The keys arrive sorted by owner, so sorting them is cheap;
            # np.unique hashes instead and is far slower on millions of
            # ports.
            key = np.sort(owner * self.num_nodes + peer)
            value = not bool((key[1:] == key[:-1]).any())
        self.memo["is_simple"] = value
        return value

    # -- scalar accessors (Python ints, read from the list forms) ------------

    def gport(self, node_index: int, local_port: int) -> int:
        """Global index of local port *local_port* (1-based) of a node."""
        return self.flat_lists()[0][node_index] + local_port - 1

    def port(self, g: int) -> Port:
        """Global port index back to the model's ``(node, port)`` pair."""
        offsets, _, _, port_node = self.flat_lists()
        k = port_node[g]
        return (self.nodes[k], int(g) - offsets[k] + 1)

    def edge(self, g: int) -> PortEdge:
        """The edge at global port *g*."""
        mate = self.flat_lists()[2]
        return PortEdge.make(*self.port(g), *self.port(mate[g]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledGraph(n={self.num_nodes}, ports={self.num_ports})"
        )


def _read_only(values: np.ndarray) -> np.ndarray:
    """Freeze a freshly derived table in place (it is shared by every
    run on the graph)."""
    values.flags.writeable = False
    return values
