"""The port-numbered graph model of paper Section 2.1.

A port-numbered graph ``G`` is a triple ``(V, d, p)``:

* ``V`` — a finite set of nodes,
* ``d : V -> N`` — the degree function,
* ``p`` — an involution on the port set
  ``P = {(v, i) : v in V, 1 <= i <= d(v)}``.

Orbits of size two of ``p`` are undirected edges (possibly loops or parallel
edges); fixed points are directed loops.  :class:`PortNumberedGraph` stores
this structure immutably, validates it on construction, and exposes the
graph-theoretic views (edges, adjacency, regularity, simplicity) used by
the rest of the package.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.exceptions import (
    InvolutionError,
    NotRegularGraphError,
    NotSimpleGraphError,
    PortNumberingError,
)
from repro.portgraph.ports import Node, Port, PortEdge, port_sort_key

__all__ = ["PortNumberedGraph"]


class PortNumberedGraph:
    """An immutable port-numbered (multi)graph.

    Parameters
    ----------
    degrees:
        Mapping from node to its degree ``d(v) >= 0``.
    involution:
        Mapping ``p`` from port to port.  It must be defined on exactly the
        port set implied by *degrees* and satisfy ``p(p(x)) == x``.

    Raises
    ------
    PortNumberingError
        If the involution's domain is not exactly the implied port set or a
        degree is negative.
    InvolutionError
        If ``p`` is not self-inverse.
    """

    __slots__ = (
        "_degrees", "_p", "_nodes", "_edges", "_edge_at", "_hash",
        "_compiled",
    )

    def __init__(
        self,
        degrees: Mapping[Node, int],
        involution: Mapping[Port, Port],
    ) -> None:
        self._degrees: dict[Node, int] = dict(degrees)
        for node, degree in self._degrees.items():
            if degree < 0:
                raise PortNumberingError(
                    f"node {node!r} has negative degree {degree}"
                )

        expected_ports = {
            (node, i)
            for node, degree in self._degrees.items()
            for i in range(1, degree + 1)
        }
        given_ports = set(involution)
        if given_ports != expected_ports:
            missing = sorted(expected_ports - given_ports, key=port_sort_key)
            extra = sorted(given_ports - expected_ports, key=port_sort_key)
            raise PortNumberingError(
                "involution domain does not match the port set: "
                f"missing={missing[:5]!r}... extra={extra[:5]!r}..."
                if len(missing) > 5 or len(extra) > 5
                else "involution domain does not match the port set: "
                f"missing={missing!r} extra={extra!r}"
            )

        self._p: dict[Port, Port] = dict(involution)
        for port, image in self._p.items():
            if image not in self._p:
                raise InvolutionError(
                    f"p{port!r} = {image!r} is not a port of the graph"
                )
            if self._p[image] != port:
                raise InvolutionError(
                    f"p is not an involution: p{port!r} = {image!r} "
                    f"but p{image!r} = {self._p[image]!r}"
                )

        self._nodes: tuple[Node, ...] = tuple(
            sorted(self._degrees, key=repr)
        )
        self._edges: tuple[PortEdge, ...] = tuple(self._build_edges())
        self._edge_at: dict[Port, PortEdge] = {}
        for edge in self._edges:
            for port in edge.ports:
                self._edge_at[port] = edge
        self._hash: int | None = None
        self._compiled = None

    def _build_edges(self) -> Iterator[PortEdge]:
        seen: set[Port] = set()
        for port in sorted(self._p, key=port_sort_key):
            if port in seen:
                continue
            image = self._p[port]
            seen.add(port)
            seen.add(image)
            (u, i), (v, j) = port, image
            yield PortEdge.make(u, i, v, j)

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes in a deterministic order."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def edges(self) -> tuple[PortEdge, ...]:
        """All edges (an edge multiset; loops included) in canonical order."""
        return self._edges

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def degree(self, node: Node) -> int:
        """The degree ``d(v)`` of *node*."""
        return self._degrees[node]

    @property
    def degrees(self) -> Mapping[Node, int]:
        """Read-only view of the degree function."""
        return dict(self._degrees)

    def ports(self, node: Node) -> range:
        """The port numbers ``1..d(v)`` of *node*."""
        return range(1, self._degrees[node] + 1)

    @property
    def all_ports(self) -> Iterator[Port]:
        """Iterate over every port of the graph."""
        for node in self._nodes:
            for i in self.ports(node):
                yield (node, i)

    def connection(self, node: Node, port: int) -> Port:
        """Return ``p(node, port)`` — the port this port is connected to."""
        try:
            return self._p[(node, port)]
        except KeyError:
            raise KeyError(
                f"({node!r}, {port}) is not a port of the graph"
            ) from None

    @property
    def involution(self) -> Mapping[Port, Port]:
        """A copy of the involution ``p``."""
        return dict(self._p)

    def neighbour(self, node: Node, port: int) -> Node:
        """The node at the other end of the edge attached to this port."""
        return self.connection(node, port)[0]

    def edge_at(self, node: Node, port: int) -> PortEdge:
        """The edge attached to port ``(node, port)``."""
        try:
            return self._edge_at[(node, port)]
        except KeyError:
            raise KeyError(
                f"({node!r}, {port}) is not a port of the graph"
            ) from None

    def edges_at(self, node: Node) -> tuple[PortEdge, ...]:
        """All edges incident to *node*, ordered by port number.

        An undirected loop at *node* appears once per port, matching the
        convention that it occupies two ports.
        """
        return tuple(self.edge_at(node, i) for i in self.ports(node))

    def incident_edge_set(self, node: Node) -> frozenset[PortEdge]:
        """The set of distinct edges incident to *node*."""
        return frozenset(self.edges_at(node))

    def neighbours(self, node: Node) -> tuple[Node, ...]:
        """Neighbours of *node* listed by increasing port number."""
        return tuple(self.neighbour(node, i) for i in self.ports(node))

    # ------------------------------------------------------------------
    # Graph-class predicates
    # ------------------------------------------------------------------

    def is_simple(self) -> bool:
        """True when there are no loops and no parallel edges.

        One array pass over the compiled form, memoised there
        (:meth:`~repro.portgraph.compiled.CompiledGraph.is_simple`).
        """
        return self.compiled().is_simple()

    def require_simple(self) -> None:
        """Raise :class:`NotSimpleGraphError` unless the graph is simple."""
        if not self.is_simple():
            raise NotSimpleGraphError(
                "operation requires a simple port-numbered graph"
            )

    def regularity(self) -> int | None:
        """Return ``d`` if the graph is d-regular, otherwise ``None``."""
        degrees = set(self._degrees.values())
        if len(degrees) == 1:
            return next(iter(degrees))
        return None

    def require_regular(self) -> int:
        """Return the common degree or raise :class:`NotRegularGraphError`."""
        d = self.regularity()
        if d is None:
            raise NotRegularGraphError(
                f"graph is not regular; degrees span {sorted(set(self._degrees.values()))}"
            )
        return d

    @property
    def max_degree(self) -> int:
        """The maximum degree (0 for the empty graph)."""
        return max(self._degrees.values(), default=0)

    # ------------------------------------------------------------------
    # Simple-graph conveniences
    # ------------------------------------------------------------------

    def port_between(self, u: Node, v: Node) -> tuple[int, int]:
        """For a simple graph, the ports ``(l(u,v), l(v,u))`` of edge {u,v}.

        This is the paper's notation from Section 5: the unique port numbers
        ``i`` and ``j`` with ``p(u, i) = (v, j)``.
        """
        self.require_simple()
        for i in self.ports(u):
            other, j = self.connection(u, i)
            if other == v:
                return (i, j)
        raise KeyError(f"{{{u!r}, {v!r}}} is not an edge of the graph")

    def has_edge(self, u: Node, v: Node) -> bool:
        """True when some edge joins *u* and *v*."""
        return any(self.neighbour(u, i) == v for i in self.ports(u))

    def node_pair_edges(self) -> frozenset[frozenset[Node]]:
        """The edge set as node pairs (meaningful for simple graphs)."""
        return frozenset(edge.endpoints for edge in self._edges)

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PortNumberedGraph):
            return NotImplemented
        return self._degrees == other._degrees and self._p == other._p

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    frozenset(self._degrees.items()),
                    frozenset(self._p.items()),
                )
            )
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PortNumberedGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"max_degree={self.max_degree})"
        )

    def __getstate__(self):
        # The compiled form and derived caches are rebuilt on demand;
        # pickling ships only the defining (V, d, p) triple.
        return (self._degrees, self._p)

    def __setstate__(self, state) -> None:
        degrees, involution = state
        self.__init__(degrees, involution)

    # ------------------------------------------------------------------
    # Compiled form
    # ------------------------------------------------------------------

    def compiled(self):
        """The cached :class:`~repro.portgraph.compiled.CompiledGraph`.

        Lowered once per graph object and shared by every simulation
        run; see :mod:`repro.portgraph.compiled`.
        """
        if self._compiled is None:
            from repro.obs.spans import span
            from repro.portgraph.compiled import CompiledGraph

            with span("graph_build:compile", n=self.num_nodes):
                self._compiled = CompiledGraph(self)
        return self._compiled

    # ------------------------------------------------------------------
    # Derived constructions
    # ------------------------------------------------------------------

    def induced_subgraph_ports(
        self, keep: Iterable[PortEdge]
    ) -> dict[Node, set[int]]:
        """Map each node to the set of its ports used by edges in *keep*.

        Helper for rendering and for building outputs from edge sets.
        """
        result: dict[Node, set[int]] = {node: set() for node in self._nodes}
        for edge in keep:
            for (node, port) in edge.ports:
                result[node].add(port)
        return result
