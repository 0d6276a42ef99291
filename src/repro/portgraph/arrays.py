"""Array-backed port-numbered graphs: the direct-to-CSR construction path.

:class:`ArrayGraph` is a :class:`~repro.portgraph.graph.PortNumberedGraph`
built *from* the compiled CSR arrays instead of lowering *to* them: a
generator that already knows the flat layout (the structured families in
:mod:`repro.generators.direct`, the pairing-model ``pairing_regular``)
hands over ``offsets``/``mate``/``port_node`` as ``np.int64`` arrays,
which become the compiled graph's read-only tables as they are, and
skips both the ``dict[Port, Port]`` involution walk and
``CompiledGraph.__init__``.

The dict views of the base class (``_degrees``, ``_p``, the edge tuple)
still exist — they materialise lazily on first touch via ``__getattr__``
(an unset ``__slots__`` descriptor raises ``AttributeError``, which is
exactly the hook).  Code that only needs the hot accessors — ``degree``,
``connection``, ``edge_at``, ``edges`` counts, regularity — is served
from the compiled form (whole-array reductions, or scalar reads from
its memoised list copies), so a million-node graph never pays for the
per-port tuple dictionaries unless something genuinely asks for them.

Node order is the *builder's* construction order (``nodes`` as passed),
not the base class's repr-sort: the structured builders pass repr-sorted
nodes so they stay byte-identical to the networkx path, while
``pairing_regular`` uses numeric order because its port numbering is the
stub layout itself.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import InvolutionError, PortNumberingError
from repro.portgraph.compiled import CompiledGraph
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, Port, PortEdge

__all__ = ["ArrayGraph"]


class ArrayGraph(PortNumberedGraph):
    """A port-numbered graph whose source of truth is its CSR arrays.

    Parameters
    ----------
    nodes:
        The nodes in construction order; node *index* below means
        position in this sequence.
    degrees:
        ``degrees[k]`` — degree of node ``k``.
    offsets, mate, port_node:
        The compiled layout (see :class:`~repro.portgraph.compiled.
        CompiledGraph`); anything convertible to an ``np.int64`` array.
        An owned ``int64`` ndarray is adopted and frozen, not copied.
    validate:
        Check structural validity (CSR consistency, involution).  On by
        default; builders that construct provably valid arrays pass
        ``False``.
    """

    __slots__ = ()

    def __init__(
        self,
        nodes: Sequence[Node],
        degrees,
        offsets,
        mate,
        port_node,
        *,
        validate: bool = True,
    ) -> None:
        nodes = tuple(nodes)
        self._nodes = nodes
        self._hash = None
        self._compiled = cg = CompiledGraph.from_arrays(
            nodes, degrees, offsets, mate, port_node
        )
        if validate:
            _validate_arrays(cg)
        # ``_degrees``, ``_p``, ``_edges`` and ``_edge_at`` stay unset:
        # ``__getattr__`` materialises them on first touch.

    # ------------------------------------------------------------------
    # Lazy dict materialisation
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        if name == "_degrees":
            value = self.degrees
            self._degrees = value
            return value
        if name == "_p":
            value = self._materialise_involution()
            self._p = value
            return value
        if name == "_edges":
            value = tuple(self._iter_array_edges())
            self._edges = value
            return value
        if name == "_edge_at":
            value: dict[Port, PortEdge] = {}
            for edge in self._edges:
                for port in edge.ports:
                    value[port] = edge
            self._edge_at = value
            return value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _materialise_involution(self) -> dict[Port, Port]:
        cg = self._compiled
        port = cg.port
        mate = cg.flat_lists()[2]
        return {port(g): port(mate[g]) for g in range(cg.num_ports)}

    def _iter_array_edges(self) -> Iterator[PortEdge]:
        """Edges in construction (global-port) order.

        For builders that pass repr-sorted nodes this is exactly the
        base class's canonical ``port_sort_key`` order, so the tuple is
        byte-identical to the dict-built graph's.
        """
        cg = self._compiled
        port = cg.port
        mate = cg.flat_lists()[2]
        for g in range(cg.num_ports):
            m = mate[g]
            if m < g:
                continue
            (u, i), (v, j) = port(g), port(m)
            yield PortEdge.make(u, i, v, j)

    # ------------------------------------------------------------------
    # Array-native accessors (no dict materialisation)
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        # Each involution orbit of size two is one edge on two ports; a
        # fixed point (directed loop) is one edge on one port.
        cg = self._compiled
        return (cg.num_ports + cg.fixed_ports.size) // 2

    def degree(self, node: Node) -> int:
        cg = self._compiled
        return cg.flat_lists()[1][cg.node_index[node]]

    @property
    def degrees(self) -> Mapping[Node, int]:
        return dict(zip(self._nodes, self._compiled.degrees.tolist()))

    def ports(self, node: Node) -> range:
        return range(1, self.degree(node) + 1)

    def connection(self, node: Node, port: int) -> Port:
        cg = self._compiled
        offsets, degrees, mate, _ = cg.flat_lists()
        try:
            k = cg.node_index[node]
        except KeyError:
            raise KeyError(
                f"({node!r}, {port}) is not a port of the graph"
            ) from None
        if not 1 <= port <= degrees[k]:
            raise KeyError(
                f"({node!r}, {port}) is not a port of the graph"
            )
        return cg.port(mate[offsets[k] + port - 1])

    @property
    def involution(self) -> Mapping[Port, Port]:
        return self._materialise_involution()

    def edge_at(self, node: Node, port: int) -> PortEdge:
        (u, j) = self.connection(node, port)
        return PortEdge.make(node, port, u, j)

    def regularity(self) -> int | None:
        degrees = self._compiled.degrees
        if degrees.size and bool((degrees == degrees[0]).all()):
            return int(degrees[0])
        return None

    @property
    def max_degree(self) -> int:
        degrees = self._compiled.degrees
        return int(degrees.max()) if degrees.size else 0

    # ------------------------------------------------------------------
    # Compiled form / pickling
    # ------------------------------------------------------------------

    def compiled(self) -> CompiledGraph:
        # Built eagerly in ``__init__`` — the whole point of the direct
        # path is that generation *is* compilation.
        return self._compiled

    def __getstate__(self):
        cg = self._compiled
        return ("arrays", self._nodes, cg.degrees, cg.offsets, cg.mate,
                cg.port_node)

    def __setstate__(self, state) -> None:
        tag, nodes, degrees, offsets, mate, port_node = state
        assert tag == "arrays"
        self.__init__(
            nodes, degrees, offsets, mate, port_node, validate=False
        )


def _validate_arrays(cg: CompiledGraph) -> None:
    nodes, degrees, offsets = cg.nodes, cg.degrees, cg.offsets
    mate, port_node = cg.mate, cg.port_node
    n = len(nodes)
    if len(cg.node_index) != n:
        raise PortNumberingError("duplicate node labels")
    if len(degrees) != n or len(offsets) != n + 1 or offsets[0] != 0:
        raise PortNumberingError(
            f"CSR shape mismatch: {n} nodes, {len(degrees)} degrees, "
            f"{len(offsets)} offsets"
        )
    # The first node whose degree is negative or disagrees with its
    # offsets, reported as the per-node walk would.
    bad = np.flatnonzero((degrees < 0) | (np.diff(offsets) != degrees))
    if bad.size:
        k = int(bad[0])
        if degrees[k] < 0:
            raise PortNumberingError(
                f"node {nodes[k]!r} has negative degree {int(degrees[k])}"
            )
        raise PortNumberingError(
            f"offsets do not match degrees at node index {k}"
        )
    total = cg.num_ports
    if len(mate) != total or len(port_node) != total:
        raise PortNumberingError(
            f"expected {total} ports, got len(mate)={len(mate)} "
            f"len(port_node)={len(port_node)}"
        )
    if not total:
        return
    expected_owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
    if not np.array_equal(port_node, expected_owner):
        raise PortNumberingError("port_node does not match offsets")
    if mate.min() < 0 or mate.max() >= total:
        raise InvolutionError("mate index out of range")
    if not np.array_equal(mate[mate], cg.all_ports):
        raise InvolutionError("mate is not an involution")
