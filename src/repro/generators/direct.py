"""Direct-to-CSR builders for the structured graph families.

The networkx route (``nx.Graph`` → numbering strategy → neighbour-order
dicts → ``from_neighbour_orders`` → ``CompiledGraph.__init__`` walking
the involution dict) costs several dict passes per port.  For the
*structured* families — cycles, grids, tori, hypercubes, complete and
complete-bipartite graphs, paths — the neighbour sets are arithmetic,
so this module computes the same port-numbered graph straight into the
compiled CSR arrays and wraps them in an
:class:`~repro.portgraph.arrays.ArrayGraph`.

Byte-identity contract (pinned by ``tests/test_direct_csr.py``): for
every family and every seed the direct build equals the networkx build
*exactly* — same node tuple, same degree function, same involution,
same canonical edge order, same compiled arrays.  That requires
replicating two conventions of the dict path:

* node order is ``sorted(nodes, key=repr)`` — for integer labels this
  is the *decimal-string* order (``0, 1, 10, 100, 11, …``), not numeric;
* each node's neighbours are sorted by ``repr`` and, when a seed is
  given, shuffled by one shared ``random.Random(seed)`` visiting nodes
  in that same repr order (see
  :func:`repro.portgraph.numbering.random_numbering`).
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from repro.portgraph.arrays import ArrayGraph
from repro.portgraph.ports import Node

__all__ = [
    "from_neighbour_lists",
    "cycle_neighbours",
    "complete_neighbours",
    "complete_bipartite_neighbours",
    "path_neighbours",
    "grid_neighbours",
    "torus_neighbours",
    "hypercube_neighbours",
]


def from_neighbour_lists(
    neighbour_lists: Sequence[Sequence[Node]],
    seed: int | None = None,
) -> ArrayGraph:
    """Build the port-numbered graph of a simple integer-labelled graph.

    ``neighbour_lists[v]`` holds the (distinct) neighbours of node ``v``
    for ``v = 0..n-1``; list order is irrelevant — ports are assigned by
    the numbering conventions above, exactly as the networkx path would.
    """
    n = len(neighbour_lists)
    order = sorted(range(n), key=repr)
    rng = random.Random(seed) if seed is not None else None
    ordered: list[list[Node]] = [[]] * n
    for v in order:
        nbrs = sorted(neighbour_lists[v], key=repr)
        if rng is not None:
            rng.shuffle(nbrs)
        ordered[v] = nbrs

    rank = [0] * n
    for k, v in enumerate(order):
        rank[v] = k
    offsets = [0] * (n + 1)
    total = 0
    for k, v in enumerate(order):
        offsets[k] = total
        total += len(ordered[v])
    offsets[n] = total

    # ``gport[(u, v)]`` — the global port of u that points at v; one
    # pass to index, one to wire the involution.
    gport: dict[tuple[Node, Node], int] = {}
    for v in range(n):
        base = offsets[rank[v]]
        for i, u in enumerate(ordered[v]):
            gport[(v, u)] = base + i
    mate = [0] * total
    port_node = [0] * total
    for v in range(n):
        k = rank[v]
        base = offsets[k]
        for i, u in enumerate(ordered[v]):
            g = base + i
            mate[g] = gport[(u, v)]
            port_node[g] = k

    return ArrayGraph(
        tuple(order),
        np.array([len(ordered[v]) for v in order], dtype=np.int64),
        np.array(offsets, dtype=np.int64),
        np.array(mate, dtype=np.int64),
        np.array(port_node, dtype=np.int64),
        validate=False,
    )


# ---------------------------------------------------------------------------
# Neighbour arithmetic per family (labels match the networkx builders)
# ---------------------------------------------------------------------------


def cycle_neighbours(n: int) -> list[tuple[int, ...]]:
    """``nx.cycle_graph(n)`` for n >= 3."""
    return [((v - 1) % n, (v + 1) % n) for v in range(n)]


def complete_neighbours(n: int) -> list[tuple[int, ...]]:
    """``nx.complete_graph(n)``."""
    return [
        tuple(u for u in range(n) if u != v) for v in range(n)
    ]


def complete_bipartite_neighbours(a: int, b: int) -> list[tuple[int, ...]]:
    """``nx.complete_bipartite_graph(a, b)``: sides 0..a-1 and a..a+b-1."""
    left = tuple(range(a))
    right = tuple(range(a, a + b))
    return [right] * a + [left] * b


def path_neighbours(n: int) -> list[tuple[int, ...]]:
    """``nx.path_graph(n)`` for n >= 1."""
    if n == 1:
        return [()]
    return [
        tuple(
            u for u in (v - 1, v + 1) if 0 <= u < n
        )
        for v in range(n)
    ]


def grid_neighbours(rows: int, cols: int) -> list[tuple[int, ...]]:
    """``convert_node_labels_to_integers(nx.grid_2d_graph(rows, cols))``.

    Node ``(i, j)`` is visited in row-major order by networkx, so its
    integer label is ``i * cols + j``.
    """
    out = []
    for i in range(rows):
        for j in range(cols):
            nbrs = []
            if i > 0:
                nbrs.append((i - 1) * cols + j)
            if i < rows - 1:
                nbrs.append((i + 1) * cols + j)
            if j > 0:
                nbrs.append(i * cols + j - 1)
            if j < cols - 1:
                nbrs.append(i * cols + j + 1)
            out.append(tuple(nbrs))
    return out


def torus_neighbours(rows: int, cols: int) -> list[tuple[int, ...]]:
    """The periodic grid, both sides >= 3 (no duplicate wrap neighbours)."""
    out = []
    for i in range(rows):
        for j in range(cols):
            out.append((
                ((i - 1) % rows) * cols + j,
                ((i + 1) % rows) * cols + j,
                i * cols + (j - 1) % cols,
                i * cols + (j + 1) % cols,
            ))
    return out


def hypercube_neighbours(dim: int) -> list[tuple[int, ...]]:
    """``convert_node_labels_to_integers(nx.hypercube_graph(dim))``.

    networkx labels are binary tuples in lexicographic order, so the
    integer relabelling reads each tuple as a binary number with the
    first coordinate as the most significant bit; flipping any bit
    yields a neighbour.
    """
    n = 1 << dim
    return [
        tuple(v ^ (1 << b) for b in range(dim)) for v in range(n)
    ]
