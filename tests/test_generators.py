"""Tests for the graph family generators."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.exceptions import ConstructionError
from repro.generators import (
    caterpillar,
    circulant,
    complete,
    complete_bipartite,
    component_h_nx,
    crown,
    crown_nx,
    cycle,
    grid,
    hypercube,
    matching_union,
    path,
    petersen,
    random_bounded_degree,
    random_regular,
    random_tree,
    star,
    torus,
)
from repro.portgraph.convert import from_networkx
from repro.portgraph.numbering import random_numbering


class TestRegularFamilies:
    def test_random_regular(self):
        g = random_regular(3, 10, seed=1)
        assert g.regularity() == 3
        assert g.num_nodes == 10

    def test_random_regular_rejects_impossible(self):
        with pytest.raises(ConstructionError):
            random_regular(3, 5)  # n*d odd
        with pytest.raises(ConstructionError):
            random_regular(5, 4)  # n <= d

    def test_cycle(self):
        g = cycle(7)
        assert g.regularity() == 2
        assert g.num_edges == 7
        with pytest.raises(ConstructionError):
            cycle(2)

    def test_complete(self):
        g = complete(5)
        assert g.regularity() == 4
        assert g.num_edges == 10

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 3)
        assert g.regularity() == 3
        irregular = complete_bipartite(2, 4)
        assert irregular.regularity() is None

    def test_circulant(self):
        g = circulant(8, (1, 2))
        assert g.regularity() == 4

    def test_hypercube(self):
        g = hypercube(3)
        assert g.regularity() == 3
        assert g.num_nodes == 8

    def test_torus(self):
        g = torus(3, 4)
        assert g.regularity() == 4
        assert g.num_nodes == 12

    def test_petersen(self):
        g = petersen()
        assert g.regularity() == 3
        assert g.num_nodes == 10

    def test_random_numbering_changes_ports(self):
        a = random_regular(3, 10, seed=5)
        b = random_regular(3, 10, seed=5)
        assert a == b  # deterministic given seed


def _rescan_thinning(n: int, max_degree: int, seed: int):
    """The reference ``random_bounded_degree``: after every edge removal
    re-sort all over-full nodes and thin the smallest."""
    graph = nx.gnp_random_graph(n, 0.5, seed=seed)
    rng = random.Random(seed)
    while True:
        over = sorted(v for v, d in graph.degree() if d > max_degree)
        if not over:
            break
        v = over[0]
        graph.remove_edge(v, rng.choice(sorted(graph.neighbors(v))))
    return from_networkx(graph, random_numbering(seed))


class TestBoundedFamilies:
    def test_random_bounded_degree(self):
        g = random_bounded_degree(15, 4, seed=3)
        assert g.max_degree <= 4
        assert g.num_nodes == 15

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 128, 256])
    def test_thinning_matches_rescan_reference(self, n):
        """One pass over the initially over-full nodes removes the same
        edges with the same coins as re-scanning every degree after each
        removal.  The rescan is cubic (~1.1 s per graph at n = 256), so
        that size runs at seed 0 and the extreme bounds only."""
        cells = (
            [(d, seed) for d in (1, 3, 4, 8) for seed in range(3)]
            if n < 256 else [(1, 0), (8, 0)]
        )
        for max_degree, seed in cells:
            got = random_bounded_degree(n, max_degree, seed=seed)
            want = _rescan_thinning(n, max_degree, seed)
            assert got == want, (n, max_degree, seed)
            assert got.nodes == want.nodes and got.edges == want.edges

    def test_path_and_star(self):
        assert path(5).max_degree == 2
        assert star(6).max_degree == 6
        assert star(6).num_edges == 6

    def test_grid(self):
        g = grid(3, 4)
        assert g.max_degree <= 4
        assert g.num_nodes == 12

    def test_random_tree(self):
        g = random_tree(12, seed=2)
        assert g.num_edges == 11
        single = random_tree(1)
        assert single.num_nodes == 1

    def test_caterpillar(self):
        g = caterpillar(4, 2)
        assert g.num_nodes == 4 + 8
        assert g.num_edges == 3 + 8


class TestSpecialFamilies:
    def test_crown(self):
        g = crown(4)
        assert g.regularity() == 3
        assert g.num_nodes == 8
        nx_g = crown_nx(3)
        assert nx_g.number_of_edges() == 6  # K33 minus matching

    def test_crown_rejects_small(self):
        with pytest.raises(ConstructionError):
            crown_nx(1)

    def test_matching_union(self):
        g = matching_union(4)
        assert g.regularity() == 1
        assert g.num_edges == 4

    def test_component_h(self):
        h = component_h_nx(2)
        assert h.number_of_nodes() == 9
        assert {d for _, d in h.degree()} == {4}
