"""Tests for the Theorem 5 family A(Δ) (BoundedDegreeEDS).

These check feasibility and the 4 - 1/k guarantee on arbitrary random
bounded-degree graphs, plus the structural properties (a)-(c) from §7.3
that the proof relies on:

(a) M and P are node-disjoint, M is a matching, P is a 2-matching;
(b) every odd-degree node is covered by M or has an M-covered neighbour;
(c) every P edge joins two nodes of equal degree.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BoundedDegreeEDS
from repro.eds import (
    bounded_degree_ratio,
    is_edge_dominating_set,
    minimum_eds_size,
)
from repro.exceptions import AlgorithmContractError
from repro.matching import covered_nodes, is_k_matching, is_matching
from repro.portgraph import from_networkx, random_numbering
from repro.runtime import run_anonymous

from tests.conftest import nx_graphs


def run_with_internals(graph, max_degree):
    """Run A(Δ) while keeping the per-node programs for inspection.

    The public output is the undifferentiated union D = M ∪ P; the proofs
    of §7.3 constrain M and P separately, so these tests read the split
    out of the node programs' internal state.
    """
    from repro.runtime.scheduler import run_node_programs

    factory = BoundedDegreeEDS(max_degree)
    return run_node_programs(
        graph, lambda v, degree: factory(degree), max_rounds=100_000
    )


def m_and_p_edges(graph, programs):
    """Extract the M and P edge sets from program internals."""
    m_edges = set()
    p_edges = set()
    for v in graph.nodes:
        prog = programs[v]
        m_port = getattr(prog, "m_port", None)
        if m_port is not None:
            m_edges.add(graph.edge_at(v, m_port))
        for port in getattr(prog, "p_ports", ()):
            p_edges.add(graph.edge_at(v, port))
    return frozenset(m_edges), frozenset(p_edges)


def bounded_graphs(max_degree: int, max_nodes: int = 12):
    @st.composite
    def build(draw):
        graph = draw(nx_graphs(max_nodes=max_nodes, max_degree=max_degree))
        seed = draw(st.integers(0, 10**6))
        return from_networkx(graph, random_numbering(seed))

    return build()


class TestFactory:
    def test_invalid_delta_rejected(self):
        with pytest.raises(AlgorithmContractError):
            BoundedDegreeEDS(0)

    def test_degree_above_promise_rejected(self):
        factory = BoundedDegreeEDS(2)
        with pytest.raises(AlgorithmContractError):
            factory(3)

    def test_even_delta_uses_next_odd(self):
        assert BoundedDegreeEDS(4).odd_delta == 5
        assert BoundedDegreeEDS(5).odd_delta == 5

    def test_total_rounds_formula(self):
        assert BoundedDegreeEDS(1).total_rounds() == 1
        assert BoundedDegreeEDS(3).total_rounds() == 2 * 9 + 12


class TestDeltaOne:
    def test_outputs_every_edge(self):
        g = from_networkx(nx.Graph([(0, 1), (2, 3)]))
        result = run_anonymous(g, BoundedDegreeEDS(1))
        assert result.edge_set() == frozenset(g.edges)
        assert result.rounds == 1

    def test_optimal_on_matchings(self):
        g = from_networkx(nx.Graph([(0, 1), (2, 3), (4, 5)]))
        result = run_anonymous(g, BoundedDegreeEDS(1))
        assert len(result.edge_set()) == minimum_eds_size(g) == 3


class TestFeasibility:
    def test_path(self):
        g = from_networkx(nx.path_graph(7))
        result = run_anonymous(g, BoundedDegreeEDS(2))
        assert is_edge_dominating_set(g, result.edge_set())

    def test_cycle_even_degree_everywhere(self):
        """On 2-regular graphs phase I/II do nothing; phase III must
        dominate everything by itself."""
        g = from_networkx(nx.cycle_graph(9))
        result = run_anonymous(g, BoundedDegreeEDS(2))
        assert is_edge_dominating_set(g, result.edge_set())

    def test_star(self):
        g = from_networkx(nx.star_graph(5))
        result = run_anonymous(g, BoundedDegreeEDS(5))
        d = result.edge_set()
        assert is_edge_dominating_set(g, d)
        assert len(d) <= 3  # optimum is 1; ratio must stay within 7/2

    def test_complete_graph(self):
        g = from_networkx(nx.complete_graph(6))
        result = run_anonymous(g, BoundedDegreeEDS(5))
        assert is_edge_dominating_set(g, result.edge_set())

    def test_round_count_independent_of_n(self):
        counts = set()
        for n in (6, 12, 18):
            g = from_networkx(nx.random_regular_graph(3, n, seed=n))
            counts.add(run_anonymous(g, BoundedDegreeEDS(3)).rounds)
        assert len(counts) == 1
        assert counts.pop() == BoundedDegreeEDS(3).total_rounds()

    @settings(max_examples=40, deadline=None)
    @given(g=bounded_graphs(max_degree=4))
    def test_feasible_on_random_bounded_graphs(self, g):
        result = run_anonymous(g, BoundedDegreeEDS(4))
        assert is_edge_dominating_set(g, result.edge_set())

    @settings(max_examples=25, deadline=None)
    @given(g=bounded_graphs(max_degree=5, max_nodes=10))
    def test_feasible_delta5(self, g):
        result = run_anonymous(g, BoundedDegreeEDS(5))
        assert is_edge_dominating_set(g, result.edge_set())


class TestApproximationGuarantee:
    @settings(max_examples=30, deadline=None)
    @given(g=bounded_graphs(max_degree=3, max_nodes=10))
    def test_ratio_delta3(self, g):
        if g.num_edges == 0:
            return
        result = run_anonymous(g, BoundedDegreeEDS(3))
        optimum = minimum_eds_size(g)
        assert Fraction(len(result.edge_set()), optimum) <= bounded_degree_ratio(3)

    @settings(max_examples=25, deadline=None)
    @given(g=bounded_graphs(max_degree=4, max_nodes=10))
    def test_ratio_delta4(self, g):
        if g.num_edges == 0:
            return
        result = run_anonymous(g, BoundedDegreeEDS(4))
        optimum = minimum_eds_size(g)
        assert Fraction(len(result.edge_set()), optimum) <= bounded_degree_ratio(4)

    @settings(max_examples=20, deadline=None)
    @given(g=bounded_graphs(max_degree=5, max_nodes=9))
    def test_ratio_delta5(self, g):
        if g.num_edges == 0:
            return
        result = run_anonymous(g, BoundedDegreeEDS(5))
        optimum = minimum_eds_size(g)
        assert Fraction(len(result.edge_set()), optimum) <= bounded_degree_ratio(5)


class TestSectionSevenProperties:
    """Executable versions of properties (a)-(c) from §7.3."""

    @settings(max_examples=30, deadline=None)
    @given(g=bounded_graphs(max_degree=5, max_nodes=10))
    def test_property_a(self, g):
        """M is a matching, P a 2-matching, and they are node-disjoint."""
        result, programs = run_with_internals(g, 5)
        m_edges, p_edges = m_and_p_edges(g, programs)
        assert is_matching(m_edges)
        assert is_k_matching(p_edges, 2)
        assert not (covered_nodes(m_edges) & covered_nodes(p_edges))
        assert result.edge_set() == m_edges | p_edges

    @settings(max_examples=30, deadline=None)
    @given(g=bounded_graphs(max_degree=5, max_nodes=10))
    def test_property_b(self, g):
        """Every odd-degree node is covered by M or adjacent to one."""
        _, programs = run_with_internals(g, 5)
        m_edges, _ = m_and_p_edges(g, programs)
        m_nodes = covered_nodes(m_edges)
        for v in g.nodes:
            if g.degree(v) % 2 == 1:
                assert v in m_nodes or any(
                    u in m_nodes for u in g.neighbours(v)
                ), f"property (b) fails at {v!r}"

    @settings(max_examples=30, deadline=None)
    @given(g=bounded_graphs(max_degree=5, max_nodes=10))
    def test_property_c(self, g):
        """Every P edge joins two nodes of the same degree."""
        _, programs = run_with_internals(g, 5)
        _, p_edges = m_and_p_edges(g, programs)
        for e in p_edges:
            assert g.degree(e.u) == g.degree(e.v), (
                f"property (c) fails on {e!r}"
            )

    @settings(max_examples=25, deadline=None)
    @given(g=bounded_graphs(max_degree=4, max_nodes=10))
    def test_phase3_dominates_h(self, g):
        """P dominates every edge not covered by M (§7.2 feasibility)."""
        _, programs = run_with_internals(g, 4)
        m_edges, p_edges = m_and_p_edges(g, programs)
        m_nodes = covered_nodes(m_edges)
        p_nodes = covered_nodes(p_edges)
        for e in g.edges:
            if not (e.endpoints & m_nodes):
                assert e.endpoints & p_nodes, (
                    f"edge {e!r} in H is not dominated by P"
                )
