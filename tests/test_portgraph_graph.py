"""Tests for the port-numbered graph model (repro.portgraph.graph/ports)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    InvolutionError,
    NotRegularGraphError,
    NotSimpleGraphError,
    PortNumberingError,
)
from repro.portgraph import (
    PortEdge,
    PortGraphBuilder,
    PortNumberedGraph,
    from_networkx,
)

from tests.conftest import port_graphs


class TestPortEdge:
    def test_canonical_order_is_stable(self):
        e1 = PortEdge.make("u", 1, "v", 2)
        e2 = PortEdge.make("v", 2, "u", 1)
        assert e1 == e2
        assert hash(e1) == hash(e2)

    def test_ports_and_endpoints(self):
        e = PortEdge.make("u", 1, "v", 2)
        assert e.ports == {("u", 1), ("v", 2)}
        assert e.endpoints == {"u", "v"}
        assert not e.is_loop

    def test_directed_loop(self):
        e = PortEdge.make("v", 3, "v", 3)
        assert e.is_loop
        assert e.is_directed_loop
        assert e.ports == {("v", 3)}

    def test_undirected_loop(self):
        e = PortEdge.make("v", 1, "v", 2)
        assert e.is_loop
        assert not e.is_directed_loop
        assert e.ports == {("v", 1), ("v", 2)}

    def test_other_endpoint(self):
        e = PortEdge.make("u", 1, "v", 2)
        assert e.other_endpoint("u") == "v"
        assert e.other_endpoint("v") == "u"
        with pytest.raises(KeyError):
            e.other_endpoint("w")

    def test_port_at(self):
        e = PortEdge.make("u", 1, "v", 2)
        assert e.port_at("u") == 1
        assert e.port_at("v") == 2
        with pytest.raises(KeyError):
            e.port_at("w")


class TestConstruction:
    def test_single_edge(self, path_graph_p2):
        g = path_graph_p2
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.degree("u") == 1
        assert g.connection("u", 1) == ("v", 1)
        assert g.connection("v", 1) == ("u", 1)

    def test_involution_must_be_self_inverse(self):
        degrees = {"u": 1, "v": 1, "w": 2}
        p = {
            ("u", 1): ("v", 1),
            ("v", 1): ("w", 1),  # not self-inverse
            ("w", 1): ("u", 1),
            ("w", 2): ("w", 2),
        }
        with pytest.raises(InvolutionError):
            PortNumberedGraph(degrees, p)

    def test_involution_domain_must_match_ports(self):
        with pytest.raises(PortNumberingError):
            PortNumberedGraph({"u": 2}, {("u", 1): ("u", 1)})
        with pytest.raises(PortNumberingError):
            PortNumberedGraph(
                {"u": 1}, {("u", 1): ("u", 1), ("u", 2): ("u", 2)}
            )

    def test_negative_degree_rejected(self):
        with pytest.raises(PortNumberingError):
            PortNumberedGraph({"u": -1}, {})

    def test_image_outside_ports_rejected(self):
        with pytest.raises(InvolutionError):
            PortNumberedGraph({"u": 1}, {("u", 1): ("v", 1)})

    def test_isolated_nodes_allowed(self):
        g = PortNumberedGraph({"u": 0, "v": 0}, {})
        assert g.num_nodes == 2
        assert g.num_edges == 0
        assert g.max_degree == 0

    def test_empty_graph(self):
        g = PortNumberedGraph({}, {})
        assert g.num_nodes == 0
        assert g.regularity() is None
        assert g.max_degree == 0


class TestMultigraphFeatures:
    def test_figure2_multigraph(self, multigraph_m):
        g = multigraph_m
        assert g.degree("s") == 3
        assert g.degree("t") == 4
        # edges: two parallel s--t edges, one directed loop at s,
        # one undirected loop at t
        assert g.num_edges == 4
        loops = [e for e in g.edges if e.is_loop]
        assert len(loops) == 2
        directed = [e for e in loops if e.is_directed_loop]
        assert len(directed) == 1
        assert directed[0].ports == {("s", 3)}
        assert not g.is_simple()

    def test_require_simple_raises(self, multigraph_m):
        with pytest.raises(NotSimpleGraphError):
            multigraph_m.require_simple()

    def test_parallel_edges_not_simple(self):
        b = PortGraphBuilder()
        b.add_nodes({"u": 2, "v": 2})
        b.connect("u", 1, "v", 1)
        b.connect("u", 2, "v", 2)
        g = b.build()
        assert g.num_edges == 2
        assert not g.is_simple()


class TestAccessors:
    def test_neighbours_by_port_order(self, figure2_like_h):
        g = figure2_like_h
        assert g.neighbours("b") == ("c", "a", "e")
        assert g.neighbours("a") == ("b", "d")

    def test_edge_at_round_trip(self, figure2_like_h):
        g = figure2_like_h
        for v in g.nodes:
            for i in g.ports(v):
                e = g.edge_at(v, i)
                assert (v, i) in e.ports

    def test_edges_at_ordered_by_port(self, figure2_like_h):
        g = figure2_like_h
        edges = g.edges_at("c")
        assert [e.other_endpoint("c") for e in edges] == ["d", "e", "b"]

    def test_port_between(self, figure2_like_h):
        g = figure2_like_h
        assert g.port_between("a", "b") == (1, 2)
        assert g.port_between("b", "a") == (2, 1)
        with pytest.raises(KeyError):
            g.port_between("a", "c")

    def test_unknown_port_raises(self, path_graph_p2):
        with pytest.raises(KeyError):
            path_graph_p2.connection("u", 2)
        with pytest.raises(KeyError):
            path_graph_p2.edge_at("zzz", 1)

    def test_has_edge(self, figure2_like_h):
        g = figure2_like_h
        assert g.has_edge("a", "b")
        assert not g.has_edge("a", "c")


class TestRegularity:
    def test_regular_graph(self):
        g = from_networkx(nx.cycle_graph(5))
        assert g.regularity() == 2
        assert g.require_regular() == 2

    def test_irregular_graph(self, figure2_like_h):
        assert figure2_like_h.regularity() is None
        with pytest.raises(NotRegularGraphError):
            figure2_like_h.require_regular()

    def test_max_degree(self, figure2_like_h):
        assert figure2_like_h.max_degree == 3


class TestEquality:
    def test_equal_graphs(self, path_graph_p2):
        b = PortGraphBuilder()
        b.add_nodes({"u": 1, "v": 1})
        b.connect("u", 1, "v", 1)
        assert b.build() == path_graph_p2
        assert hash(b.build()) == hash(path_graph_p2)

    def test_unequal_graphs(self, path_graph_p2, triangle):
        assert path_graph_p2 != triangle
        assert path_graph_p2 != "not a graph"


@settings(max_examples=40, deadline=None)
@given(g=port_graphs(max_nodes=9))
def test_handshake_lemma(g: PortNumberedGraph):
    """Sum of degrees equals twice the number of (non-loop) edges."""
    assert g.is_simple()
    assert sum(g.degree(v) for v in g.nodes) == 2 * g.num_edges


@settings(max_examples=40, deadline=None)
@given(g=port_graphs(max_nodes=9))
def test_involution_orbit_structure(g: PortNumberedGraph):
    """Every port belongs to exactly one edge; ports partition into edges."""
    all_ports = {(v, i) for v in g.nodes for i in g.ports(v)}
    covered: set = set()
    for e in g.edges:
        assert not (e.ports & covered)
        covered |= e.ports
    assert covered == all_ports


@settings(max_examples=40, deadline=None)
@given(g=port_graphs(max_nodes=9))
def test_connection_symmetry(g: PortNumberedGraph):
    for v in g.nodes:
        for i in g.ports(v):
            u, j = g.connection(v, i)
            assert g.connection(u, j) == (v, i)


def edge_walk_is_simple(g: PortNumberedGraph) -> bool:
    """Reference simplicity check: walk the edges, rejecting any loop
    and any node pair joined twice."""
    seen_pairs: set = set()
    for edge in g.edges:
        if edge.is_loop:
            return False
        if edge.endpoints in seen_pairs:
            return False
        seen_pairs.add(edge.endpoints)
    return True


@st.composite
def multigraphs(draw) -> PortNumberedGraph:
    """A random simple port graph plus a few undirected loops, directed
    loops and parallel edges on fresh ports."""
    base = draw(port_graphs(max_nodes=7))
    degrees = dict(base.degrees)
    involution = dict(base.involution)
    nodes, edges = list(base.nodes), list(base.edges)
    extras = draw(st.lists(
        st.tuples(
            st.sampled_from(("undirected_loop", "directed_loop", "parallel")),
            st.integers(min_value=0, max_value=10**6),
        ),
        max_size=3,
    ))

    def fresh_port(v):
        degrees[v] += 1
        return (v, degrees[v])

    for kind, pick in extras:
        if kind == "parallel":
            if not edges:
                continue
            u, v = tuple(edges[pick % len(edges)].endpoints)
            a, b = fresh_port(u), fresh_port(v)
            involution[a], involution[b] = b, a
        elif nodes:
            a = fresh_port(nodes[pick % len(nodes)])
            if kind == "directed_loop":
                involution[a] = a
            else:
                b = fresh_port(a[0])
                involution[a], involution[b] = b, a
    return PortNumberedGraph(degrees, involution)


@settings(max_examples=80, deadline=None)
@given(g=multigraphs())
def test_is_simple_matches_edge_walk(g: PortNumberedGraph):
    """The CSR check agrees with the edge walk on dict-built and
    array-built forms of the same graph."""
    from repro.portgraph.arrays import ArrayGraph

    expected = edge_walk_is_simple(g)
    assert g.is_simple() == expected
    cg = g.compiled()
    rebuilt = ArrayGraph(
        cg.nodes, cg.degrees, cg.offsets, cg.mate, cg.port_node
    )
    assert rebuilt == g
    assert rebuilt.is_simple() == expected
