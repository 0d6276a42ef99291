"""The certified-bounds subsystem: sandwich soundness, certificates,
engine threading, and cache-key byte-stability.

The core soundness matrix runs every plain generator family at small
sizes and asserts the full chain ``primal <= exact ν <= dual`` with
every certificate re-proven by :func:`repro.bounds.verify_certificate`;
the adversarial half does the same on the paper's lower-bound
constructions, whose optimum is known by certificate.  The
byte-stability half pins the content addresses and record bytes of the
pre-bounds optimum modes against fixtures recorded *before* this
subsystem existed (``tests/data/v2_optimum_keys.json``).  The array
engines are held against the sequential Python they replaced, kept
here as references: the primal matching must be set-equal and the
numpy covering loop value-equal.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lp_rounding import LPRoundingEDS
from repro.bounds import (
    DUAL_BOUND_EDGE_LIMIT,
    BoundResult,
    CoverCertificate,
    CoverValues,
    MatchingCertificate,
    SandwichCertificate,
    doubling_phases,
    dual_bound,
    exact_bound,
    fractional_vertex_cover,
    maximum_matching_edges,
    nu_sandwich,
    primal_bound,
    primal_matching,
    solve_covering_lp,
    verify_certificate,
)
from repro.bounds.fractional import line_graph_covering_instance
from repro.bounds.result import _cover_numerators
from repro.eds.bounds import (
    eds_lower_bound,
    eds_lower_bound_from_nu,
    maximum_matching_size,
)
from repro.eds.exact import minimum_eds_size
from repro.eds.properties import is_edge_dominating_set
from repro.engine.cache import cache_key
from repro.engine.executor import execute_unit
from repro.engine.records import ResultRecord, ResultStore
from repro.engine.spec import GraphSpec, JobSpec, canonical_json
from repro.exceptions import CertificateError
from repro.lowerbounds.even import build_even_lower_bound
from repro.lowerbounds.odd import build_odd_lower_bound
from repro.obs.spans import recording
from repro.portgraph.convert import from_networkx
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.numbering import random_numbering
from repro.portgraph.ports import PortEdge
from repro.registry.families import get_family
from repro.runtime.outputs import PortMaskEdgeSet

from test_family_matrix import BOUNDED_FAMILIES, REGULAR_FAMILIES
from test_runtime_compiled import FAMILY_INSTANCES

ALL_FAMILIES = REGULAR_FAMILIES + BOUNDED_FAMILIES

FIXTURE = Path(__file__).parent / "data" / "v2_optimum_keys.json"


# ---------------------------------------------------------------------------
# Sandwich soundness on the full family matrix
# ---------------------------------------------------------------------------


class TestSandwichSoundnessMatrix:
    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_primal_nu_dual_chain(self, name, make, d, seed):
        g = make()
        nu = maximum_matching_size(g)
        primal = primal_bound(g, seed=seed)
        dual = dual_bound(g, seed=seed)
        sandwich = nu_sandwich(g, seed=seed)
        assert primal.lower <= nu <= dual.upper, name
        assert sandwich.lower <= nu <= sandwich.upper, name
        assert verify_certificate(g, primal)
        assert verify_certificate(g, dual)
        assert verify_certificate(g, sandwich)

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    def test_interval_contains_exact_eds_optimum(self, name, make, d):
        g = make()
        optimum = minimum_eds_size(g)
        sandwich = nu_sandwich(g, seed=0)
        lower = eds_lower_bound_from_nu(
            sandwich.lower, g.num_edges, g.max_degree
        )
        assert lower <= optimum <= sandwich.lower, name
        # The sandwich's EDS lower bound can never beat the one derived
        # from the exact ν (monotonicity).
        assert lower <= eds_lower_bound(g), name

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    def test_primal_matching_is_maximal_matching(self, name, make, d):
        g = make()
        matching = primal_matching(g, seed=0)
        assert is_edge_dominating_set(g, matching), name
        matched = {v for e in matching for v in (e.u, e.v)}
        assert len(matched) == 2 * len(matching), name

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    def test_exact_engine_matches_blossom(self, name, make, d):
        g = make()
        result = exact_bound(g)
        assert result.exact
        assert result.lower == result.upper == maximum_matching_size(g)
        assert verify_certificate(g, result)
        assert len(maximum_matching_edges(g)) == result.lower


class TestAdversarialInstances:
    """The paper's lower-bound constructions: optimum known exactly."""

    @pytest.mark.parametrize(
        "build,d",
        [(build_even_lower_bound, 2), (build_even_lower_bound, 4),
         (build_odd_lower_bound, 3), (build_odd_lower_bound, 5)],
    )
    def test_sandwich_brackets_certified_optimum(self, build, d):
        instance = build(d)
        g = instance.graph
        nu = maximum_matching_size(g)
        sandwich = nu_sandwich(g, seed=0)
        assert sandwich.lower <= nu <= sandwich.upper
        assert verify_certificate(g, sandwich)
        lower = eds_lower_bound_from_nu(
            sandwich.lower, g.num_edges, g.max_degree
        )
        assert lower <= instance.optimum_size <= sandwich.lower


class TestDeterminism:
    def test_same_seed_same_certificate(self):
        g = REGULAR_FAMILIES[4][1]()  # circulant-8
        a, b = nu_sandwich(g, seed=7), nu_sandwich(g, seed=7)
        assert a == b

    def test_seed_changes_are_sound_not_byte_stable(self):
        g = BOUNDED_FAMILIES[1][1]()  # grid-3x4
        nu = maximum_matching_size(g)
        brackets = {
            (s.lower, s.upper)
            for s in (nu_sandwich(g, seed=seed) for seed in range(6))
        }
        for lower, upper in brackets:
            assert lower <= nu <= upper


# ---------------------------------------------------------------------------
# The array primal against the sequential reference
# ---------------------------------------------------------------------------


def _primal_matching_reference(graph, *, seed=0, max_depth=3, passes=4):
    """The sequential primal the array engine replaced: greedy over the
    shuffled canonical edge list, then depth-bounded augmenting DFS
    passes over dict adjacency, one PortEdge per edge."""
    graph.require_simple()
    order = list(graph.edges)
    random.Random(seed).shuffle(order)
    match, match_edge = {}, {}
    for e in order:
        if e.u not in match and e.v not in match:
            match[e.u], match[e.v] = e.v, e.u
            match_edge[e.u] = match_edge[e.v] = e
    adjacency = {node: [] for node in graph.nodes}
    for e in graph.edges:
        adjacency[e.u].append((e.v, e))
        adjacency[e.v].append((e.u, e))

    def search(u, depth, visited):
        for v, edge in adjacency[u]:
            if v in visited:
                continue
            if v not in match:
                visited.add(v)
                return [edge]
            if depth >= max_depth:
                continue
            w = match[v]
            if w in visited:
                continue
            visited.add(v)
            visited.add(w)
            tail = search(w, depth + 1, visited)
            if tail is not None:
                return [edge, match_edge[v]] + tail
        return None

    for _ in range(max(0, passes)):
        visited = set()
        augmented = False
        for root in graph.nodes:
            if root in match or root in visited or not adjacency[root]:
                continue
            visited.add(root)
            path = search(root, 0, visited)
            if path is None:
                continue
            for matched in path[1::2]:
                del match[matched.u], match[matched.v]
                del match_edge[matched.u], match_edge[matched.v]
            for added in path[0::2]:
                match[added.u], match[added.v] = added.v, added.u
                match_edge[added.u] = match_edge[added.v] = added
            augmented = True
        if not augmented:
            break
    return frozenset(match_edge.values())


@st.composite
def _simple_graphs(draw):
    """G(n, p) plus isolated nodes, a pendant path and degree-1 leaves
    hung off existing nodes, under a random port numbering."""
    n = draw(st.integers(min_value=0, max_value=14))
    p = draw(st.floats(min_value=0.05, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    graph = nx.gnp_random_graph(n, p, seed=seed)
    label = n
    chain = draw(st.integers(min_value=0, max_value=6))
    previous = None if n == 0 else draw(
        st.integers(min_value=0, max_value=n - 1)
    )
    for _ in range(chain):
        graph.add_node(label)
        if previous is not None:
            graph.add_edge(previous, label)
        previous, label = label, label + 1
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        graph.add_node(label)
        label += 1
    if graph.number_of_nodes() == 0:
        graph.add_node(0)
    return from_networkx(graph, random_numbering(seed))


class TestArrayPrimalMatchesReference:
    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    @pytest.mark.parametrize("seed", range(6))
    def test_family_matrix(self, name, make, d, seed):
        g = make()
        assert primal_matching(g, seed=seed) == _primal_matching_reference(
            g, seed=seed
        ), name

    @given(graph=_simple_graphs(), seed=st.integers(0, 2**16))
    @settings(max_examples=200, deadline=None)
    def test_random_simple_graphs(self, graph, seed):
        assert primal_matching(graph, seed=seed) == (
            _primal_matching_reference(graph, seed=seed)
        )

    @pytest.mark.parametrize("d", [3, 4])
    def test_pairing_regular_4096(self, d):
        g = get_family("pairing_regular").make({"d": d, "n": 4096}, 5)
        for seed in (0, 1):
            assert primal_matching(g, seed=seed) == (
                _primal_matching_reference(g, seed=seed)
            )


    def test_augmenting_search_leaves_no_garbage_cycle(self):
        """The augmenting DFS is a module function, so a call leaves no
        reference cycle holding the adjacency tables for a ``gc`` pass."""
        import gc

        g = get_family("pairing_regular").make({"d": 3, "n": 4096}, 1)
        g.compiled().lower_ports
        gc.collect()
        gc.disable()
        try:
            matching = primal_matching(g)
            del matching
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestArrayNativePath:
    def test_sandwich_and_verify_build_no_port_edges(self, monkeypatch):
        """On an array-built graph the whole certified path stays on the
        CSR arrays: no PortEdge is built and ``graph.edges`` is never
        materialised."""
        g = get_family("pairing_regular").make({"d": 3, "n": 512}, 1)
        built = []
        real = PortEdge.__post_init__

        def counting(self):
            built.append(1)
            real(self)

        monkeypatch.setattr(PortEdge, "__post_init__", counting)
        result = nu_sandwich(g, seed=0)
        assert verify_certificate(g, result)
        assert result.lower > 0 and not built
        with pytest.raises(AttributeError):
            PortNumberedGraph._edges.__get__(g)


def _edge_order_instances():
    for name, make, _ in ALL_FAMILIES:
        yield name, make
    for family, params in FAMILY_INSTANCES.items():
        for p in params:
            yield f"{family}{p}", (
                lambda family=family, p=p: get_family(family).make(p, 7)
            )
    yield "lower_bound_even-4", lambda: build_even_lower_bound(4).graph
    yield "lower_bound_odd-3", lambda: build_odd_lower_bound(3).graph
    yield "pairing_regular-4096", (
        lambda: get_family("pairing_regular").make({"d": 4, "n": 4096}, 1)
    )


class TestEdgeOrderPin:
    """The array engines index edges by their lower global port; the
    seeded shuffle, and so the matching, is only the sequential one if
    that order is ``graph.edges`` order."""

    @pytest.mark.parametrize(
        "name,make", list(_edge_order_instances()),
        ids=[name for name, _ in _edge_order_instances()],
    )
    def test_lower_ports_follow_canonical_edges(self, name, make):
        g = make()
        cg = g.compiled()
        lower = cg.lower_ports.tolist()
        assert [cg.edge(port) for port in lower] == list(g.edges), name


# ---------------------------------------------------------------------------
# Certificate verification rejects corruption
# ---------------------------------------------------------------------------


class TestVerifyRejectsCorruption:
    def _sandwich(self):
        g = REGULAR_FAMILIES[7][1]()  # petersen
        return g, nu_sandwich(g, seed=0)

    def test_cover_value_lowered(self):
        g, s = self._sandwich()
        cert = s.certificate
        values = dict(cert.cover.values)
        victim = next(iter(values))
        values[victim] = values[victim] - Fraction(1, 4)
        broken = BoundResult(
            lower=s.lower, upper=s.upper,
            certificate=SandwichCertificate(
                matching=cert.matching,
                cover=CoverCertificate(values=values),
            ),
            exact=s.exact,
        )
        with pytest.raises(CertificateError, match="infeasible"):
            verify_certificate(g, broken)

    def test_cover_value_negative(self):
        g, _ = self._sandwich()
        node = g.nodes[0]
        cover = CoverCertificate(
            values={n: Fraction(1) for n in g.nodes} | {node: Fraction(-1)}
        )
        result = BoundResult(0, cover.bound, cover, exact=False)
        with pytest.raises(CertificateError, match="negative"):
            verify_certificate(g, result)

    def test_cover_value_float_rejected(self):
        g, _ = self._sandwich()
        cover = CoverCertificate(values={n: 0.5 for n in g.nodes})
        result = BoundResult(0, g.num_nodes // 2, cover, exact=False)
        with pytest.raises(CertificateError, match="not exact"):
            verify_certificate(g, result)

    def test_matching_overlap_rejected(self):
        g, _ = self._sandwich()
        edges = [e for e in g.edges if not e.is_loop]
        shared = [
            (a, b) for a in edges for b in edges
            if a != b and (a.endpoints & b.endpoints)
        ][0]
        cert = MatchingCertificate(edges=frozenset(shared), maximal=False)
        result = BoundResult(2, 2 * g.num_edges, cert, exact=False)
        with pytest.raises(CertificateError, match="not a matching"):
            verify_certificate(g, result)

    def test_false_maximality_rejected(self):
        g, _ = self._sandwich()
        cert = MatchingCertificate(
            edges=frozenset({g.edges[0]}), maximal=True
        )
        result = BoundResult(1, 2, cert, exact=False)
        with pytest.raises(CertificateError, match="maximality"):
            verify_certificate(g, result)

    def test_overclaimed_lower_bound_rejected(self):
        g, s = self._sandwich()
        inflated = BoundResult(
            lower=s.lower + 1, upper=max(s.upper, s.lower + 1),
            certificate=s.certificate, exact=False,
        )
        with pytest.raises(CertificateError, match="exceeds"):
            verify_certificate(g, inflated)

    def test_underclaimed_upper_bound_rejected(self):
        g, s = self._sandwich()
        deflated = BoundResult(
            lower=0, upper=s.upper - 1,
            certificate=s.certificate, exact=False,
        )
        with pytest.raises(CertificateError, match="below every"):
            verify_certificate(g, deflated)

    def test_missing_certificate_rejected(self):
        g, s = self._sandwich()
        with pytest.raises(CertificateError, match="no certificate"):
            verify_certificate(
                g, BoundResult(s.lower, s.upper, None, False)
            )


class TestVerifyRejectsCorruptArrays:
    """The same guarantees on the array certificates the engines emit."""

    def _sandwich(self):
        g = REGULAR_FAMILIES[7][1]()  # petersen
        return g, nu_sandwich(g, seed=0)

    def _matching_result(self, edges, maximal=True):
        return BoundResult(
            lower=len(edges), upper=2 * len(edges),
            certificate=MatchingCertificate(edges=edges, maximal=maximal),
            exact=False,
        )

    def test_half_edge_cleared(self):
        g, s = self._sandwich()
        edges = s.certificate.matching.edges
        tampered = PortMaskEdgeSet(edges.cg, edges.mask.copy())
        tampered.mask[np.flatnonzero(tampered.mask)[0]] = False
        with pytest.raises(CertificateError, match="one half"):
            verify_certificate(g, self._matching_result(tampered))

    def test_two_matched_edges_at_one_node(self):
        g, _ = self._sandwich()
        cg = g.compiled()
        mask = np.zeros(cg.num_ports, dtype=bool)
        for port in (0, 1):  # two ports of node 0
            mask[port] = mask[cg.mate[port]] = True
        with pytest.raises(CertificateError, match="not a matching"):
            verify_certificate(
                g, self._matching_result(PortMaskEdgeSet(cg, mask), False)
            )

    def test_non_maximal_mask(self):
        g, s = self._sandwich()
        edges = s.certificate.matching.edges
        mask = edges.mask.copy()
        first = np.flatnonzero(mask)[0]
        mask[first] = mask[edges.cg.mate[first]] = False
        with pytest.raises(CertificateError, match="maximality"):
            verify_certificate(
                g, self._matching_result(PortMaskEdgeSet(edges.cg, mask))
            )

    def _cover_result(self, s, numerators):
        values = s.certificate.cover.values
        cover = CoverCertificate(
            values=CoverValues(values.cg, numerators, values.denominator)
        )
        return BoundResult(0, s.upper, cover, exact=False)

    def test_lowered_numerator(self):
        g, s = self._sandwich()
        values = s.certificate.cover.values
        cg = values.cg
        y = values.numerators.copy()
        tight = np.flatnonzero(
            y[cg.port_node] + y[cg.peer_node] == values.denominator
        )[0]
        y[cg.port_node[tight]] -= 1
        with pytest.raises(CertificateError, match="infeasible"):
            verify_certificate(g, self._cover_result(s, y))

    def test_negative_numerator(self):
        g, s = self._sandwich()
        y = s.certificate.cover.values.numerators.copy()
        y[3] = -1
        with pytest.raises(CertificateError, match="negative"):
            verify_certificate(g, self._cover_result(s, y))

    def test_mask_from_a_different_graph(self):
        g, _ = self._sandwich()
        twin = REGULAR_FAMILIES[7][1]()
        assert twin == g and twin is not g
        result = primal_bound(twin, seed=0)
        assert verify_certificate(twin, result)
        with pytest.raises(CertificateError, match="different graph"):
            verify_certificate(g, result)

    def test_non_edge_in_plain_set(self):
        g, _ = self._sandwich()
        u, v = g.nodes[0], g.nodes[1]
        fake = PortEdge.make(u, 1, v, 2)
        assert fake not in set(g.edges)
        with pytest.raises(CertificateError, match="non-edge"):
            verify_certificate(
                g, self._matching_result(frozenset({fake}), False)
            )

    def test_cover_beyond_int64_verifies_exactly(self):
        """Denominators near 2^61 push the LCM-scaled numerators past
        int64; the check switches to Python ints, never floats.  The
        margins (~2^-62) are far below double precision around 1."""
        g, _ = self._sandwich()
        base = 2**61
        values = {
            node: Fraction(1, 2) + Fraction(1, base + 2 * k + 1)
            for k, node in enumerate(g.nodes)
        }
        y, lcd = _cover_numerators(g.compiled(), values)
        assert y.dtype == object and lcd > 2**63
        assert all(type(v) is int for v in y.tolist())
        cover = CoverCertificate(values=values)
        assert cover.bound == g.num_nodes // 2
        assert verify_certificate(
            g, BoundResult(0, cover.bound, cover, exact=False)
        )
        # Shave the smallest positive margin off one endpoint of every
        # edge at node 0: 1 - 1/q + 1/p < 1 exactly, == 1.0 in floats.
        q = base - 1
        values[g.nodes[0]] = Fraction(1, 2) - Fraction(1, q)
        broken = CoverCertificate(values=values)
        with pytest.raises(CertificateError, match="infeasible"):
            verify_certificate(
                g, BoundResult(0, broken.bound, broken, exact=False)
            )


# ---------------------------------------------------------------------------
# The shared fractional solver: central == distributed
# ---------------------------------------------------------------------------


def _distributed_fractional_values(graph, delta):
    """Drive the lp_rounding node programs through their fractional
    phases by hand and read off the per-edge variables."""
    programs = {
        v: LPRoundingEDS(graph.degree(v), random.Random(0), delta)
        for v in graph.nodes
    }
    for rnd in range(2 * doubling_phases(delta)):
        outbox = {v: programs[v].send(rnd) for v in graph.nodes}
        for v in graph.nodes:
            inbox = {}
            for i in graph.ports(v):
                u, j = graph.connection(v, i)
                inbox[i] = outbox[u][j]
            programs[v].receive(rnd, inbox)
    return programs


def _solve_covering_lp_reference(num_vars, constraints, *, start, phases):
    """The per-constraint Fraction loop the numpy solver replaced."""
    x = [start] * num_vars
    for _ in range(phases):
        doubled = [False] * num_vars
        violated_any = False
        for constraint in constraints:
            if sum((x[i] for i in constraint), Fraction(0)) < 1:
                violated_any = True
                for i in constraint:
                    doubled[i] = True
        if not violated_any:
            break
        x = [min(Fraction(1), 2 * v) if flag else v
             for v, flag in zip(x, doubled)]
    return x


class TestSharedFractionalSolver:
    @pytest.mark.parametrize(
        "family_index,delta",
        [(7, 3), (4, 4)],  # petersen Δ=3, circulant-8 Δ=4
    )
    def test_central_equals_distributed(self, family_index, delta):
        g = REGULAR_FAMILIES[family_index][1]()
        edges, constraints = line_graph_covering_instance(g)
        central = solve_covering_lp(
            len(edges), constraints,
            start=Fraction(1, 2 * delta),
            phases=doubling_phases(delta),
        )
        programs = _distributed_fractional_values(g, delta)
        for index, e in enumerate(edges):
            x_u = programs[e.u].x[e.i]
            x_v = programs[e.v].x[e.j]
            assert x_u == x_v, "endpoints disagree"
            assert x_u == central[index], (
                "central and distributed solves diverge"
            )

    @pytest.mark.parametrize("name,make,d", ALL_FAMILIES)
    def test_numpy_loop_equals_fraction_loop(self, name, make, d):
        g = make()
        edges, constraints = line_graph_covering_instance(g)
        delta = g.max_degree
        kwargs = dict(
            start=Fraction(1, 2 * delta), phases=doubling_phases(delta)
        )
        assert solve_covering_lp(len(edges), constraints, **kwargs) == (
            _solve_covering_lp_reference(len(edges), constraints, **kwargs)
        ), name

    def test_solution_is_feasible(self):
        g = BOUNDED_FAMILIES[1][1]()  # grid-3x4
        edges, constraints = line_graph_covering_instance(g)
        delta = g.max_degree
        values = solve_covering_lp(
            len(edges), constraints,
            start=Fraction(1, 2 * delta),
            phases=doubling_phases(delta),
        )
        for constraint in constraints:
            assert sum(values[i] for i in constraint) >= 1

    def test_vertex_cover_certificate_feasible_everywhere(self):
        for name, make, _ in ALL_FAMILIES:
            g = make()
            cover = fractional_vertex_cover(g, primal_matching(g, seed=0))
            for e in g.edges:
                assert (
                    cover.values.get(e.u, 0) + cover.values.get(e.v, 0) >= 1
                ), name


# ---------------------------------------------------------------------------
# Blossom memoisation (per compiled graph)
# ---------------------------------------------------------------------------


class TestBlossomMemo:
    def test_blossom_runs_once_per_graph(self, monkeypatch):
        import networkx
        import repro.eds.bounds as eds_bounds

        calls = []
        real = networkx.max_weight_matching

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            eds_bounds.nx, "max_weight_matching", counting
        )
        g = REGULAR_FAMILIES[6][1]()  # torus-3x3
        first = maximum_matching_size(g)
        assert maximum_matching_size(g) == first
        assert eds_lower_bound(g) >= 1
        exact_bound(g)
        assert len(calls) == 1

    def test_fresh_graph_recomputes(self):
        make = REGULAR_FAMILIES[0][1]
        assert maximum_matching_size(make()) == maximum_matching_size(
            make()
        )


# ---------------------------------------------------------------------------
# Engine threading: dual_bound / auto escalation / records
# ---------------------------------------------------------------------------


def _unit(n=16, d=3, seed=0, **kwargs):
    return JobSpec(
        algorithm="port_one",
        graph=GraphSpec.make("regular", seed=seed, d=d, n=n),
        **kwargs,
    )


class TestEngineThreading:
    def test_dual_bound_record_brackets_exact_optimum(self):
        spec = _unit(optimum="dual_bound")
        record = execute_unit(spec)
        optimum = minimum_eds_size(spec.graph.build())
        assert record.has_interval
        assert record.optimum_lower <= optimum <= record.optimum_upper
        assert record.ratio_lo >= 1
        assert record.ratio_lo <= record.ratio_hi
        assert record.ratio == record.ratio_hi
        assert record.optimum == record.optimum_lower
        assert not record.optimum_exact
        assert record.extra["nu_lower"] <= record.extra["nu_upper"]

    def test_dual_bound_record_roundtrips(self):
        record = execute_unit(_unit(optimum="dual_bound"))
        data = json.loads(record.canonical())
        assert data["optimum_lower"] == record.optimum_lower
        assert ResultRecord.from_json_dict(data) == record

    def test_exact_and_none_records_carry_no_interval_keys(self):
        for mode in ("exact", "none"):
            record = execute_unit(_unit(optimum=mode))
            data = record.to_json_dict()
            assert not record.has_interval
            for field in ("optimum_lower", "optimum_upper",
                          "ratio_lo_num", "ratio_hi_num"):
                assert field not in data, mode

    def test_auto_escalates_to_sandwich_past_the_limit(self, monkeypatch):
        import repro.engine.measures as measures

        assert DUAL_BOUND_EDGE_LIMIT > 48
        monkeypatch.setattr(measures, "DUAL_BOUND_EDGE_LIMIT", 50)
        # m = 96 > 50: auto must now resolve to the sandwich.
        record = execute_unit(_unit(n=64, optimum="auto"))
        assert record.has_interval

    def test_auto_below_limit_keeps_blossom(self):
        # 48 < m = 96 <= DUAL_BOUND_EDGE_LIMIT: the historical path.
        record = execute_unit(_unit(n=64, optimum="auto"))
        assert not record.has_interval
        assert record.has_optimum and not record.optimum_exact

    def test_dual_bound_units_are_deterministic(self):
        spec = _unit(optimum="dual_bound")
        assert execute_unit(spec).canonical() == execute_unit(
            spec
        ).canonical()

    def test_telemetry_spans_and_counters(self):
        with recording() as rec:
            execute_unit(_unit(optimum="dual_bound"))
        names = [s.name for s in rec.spans]
        assert "optimum" in names
        assert "optimum_verify" in names
        optimum_span = next(s for s in rec.spans if s.name == "optimum")
        assert optimum_span.attrs["mode"] == "dual_bound"
        assert optimum_span.attrs["resolved"] == "sandwich"
        assert "gap" in optimum_span.attrs
        assert rec.counters["optimum.sandwich"] == 1
        assert "optimum.gap_total" in rec.counters
        assert rec.counters["optimum.verified"] == 1
        optimum_index = rec.spans.index(optimum_span)
        for half in ("optimum:primal", "optimum:dual"):
            child = next(s for s in rec.spans if s.name == half)
            assert child.parent == optimum_index, half


class TestSummaryAndCompareIntervals:
    def _interval_record(self, key="k1"):
        return ResultRecord(
            key=key, algorithm="port_one", graph_family="regular",
            graph_label="regular d=3 n=4096", num_nodes=4096,
            num_edges=6144, max_degree=3, solution_size=3000,
            optimum=1229, optimum_exact=False, ratio_num=3000,
            ratio_den=1229, rounds=1, optimum_lower=1229,
            optimum_upper=2040, ratio_lo_num=25, ratio_lo_den=17,
            ratio_hi_num=3000, ratio_hi_den=1229,
        )

    def _point_record(self, key="k2"):
        return ResultRecord(
            key=key, algorithm="port_one", graph_family="regular",
            graph_label="regular d=3 n=16", num_nodes=16, num_edges=24,
            max_degree=3, solution_size=12, optimum=6,
            optimum_exact=True, ratio_num=2, ratio_den=1, rounds=1,
        )

    def test_summary_gains_interval_column_only_when_present(self):
        plain = ResultStore([self._point_record()])
        assert "mean ratio ∈" not in plain.format_summary()
        mixed = ResultStore([self._point_record(), self._interval_record()])
        out = mixed.format_summary()
        assert "mean ratio ∈" in out
        assert "[" in out

    def test_comparison_rows_aggregate_intervals(self):
        from repro.experiments.compare import (
            comparison_rows,
            format_comparison,
        )

        rows = comparison_rows([self._interval_record()])
        (row,) = rows
        assert row.mean_ratio_lo < row.mean_ratio_hi
        assert row.mean_ratio_hi == pytest.approx(3000 / 1229)
        out = format_comparison(rows)
        assert "mean ratio ∈" in out
        plain = format_comparison(comparison_rows([self._point_record()]))
        assert "mean ratio ∈" not in plain


# ---------------------------------------------------------------------------
# Cache-key and record byte-stability against pre-bounds fixtures
# ---------------------------------------------------------------------------


class TestByteStability:
    def _entries(self):
        return json.loads(FIXTURE.read_text())

    def test_pre_bounds_cache_keys_unchanged(self):
        checked = 0
        for entry in self._entries():
            spec = JobSpec.from_json_dict(entry["spec"])
            assert cache_key(spec) == entry["key"], spec
            checked += 1
        assert checked >= 8

    def test_pre_bounds_record_bytes_unchanged(self):
        checked = 0
        for entry in self._entries():
            if "record" not in entry:
                continue
            spec = JobSpec.from_json_dict(entry["spec"])
            assert execute_unit(spec).to_json_dict() == entry["record"]
            checked += 1
        assert checked >= 4

    def test_dual_bound_units_address_under_the_new_schema(self):
        spec = _unit(optimum="dual_bound")
        legacy_payload = {"schema": 2, "unit": spec.to_json_dict()}
        legacy_key = hashlib.sha256(
            canonical_json(legacy_payload).encode()
        ).hexdigest()
        assert cache_key(spec) != legacy_key
        current_payload = {"schema": 3, "unit": spec.to_json_dict()}
        assert cache_key(spec) == hashlib.sha256(
            canonical_json(current_payload).encode()
        ).hexdigest()
