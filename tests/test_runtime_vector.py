"""The numpy vector engine: selection, fallback, and plumbing.

Observational identity with the node programs is enforced by the
differential matrix in ``test_runtime_compiled.py``.  This module covers
what the matrix cannot: the engine-selection contract — ``vector`` the
default, ``auto`` its synonym, algorithms without a vector kernel
running their node programs on the pernode loop (the node programs over
the compiled flat arrays) without a log line — plus the vector-specific
plumbing (the compiled graph's derived per-port tables, lazy trace slabs,
telemetry annotations) and the port-mask solution type, differentially
against the pernode engine on random port numberings, traces included.
"""

from __future__ import annotations

import dataclasses
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bounded_degree import BoundedDegreeEDS
from repro.algorithms.double_cover import DominatingTwoMatching
from repro.algorithms.maximal_matching_ids import GreedyMaximalMatchingIds
from repro.algorithms.port_one import PortOneEDS
from repro.algorithms.regular_odd import RegularOddEDS
from repro.eds.properties import is_edge_dominating_set, undominated_edges
from repro.exceptions import InconsistentOutputError, SimulationError
from repro.portgraph import PortGraphBuilder
from repro.registry.families import get_family
from repro.runtime import (
    NodeProgram,
    check_consistency,
    decode_edge_set,
    run_anonymous,
    run_identified,
    use_engine,
)
from repro.runtime.outputs import PortMaskOutputs


def small_regular():
    return get_family("regular").make({"d": 3, "n": 10}, 7)


class _NoVectorKernel(NodeProgram):
    """A per-node program with no vector opt-in."""

    def send(self, rnd):
        return {}

    def receive(self, rnd, inbox):
        self.halt()


class TestSelectionContract:
    def test_explicit_vector_runs_vector(self):
        from repro.algorithms.port_one import PortOneEDS
        from repro.obs import recording

        with recording() as rec, use_engine("vector"):
            run_anonymous(small_regular(), PortOneEDS)
        assert rec.counters.get("runtime.vector.runs") == 1

    def test_default_is_vector(self):
        from repro.obs import recording
        from repro.obs.spans import span

        with recording() as rec:
            with span("simulate"):
                run_anonymous(small_regular(), PortOneEDS)
        assert rec.counters.get("runtime.vector.runs") == 1
        assert rec.spans[0].attrs["engine"] == "vector"

    def test_auto_prefers_vector(self):
        from repro.algorithms.port_one import PortOneEDS
        from repro.obs import recording

        with recording() as rec:
            with use_engine("auto"):
                run_anonymous(small_regular(), PortOneEDS)
        assert rec.counters.get("runtime.vector.runs") == 1

    def test_auto_without_kernel_runs_compiled(self):
        """No kernel: the node programs run on the pernode loop, and the
        telemetry span says so."""
        from repro.obs import recording
        from repro.obs.spans import span

        with recording() as rec:
            with span("simulate"), use_engine("auto"):
                result = run_anonymous(small_regular(), _NoVectorKernel)
        assert result.rounds == 1
        assert "runtime.vector.runs" not in rec.counters
        assert rec.spans[0].attrs["engine"] == "pernode"

    def test_auto_fallback_is_silent(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.runtime"):
            for engine in ("vector", "auto"):
                with use_engine(engine):
                    run_anonymous(small_regular(), _NoVectorKernel)
        assert not caplog.records


class TestVectorGraphView:
    """The per-port tables the kernels read live on the compiled graph."""

    def test_memoised_on_compiled_graph(self):
        graph = small_regular()
        cg = graph.compiled()
        assert graph.compiled() is cg
        for name in ("local", "peer_node", "peer_local", "all_ports",
                     "fixed_ports", "lower_ports"):
            assert getattr(cg, name) is getattr(cg, name), name
        assert cg.peer_local_list() is cg.peer_local_list()

    def test_csr_views_match_flat_arrays(self):
        import numpy as np

        graph = small_regular()
        cg = graph.compiled()
        offsets, degrees, mate, port_node = cg.flat_lists()
        assert cg.num_nodes == len(cg.nodes)
        assert cg.mate.tolist() == mate
        assert cg.port_node.tolist() == port_node
        assert cg.offsets.tolist() == offsets
        assert cg.degrees.tolist() == degrees
        # local/peer round-trip through the involution
        assert np.array_equal(cg.mate[cg.mate], cg.all_ports)
        assert np.array_equal(cg.peer_local[cg.mate], cg.local)
        assert cg.peer_local_list() == cg.peer_local.tolist()

    def test_segment_min_empty_segments(self):
        import numpy as np

        builder = PortGraphBuilder()
        builder.add_nodes({"u": 1, "v": 1, "w": 0})
        builder.connect("u", 1, "v", 1)
        cg = builder.build().compiled()
        values = np.array([5, 3], dtype=np.int64)
        out = cg.segment_min(values, empty=99)
        assert list(out) == [5, 3, 99]

    def test_segment_min_trailing_empty_after_wide_node(self):
        """A degree-0 node after the last port owner must not cut that
        owner's segment short."""
        import numpy as np

        builder = PortGraphBuilder()
        builder.add_nodes({0: 0, 1: 1, 2: 2, 3: 0})
        builder.connect(1, 1, 2, 2)
        builder.connect_fixed_point(2, 1)
        cg = builder.build().compiled()
        values = np.array([7, 9, 4], dtype=np.int64)
        out = cg.segment_min(values, empty=99)
        assert list(out) == [99, 7, 4, 99]


class TestLazyTraces:
    def test_trace_only_materialised_on_request(self):
        """Without ``record_trace`` the vector run keeps no slabs."""
        from repro.algorithms.regular_odd import RegularOddEDS

        graph = small_regular()
        vec = RegularOddEDS.vector_program(graph)
        rnd = 0
        while vec.num_running:
            vec.step_all(rnd)
            rnd += 1
        assert vec._slabs == []
        assert vec._halted_log == []

    def test_slabs_expand_to_compiled_trace(self):
        """The slabs expand to the pernode loop's trace."""
        from repro.algorithms.regular_odd import RegularOddEDS

        graph = small_regular()
        with use_engine("pernode"):
            compiled = run_anonymous(graph, RegularOddEDS, record_trace=True)
        with use_engine("vector"):
            vector = run_anonymous(graph, RegularOddEDS, record_trace=True)
        assert vector.trace == compiled.trace


class TestIdOverflow:
    def test_oversized_ids_fall_back(self):
        """Identifiers beyond int64 cannot enter the id arrays; the
        hook declines and the run degrades to the pernode engine."""
        graph = get_family("regular").make({"d": 3, "n": 8}, 7)
        huge = {v: 2 ** 70 + i for i, v in enumerate(graph.nodes)}
        assert GreedyMaximalMatchingIds.vector_program(graph, huge) is None
        with use_engine("auto"):
            with_ids = run_identified(
                graph, GreedyMaximalMatchingIds, ids=huge
            )
        with use_engine("pernode"):
            reference = run_identified(
                graph, GreedyMaximalMatchingIds, ids=huge
            )
        assert with_ids.outputs == reference.outputs
        assert with_ids.rounds == reference.rounds


@st.composite
def port_numberings(draw, max_degree: int = 4):
    """A random port-numbered graph: any degrees (0 included) and a
    random involution on the ports, so undirected loops, parallel edges
    and the odd directed loop (fixed point) all occur."""
    degrees = draw(
        st.lists(st.integers(0, max_degree), min_size=1, max_size=8)
    )
    ports = [(k, i) for k, d in enumerate(degrees) for i in range(1, d + 1)]
    pending = list(draw(st.permutations(ports)))
    fixed = draw(st.sets(st.integers(0, max(len(ports) - 1, 0)), max_size=2))
    builder = PortGraphBuilder()
    builder.add_nodes(dict(enumerate(degrees)))
    while pending:
        a = pending.pop()
        if len(pending) in fixed or not pending:
            builder.connect_fixed_point(*a)
        else:
            builder.connect(*a, *pending.pop())
    return builder.build()


def _run(kernel: str, graph, engine: str):
    with use_engine(engine):
        # A node with a loop never runs out of live neighbours in the
        # greedy matching: both engines hit the round limit, kept small
        # here.
        if kernel == "ids_greedy":
            return run_identified(
                graph, GreedyMaximalMatchingIds, max_rounds=200,
                record_trace=True,
            )
        delta = max(graph.max_degree, 1)
        algorithm = {
            "port_one": PortOneEDS,
            "regular_odd": RegularOddEDS,
            "bounded_degree": BoundedDegreeEDS(delta),
            "all_edges": BoundedDegreeEDS(1),
            "double_cover": DominatingTwoMatching(delta),
        }[kernel]
        return run_anonymous(graph, algorithm, record_trace=True)


#: Every vector kernel, with the largest degree its generated graphs get
#: (``all_edges`` is A(1), the Δ = 1 member of the Theorem 5 family).
KERNELS = {
    "port_one": 4,
    "regular_odd": 4,
    "bounded_degree": 4,
    "all_edges": 1,
    "double_cover": 4,
    "ids_greedy": 4,
}


class TestPortMaskDifferential:
    """The vector engine's port mask and trace against the pernode
    engine (the node programs over the compiled flat arrays), on random
    port numberings."""

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_mask_matches_compiled(self, kernel):
        @settings(max_examples=100, deadline=None)
        @given(port_numberings(KERNELS[kernel]))
        def check(graph):
            try:
                compiled = _run(kernel, graph, "pernode")
            except SimulationError as exc:
                with pytest.raises(type(exc)):
                    _run(kernel, graph, "vector")
                return
            vector = _run(kernel, graph, "vector")
            assert vector.port_mask is not None
            assert vector.outputs == compiled.outputs
            assert vector.rounds == compiled.rounds
            assert vector.trace == compiled.trace

            reference = decode_edge_set(graph, compiled.outputs)
            view = vector.edge_set()
            assert len(view) == len(reference)
            assert set(view) == reference
            assert all(edge in view for edge in reference)

            # The view is a mask of this very graph, so feasibility
            # reads the mask; it must agree with the set reference.
            assert view.cg is graph.compiled()
            assert is_edge_dominating_set(graph, view) == (
                not undominated_edges(graph, reference)
            )

        check()


class TestPortMaskView:
    def _vector_run(self):
        graph = get_family("regular").make({"d": 3, "n": 10}, 7)
        with use_engine("vector"):
            return graph, run_anonymous(graph, PortOneEDS)

    def test_broken_half_edge_raises_like_check_consistency(self):
        """Clearing one port of a selected edge is caught by the view
        with the dict checker's exact node/port message."""
        graph, result = self._vector_run()
        cg = graph.compiled()
        mask = result.port_mask.copy()
        g = next(
            int(g) for g in mask.nonzero()[0] if cg.mate[g] != g
        )
        mask[g] = False
        broken = dataclasses.replace(
            result,
            outputs=PortMaskOutputs(graph.compiled(), mask),
            port_mask=mask,
        )
        with pytest.raises(InconsistentOutputError) as from_mask:
            broken.edge_set()
        with pytest.raises(InconsistentOutputError) as from_dict:
            check_consistency(graph, dict(broken.outputs))
        assert str(from_mask.value) == str(from_dict.value)
        assert "inconsistent output" in str(from_mask.value)

    def test_view_equals_and_hashes_like_frozenset(self):
        graph, result = self._vector_run()
        view = result.edge_set()
        frozen = decode_edge_set(graph, dict(result.outputs))
        assert view == frozen
        assert frozen == view
        assert hash(view) == hash(frozen)
        assert {frozen: "found"}[view] == "found"
        assert isinstance(view | frozen, frozenset)
        assert view == result.edge_set()
