"""White-box tests of the algorithms' round schedules and setup protocol.

The global lockstep schedules are the trickiest part of the node
programs: every node must agree, from its parameter alone, on which
phase each round belongs to.  These tests pin the schedule arithmetic
and the distributed Section 5 setup against the centralised reference.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.base import pair_at, pair_schedule_index
from repro.algorithms.bounded_degree import (
    BoundedDegreeEDS,
    _BoundedDegreeProgram,
)
from repro.algorithms.regular_odd import RegularOddEDS
from repro.portgraph import (
    distinguishable_edge,
    from_networkx,
    label_pairs_at,
    random_numbering,
)
from repro.runtime import run_anonymous
from repro.runtime.scheduler import run_node_programs

from tests.conftest import nx_graphs


class TestPairSchedule:
    def test_pair_round_trip(self):
        for bound in (1, 2, 3, 5):
            for step in range(bound * bound):
                i, j = pair_at(step, bound)
                assert 1 <= i <= bound and 1 <= j <= bound
                assert pair_schedule_index(i, j, bound) == step

    def test_lexicographic_order(self):
        pairs = [pair_at(t, 3) for t in range(9)]
        assert pairs == sorted(pairs)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            pair_at(9, 3)
        with pytest.raises(ValueError):
            pair_at(-1, 3)


class TestBoundedSchedule:
    @pytest.mark.parametrize("delta", (3, 5, 7, 9))
    def test_windows_tile_the_run(self, delta):
        """Every step of the schedule maps to exactly one phase window,
        windows appear in order, and the total matches total_rounds."""
        program = _BoundedDegreeProgram(degree=delta, odd_delta=delta)
        total = program._total_steps()
        assert total + 2 == BoundedDegreeEDS(delta).total_rounds()

        seen_phases = []
        for step in range(total):
            located = program._locate(step)
            if not seen_phases or seen_phases[-1] != located[:2]:
                seen_phases.append(located[:2])
        # phase I once, stages 2..delta once each in order, phase III once
        assert seen_phases[0][0] == "I"
        stage_sequence = [p[1] for p in seen_phases if p[0] == "II"]
        assert stage_sequence == list(range(2, delta + 1))
        assert seen_phases[-1][0] == "III"

    @pytest.mark.parametrize("delta", (3, 5))
    def test_stage_window_lengths(self, delta):
        program = _BoundedDegreeProgram(degree=delta, odd_delta=delta)
        for stage in range(2, delta + 1):
            width = program._stage_offset(stage + 1) - program._stage_offset(
                stage
            )
            assert width == 1 + 2 * stage


class TestSetupProtocolAgreesWithStatics:
    """The two message-passing setup rounds must compute exactly the
    centralised Section 5 data, on every graph."""

    class _Introspect(RegularOddEDS):
        """Halt right after setup, exposing the learned state."""

        def algo_send(self, step):
            return {}

        def algo_receive(self, step, inbox):
            self.halt(frozenset())

    @settings(max_examples=30, deadline=None)
    @given(graph=nx_graphs(max_nodes=9), seed=st.integers(0, 10**6))
    def test_distributed_setup_matches_reference(self, graph, seed):
        g = from_networkx(graph, random_numbering(seed))
        _, programs = run_node_programs(
            g, lambda v, degree: self._Introspect(degree), max_rounds=1000
        )

        for v in g.nodes:
            if g.degree(v) == 0:
                continue
            prog = programs[v]
            # peer ports = static label pairs
            static_pairs = label_pairs_at(g, v)
            for i in g.ports(v):
                assert frozenset({i, prog.peer_port[i]}) == static_pairs[i]
                assert prog.peer_degree[i] == g.degree(g.neighbour(v, i))
            # distinguishable port = static distinguishable edge
            static_edge = distinguishable_edge(g, v)
            if static_edge is None:
                assert prog.distinguishable_port is None
            else:
                assert prog.distinguishable_port == static_edge.port_at(v)


class TestMessageHomogeneity:
    """In the lockstep schedules every in-flight message in one round has
    the same tag — a strong detector of schedule desynchronisation."""

    @pytest.mark.parametrize("d,n", [(3, 10), (5, 12)])
    def test_regular_odd_rounds_are_homogeneous(self, d, n):
        g = from_networkx(
            nx.random_regular_graph(d, n, seed=n), random_numbering(n)
        )
        result = run_anonymous(g, RegularOddEDS, record_trace=True)
        for round_trace in result.trace:
            tags = {
                msg.payload[0]
                for msg in round_trace.messages
                if isinstance(msg.payload, tuple)
            }
            assert len(tags) <= 1, (
                f"round {round_trace.round_number} mixes tags {tags}"
            )

    @pytest.mark.parametrize("delta", (3, 4))
    def test_bounded_rounds_are_homogeneous(self, delta):
        g = from_networkx(
            nx.random_regular_graph(delta, 10, seed=delta),
            random_numbering(delta),
        )
        result = run_anonymous(
            g, BoundedDegreeEDS(delta), record_trace=True
        )
        for round_trace in result.trace:
            tags = set()
            for msg in round_trace.messages:
                payload = msg.payload
                if isinstance(payload, tuple) and payload:
                    tag = payload[0]
                    # responses acc/rej share a sub-round by design
                    if tag in ("acc", "rej"):
                        tag = "response"
                    tags.add(tag)
            assert len(tags) <= 1, (
                f"round {round_trace.round_number} mixes tags {tags}"
            )
