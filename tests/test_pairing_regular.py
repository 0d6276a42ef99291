"""Tests for the streaming pairing-model d-regular generator.

`pairing_regular` builds compiled arrays in O(nd) without networkx.  Its
contract: exact d-regularity, simplicity after switch-repair,
determinism as a pure function of ``(d, n, seed)``, and a vectorised
bad-edge detection that agrees with the plain loop below.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.generators.pairing as pairing_mod
from repro.engine.executor import execute_unit
from repro.engine.spec import GraphSpec, JobSpec
from repro.exceptions import ConstructionError
from repro.generators.pairing import pairing_regular
from repro.portgraph.arrays import ArrayGraph
from repro.registry.families import get_family


def _find_bad_python(mate, n: int, d: int) -> list[int]:
    """Reference for ``pairing._find_bad_numpy``: the representative
    (lower stub) of every self-loop and of every repeat of a parallel
    edge, ascending."""
    bad: set[int] = set()
    items: list[tuple[int, int]] = []
    for g in range(n * d):
        m = mate[g]
        if m < g:
            continue
        u, v = g // d, m // d
        if u == v:
            bad.add(g)
        items.append((u * n + v if u <= v else v * n + u, g))
    items.sort()
    for idx in range(1, len(items)):
        if items[idx][0] == items[idx - 1][0]:
            bad.add(items[idx][1])
    return sorted(bad)


def compiled_bytes(graph):
    c = graph.compiled()
    return (
        c.offsets.tobytes(), c.mate.tobytes(), c.port_node.tobytes()
    )


class TestStructure:
    @pytest.mark.parametrize("d,n", [
        (1, 2), (1, 8), (2, 3), (2, 16), (3, 4), (3, 20),
        (4, 9), (4, 50), (8, 30), (7, 8),
    ])
    def test_simple_d_regular(self, d, n):
        graph = pairing_regular(d, n, seed=5)
        assert isinstance(graph, ArrayGraph)
        assert graph.nodes == tuple(range(n))
        assert graph.regularity() == d
        assert graph.is_simple()
        assert graph.num_edges == n * d // 2

    def test_smallest_feasible_is_complete(self):
        # d=3, n=4: K4 is the unique simple 3-regular graph on 4 nodes,
        # so the switch-repair must land on it from any pairing.
        for seed in range(10):
            graph = pairing_regular(3, 4, seed=seed)
            assert graph.is_simple()
            assert {frozenset(e.endpoints) for e in graph.edges} == {
                frozenset({a, b})
                for a in range(4) for b in range(a + 1, 4)
            }

    @pytest.mark.parametrize("d,n", [(0, 4), (-1, 4), (3, 3), (3, 2),
                                     (3, 5), (5, 7)])
    def test_infeasible_raises(self, d, n):
        with pytest.raises(ConstructionError):
            pairing_regular(d, n, seed=0)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        a = pairing_regular(4, 60, seed=123)
        b = pairing_regular(4, 60, seed=123)
        assert compiled_bytes(a) == compiled_bytes(b)
        assert a == b and hash(a) == hash(b)

    def test_different_seeds_differ(self):
        a = pairing_regular(4, 60, seed=1)
        b = pairing_regular(4, 60, seed=2)
        assert compiled_bytes(a) != compiled_bytes(b)

    @pytest.mark.parametrize("d,n", [(2, 12), (3, 14), (4, 25), (8, 40)])
    def test_numpy_and_fallback_agree(self, d, n):
        """The vectorised bad-edge detection returns the pure-python
        reference's list on raw (unrepaired) random pairings, which are
        full of self-loops and parallel edges at these sizes."""
        rng = random.Random(d * 1000 + n)
        seen_bad = 0
        for _ in range(20):
            stubs = list(range(n * d))
            rng.shuffle(stubs)
            mate = np.empty(n * d, dtype=np.int64)
            mate[stubs[0::2]] = stubs[1::2]
            mate[stubs[1::2]] = stubs[0::2]
            expected = _find_bad_python(mate.tolist(), n, d)
            assert pairing_mod._find_bad_numpy(mate, n, d) == expected
            seen_bad += len(expected)
        assert seen_bad > 0


class TestEngineIntegration:
    def test_registry_family(self):
        graph = get_family("pairing_regular").make({"d": 3, "n": 12}, 4)
        assert graph == pairing_regular(3, 12, seed=4)

    def test_unit_executes_feasibly(self):
        record = execute_unit(JobSpec(
            algorithm="bounded_degree",
            graph=GraphSpec.make("pairing_regular", seed=2, d=3, n=24),
            measure="quality", optimum="dual_bound", label="",
        ))
        assert record.num_nodes == 24
        assert record.num_edges == 36
        assert record.max_degree == 3
        assert record.solution_size > 0
        # dual_bound units certify a two-sided optimum bracket.
        assert record.optimum_lower <= record.optimum_upper
        assert record.solution_size >= record.optimum_lower

    def test_grid_expansion_labels(self):
        from repro.engine.scenarios import get_scenario

        grid = get_scenario("huge-regular")
        units = grid.expand()
        assert units, "huge-regular expanded to nothing"
        assert all(u.graph.family == "pairing_regular" for u in units)
        assert all(u.optimum == "none" for u in units)
        # regular_odd applies only to odd degrees.
        assert not any(
            u.algorithm == "regular_odd" and u.graph.params[0][1] % 2 == 0
            for u in units
        )

    def test_huge_slice_smoke(self):
        # A tiny stand-in for the n=10^6 acceptance run: the direct
        # build must stay well under a second at n=20k.
        graph = pairing_regular(4, 20_000, seed=0)
        assert graph.num_edges == 40_000
        assert graph.is_simple()
