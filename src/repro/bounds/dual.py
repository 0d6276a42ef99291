"""Dual engine: a certified upper bound on ν from a fractional cover.

Weak LP duality for matchings: if ``y`` is a feasible fractional vertex
cover (``y_u + y_v >= 1`` on every edge, ``y >= 0``) then every matching
charges at least 1 of cover mass per edge to distinct vertices, so
``ν <= Σy`` — and since ν is an integer, ``ν <= ⌊Σy⌋``.  The bound is
*certified*: the cover itself is returned and
:func:`repro.bounds.result.verify_certificate` re-checks feasibility
on every edge in exact integer arithmetic.  Both candidates below are
built on the compiled CSR arrays as integer numerators over one
denominator (:class:`~repro.bounds.result.CoverValues`).

Two candidate covers are built and the smaller objective wins:

* the multiplicative-weights solve of the vertex cover LP via the
  shared :func:`repro.bounds.fractional.covering_numerators` loop
  (constraint width 2, so two phases from ``y = 1/4``); on
  edge-transitive instances this lands on the canonical uniform-half
  cover ``Σy = n'/2`` over non-isolated vertices;
* the *matching cover* derived from a maximal matching ``M``: ``y = 1/2``
  on matched vertices, raised to 1 on matched vertices that see an
  unmatched neighbour.  Feasible because ``M`` is maximal (no edge has
  two unmatched endpoints), with objective ``|M| + k/2 <= 2|M|`` where
  ``k`` counts the raised vertices — never worse than the classical
  ``ν <= 2|M|``, and much tighter when most of the graph is matched.
"""

from __future__ import annotations

from fractions import Fraction
from typing import AbstractSet

import numpy as np

from repro.bounds.fractional import covering_numerators
from repro.bounds.primal import primal_matching
from repro.bounds.result import (
    BoundResult,
    CoverCertificate,
    CoverValues,
    matching_mask,
)
from repro.eds.properties import covered_nodes, undominated_ports
from repro.exceptions import CertificateError
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import PortEdge

__all__ = ["dual_bound", "fractional_vertex_cover", "matching_cover"]


def _mw_cover(graph: PortNumberedGraph) -> CoverCertificate:
    """The MW solve of the vertex cover LP (width-2 constraints, one
    per edge); isolated nodes carry no constraint and get ``y = 0``."""
    cg = graph.compiled()
    lo = cg.lower_ports
    members = np.stack([cg.port_node[lo], cg.peer_node[lo]], axis=1)
    start = Fraction(1, 4)
    numerators = covering_numerators(
        cg.num_nodes, members.reshape(-1), np.full(len(lo), 2),
        start=start, phases=2,
    )
    numerators[cg.degrees == 0] = 0
    return CoverCertificate(
        values=CoverValues(cg, numerators, start.denominator)
    )


def matching_cover(
    graph: PortNumberedGraph, matching: AbstractSet[PortEdge]
) -> CoverCertificate:
    """The cover induced by a *maximal* matching (see module docstring):
    ``y`` in halves, 1 on every matched node plus 1 on every matched
    node with an unmatched neighbour."""
    cg = graph.compiled()
    mask = matching_mask(cg, matching)
    matched = covered_nodes(cg, mask)
    missed = undominated_ports(cg, matched)
    if missed.size:
        raise CertificateError(
            f"matching is not maximal: edge {cg.edge(int(missed[0]))!r} "
            "is uncovered"
        )
    raised = np.zeros(cg.num_nodes, dtype=bool)
    raised[cg.port_node[matched[cg.port_node] & ~matched[cg.peer_node]]] = True
    halves = matched.astype(np.int64) + raised
    return CoverCertificate(values=CoverValues(cg, halves, 2))


def fractional_vertex_cover(
    graph: PortNumberedGraph,
    matching: AbstractSet[PortEdge] | None = None,
) -> CoverCertificate:
    """The better of the two candidate covers (smaller ``⌊Σy⌋``; the
    matching cover wins ties — its values are the sparser set)."""
    graph.require_simple()
    candidates = [_mw_cover(graph)]
    if matching is not None:
        candidates.append(matching_cover(graph, matching))
    return min(reversed(candidates), key=lambda c: c.bound)


def dual_bound(
    graph: PortNumberedGraph,
    *,
    matching: AbstractSet[PortEdge] | None = None,
    seed: int = 0,
) -> BoundResult:
    """The dual engine on its own: ``ν <= ⌊Σy⌋``, cover as certificate.

    Builds a primal matching internally when none is supplied, so the
    matching-cover candidate is always in play; the *lower* side of the
    returned result is the trivial 0 — use :func:`repro.bounds.
    nu_sandwich` for the two-sided bracket.
    """
    graph.require_simple()
    if matching is None:
        matching = primal_matching(graph, seed=seed)
    cover = fractional_vertex_cover(graph, matching)
    return BoundResult(
        lower=0, upper=cover.bound, certificate=cover,
        exact=(cover.bound == 0),
    )
