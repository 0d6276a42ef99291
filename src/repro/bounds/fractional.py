"""Exact-arithmetic multiplicative-weights solver for covering LPs.

One update rule, two clients.  The LP is the pure covering program

    min Σ x_i   s.t.   Σ_{i ∈ C} x_i >= 1  for every constraint C,
                       0 <= x_i <= 1,

and the solver is the doubling schedule the ``lp_rounding`` baseline has
always run *distributedly* on the line graph: start every variable at a
promise-derived value, and in each phase double (capped at 1) every
variable that belongs to at least one violated constraint.  A violated
constraint contains its own variables, so after :func:`doubling_phases`
phases every constraint is satisfied, and the multiplicative schedule
keeps the objective within an ``O(log width)`` factor of the LP optimum.
The rule is phase-synchronous, as in the fractional domination
algorithms of Deurer, Kuhn and Maus, so one phase is a handful of
whole-array numpy operations over a CSR constraint layout
(:func:`covering_numerators`).

The two clients:

* :class:`repro.baselines.lp_rounding.LPRoundingEDS` runs the rule by
  message passing — a variable per edge, a constraint per closed
  line-graph neighbourhood ``N[e]`` (an edge doubles exactly when a
  violated constraint is incident to either endpoint, which is the same
  membership test).  :func:`line_graph_covering_instance` materialises
  that instance so tests can prove the central and distributed solves
  agree variable-for-variable.
* :func:`repro.bounds.dual.fractional_vertex_cover` solves the vertex
  cover LP (a variable per node, a two-variable constraint per edge) to
  extract a certified dual upper bound on ν.

All arithmetic is exact: values are powers of two times the start value,
capped at 1, so they stay integer numerators over the start denominator
and certificates derived from them verify exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import PortEdge

__all__ = [
    "covering_numerators",
    "doubling_phases",
    "line_graph_covering_instance",
    "solve_covering_lp",
]


def doubling_phases(delta: int) -> int:
    """Phases until ``x = 1/(2Δ)`` provably reaches 1: ``⌈log2(2Δ)⌉``."""
    return max(1, (2 * max(1, delta) - 1).bit_length())


def covering_numerators(
    num_vars: int,
    members: np.ndarray,
    sizes: np.ndarray,
    *,
    start: Fraction,
    phases: int,
) -> np.ndarray:
    """Run the doubling schedule on a CSR constraint layout.

    Constraint ``c`` is the next ``sizes[c]`` entries of *members*
    (variable indices).  Returns the final values as ``int64``
    numerators over ``start.denominator``.  The loop is
    phase-synchronous, exactly like the distributed client: *all*
    violations of a phase are computed against the same values before
    any variable doubles.  Phases with no violated constraint change
    nothing, so stopping early is value-identical to running all
    ``phases`` — the distributed client always runs the full schedule
    for its closed-form round count.  An empty constraint can never be
    met but doubles nothing, so it is dropped up front.
    """
    den = start.denominator
    members = np.asarray(members, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    peak = max(den, start.numerator) * max(2, int(sizes.max(initial=0)))
    if peak > np.iinfo(np.int64).max:
        raise OverflowError(f"start value {start} overflows int64 sums")
    keep = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[keep]
    sizes = sizes[keep]
    x = np.full(num_vars, start.numerator, dtype=np.int64)
    for _ in range(phases):
        if not starts.size:
            break
        violated = np.add.reduceat(x[members], starts) < den
        if not violated.any():
            break
        doubled = np.zeros(num_vars, dtype=bool)
        doubled[members[np.repeat(violated, sizes)]] = True
        x[doubled] = np.minimum(den, 2 * x[doubled])
    return x


def solve_covering_lp(
    num_vars: int,
    constraints: Sequence[Sequence[int]],
    *,
    start: Fraction,
    phases: int,
) -> list[Fraction]:
    """Run the doubling schedule; returns the final variable values.

    Each constraint is a sequence of variable indices whose sum must
    reach 1.  This lays the constraints out in CSR form for
    :func:`covering_numerators` and returns exact fractions.
    """
    sizes = [len(constraint) for constraint in constraints]
    members = [i for constraint in constraints for i in constraint]
    numerators = covering_numerators(
        num_vars, np.array(members, dtype=np.int64),
        np.array(sizes, dtype=np.int64), start=start, phases=phases,
    )
    den = start.denominator
    return [Fraction(num, den) for num in numerators.tolist()]


def line_graph_covering_instance(
    graph: PortNumberedGraph,
) -> tuple[tuple[PortEdge, ...], list[list[int]]]:
    """The fractional-EDS covering LP: dominating set on ``L(G)``.

    Returns the variable order (the graph's canonical edge order) and
    one constraint per edge ``e``: the indices of ``N[e]`` — ``e`` plus
    every edge sharing an endpoint with it.  This is the instance the
    ``lp_rounding`` baseline solves by message passing.
    """
    graph.require_simple()
    edges = graph.edges
    index = {e: i for i, e in enumerate(edges)}
    constraints: list[list[int]] = []
    for e in edges:
        members = {index[e]}
        for endpoint in (e.u, e.v):
            for incident in graph.edges_at(endpoint):
                members.add(index[incident])
        constraints.append(sorted(members))
    return edges, constraints
