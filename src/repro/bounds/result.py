"""The certified-bounds protocol: :class:`BoundResult` + certificates.

Every bounds engine — primal (:mod:`repro.bounds.primal`), dual
(:mod:`repro.bounds.dual`), exact (:mod:`repro.bounds.exact`) — returns
the same shape: a :class:`BoundResult` bracketing the maximum matching
size ``ν(G)`` with ``lower <= ν <= upper`` and carrying the evidence as
a *certificate*.  The certificates are self-contained mathematical
objects, not solver state:

* :class:`MatchingCertificate` — a set of edges claimed to be a
  matching; any valid matching proves ``ν >= |M|``, and a *maximal* one
  additionally proves ``ν <= 2|M|`` (every matched edge of an optimum
  matching touches ``M``) and that ``M`` itself is a feasible EDS.
* :class:`CoverCertificate` — a fractional vertex cover ``y``; weak LP
  duality gives ``ν <= Σy``, and since ``ν`` is an integer,
  ``ν <= ⌊Σy⌋``.
* :class:`SandwichCertificate` — both at once, the output of
  :func:`repro.bounds.nu_sandwich`.

:func:`verify_certificate` re-derives the claimed bounds from the
certificate alone — no floats, no trust in the engine that produced the
result.  A bound that passes is *proven* for the given graph.  It runs
as array code over the graph's compiled CSR form: the matching becomes
a port mask (one bool per global port) and the cover a vector of
integer numerators over their least common denominator, whatever shape
the certificate arrived in, and each condition is then one whole-array
test — mask consistency ``mask == mask[mate]``, no loops, at most one
matched port per node, maximality as edge domination, and
``y_u + y_v >= lcd`` on every edge.  The sums run in ``int64`` when an
explicit magnitude check allows it and in Python ints otherwise.
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping, Union

import numpy as np

from repro.eds.properties import covered_nodes, undominated_ports
from repro.exceptions import CertificateError
from repro.portgraph.graph import PortNumberedGraph
from repro.portgraph.ports import Node, PortEdge
from repro.runtime.outputs import PortMaskEdgeSet

__all__ = [
    "BoundResult",
    "CoverCertificate",
    "CoverValues",
    "MatchingCertificate",
    "SandwichCertificate",
    "verify_certificate",
]


@dataclass(frozen=True)
class MatchingCertificate:
    """A matching ``M`` in the host graph; proves ``ν >= |M|``.

    With ``maximal=True`` the certificate additionally claims no edge of
    the graph has both endpoints unmatched, which proves ``ν <= 2|M|``
    and makes ``M`` a feasible edge dominating set.  ``edges`` is any
    set of :class:`PortEdge`; the primal engine hands over a
    :class:`~repro.runtime.outputs.PortMaskEdgeSet`.
    """

    edges: AbstractSet[PortEdge]
    maximal: bool = False

    @property
    def size(self) -> int:
        return len(self.edges)


class CoverValues(MappingABC):
    """Node → ``y_v`` as a view over integer numerators and one
    denominator, indexed like the nodes of compiled graph *cg*.

    Only nodes with a non-zero numerator are keys (``y = 0`` elsewhere,
    the sparse convention of :class:`CoverCertificate`); a
    :class:`~fractions.Fraction` is built only when a value is looked
    up.  Compares equal to the plain ``dict`` with the same items.
    """

    __slots__ = ("cg", "numerators", "denominator")

    def __init__(self, cg, numerators: np.ndarray, denominator: int) -> None:
        self.cg = cg
        self.numerators = numerators
        self.denominator = denominator

    def __getitem__(self, node: Node) -> Fraction:
        value = int(self.numerators[self.cg.node_index[node]])
        if not value:
            raise KeyError(node)
        return Fraction(value, self.denominator)

    def __iter__(self):
        nodes = self.cg.nodes
        return (nodes[k] for k in np.flatnonzero(self.numerators).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.numerators))

    def total(self) -> int:
        """``Σ numerators`` as an exact integer."""
        return int(_exact(self.numerators).sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoverValues({len(self)} nodes over {self.denominator})"


@dataclass(frozen=True)
class CoverCertificate:
    """A fractional vertex cover ``y``; proves ``ν <= ⌊Σy⌋``.

    ``values`` is sparse: nodes not present carry ``y = 0``.  Feasibility
    means ``y_u + y_v >= 1`` for every edge ``{u, v}``.  The dual engine
    hands over a :class:`CoverValues` view, whose objective is one
    integer sum.
    """

    values: Mapping[Node, Fraction]

    @property
    def objective(self) -> Fraction:
        values = self.values
        if isinstance(values, CoverValues):
            return Fraction(values.total(), values.denominator)
        return sum(values.values(), Fraction(0))

    @property
    def bound(self) -> int:
        """``⌊Σy⌋`` — the certified integer upper bound on ν."""
        values = self.values
        if isinstance(values, CoverValues):
            return values.total() // values.denominator
        total = self.objective
        return total.numerator // total.denominator


@dataclass(frozen=True)
class SandwichCertificate:
    """Primal matching and dual cover together: a two-sided ν bracket."""

    matching: MatchingCertificate
    cover: CoverCertificate


Certificate = Union[MatchingCertificate, CoverCertificate,
                    SandwichCertificate]


@dataclass(frozen=True)
class BoundResult:
    """The common return shape of every bounds engine.

    ``lower <= ν(G) <= upper``; ``exact`` means the two coincide *and*
    the value is known to be ν (not merely a zero-width accident).  The
    certificate, when present, lets :func:`verify_certificate` re-prove
    both bounds independently of the engine.
    """

    lower: int
    upper: int
    certificate: Certificate | None
    exact: bool

    @property
    def gap(self) -> int:
        """``upper - lower`` — the width of the ν bracket."""
        return self.upper - self.lower


#: Sums of two values and totals over all nodes must stay below this
#: for the ``int64`` path; larger covers switch to Python ints.
_INT64_LIMIT = 1 << 62


def _exact(values, lcd: int = 1) -> np.ndarray:
    """*values* (integers) as an array whose sums and pairwise sums
    against *lcd* cannot overflow: ``int64`` when the largest magnitude
    times the length stays below :data:`_INT64_LIMIT`, else
    ``dtype=object`` Python ints.  Never floats."""
    array = np.asarray(values)
    if array.dtype != object and array.size:
        peak = max(abs(int(array.max())), abs(int(array.min())))
    else:
        peak = max((abs(int(v)) for v in array.tolist()), default=0)
    if lcd < _INT64_LIMIT and peak * max(2, array.size) < _INT64_LIMIT:
        return array.astype(np.int64, copy=False)
    return np.array([int(v) for v in array.tolist()], dtype=object)


def matching_mask(cg, edges: AbstractSet[PortEdge]) -> np.ndarray:
    """A matching certificate's edges as a port mask over *cg*.

    A :class:`PortMaskEdgeSet` must have been built on *cg* itself; any
    other set of :class:`PortEdge` is looked up port by port, and an
    edge that is not an edge of this graph raises
    :class:`CertificateError`.
    """
    if isinstance(edges, PortMaskEdgeSet):
        if edges.cg is not cg:
            raise CertificateError(
                "matching certificate is a port mask of a different graph"
            )
        mask = edges.mask
        if mask.dtype != bool or mask.shape != (cg.num_ports,):
            raise CertificateError(
                f"matching certificate mask has shape {mask.shape} and "
                f"dtype {mask.dtype}, not one bool per port"
            )
        return mask
    mask = np.zeros(cg.num_ports, dtype=bool)
    index = cg.node_index
    offsets, degrees, mate, _ = cg.flat_lists()
    for e in edges:
        k, h = index.get(e.u), index.get(e.v)
        if (
            k is None or h is None
            or not 1 <= e.i <= degrees[k] or not 1 <= e.j <= degrees[h]
            or mate[offsets[k] + e.i - 1] != offsets[h] + e.j - 1
        ):
            raise CertificateError(
                f"matching certificate contains non-edge {e!r}"
            )
        mask[offsets[k] + e.i - 1] = mask[offsets[h] + e.j - 1] = True
    return mask


def _check_matching(cg, cert: MatchingCertificate) -> int:
    """Re-prove the matching certificate; returns the certified ``|M|``."""
    mask = matching_mask(cg, cert.edges)
    half = np.flatnonzero(mask != mask[cg.mate])
    if half.size:
        raise CertificateError(
            f"matching certificate selects one half of edge "
            f"{cg.edge(int(half[0]))!r}"
        )
    selected = np.flatnonzero(mask)
    owner = cg.port_node[selected]
    loops = selected[owner == cg.peer_node[selected]]
    if loops.size:
        raise CertificateError(
            f"matching certificate contains loop {cg.edge(int(loops[0]))!r}"
        )
    per_node = np.bincount(owner, minlength=cg.num_nodes)
    if (per_node > 1).any():
        # The second selected port of the first overloaded node.
        crowded = selected[per_node[owner] > 1]
        g = int(crowded[1])
        raise CertificateError(
            f"matching certificate is not a matching at {cg.edge(g)!r}"
        )
    if cert.maximal:
        missed = undominated_ports(cg, covered_nodes(cg, mask))
        if missed.size:
            raise CertificateError(
                f"matching certificate claims maximality but misses "
                f"edge {cg.edge(int(missed[0]))!r}"
            )
    return selected.size // 2


def _cover_numerators(cg, values: Mapping[Node, Fraction]):
    """A cover as ``(numerators, lcd)``: one integer per node of *cg*
    over the least common denominator of the values."""
    if isinstance(values, CoverValues):
        if values.cg is not cg:
            raise CertificateError(
                "cover certificate is a view of a different graph"
            )
        numerators, lcd = values.numerators, values.denominator
        if (
            numerators.dtype.kind not in "iu"
            or numerators.shape != (cg.num_nodes,)
            or not isinstance(lcd, int) or lcd <= 0
        ):
            raise CertificateError(
                f"cover numerators of dtype {numerators.dtype} over "
                f"{lcd!r} are not exact arithmetic on this graph"
            )
        negative = np.flatnonzero(numerators < 0)
        if negative.size:
            k = int(negative[0])
            raise CertificateError(
                f"cover value at {cg.nodes[k]!r} is negative: "
                f"{Fraction(int(numerators[k]), lcd)}"
            )
        return _exact(numerators, lcd), lcd
    lcd = 1
    for node, value in values.items():
        if not isinstance(value, (int, Fraction)):
            raise CertificateError(
                f"cover value at {node!r} is {type(value).__name__}, "
                "not exact arithmetic"
            )
        if value < 0:
            raise CertificateError(
                f"cover value at {node!r} is negative: {value}"
            )
        if node not in cg.node_index:
            raise CertificateError(
                f"cover certificate names non-node {node!r}"
            )
        lcd = math.lcm(lcd, Fraction(value).denominator)
    scaled = [0] * cg.num_nodes
    index = cg.node_index
    for node, value in values.items():
        scaled[index[node]] = int(value * lcd)
    return _exact(scaled, lcd), lcd


def _check_cover(cg, cert: CoverCertificate) -> int:
    """Re-prove the cover certificate; returns the certified ``⌊Σy⌋``.

    The feasibility test is one array expression over the edges, on
    integer numerators over the least common denominator of the cover
    values: exact arithmetic (every comparison is the Fraction
    comparison, cross-multiplied once up front), in ``int64`` when the
    magnitudes allow it and in Python ints otherwise.
    """
    y, lcd = _cover_numerators(cg, cert.values)
    lo = cg.lower_ports
    infeasible = np.flatnonzero(
        y[cg.port_node[lo]] + y[cg.peer_node[lo]] < lcd
    )
    if infeasible.size:
        g = int(lo[infeasible[0]])
        u, v = int(cg.port_node[g]), int(cg.peer_node[g])
        raise CertificateError(
            f"cover certificate is infeasible at edge {cg.edge(g)!r}: "
            f"{Fraction(int(y[u]), lcd)} + {Fraction(int(y[v]), lcd)} < 1"
        )
    return int(y.sum()) // lcd


def verify_certificate(
    graph: PortNumberedGraph, result: BoundResult
) -> bool:
    """Re-prove *result*'s bounds from its certificate alone.

    Both parts are first normalised to arrays over the graph's compiled
    form (a port mask for the matching, integer numerators over one
    denominator for the cover; a plain ``frozenset`` or ``dict`` takes
    the same route), then checked, in exact integer arithmetic:

    * the matching part (if any) is a matching of the graph, maximal
      when claimed, and certifies ``ν >= result.lower``;
    * the cover part (if any) is a feasible fractional vertex cover and
      certifies ``ν <= result.upper`` (a maximal matching's ``2|M|``
      also counts as a certified upper bound);
    * ``lower <= upper``, and ``exact`` results have ``lower == upper``.

    Returns ``True`` on success; raises :class:`~repro.exceptions.
    CertificateError` naming the first violated condition otherwise.
    """
    cert = result.certificate
    if cert is None:
        raise CertificateError("result carries no certificate to verify")
    matching: MatchingCertificate | None = None
    cover: CoverCertificate | None = None
    if isinstance(cert, SandwichCertificate):
        matching, cover = cert.matching, cert.cover
    elif isinstance(cert, MatchingCertificate):
        matching = cert
    elif isinstance(cert, CoverCertificate):
        cover = cert
    else:
        raise CertificateError(
            f"unknown certificate type {type(cert).__name__}"
        )

    if result.lower > result.upper:
        raise CertificateError(
            f"inverted bracket: lower {result.lower} > upper {result.upper}"
        )
    if result.exact and result.lower != result.upper:
        raise CertificateError(
            f"result claims exactness with gap "
            f"{result.upper - result.lower}"
        )

    cg = graph.compiled()
    if result.lower > 0 and matching is None:
        raise CertificateError(
            f"lower bound {result.lower} has no matching certificate"
        )
    matched = None if matching is None else _check_matching(cg, matching)
    if matched is not None and result.lower > matched:
        raise CertificateError(
            f"lower bound {result.lower} exceeds the certified "
            f"matching size {matched}"
        )

    upper_candidates: list[int] = []
    if cover is not None:
        upper_candidates.append(_check_cover(cg, cover))
    if matching is not None and matching.maximal:
        upper_candidates.append(2 * matched)
    # An exact engine claims ``upper == ν == |M|`` for a *maximum*
    # matching — tighter than anything a certificate can prove (that
    # would amount to certifying maximumness).  The bracket
    # ``[|M|, 2|M|]`` is still re-proven above; the zero-width claim
    # itself is the engine's, so it is exempted here, explicitly.
    exact_claim = (
        result.exact
        and matched is not None
        and result.upper == matched
    )
    if not upper_candidates and not exact_claim:
        raise CertificateError(
            f"upper bound {result.upper} has no certificate "
            "(need a cover or a maximal matching)"
        )
    if upper_candidates and result.upper < min(upper_candidates):
        if not exact_claim:
            raise CertificateError(
                f"upper bound {result.upper} is below every certified "
                f"candidate (best: {min(upper_candidates)})"
            )
    return True
