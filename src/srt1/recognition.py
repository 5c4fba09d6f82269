"""Matroid recognition through T1 dimensions.

A complex is a matroid exactly when every singleton degree (0, {v}) has
graph-computed dimension equal to max(#circuits through v - 1, 0) (the
recognition corollary), and more generally exactly when the closed-form
circuit expression matches the graph computation at every degree in the
vanishing range (the main theorem).

`formula_discrepancies` applies both link by link.  T1 of D at (A, b) is T1
of L = link(D, A) at (0, b), so the main theorem for L settles every degree
with support A: where L is a matroid there is no discrepancy, and the
recognition corollary applied to L decides that from L's singleton degrees.
Matroids are closed under contraction, and link(D, A) is the contraction of
link(D, A \\ {v}) at v, so once one link is known to be a matroid every link
of a larger A above it is one too and needs no degree at all.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .complexes import SimplicialComplex, unpack
from .cotangent import (
    MultiDegree,
    _circuits_through,
    _degree_scan,
    _formula_on_link,
    _link_facets_by_face,
    _link_of,
    _scan_dim,
    _singleton_dims,
)


class Discrepancy(NamedTuple):
    degree: MultiDegree
    graph_dim: int
    formula_dim: int


def _first_singleton_discrepancy(cx: SimplicialComplex) -> Discrepancy | None:
    """The first degree (0, {v}) where graph dimension and circuit count differ."""
    cx._require_nonvoid("is_matroid_via_t1")
    for b, graph_dim, formula_dim in _singleton_dims(cx):
        if graph_dim != formula_dim:
            return Discrepancy(MultiDegree((), unpack(b)), graph_dim, formula_dim)
    return None


def is_matroid_via_t1(cx: SimplicialComplex) -> bool:
    """Singleton-degree test: graph dimension vs. circuit count at every (0, {v})."""
    return _first_singleton_discrepancy(cx) is None


def _differing(
    a: int, link_circuits: list[int], dims: Iterable[tuple[int, int]]
) -> list[Discrepancy]:
    """The (b, graph dimension) pairs of the link at a where the circuit
    formula differs, as discrepancies."""
    out = []
    for b, graph_dim in dims:
        formula_dim = _formula_on_link(link_circuits, b)
        if graph_dim != formula_dim:
            out.append(Discrepancy(MultiDegree(unpack(a), unpack(b)), graph_dim, formula_dim))
    return out


def _graph_dims(
    link_faces: frozenset[int], through: dict[int, int], single: bool
) -> Iterator[tuple[int, int]]:
    """(b, graph dimension) at the faces b of a link with one vertex, or with
    two or more when single is false."""
    for b in link_faces:
        if b and (b.bit_count() == 1) == single:
            yield b, _scan_dim(link_faces, through, b)


def formula_discrepancies(cx: SimplicialComplex) -> list[Discrepancy]:
    """Degrees where the graph computation and the circuit formula disagree.

    The degrees of `cotangent._degree_scan` are the only ones where the two
    can differ, as its docstring shows.  They are taken link by link, over
    the faces A that `cotangent._links` visits, in order of |A|.  A link L
    at A is a matroid, and has no discrepancy by the main theorem, when the
    link at A \\ {v} for some v in A is one: L is its contraction at v, and
    its faces are never built.  Any other L first takes the recognition
    corollary's test on its singleton degrees; when they all agree L is a
    matroid, and otherwise the graph also runs at L's faces with two or more
    vertices.  Empty exactly when cx is a matroid.
    """
    cx._require_nonvoid("formula_discrepancies")
    out = []
    matroid_links = set()
    links = sorted(_link_facets_by_face(cx), key=lambda link: link[0].bit_count())
    for a, link_facets in links:
        if any((a ^ 1 << (v - 1)) in matroid_links for v in unpack(a)):
            matroid_links.add(a)
            continue
        link_faces, link_circuits = _link_of(cx, a, link_facets)
        through = _circuits_through(link_circuits)
        found = _differing(a, link_circuits, _graph_dims(link_faces, through, True))
        if found:
            out += found + _differing(a, link_circuits, _graph_dims(link_faces, through, False))
        else:
            matroid_links.add(a)
    out.sort(key=lambda d: d.degree.key())
    return out


def _all_discrepancies(cx: SimplicialComplex) -> list[Discrepancy]:
    """`formula_discrepancies` without the shortcut: the graph against the
    circuit formula at every degree of `cotangent._degree_scan`.  Its empty
    result on a matroid checks the main theorem, which the shortcut assumes."""
    cx._require_nonvoid("formula_discrepancies")
    out = []
    for a, link_circuits, dims in _degree_scan(cx):
        out += _differing(a, link_circuits, dims)
    out.sort(key=lambda d: d.degree.key())
    return out
