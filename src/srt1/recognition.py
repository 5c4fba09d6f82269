"""Matroid recognition through T1 dimensions.

A complex is a matroid exactly when every singleton degree (0, {v}) has
graph-computed dimension equal to max(#circuits through v - 1, 0), and more
generally exactly when the closed-form circuit expression matches the graph
computation at every degree in the vanishing range.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import SimplicialComplex, minimal_nonface_masks, unpack
from .cotangent import (
    MultiDegree,
    _dim_on_faces,
    _formula_on_link,
    _link_degrees,
)


class Discrepancy(NamedTuple):
    degree: MultiDegree
    graph_dim: int
    formula_dim: int


def _first_singleton_discrepancy(cx: SimplicialComplex) -> Discrepancy | None:
    """The first degree (0, {v}) where graph dimension and circuit count differ.

    Loops are skipped: their only circuit is {v}, so both sides are zero.
    """
    cx._require_nonvoid("is_matroid_via_t1")
    faces = cx.face_masks()
    circuits = cx.minimal_nonface_masks()
    for v in cx.vertices():
        b = 1 << (v - 1)
        graph_dim = _dim_on_faces(faces, b)
        formula_dim = _formula_on_link(circuits, b)
        if graph_dim != formula_dim:
            return Discrepancy(MultiDegree((), (v,)), graph_dim, formula_dim)
    return None


def is_matroid_via_t1(cx: SimplicialComplex) -> bool:
    """Singleton-degree test: graph dimension vs. circuit count at every (0, {v})."""
    return _first_singleton_discrepancy(cx) is None


def formula_discrepancies(cx: SimplicialComplex) -> list[Discrepancy]:
    """Degrees where the graph computation and the circuit formula disagree.

    Scans every face A and every nonempty face b of link(cx, A); outside the
    vanishing range both sides are zero.  Empty exactly when cx is a matroid.

    A nonface b within the link's vertices needs no check, since both sides
    agree there.  If some circuit C of the link lies strictly inside b, then
    C meets b properly and the formula is 0; the graph side is 0 too, because
    b is not a circuit.  Otherwise b is itself a circuit, and both sides are
    1 when b is isolated (meets no other circuit) with |b| > 1, and 0 otherwise.
    """
    cx._require_nonvoid("formula_discrepancies")
    faces = cx.face_masks()
    out = []
    for a in faces:
        link_faces, in_range = _link_degrees(faces, a)
        if not in_range:
            continue
        link_circuits = minimal_nonface_masks(link_faces, cx.n)
        for b in in_range:
            graph_dim = _dim_on_faces(link_faces, b)
            formula_dim = _formula_on_link(link_circuits, b)
            if graph_dim != formula_dim:
                out.append(Discrepancy(MultiDegree(unpack(a), unpack(b)), graph_dim, formula_dim))
    out.sort(key=lambda d: d.degree.key())
    return out
