"""Matroid recognition through T1 dimensions.

A complex is a matroid exactly when every singleton degree (0, {v}) has
graph-computed dimension equal to max(#circuits through v - 1, 0), and more
generally exactly when the closed-form circuit expression matches the graph
computation at every degree in the vanishing range.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import SimplicialComplex, unpack
from .cotangent import MultiDegree, _degree_scan, _dim_on_faces, _formula_on_link


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

    Compares the two at every degree of `cotangent._degree_scan`; at every
    other degree both sides agree, as its docstring shows.  Empty exactly
    when cx is a matroid.
    """
    cx._require_nonvoid("formula_discrepancies")
    out = []
    for a, link_circuits, dims in _degree_scan(cx.face_masks(), cx.n):
        for b, graph_dim in dims:
            formula_dim = _formula_on_link(link_circuits, b)
            if graph_dim != formula_dim:
                out.append(Discrepancy(MultiDegree(unpack(a), unpack(b)), graph_dim, formula_dim))
    out.sort(key=lambda d: d.degree.key())
    return out
