"""Matroid recognition through T1 dimensions.

A complex is a matroid exactly when every singleton degree (0, {v}) has
graph-computed dimension equal to max(#circuits through v - 1, 0), and more
generally exactly when the closed-form circuit expression matches the graph
computation at every degree in the vanishing range.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import SimplicialComplex, unpack
from .cotangent import MultiDegree, _degree_scan, _formula_on_link, _singleton_dims


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


def formula_discrepancies(cx: SimplicialComplex) -> list[Discrepancy]:
    """Degrees where the graph computation and the circuit formula disagree.

    Compares the two at every degree of `cotangent._degree_scan`; at every
    other degree both sides agree, as its docstring shows.  Empty exactly
    when cx is a matroid.
    """
    cx._require_nonvoid("formula_discrepancies")
    out = []
    for a, link_circuits, dims in _degree_scan(cx):
        for b, graph_dim in dims:
            formula_dim = _formula_on_link(link_circuits, b)
            if graph_dim != formula_dim:
                out.append(Discrepancy(MultiDegree(unpack(a), unpack(b)), graph_dim, formula_dim))
    out.sort(key=lambda d: d.degree.key())
    return out
