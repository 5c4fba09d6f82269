"""Matroid recognition through T1 dimensions.

A complex is a matroid exactly when every singleton degree (0, {v}) has
graph-computed dimension equal to max(#circuits through v - 1, 0) (the
recognition corollary), and more generally exactly when the closed-form
circuit expression matches the graph computation at every degree in the
vanishing range (the main theorem).

`formula_discrepancies` applies both link by link, along the walk
`cotangent._walk`.  T1 of D at (A, b) is T1 of L = link(D, A) at (0, b), so
the main theorem for L settles every degree with support A: where L is a
matroid there is no discrepancy, and the recognition corollary applied to L
decides that from L's singleton degrees.  Matroids are closed under
contraction, and link(D, A u {v}) is the contraction of link(D, A) at v, so
the walk goes no higher than a matroid link.  At any other link the walk's
dims, none of them read off N_b, meet the formula of `cotangent._class_rows`.

The singleton test is the walk's: `is_matroid_via_t1` reads cx as the link
at the empty face through `cotangent._read_link`, as the walk and `dim_t1`
read every link, and neither side builds N_v.  Let G_v be the graph on the
circuits of two or more vertices through a vertex v, two of them, C and
C', joined when (C u C') - v is a face.  The graph side at v is
c(G_v) - 1, clamped, and the formula side the number of nodes of G_v less
one, clamped; one rule yields both at each vertex, so the two differ at v
exactly when G_v has an edge.  So, as an observation that the tests check
on the census and on random complexes, a complex passes the test exactly
when weak circuit elimination holds at every vertex: for circuits C != C'
through v, (C u C') - v is a nonface.  That is the paper's "bound reached
iff matroid" at the singleton degrees.

A complex of dimension at most 1 is a graph G on its vertices V, and
`_read_link` reads both sides off its adjacency, with no face set and no
circuits, the case rank 2 of that rule: the graph side
c(G[V \\ N[v]]) + e(G[N(v)]) - 1 at v, clamped, and the formula side
|V \\ N[v]| + e(G[N(v)]) - 1, clamped, since the circuits through v are its
non-edges and triangles.  They differ at v exactly when G[V \\ N[v]] has
an edge.  So, as an observation that the tests check on the census and on
random graphs, such a complex passes the test exactly when no vertex has
two adjacent non-neighbours, that is, when its graph is complete
multipartite.
"""

from __future__ import annotations

from typing import NamedTuple

from .complexes import SimplicialComplex, _order_key, unpack
from .cotangent import MultiDegree, _class_rows, _read_link, _walk


class Discrepancy(NamedTuple):
    degree: MultiDegree
    graph_dim: int
    formula_dim: int


def _first_singleton_discrepancy(cx: SimplicialComplex) -> Discrepancy | None:
    """The first degree (0, {v}) where graph dimension and circuit count
    differ, in the rows of cx as `cotangent._read_link` reads it at the
    empty face, lazily, so that the test stops at the first vertex where
    they differ.  On a complex of dimension 2 or more a vertex in no circuit
    of two or more vertices is 0 on both sides, the graph by rule 1, and is
    not read."""
    cx._require_nonvoid("is_matroid_via_t1")
    _, _, rows = _read_link(cx, 0, cx.facet_masks, cx.rank)
    for b, graph_dim, formula_dim in rows:
        if graph_dim != formula_dim:
            return Discrepancy(MultiDegree((), unpack(b)), graph_dim, formula_dim)
    return None


def is_matroid_via_t1(cx: SimplicialComplex) -> bool:
    """Singleton-degree test: graph dimension vs. circuit count at every (0, {v})."""
    return _first_singleton_discrepancy(cx) is None


def _discrepancies(
    n: int, rows: list[tuple[tuple[int, int], int, int]]
) -> list[Discrepancy]:
    """Rows ((a, b), graph, formula) as discrepancies, in canonical degree order."""
    key = _order_key(n)
    rows = sorted(rows, key=lambda row: (key(row[0][0]), key(row[0][1])))
    return [
        Discrepancy(MultiDegree(unpack(a), unpack(b)), graph_dim, formula_dim)
        for (a, b), graph_dim, formula_dim in rows
    ]


def formula_discrepancies(cx: SimplicialComplex) -> list[Discrepancy]:
    """Degrees where the graph computation and the circuit formula disagree.

    The degrees of the links of `cotangent._walk` are the only ones where
    the two can differ, as its docstring shows.  A link of rank 1, or one
    that passes the singleton test, is a matroid, as is every link above
    it, and has no discrepancy by the main theorem; every other link comes
    with its dims, compared with the group of its `_class_rows` at each
    degree either holds (any other is 0 on both sides).  Empty exactly
    when cx is a matroid.
    """
    cx._require_nonvoid("formula_discrepancies")
    out = []
    for a, _, circuits, dims in _walk(cx):
        if dims is not None:
            graph, formula = dict(dims), _class_rows(circuits)
            for b in graph.keys() | formula.keys():
                if graph.get(b, 0) != formula.get(b, 0):
                    out.append(((a, b), graph.get(b, 0), formula.get(b, 0)))
    return _discrepancies(cx.n, out)

