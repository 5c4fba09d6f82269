"""The rule for links of dimension at most 1 against the graph engine.

A link whose facets have at most two vertices is a graph G, and the graph
dimension at each of its nonempty faces is read off the adjacency:
`cotangent._graph_dims` gives c(G[V \\ N[v]]) + e(G[N(v)]) - 1, clamped, at
a vertex v, beside the circuit count |V \\ N[v]| + e(G[N(v)]) - 1, clamped,
and `cotangent._graph_edge_dim` at an edge {u, w} the number of common
neighbours whose only neighbours are u and w.  `_walk` uses them at every
such link, and `recognition._first_singleton_discrepancy` the vertex rule
on a complex of dimension at most 1; its circuits of two or more vertices
are its non-edges and triangles, `cotangent._graph_circuits`.  Here they
meet `definition._dim_on_faces`, the face path, run at each vertex for the
singleton test, `definition._formula_on_link` and
`complexes._minimal_nonfaces` on the census classes of dimension at most
1, on seeded random graphs with loops and isolated vertices, on the
degenerate complexes and on the 64-vertex path and cycle.
"""

import random

import pytest

from srt1 import complexes, cotangent
from srt1.complexes import SimplicialComplex, _minimal_nonfaces, unpack
from srt1.cotangent import (
    MultiDegree,
    _adjacency,
    _graph_circuits,
    _graph_dims,
    _graph_edge_dim,
    _walk,
    t1_table,
)
from srt1.definition import _dim_on_faces, _formula_on_link
from srt1.recognition import Discrepancy, _first_singleton_discrepancy, is_matroid_via_t1

from _census_reps import representatives


def random_graph(rng):
    """A complex of dimension at most 1 on up to 12 vertices: random edges,
    some isolated vertices, and ground vertices that no facet covers."""
    n = rng.randint(1, 12)
    used = rng.sample(range(1, n + 1), rng.randint(1, n))
    pairs = [(u, w) for i, u in enumerate(used) for w in used[i + 1 :]]
    edges = rng.sample(pairs, rng.randint(0, len(pairs)))
    lone = rng.sample(used, rng.randint(0, min(3, len(used))))
    return SimplicialComplex.from_facets(n, [list(e) for e in edges] + [[v] for v in lone])


def _graph_complexes():
    census = [cx for n in range(1, 6) for cx in representatives(n) if cx.rank <= 2]
    rng = random.Random(20)
    randoms = [random_graph(rng) for _ in range(1200)]
    degenerate = [
        SimplicialComplex.from_facets(3, []),  # {emptyset}
        SimplicialComplex.from_facets(4, [[1], [2], [4]]),  # 0-dimensional
        SimplicialComplex.from_facets(3, [[1, 2], [3]]),  # an edge and a lone vertex
    ]
    return census, randoms, degenerate


CENSUS, RANDOMS, DEGENERATE = _graph_complexes()
GRAPHS = CENSUS + RANDOMS + DEGENERATE
PATH_64 = SimplicialComplex.from_facets(64, [[v, v + 1] for v in range(1, 64)])
CYCLE_64 = SimplicialComplex.from_facets(64, [[v, v % 64 + 1] for v in range(1, 65)])


def _face_singletons(cx):
    """The first singleton discrepancy by the face path: `_dim_on_faces`
    against `_formula_on_link` at each vertex."""
    faces, circuits = cx.face_masks(), cx.minimal_nonface_masks()
    for b in (1 << i for i in range(cx.n) if cx.vertex_mask >> i & 1):
        graph, count = _dim_on_faces(faces, b), _formula_on_link(circuits, b)
        if graph != count:
            return Discrepancy(MultiDegree((), unpack(b)), graph, count)
    return None


def test_the_battery_covers_every_kind_of_graph():
    assert len(CENSUS) == 86 and len(RANDOMS) >= 1000
    assert any(cx.rank == 1 for cx in RANDOMS)
    assert any(cx.n > 0 and cx.vertex_mask != (1 << cx.n) - 1 for cx in RANDOMS)  # loops
    assert any(any(f.bit_count() == 1 for f in cx.facet_masks) and cx.rank == 2 for cx in RANDOMS)
    assert any(cx.n == 12 and cx.rank == 2 for cx in RANDOMS)


@pytest.mark.parametrize(
    "graphs", [CENSUS, RANDOMS, DEGENERATE], ids=["census", "random", "degenerate"]
)
def test_rule_matches_the_graph_engine_at_every_face(graphs):
    checked = 0
    for cx in graphs:
        faces, adj = cx.face_masks(), _adjacency(cx.facet_masks)
        circuits = _minimal_nonfaces(faces, cx.n)
        rows = list(_graph_dims(adj))
        for b, _, count in rows:
            assert count == _formula_on_link(circuits, b), (cx, b)
        # the vertices, in vertex order, then the edges, one call each
        vertices = [b for b, _, _ in rows]
        edges = [(b, _graph_edge_dim(adj, b)) for b in cx.facet_masks if b.bit_count() == 2]
        assert vertices == sorted(vertices), cx
        got = [(b, graph) for b, graph, _ in rows] + edges
        want = {b: _dim_on_faces(faces, b) for b in faces if b}
        assert dict(got) == want and len(got) == len(want), cx
        checked += len(got)
    assert checked > 0


@pytest.mark.parametrize(
    "graphs, sizes",
    [(CENSUS, {2, 3}), (RANDOMS, {2, 3}), (DEGENERATE, {2}), ([PATH_64, CYCLE_64], {2})],
    ids=["census", "random", "degenerate", "path-and-cycle-64"],
)
def test_graph_circuits_are_the_minimal_nonfaces(graphs, sizes):
    # the non-edges and the triangles, each once, are the circuits of two
    # or more vertices; the loops, the vertices no facet covers, are left out
    for cx in graphs:
        got = _graph_circuits(_adjacency(cx.facet_masks))
        want = [c for c in _minimal_nonfaces(cx.face_masks(), cx.n) if c & (c - 1)]
        assert len(got) == len(set(got)) and sorted(got) == sorted(want), cx
        sizes -= {c.bit_count() for c in got}
    assert not sizes  # the battery reaches non-edges, and triangles where it has any


@pytest.mark.parametrize(
    "graphs", [CENSUS, RANDOMS, DEGENERATE], ids=["census", "random", "degenerate"]
)
def test_singleton_test_on_a_graph_matches_the_face_path(graphs):
    verdicts = set()
    for cx in graphs:
        got = _first_singleton_discrepancy(SimplicialComplex(cx.n, cx.facet_masks))
        assert got == _face_singletons(cx), cx
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_a_graph_passes_the_singleton_test_iff_it_is_complete_multipartite():
    # observed: no vertex has two adjacent non-neighbours, that is, being
    # non-adjacent is an equivalence on the vertices
    for cx in GRAPHS:
        adj = _adjacency(cx.facet_masks)
        far = {v: cx.vertex_mask & ~(adj[v] | v) for v in adj}
        multipartite = not any(adj[u] & far[v] for v in adj for u in adj if u & far[v])
        assert is_matroid_via_t1(cx) == multipartite, cx


def test_recognising_a_graph_builds_no_faces_and_no_circuits():
    path = SimplicialComplex.from_facets(64, [[v, v + 1] for v in range(1, 64)])
    assert not is_matroid_via_t1(path)
    assert path._faces is None and path._mnf is None
    star = SimplicialComplex.from_facets(64, [[1, v] for v in range(2, 65)])
    assert is_matroid_via_t1(star)  # K(1, 63), complete bipartite
    assert star._faces is None and star._mnf is None


@pytest.mark.parametrize("cx", [PATH_64, CYCLE_64], ids=["path-64", "cycle-64"])
def test_walk_builds_no_face_set_and_no_circuits_at_a_graph_link(monkeypatch, cx):
    # the root link of a graph has rank 2, and the walk reads its circuits,
    # its singleton test and its dims off the adjacency; every vertex link
    # has rank 1 and needs none of them
    calls = []
    for module, name in (
        (complexes, "_faces_of"),
        (complexes, "_minimal_nonfaces"),
        (cotangent, "_unkilled_components"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    cx = SimplicialComplex(cx.n, cx.facet_masks)
    assert [a for a, _, _, dims in _walk(cx) if dims is not None] == [0]
    assert len(t1_table(cx)) >= 62  # 1 at the pair of each inner vertex link
    assert calls == [] and cx._faces is None and cx._mnf is None
