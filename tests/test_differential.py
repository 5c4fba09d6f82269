"""The engine against the brute-force oracles and against its former exhaustive scan.

The definitions cover each of the 44 relabeling classes on up to 4 vertices
and every degree (A, b) with A a face and b a nonempty set disjoint from A:
1577 degrees in all.  The former engine, which scanned every subset of each
link's vertices and swept all 2^n masks for circuits, covers every class on
up to 5 vertices, every U(n, k) with n <= 7, and paths, cycles and stars on
10 to 12 vertices.
"""

import pytest

from srt1.complexes import SimplicialComplex, _minimal_nonfaces, _order_key
from srt1.cotangent import t1_table
from srt1.definition import inclusion_graph
from srt1.matroids import uniform
from srt1.recognition import formula_discrepancies

from _census_reps import representatives
from _oracles import (
    faces_of,
    naive_components,
    naive_dim_t1,
    naive_link,
    naive_n_del,
    naive_n_del_red,
    powerset,
    subset_scan_discrepancies,
    subset_scan_table,
    sweep_minimal_nonfaces,
)

COMPLEXES = [cx for n in range(1, 5) for cx in representatives(n)]


def _path(n):
    return SimplicialComplex.from_facets(n, [[v, v + 1] for v in range(1, n)])


def _cycle(n):
    return SimplicialComplex.from_facets(n, [[v, v % n + 1] for v in range(1, n + 1)])


def _star(n):
    return SimplicialComplex.from_facets(n, [[1, v] for v in range(2, n + 1)])


SCAN_COMPLEXES = (
    [cx for n in range(1, 6) for cx in representatives(n)]
    + [uniform(n, k) for n in range(1, 8) for k in range(n + 1)]
    + [family(n) for family in (_path, _cycle, _star) for n in (10, 11, 12)]
)


def degrees(cx):
    """Every (A, b) with A a face and b a nonempty set disjoint from A."""
    ground = range(1, cx.n + 1)
    for A in cx.faces():
        rest = [v for v in ground if v not in A]
        for b in powerset(rest):
            if b:
                yield A, b


def test_census_scale():
    assert len(COMPLEXES) == 44
    assert sum(1 for cx in COMPLEXES for _ in degrees(cx)) == 1577


@pytest.mark.parametrize("cx", COMPLEXES, ids=repr)
def test_t1_table_matches_definition(cx):
    table = t1_table(cx)
    for A, b in degrees(cx):
        assert table.dim(A, b) == naive_dim_t1(cx, A, b), (A, b)


@pytest.mark.parametrize("cx", COMPLEXES, ids=repr)
def test_inclusion_graph_matches_definition(cx):
    faces = faces_of(cx)
    for A, b in degrees(cx):
        link = naive_link(faces, A)
        graph = inclusion_graph(cx, A, b)
        verts = [frozenset(v) for v in graph.vertices]
        assert set(verts) == naive_n_del(link, b) and len(verts) == len(set(verts))
        assert {verts[i] for i in graph.marked} == naive_n_del_red(link, b)
        comps = {frozenset(verts[i] for i in comp) for comp in graph.components}
        assert comps == {frozenset(c) for c in naive_components(verts)}
        comparable = {
            (i, j)
            for i in range(len(verts))
            for j in range(i + 1, len(verts))
            if verts[i] < verts[j] or verts[j] < verts[i]
        }
        assert set(graph.edges) == comparable and len(graph.edges) == len(comparable)


def test_scan_scale():
    assert len(SCAN_COMPLEXES) == 253 + 35 + 9


@pytest.mark.parametrize("cx", SCAN_COMPLEXES, ids=repr)
def test_t1_table_matches_subset_scan(cx):
    assert dict(t1_table(cx).items()) == subset_scan_table(cx)


@pytest.mark.parametrize("cx", SCAN_COMPLEXES, ids=repr)
def test_minimal_nonfaces_match_sweep(cx):
    faces, key = cx.face_masks(), _order_key(cx.n)
    assert cx.minimal_nonface_masks() == sorted(sweep_minimal_nonfaces(faces, cx.n), key=key)
    for a in faces:
        link = frozenset(f ^ a for f in faces if f & a == a)
        want = sorted(sweep_minimal_nonfaces(link, cx.n), key=key)
        assert sorted(_minimal_nonfaces(link, cx.n), key=key) == want, a


@pytest.mark.parametrize("cx", SCAN_COMPLEXES, ids=repr)
def test_formula_discrepancies_match_subset_scan(cx):
    assert formula_discrepancies(cx) == subset_scan_discrepancies(cx)
