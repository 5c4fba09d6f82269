"""The engine against the brute-force oracles, over every complex on up to 4 vertices.

Covers each of the 44 relabeling classes and every degree (A, b) with A a
face and b a nonempty set disjoint from A: 1577 degrees in all.
"""

import pytest

from srt1.census import representatives
from srt1.cotangent import inclusion_graph, t1_table

from _oracles import (
    faces_of,
    naive_components,
    naive_dim_t1,
    naive_link,
    naive_n_del,
    naive_n_del_red,
    powerset,
)

COMPLEXES = [cx for n in range(1, 5) for cx in representatives(n)]


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

