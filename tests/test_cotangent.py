import collections
import itertools
import json
import pickle
import random

import pytest

from srt1 import complexes, cotangent, matroids
from srt1.complexes import (
    SimplicialComplex,
    VertexRangeError,
    VoidComplexError,
    _union,
    pack,
    unpack,
)
from srt1.cotangent import MultiDegree, T1Table, _matroid_up_set, _walk, dim_t1, t1_table
from srt1.definition import (
    _dim_on_faces,
    InclusionGraph,
    bijection_check,
    circuits_containing,
    dim_t1_matroid_formula,
    dim_t1_nonface,
    inclusion_graph,
    n_del,
    n_del_red,
    t1_upper_bound,
)
from srt1.matroids import NotAMatroidError, uniform

from _census_reps import representatives
from _oracles import naive_dim_t1, powerset
from test_matroid_engine import WriteOnce
from test_singleton_rule import three_facets

REMARK = SimplicialComplex.from_minimal_nonfaces(
    5, [[1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5]]
)
TETRA_SKEL = SimplicialComplex.from_facets(
    4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
)


def all_complexes(n):
    masks = list(range(1, 1 << n))
    for bits in range(1 << len(masks)):
        chosen = [unpack(masks[i]) for i in range(len(masks)) if bits >> i & 1]
        yield SimplicialComplex.from_facets(n, chosen)


def all_degrees(n):
    verts = list(range(1, n + 1))
    for A in powerset(verts):
        rest = [v for v in verts if v not in A]
        for b in powerset(rest):
            if b:
                yield MultiDegree.make(A, b)


# -- MultiDegree ------------------------------------------------------------


def test_multidegree_make_normalizes():
    d = MultiDegree.make([3, 1, 1], [2])
    assert d == MultiDegree((1, 3), (2,))
    assert MultiDegree.make([], []) == MultiDegree((), ())


def test_multidegree_overlap_rejected():
    with pytest.raises(ValueError, match="overlap at vertex 2"):
        MultiDegree.make([1, 2], [2, 3])


def test_multidegree_key_orders_by_size_then_lex():
    ds = [
        MultiDegree.make([2], [3]),
        MultiDegree.make([], [1, 2]),
        MultiDegree.make([], [3]),
        MultiDegree.make([1], [2]),
    ]
    assert sorted(ds, key=lambda d: d.key()) == [
        MultiDegree((), (3,)),
        MultiDegree((), (1, 2)),
        MultiDegree((1,), (2,)),
        MultiDegree((2,), (3,)),
    ]


# -- N_b and friends ---------------------------------------------------------


def test_n_del_tetrahedron_skeleton():
    assert n_del(TETRA_SKEL, [1, 2]) == [(3,), (4,), (3, 4)]
    assert n_del_red(TETRA_SKEL, [1, 2]) == [(3, 4)]


def test_n_del_remark_complex():
    assert n_del(REMARK, [4, 5]) == [(1,), (2, 3)]
    assert n_del_red(REMARK, [4, 5]) == [(2, 3)]


def test_n_del_star_shape():
    # face b: N_b is the deletion minus the star; nonface b: all of the deletion
    cx = REMARK

    def deletion_minus_star(b):
        return sorted(
            (f for f in cx.faces() if not set(f) & b and not cx.is_face(set(f) | b)),
            key=lambda t: (len(t), t),
        )

    assert n_del(cx, [4, 5]) == deletion_minus_star({4, 5})
    assert n_del(cx, [1, 2]) == deletion_minus_star({1, 2})
    # {1,2} is a nonface, so nothing survives the star filter
    assert n_del(cx, [1, 2]) == [
        f for f in cx.faces() if not set(f) & {1, 2}
    ]


def test_n_del_validation():
    with pytest.raises(ValueError):
        n_del(REMARK, [])
    with pytest.raises(VoidComplexError):
        n_del(SimplicialComplex.void(2), [1])
    # singleton b never has a reduced part
    for v in range(1, 6):
        assert n_del_red(REMARK, [v]) == []


def test_circuits_containing():
    assert circuits_containing(REMARK, [4, 5]) == [(1, 4, 5)]
    assert circuits_containing(REMARK, [1]) == [(1, 2), (1, 3), (1, 4, 5)]
    assert circuits_containing(REMARK, []) == REMARK.minimal_nonfaces()
    assert circuits_containing(uniform(3, 3), [1]) == []
    with pytest.raises(VoidComplexError, match="^circuits_containing is undefined"):
        circuits_containing(SimplicialComplex.void(2), [1])


# -- inclusion graph ----------------------------------------------------------


def test_inclusion_graph_remark():
    g = inclusion_graph(REMARK, [], [4, 5])
    assert g.vertices == ((1,), (2, 3))
    assert g.edges == ()
    assert g.marked == frozenset({1})
    assert g.components == ((0,), (1,))
    assert g.unmarked_component_count() == 1


def test_inclusion_graph_remark_vertex_one():
    g = inclusion_graph(REMARK, [], [1])
    assert len(g.vertices) == 10
    assert len(g.components) == 1
    assert g.marked == frozenset()


def test_inclusion_graph_full_simplex_empty():
    g = inclusion_graph(uniform(3, 3), [], [1])
    assert g.vertices == ()
    assert g.components == ()
    assert g.unmarked_component_count() == 0


def test_inclusion_graph_edges_are_strict_inclusions():
    g = inclusion_graph(TETRA_SKEL, [], [1, 2])
    # {3} < {3,4} and {4} < {3,4}
    assert g.vertices == ((3,), (4,), (3, 4))
    assert g.edges == ((0, 2), (1, 2))
    assert g.components == ((0, 1, 2),)


def test_inclusion_graph_count_is_the_engine_dimension():
    # the unmarked components of the graph, less one (clamped) at a single
    # vertex, are dim T1 at (A, b) by `dim_t1` and by `t1_table`, at every
    # face A of every census class on up to 5 vertices and every nonempty b
    # within the vertices of link(A)
    checked = 0
    for n in range(1, 6):
        for cx in representatives(n):
            table = t1_table(cx)
            for a in sorted(cx.face_masks()):
                A = unpack(a)
                for b in powerset(unpack(cx.link_mask(a).vertex_mask)):
                    if not b:
                        continue
                    count = inclusion_graph(cx, A, b).unmarked_component_count()
                    want = max(count - 1, 0) if len(b) == 1 else count
                    assert dim_t1(cx, (A, b)) == want == table.dim(A, b), (cx, A, b)
                    checked += 1
    assert checked == 19087


def test_inclusion_graph_validation():
    with pytest.raises(ValueError):
        inclusion_graph(REMARK, [1], [])
    with pytest.raises(ValueError):
        inclusion_graph(REMARK, [1], [1, 4])


# -- dim_t1 -------------------------------------------------------------------


def test_dim_t1_golden_values():
    assert dim_t1(REMARK, ((), (4, 5))) == 1
    assert dim_t1(REMARK, ((), (1,))) == 0
    assert dim_t1(uniform(4, 2), ((), (1,))) == 2
    assert dim_t1(uniform(3, 2), ((), (1, 2, 3))) == 1


def test_dim_t1_vanishing_range():
    # A not a face
    assert dim_t1(REMARK, ((1, 2), (4,))) == 0
    # empty b
    assert dim_t1(REMARK, ((1,), ())) == 0
    # b outside the link's vertex set: link(REMARK, {2,3}) has vertices {4,5}
    assert dim_t1(REMARK, ((2, 3), (1,))) == 0
    with pytest.raises(VoidComplexError):
        dim_t1(SimplicialComplex.void(2), ((), (1,)))


def test_dim_t1_accepts_degree_forms():
    d = MultiDegree.make([], [4, 5])
    assert dim_t1(REMARK, d) == dim_t1(REMARK, ([], [4, 5])) == 1


def test_dim_t1_matches_naive_oracle_n3():
    for cx in all_complexes(3):
        for d in all_degrees(3):
            got = dim_t1(cx, d)
            want = naive_dim_t1(cx, d.A, d.b)
            assert got == want, (cx.facets, d)


def test_dim_t1_matches_naive_oracle_remark_all_degrees():
    for d in all_degrees(5):
        assert dim_t1(REMARK, d) == naive_dim_t1(REMARK, d.A, d.b), d


def test_dim_t1_matches_naive_oracle_4_vertex_sample():
    sample = [
        TETRA_SKEL,
        uniform(4, 2),
        SimplicialComplex.from_facets(4, [[1, 2, 3], [3, 4]]),
        SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4]]),
        SimplicialComplex.from_facets(4, [[1], [2], [3], [4]]),
    ]
    for cx in sample:
        for d in all_degrees(4):
            assert dim_t1(cx, d) == naive_dim_t1(cx, d.A, d.b), (cx.facets, d)


def test_dim_t1_off_the_empty_face_builds_no_root_face_set():
    # link(three facets k = 12, {1}) has 2,049 faces against the root's
    # 69,377: a degree at A = {1} reads the link as a complex of its own
    cx = three_facets(12)
    link_faces = cx.link((1,)).face_masks()
    for b in ((2,), (20,), (2, 3)):
        assert dim_t1(cx, ((1,), b)) == _dim_on_faces(link_faces, pack(b, cx.n))
    assert cx._faces is None and cx._mnf is None


def test_dim_t1_builds_no_link_complex_below_rank_three(monkeypatch):
    # a link of rank at most 2 is read off the adjacency of its facets, so
    # `dim_t1` builds no complex for it: the centre link of K(1, 63), 63
    # loose vertices, and the link of an edge of a 3-dimensional complex, a
    # 4-cycle; the vertex link there has rank 3 and is built, once
    star = SimplicialComplex.from_facets(64, [[1, v] for v in range(2, 65)])
    cycle = [(3, 4), (4, 5), (5, 6), (3, 6)]
    solid = SimplicialComplex.from_facets(6, [[1, 2, u, w] for u, w in cycle])
    cases = [(star, (1,), b) for b in ((2,), (64,), (2, 3))]
    cases += [(solid, (1, 2), b) for b in ((3,), (3, 4), (3, 5))]
    want = [_dim_on_faces(cx.link(A).face_masks(), pack(b, cx.n)) for cx, A, b in cases]
    assert want[0] == 61 and solid.link((1, 2)).rank == 2
    at_vertex = _dim_on_faces(solid.link((1,)).face_masks(), pack((3,), 6))
    built = []
    real = SimplicialComplex._set

    def counting(self, n, masks):
        built.append(n)
        return real(self, n, masks)

    monkeypatch.setattr(SimplicialComplex, "_set", counting)
    assert [dim_t1(cx, (A, b)) for cx, A, b in cases] == want
    assert built == []
    assert dim_t1(solid, ((1,), (3,))) == at_vertex
    assert built == [6]


# -- nonface degrees -----------------------------------------------------------


def test_dim_t1_nonface_golden():
    assert dim_t1_nonface(uniform(3, 2), [1, 2, 3]) == 1
    assert dim_t1_nonface(uniform(4, 2), [1, 2, 3]) == 0
    lone = SimplicialComplex.from_minimal_nonfaces(3, [[1], [2, 3]])
    assert dim_t1_nonface(lone, [2, 3]) == 1
    assert dim_t1_nonface(lone, [1]) == 0
    assert dim_t1_nonface(lone, [1, 2]) == 0  # nonface but not minimal


def test_dim_t1_nonface_requires_nonface():
    with pytest.raises(ValueError, match="face"):
        dim_t1_nonface(REMARK, [4, 5])


def test_dim_t1_nonface_agrees_with_dim_t1_n3():
    for cx in all_complexes(3):
        for b in powerset([1, 2, 3]):
            if b and not cx.is_face(b):
                assert dim_t1_nonface(cx, b) == dim_t1(cx, ((), b)), (cx.facets, b)


# -- matroid closed form ---------------------------------------------------------


def test_matroid_formula_golden():
    assert dim_t1_matroid_formula(uniform(4, 2), ((), (1,))) == 2
    assert dim_t1_matroid_formula(uniform(4, 2), ((1,), (2,))) == 1
    assert dim_t1_matroid_formula(uniform(4, 2), ((), (1, 2))) == 0
    discrete = uniform(2, 0) * uniform(1, 1)
    for d in all_degrees(3):
        assert dim_t1_matroid_formula(discrete, d) == 0


def test_matroid_formula_rejects_nonmatroid():
    with pytest.raises(NotAMatroidError):
        dim_t1_matroid_formula(REMARK, ((), (1,)))


def test_exchange_test_runs_once_per_complex(monkeypatch):
    runs = []
    real = matroids._exchange_holds
    monkeypatch.setattr(matroids, "_exchange_holds", lambda cx: runs.append(cx) or real(cx))
    m = uniform(5, 2)
    for d in all_degrees(5):
        dim_t1_matroid_formula(m, d)
    assert bijection_check(m, [1], [2])
    assert runs == [m]
    # the cached verdict raises the same error on every call
    two_edges = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    for _ in range(2):
        with pytest.raises(NotAMatroidError, match="dim_t1_matroid_formula requires a matroid"):
            dim_t1_matroid_formula(two_edges, ((), (1,)))
        with pytest.raises(NotAMatroidError, match="bijection_check requires a matroid"):
            bijection_check(two_edges, [], [4])
    assert runs == [m, two_edges]


def test_matroid_formula_agrees_with_graph_on_uniforms():
    for n, k in [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2)]:
        m = uniform(n, k)
        for d in all_degrees(n):
            assert dim_t1_matroid_formula(m, d) == dim_t1(m, d), (n, k, d)


# -- upper bound -----------------------------------------------------------------


def test_upper_bound_golden():
    assert t1_upper_bound(uniform(4, 2), [1]) == 2
    assert t1_upper_bound(uniform(3, 3), [1]) == 0
    # both sides of the min are 2 here; the observed dimension is 1
    assert t1_upper_bound(REMARK, [4, 5]) == 2
    assert dim_t1(REMARK, ((), (4, 5))) <= t1_upper_bound(REMARK, [4, 5])


def test_upper_bound_validation():
    with pytest.raises(ValueError):
        t1_upper_bound(REMARK, [])
    with pytest.raises(ValueError, match="face"):
        t1_upper_bound(REMARK, [1, 2])


def test_upper_bound_dominates_dimension_n3():
    for cx in all_complexes(3):
        for b in powerset([1, 2, 3]):
            if b and cx.is_face(b):
                assert dim_t1(cx, ((), b)) <= t1_upper_bound(cx, b), (cx.facets, b)


def test_upper_bound_tight_for_matroids():
    for m in [uniform(4, 2), uniform(5, 2), uniform(5, 3)]:
        for b in powerset(range(1, m.n + 1)):
            if b and m.is_face(b):
                d = dim_t1(m, ((), b))
                if d > 0:
                    assert d == t1_upper_bound(m, b), (m.facets, b)


def test_singleton_bounds_reached_exactly_on_matroids():
    # with c1 the circuits of link(cx, v) that are faces of cx \\ v and c2 the
    # facets of cx \\ v outside link(cx, v), as in `t1_upper_bound`:
    # dim(0, {v}) = max(c1 - 1, 0) at every vertex v holds on all 69 census
    # matroids and on none of the 184 non-matroids; dim(0, {v}) =
    # max(min(c1, c2) - 1, 0), the bound itself, at every vertex holds on
    # the matroids and on 47 non-matroids as well, so it is no iff
    counts = collections.Counter()
    for cx in (cx for n in range(1, 6) for cx in representatives(n)):
        first = bound = True
        for v in cx.vertices():
            link, deletion = cx.link_mask(1 << (v - 1)), cx.delete([v])
            c1 = sum(1 for c in link._circuit_masks() if deletion.is_face_mask(c))
            dim = dim_t1(cx, ((), (v,)))
            first &= dim == max(c1 - 1, 0)
            bound &= dim == t1_upper_bound(cx, [v])
        counts[matroids.is_matroid_exchange(cx), first, bound] += 1
    assert counts == {(True, True, True): 69, (False, False, True): 47, (False, False, False): 137}


# -- tables ------------------------------------------------------------------------


def test_t1_table_u32_all_entries():
    t = t1_table(uniform(3, 2))
    assert dict(t.items()) == {
        MultiDegree((), (1, 2)): 1,
        MultiDegree((), (1, 3)): 1,
        MultiDegree((), (2, 3)): 1,
        MultiDegree((), (1, 2, 3)): 1,
        MultiDegree((1,), (2, 3)): 1,
        MultiDegree((2,), (1, 3)): 1,
        MultiDegree((3,), (1, 2)): 1,
    }


def test_t1_table_discrete_empty():
    assert len(t1_table(uniform(2, 0) * uniform(1, 1))) == 0
    assert len(t1_table(uniform(3, 3))) == 0


def test_t1_table_coloop_doubling():
    t = t1_table(SimplicialComplex.from_facets(3, [[1, 3], [2, 3]]))
    assert dict(t.items()) == {
        MultiDegree((), (1, 2)): 1,
        MultiDegree((3,), (1, 2)): 1,
    }


def test_t1_table_agrees_with_dim_t1():
    cx = REMARK
    t = t1_table(cx)
    for d in all_degrees(5):
        assert t.dim(d) == dim_t1(cx, d), d


def _join_rows(K, L):
    """The T1 rows of K * L that the join rule predicts: a degree whose b lies
    in one factor has that factor's dimension at the part of A there, for
    every face of the other factor as the rest of A; a b that meets both
    factors has none."""

    def shift(vs):
        return tuple(v + K.n for v in vs)

    rows = {}
    for d, dim in t1_table(K).items():
        for f in L.faces():
            rows[d.A + shift(f), d.b] = dim
    for d, dim in t1_table(L).items():
        for f in K.faces():
            rows[f + shift(d.A), shift(d.b)] = dim
    return rows


def test_t1_table_of_a_join_follows_the_join_rule():
    classes = [cx for n in (1, 2, 3) for cx in representatives(n)]
    assert len(classes) == 15
    for K, L in itertools.product(classes, repeat=2):
        got = {(d.A, d.b): dim for d, dim in t1_table(K.join(L)).items()}
        assert got == _join_rows(K, L), (K, L)


def _in_two_facets(cx):
    return {a for a in cx.face_masks() if sum(f & a == a for f in cx.facet_masks) > 1}


def test_walk_skips_simplex_links(monkeypatch):
    # T1 of a simplex vanishes in every degree, so a face whose link is a
    # simplex, a facet or a leaf of a path say, is never scanned
    path = SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4]])
    assert sorted(unpack(a) for a, _, _, _ in _walk(path)) == [
        (),
        (2,),
        (3,),
    ]
    for cx in (cx for n in range(1, 5) for cx in representatives(n)):
        for a, _, _, _ in _walk(cx):
            link_faces = cx.link_mask(a).face_masks()
            assert _union(link_faces) not in link_faces, (cx, unpack(a))

    # the link is a simplex exactly when one facet contains the face, and
    # the walk skips such a face before materialising any face set; a link
    # of rank 1 or 2 is read with no face set at all, and a larger one, at
    # its singleton test and at its faces of two or more vertices in a
    # circuit alike, through lookups in cx's own face set: the walk builds
    # that one face set, and none of a link
    built = []
    real = complexes._faces_of
    monkeypatch.setattr(
        complexes, "_faces_of", lambda facets: built.append(sorted(facets)) or real(facets)
    )
    path12 = SimplicialComplex.from_facets(12, [[v, v + 1] for v in range(1, 12)])
    for cx, kept in ((path12, _in_two_facets(path12)), (uniform(6, 3), {0})):
        built.clear()
        assert {a for a, _, _, _ in _walk(cx)} == kept
        assert built == ([] if cx is path12 else [sorted(cx.facet_masks)])
    assert {unpack(a) for a, _, _, _ in _walk(path12)} == {()} | {(v,) for v in range(2, 12)}
    wider_links = 0
    for cx in (cx for n in range(1, 6) for cx in representatives(n)):
        cx = SimplicialComplex(cx.n, cx.facet_masks)  # with no face set cached
        built.clear()
        walked = list(_walk(cx))
        assert built in ([], [sorted(cx.facet_masks)]), cx
        wider_links += sum(
            1
            for a, _, circuits, dims in walked
            if a
            and dims is not None
            and cx.link_mask(a).rank > 2
            and any(b & (b - 1) for b in cotangent._circuit_faces(circuits))
        )
    assert wider_links


def _rank_one(cx, a):
    """Whether the link of cx at a has two or more facets, each one vertex."""
    facets = cx.link_mask(a).facet_masks
    return len(facets) > 1 and all(f.bit_count() == 1 for f in facets)


def test_walk_links_match_the_definition():
    # every link the walk yields carries its own vertices, a link of rank 1
    # no circuits and no dims, any other link its circuits of two or more
    # vertices, and a link failing the singleton test its whole table: 1 at
    # each isolated circuit, the graph dimension at each of its nonempty
    # faces at a graph link and at each face in a circuit at a larger link,
    # and no other nonzero row
    isolated_rows = rank_one = larger = 0
    for cx in (cx for n in range(1, 6) for cx in representatives(n)):
        for a, verts, circuits, dims in _walk(cx):
            link = cx.link_mask(a)
            assert verts == link.vertex_mask, (cx, unpack(a))
            if circuits is None:
                assert dims is None and _rank_one(cx, a), (cx, unpack(a))
                rank_one += 1
                continue
            assert not _rank_one(cx, a), (cx, unpack(a))
            want = sorted(c for c in link.minimal_nonface_masks() if c.bit_count() > 1)
            assert sorted(circuits) == want, (cx, unpack(a))
            if dims is None:
                assert matroids.is_matroid_exchange(link), (cx, unpack(a))
                continue
            isolated = [c for c in want if not any(c & d for d in want if d != c)]
            link_faces = link.face_masks()
            listed = {b for b, _ in dims} - set(isolated)
            if link.rank == 2:
                assert listed == link_faces - {0}, (cx, unpack(a))
            else:
                assert listed == cotangent._circuit_faces(circuits), (cx, unpack(a))
                larger += 1
            scan = [(c, 1) for c in isolated] + [
                (b, _dim_on_faces(link_faces, b)) for b in link_faces if b
            ]
            assert sorted(row for row in dims if row[1]) == sorted(row for row in scan if row[1])
            isolated_rows += len(isolated)
    assert isolated_rows and rank_one and larger


def _walk_reach(cx):
    """The faces `_walk` yields, each matroid link of rank 2 or more with
    the faces above it that `_matroid_up_set` writes from it, each once."""
    out = []
    for a, verts, circuits, dims in _walk(cx):
        if dims is None and circuits is not None:
            written = WriteOnce()
            _matroid_up_set(written, cx, a, verts, circuits)
            out += written
        else:
            out.append(a)
    return out


@pytest.mark.parametrize(
    "cx",
    [cx for n in range(1, 6) for cx in representatives(n)]
    + [uniform(n, k) for n in range(1, 9) for k in range(n + 1)],
)
def test_walk_and_hand_off_reach_each_link_once(cx):
    # a face in two or more facets is reached once, by the walk or by the
    # matroid up-set written from the matroid link below it, and no other face is
    reach = _walk_reach(cx)
    assert len(reach) == len(set(reach))
    assert set(reach) == _in_two_facets(cx)


def test_t1_table_threads_deterministic():
    cx = uniform(7, 3)  # 64 faces; threads is accepted and changes nothing
    assert t1_table(cx, threads=2) == t1_table(cx, threads=1)


def test_t1_table_lookup_and_iteration():
    t = t1_table(uniform(3, 2))
    assert t.dim([], [1, 2]) == 1
    assert t.dim(((), (1, 2))) == 1
    assert t.dim([1], [3]) == 0
    assert ([], [1, 2]) in t
    assert ([1], [3]) not in t
    assert len(t) == 7
    keys = list(t)
    assert keys == sorted(keys, key=lambda d: d.key())


def test_t1_table_validation():
    with pytest.raises(ValueError, match="duplicate"):
        T1Table(3, [(((), (1, 2)), 1), (((), (2, 1)), 2)])
    with pytest.raises(ValueError, match="positive"):
        T1Table(3, [(((), (1,)), 0)])
    with pytest.raises(ValueError, match="nonempty"):
        T1Table(3, [(((1,), ()), 1)])
    with pytest.raises(VertexRangeError, match="range"):
        T1Table(3, [(((), (4,)), 1)])
    # vertices follow `pack`: integers, not bools, in 1..n
    with pytest.raises(VertexRangeError, match="not an integer"):
        T1Table(3, [(((), (1.0, 2)), 1)])
    with pytest.raises(VertexRangeError, match="not an integer"):
        T1Table(3, [(((), (True,)), 1)])
    with pytest.raises(ValueError):
        T1Table(-1, [])


def test_non_integer_vertex_among_integers():
    # every vertex is checked before any two are compared, so a string
    # beside an integer is the same vertex fault as a string alone
    cx = uniform(3, 2)
    t = t1_table(cx)
    for A, b in (((), ("a",)), ((), (1, "a")), ((), ("a", 1)), ((1, "a"), (2,))):
        assert t.dim(A, b) == 0 and t.dim((A, b)) == 0
        assert (A, b) not in t
        with pytest.raises(VertexRangeError, match="'a' is not an integer"):
            dim_t1(cx, (A, b))
        with pytest.raises(VertexRangeError, match="'a' is not an integer"):
            dim_t1_matroid_formula(cx, (A, b))
        with pytest.raises(VertexRangeError, match="'a' is not an integer"):
            T1Table(3, {(A, b): 1})
    # an overlap of valid vertices is still a degree fault, not a miss
    with pytest.raises(ValueError, match="overlap at vertex 1"):
        t.dim((1, 2), (3, 1))
    with pytest.raises(ValueError, match="overlap at vertex 1"):
        dim_t1(cx, ((1, 2), (3, 1)))


def test_multidegree_checks_each_vertex_before_sorting():
    # `MultiDegree.make` raises `pack`'s fault for a vertex that is no
    # integer, alone or beside integers, before it sorts anything
    for A, b in (((), ("a",)), ((), (1, "a")), (("a", 1), ()), ((1,), (True,)), ((), (1.0,))):
        with pytest.raises(VertexRangeError, match="is not an integer"):
            MultiDegree.make(A, b)
    with pytest.raises(VertexRangeError) as made:
        MultiDegree.make([], [1, "a"])
    with pytest.raises(VertexRangeError) as packed:
        pack([1, "a"], 3)
    assert str(made.value) == str(packed.value) == "vertex 'a' is not an integer"
    assert MultiDegree.make((2, 1), iter([3])) == MultiDegree((1, 2), (3,))
    with pytest.raises(ValueError, match="overlap at vertex 2"):
        MultiDegree.make([2, 1], [2])


@pytest.mark.parametrize("threads", [0, True, "2"])
def test_t1_table_validates_threads(threads):
    # as `run_census` does, with `check_threads`
    with pytest.raises(ValueError, match="threads must be an integer"):
        t1_table(uniform(3, 2), threads=threads)


def test_t1_table_json_roundtrip():
    t = t1_table(uniform(4, 2))
    doc = t.to_json_dict()
    json.dumps(doc)
    assert T1Table.from_json_dict(doc) == t

    with pytest.raises(ValueError, match="'n'"):
        T1Table.from_json_dict({"entries": []})
    with pytest.raises(ValueError, match="'entries'"):
        T1Table.from_json_dict({"n": 3})
    with pytest.raises(ValueError, match="entries\\[0\\].dim"):
        T1Table.from_json_dict({"n": 3, "entries": [{"A": [], "b": [1]}]})
    with pytest.raises(ValueError, match="entries\\[1\\]"):
        T1Table.from_json_dict(
            {"n": 3, "entries": [{"A": [], "b": [1], "dim": 1},
                                 {"A": [2], "b": [2], "dim": 1}]}
        )


def test_t1_table_json_entry_faults():
    # the checks that follow an entry's vertices, with the messages they have always had
    def doc(*entries):
        return {"n": 3, "entries": list(entries)}

    cases = [
        (
            doc({"A": [], "b": [1, 2], "dim": 1}, {"A": [], "b": [2, 1], "dim": 2}),
            "key 'entries': entry MultiDegree(A=(), b=(1, 2)): duplicate degree",
        ),
        (
            doc({"A": [], "b": [1], "dim": 0}),
            "key 'entries': entry MultiDegree(A=(), b=(1,)): dimension must be a positive integer",
        ),
        (
            doc({"A": [], "b": [1], "dim": True}),
            "key 'entries': entry MultiDegree(A=(), b=(1,)): dimension must be a positive integer",
        ),
        (
            doc({"A": [1], "b": [], "dim": 1}),
            "key 'entries': entry MultiDegree(A=(1,), b=()): b must be nonempty",
        ),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError) as info:
            T1Table.from_json_dict(bad)
        assert type(info.value) is ValueError
        assert str(info.value) == message
    # a vertex fault in a later entry is reported before a dimension fault in an earlier one
    with pytest.raises(VertexRangeError, match="entries\\[1\\]"):
        T1Table.from_json_dict(doc({"A": [], "b": [1], "dim": 0}, {"A": [], "b": [4], "dim": 1}))


def test_t1_table_tsv():
    t = t1_table(SimplicialComplex.from_facets(3, [[1, 3], [2, 3]]))
    assert t.to_tsv() == "A\tb\tdim\n\t1,2\t1\n3\t1,2\t1\n"


def test_t1_table_pickle_and_eq():
    t = t1_table(uniform(3, 2))
    assert pickle.loads(pickle.dumps(t)) == t
    assert t != T1Table(3, [])
    assert t != "not a table"
    assert hash(t) == hash(t1_table(uniform(3, 2)))


def test_t1_table_contract():
    # the table keeps mask groups in no order; every public view of it sorts
    # and decodes them, and every checking constructor rebuilds the same
    # rows from that view, as does `_of_groups` from the groups in any order
    cases = [cx for n in range(1, 6) for cx in representatives(n)]
    cases += [uniform(n, k) for n in range(1, 9) for k in range(n + 1)]
    rng = random.Random(16)
    nonempty = 0
    for cx in cases:
        t = t1_table(cx)
        shuffled = [(a, list(group.items())) for a, group in t._groups.items()]
        rng.shuffle(shuffled)
        for _, rows in shuffled:
            rng.shuffle(rows)
        unordered = [
            T1Table._of_groups(t.n, {a: dict(rows) for a, rows in shuffled}),
            T1Table._of_groups(t.n, {a: dict(reversed(rows)) for a, rows in reversed(shuffled)}),
        ]
        copies = [
            T1Table(t.n, t.items()),
            T1Table(t.n, dict(t.items())),
            T1Table.from_json_dict(t.to_json_dict()),
            pickle.loads(pickle.dumps(t)),
        ] + unordered
        for copy in copies:
            assert copy == t, cx
            assert hash(copy) == hash(t), cx
            assert list(copy.items()) == list(t.items()), cx
        for copy in unordered:
            assert list(copy) == list(t), cx
            assert repr(copy) == repr(t), cx
            assert json.dumps(copy.to_json_dict()) == json.dumps(t.to_json_dict()), cx
            assert copy.to_tsv() == t.to_tsv(), cx
        keys = list(t)
        assert keys == sorted(keys, key=MultiDegree.key), cx
        assert keys == list(t.keys()) == [d for d, _ in t.items()], cx
        assert len(t) == len(keys)
        for d, dim in t.items():
            assert t.dim(d) == t.dim(d.A, d.b) == dim and d in t
        # 1.0 and True equal the vertex 1 but are refused, as `pack` refuses them
        outside = [([], [t.n + 1]), ([0], [1]), ([-1], [1]), ([t.n + 1], [1])]
        outside += [([], [1.0]), ([], [True]), ([1.0], [2]), ([True], [2])]
        if keys:
            nonempty += 1
            outside += [(keys[0].A + (t.n + 1,), keys[0].b), (keys[0].A, keys[0].b + (0,))]
            outside += [(keys[0].A, tuple(map(float, keys[0].b)))]
        for A, b in outside:
            assert t.dim(A, b) == 0 and (A, b) not in t, (cx, A, b)
    assert nonempty > 200


def test_t1_table_ground_beyond_max_ground():
    # a table's ground is not bounded by the 64 vertices of a complex; its
    # rows still take the canonical order
    entries = [(((), (70,)), 1), (((2,), (1, 69)), 2), (((), (1, 69)), 3), (((), (3,)), 4)]
    t = T1Table(70, entries)
    assert list(t) == sorted((MultiDegree.make(*k) for k, _ in entries), key=MultiDegree.key)
    assert T1Table.from_json_dict(t.to_json_dict()) == t
    assert pickle.loads(pickle.dumps(t)) == t
    assert t.dim([2], [69, 1]) == 2 and t.dim([], [71]) == 0


# -- bijection ---------------------------------------------------------------------


def test_bijection_check_golden():
    assert bijection_check(uniform(4, 3), [], [1, 2])
    assert bijection_check(uniform(3, 2), [], [1])
    assert bijection_check(uniform(5, 2), [1], [2])


def test_bijection_check_preconditions():
    with pytest.raises(NotAMatroidError):
        bijection_check(REMARK, [], [4])
    with pytest.raises(ValueError, match="face"):
        bijection_check(uniform(3, 1), [1, 2], [3])
    with pytest.raises(ValueError, match="^A and b must be disjoint$"):
        bijection_check(uniform(3, 2), [1], [1])
    with pytest.raises(ValueError, match="link"):
        bijection_check(uniform(3, 1), [1], [2, 3])
    with pytest.raises(ValueError, match="contained in or disjoint"):
        bijection_check(uniform(4, 2), [], [1, 2])
