import pytest

from srt1.complexes import SimplicialComplex, VoidComplexError, pack, unpack
from srt1.cotangent import MultiDegree, _isolated_circuits, dim_t1
from srt1.definition import _formula_on_link, dim_t1_matroid_formula
from srt1.matroids import is_matroid_exchange, uniform
from srt1.recognition import Discrepancy, formula_discrepancies, is_matroid_via_t1

from _census_reps import representatives
from _oracles import faces_of, naive_link, naive_minimal_nonfaces, powerset, subset_scan_discrepancies

REMARK = SimplicialComplex.from_minimal_nonfaces(
    5, [[1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5]]
)


def all_complexes(n):
    masks = list(range(1, 1 << n))
    for bits in range(1 << len(masks)):
        chosen = [unpack(masks[i]) for i in range(len(masks)) if bits >> i & 1]
        yield SimplicialComplex.from_facets(n, chosen)


def test_recognizes_matroids():
    assert is_matroid_via_t1(uniform(4, 2))
    assert is_matroid_via_t1(uniform(3, 3))
    assert is_matroid_via_t1(SimplicialComplex.from_facets(2, []))  # U(2,0)
    assert is_matroid_via_t1(SimplicialComplex.from_facets(3, [[1, 3], [2, 3]]))


def test_rejects_remark_complex():
    assert not is_matroid_via_t1(REMARK)


def test_rejects_simple_nonmatroid():
    assert not is_matroid_via_t1(SimplicialComplex.from_facets(3, [[1, 2], [3]]))


def test_void_rejected():
    with pytest.raises(VoidComplexError):
        is_matroid_via_t1(SimplicialComplex.void(2))
    with pytest.raises(VoidComplexError):
        formula_discrepancies(SimplicialComplex.void(2))


def test_discrepancies_empty_for_matroids():
    assert formula_discrepancies(uniform(3, 1)) == []
    assert formula_discrepancies(uniform(4, 2)) == []


def test_discrepancies_remark_contains_vertex_one():
    ds = formula_discrepancies(REMARK)
    assert ds
    assert Discrepancy(MultiDegree((), (1,)), 0, 2) in ds
    # report is sorted by degree
    keys = [d.degree.key() for d in ds]
    assert keys == sorted(keys)


def test_discrepancies_match_pointwise_recomputation():
    ds = formula_discrepancies(REMARK)
    for d in ds:
        assert d.graph_dim == dim_t1(REMARK, d.degree)
        assert d.graph_dim != d.formula_dim
    # the scan misses nothing at singleton degrees: cross-check via the corollary
    flagged = {d.degree for d in ds}
    for v in range(1, 6):
        degree = MultiDegree.make([], [v])
        through = sum(1 for c in REMARK.minimal_nonfaces() if v in c)
        formula = max(through - 1, 0)
        if dim_t1(REMARK, degree) != formula:
            assert degree in flagged


def test_nonmatroid_always_has_discrepancy():
    assert formula_discrepancies(SimplicialComplex.from_facets(3, [[1, 2], [3]]))


def test_agreement_with_exchange_n3():
    for cx in all_complexes(3):
        want = is_matroid_exchange(cx)
        assert is_matroid_via_t1(cx) == want, cx.facets
        assert (formula_discrepancies(cx) == []) == want, cx.facets


def test_formula_dim_column_matches_matroid_formula_on_matroids():
    # on a matroid the scan reports nothing, so compare the two closed forms directly
    m = uniform(4, 2)
    for A in [(), (1,), (2,)]:
        for b in [(3,), (3, 4), (1, 3)] if A != (1,) else [(3,), (3, 4)]:
            if set(A) & set(b):
                continue
            d = MultiDegree.make(A, b)
            assert dim_t1_matroid_formula(m, d) == dim_t1(m, d)


def test_singleton_discrepancies_point_one_way():
    # wherever a singleton degree disagrees, the graph count sits below the formula
    seen = 0
    for cx in all_complexes(3):
        for d in formula_discrepancies(cx):
            if len(d.degree.b) == 1:
                seen += 1
                assert d.graph_dim < d.formula_dim, (cx.facets, d)
    assert seen > 0


def test_nonface_degrees_follow_isolated_circuits():
    # at a nonface b within the link's vertices both sides are 1 exactly when
    # b is an isolated circuit of the link with |b| > 1, so skipping nonfaces
    # loses no discrepancy
    checked = isolated = 0
    for cx in (cx for n in range(1, 6) for cx in representatives(n)):
        faces = faces_of(cx)
        for A in faces:
            link = naive_link(faces, A)
            verts = {v for f in link for v in f}
            circuits = naive_minimal_nonfaces(link, verts)
            link_circuits = cx.link(A).minimal_nonface_masks()
            for b in map(frozenset, powerset(verts)):
                if b in link:
                    continue
                want = int(len(b) > 1 and b in circuits and not any(c != b and c & b for c in circuits))
                assert dim_t1(cx, (A, b)) == want, (cx, A, b)
                assert _formula_on_link(link_circuits, pack(b, cx.n)) == want, (cx, A, b)
                checked += 1
                isolated += want
        for (A, b), _, _ in subset_scan_discrepancies(cx):
            assert frozenset(b) in naive_link(faces, A), (cx, A, b)
    assert (checked, isolated) == (7983, 694)


def test_discrepancies_skip_isolated_circuits():
    # both sides are 1 at an isolated circuit of a link, so no discrepancy
    # is reported there, in particular on the links that fail the test
    reached = checked = 0
    for n in range(1, 6):
        for cx in representatives(n):
            found = {(pack(d.degree.A, n), pack(d.degree.b, n)) for d in formula_discrepancies(cx)}
            degrees = [
                (a, c)
                for a in cx.face_masks()
                for c in _isolated_circuits(cx.link_mask(a).minimal_nonface_masks())
            ]
            for degree in degrees:
                assert degree not in found, (cx, unpack(degree[0]), unpack(degree[1]))
            if found:
                reached += bool(degrees)
                checked += len(degrees)
    assert reached and checked
