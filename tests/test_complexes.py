import itertools
import json
import pickle
import random

import pytest

from srt1.complexes import (
    MAX_GROUND,
    _minimal_nonfaces,
    _order_key,
    MAX_NONFACE_GROUND,
    SimplicialComplex,
    VertexRangeError,
    VoidComplexError,
    boundary_simplex,
    maximal_masks,
    pack,
    sort_key,
    submasks,
    unpack,
)

from _census_reps import representatives
from _oracles import close_down, faces_of, naive_link, naive_minimal_nonfaces, powerset


def test_pack_unpack_roundtrip():
    assert pack([1, 3, 5], 5) == 0b10101
    assert unpack(0b10101) == (1, 3, 5)
    assert pack([], 4) == 0
    assert unpack(0) == ()
    for mask in range(64):
        assert pack(unpack(mask), 6) == mask


def test_pack_validates():
    with pytest.raises(VertexRangeError):
        pack([0], 3)
    with pytest.raises(VertexRangeError):
        pack([4], 3)
    with pytest.raises(VertexRangeError):
        pack([True], 3)
    with pytest.raises(VertexRangeError):
        pack(["2"], 3)


def test_sort_key_orders_by_size_then_lex():
    masks = [0b111, 0b1, 0b110, 0b10, 0b11]
    assert [unpack(m) for m in sorted(masks, key=sort_key)] == [
        (1,),
        (2,),
        (1, 2),
        (2, 3),
        (1, 2, 3),
    ]
    # one order key for every ground size, a table's beyond MAX_GROUND too;
    # sort_key is its MAX_GROUND case, whose values are the reversed bit string
    rng = random.Random(7)
    for n in (1, 7, 8, 9, 64, 65, 70):
        key = _order_key(n)
        full = (1 << n) - 1
        masks = {0, full} | {rng.getrandbits(n) & rng.getrandbits(n) for _ in range(300)}
        masks |= {1 << rng.randrange(n) for _ in range(20)}
        want = sorted(masks, key=lambda m: (m.bit_count(), unpack(m)))
        assert sorted(masks, key=key) == want, n
        if n == MAX_GROUND:
            for m in masks:
                reversed_mask = int(f"{m:0{n}b}"[::-1], 2)
                assert sort_key(m) == key(m) == (m.bit_count() << n) - reversed_mask


def test_submasks_enumerates_all_subsets():
    got = set(submasks(0b1011))
    want = {
        pack(s, 4)
        for s in powerset([1, 2, 4])
    }
    assert got == want
    assert list(submasks(0)) == [0]


def test_maximal_masks():
    assert maximal_masks([0b1, 0b11, 0b10]) == [0b11]
    assert maximal_masks([]) == []
    assert maximal_masks([0b101, 0b11]) == [0b11, 0b101]
    # idempotent on an antichain
    assert maximal_masks([0b11, 0b101]) == [0b11, 0b101]


def _naive_maximal(masks, n):
    """The inclusion-maximal members, by comparing every pair of sets."""
    sets = {frozenset(unpack(m)) for m in masks}
    return sorted((pack(s, n) for s in sets if not any(s < t for t in sets)), key=sort_key)


def _random_families(seed):
    """Duplicated, mixed-size and one-size families on up to 10 vertices."""
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    full = (1 << n) - 1
    mixed = [rng.randint(0, full) for _ in range(rng.randint(0, 40))]
    k = rng.randint(0, n)
    one_size = [pack(rng.sample(range(1, n + 1), k), n) for _ in range(rng.randint(1, 30))]
    return n, [mixed, mixed + mixed[: len(mixed) // 2], one_size, one_size + [0], one_size + mixed]


def test_maximal_masks_against_naive_filter():
    cases = []
    for cx in (cx for m in range(1, 6) for cx in representatives(m)):
        faces = sorted(cx.face_masks())
        circuits = cx.minimal_nonface_masks()
        cases += [(cx.n, faces), (cx.n, list(cx.facet_masks)), (cx.n, faces + circuits)]
        assert maximal_masks(faces) == list(cx.facet_masks)
    for seed in range(40):
        n, families = _random_families(seed)
        cases += [(n, family) for family in families]
    for n, family in cases:
        assert maximal_masks(family) == _naive_maximal(family, n), (n, family)
        assert maximal_masks(reversed(family)) == maximal_masks(family)
    # the largest one-size family is the 924 bases of U(12,6): all kept
    bases = [pack(c, 12) for c in itertools.combinations(range(1, 13), 6)]
    assert maximal_masks(bases) == sorted(bases, key=sort_key)


def test_minimal_nonface_masks_against_oracle():
    for cx in (cx for n in range(1, 6) for cx in representatives(n)):
        got = [unpack(m) for m in sorted(_minimal_nonfaces(cx.face_masks(), cx.n), key=sort_key)]
        want = naive_minimal_nonfaces(faces_of(cx), range(1, cx.n + 1))
        assert got == sorted((tuple(sorted(s)) for s in want), key=lambda t: (len(t), t)), cx


def test_minimal_nonface_masks_void_family():
    assert sorted(_minimal_nonfaces(frozenset(), 3), key=sort_key) == [0]
    assert sorted(_minimal_nonfaces(frozenset(), 0), key=sort_key) == [0]


def test_minimal_nonface_masks_empty_set_only():
    assert sorted(_minimal_nonfaces(frozenset({0}), 3), key=sort_key) == [0b001, 0b010, 0b100]


def test_minimal_nonface_masks_link_misses_vertices():
    # the link of vertex 1 in the cone 1 * (2-3 edge, 4) covers only 2, 3, 4;
    # 1 and 5 are the singleton nonfaces, {2, 4} and {3, 4} the others
    cx = SimplicialComplex.from_facets(5, [[1, 2, 3], [1, 4]])
    link = cx.link([1])
    assert link.vertices() == (2, 3, 4)
    got = [unpack(m) for m in sorted(_minimal_nonfaces(link.face_masks(), 5), key=sort_key)]
    assert got == [(1,), (5,), (2, 4), (3, 4)]


def test_from_facets_absorbs_subsets():
    cx = SimplicialComplex.from_facets(3, [[1], [1, 2], [2], [3]])
    assert cx.facets == ((3,), (1, 2))


def test_from_facets_empty_is_irrelevant_complex():
    cx = SimplicialComplex.from_facets(2, [])
    assert cx.facets == ((),)
    assert not cx.is_void
    assert cx.faces() == [()]
    assert cx.vertices() == ()


def test_void_complex():
    v = SimplicialComplex.void(3)
    assert v.is_void
    assert v.facets == ()
    assert v.face_masks() == frozenset()
    assert not v.is_face([])
    with pytest.raises(VoidComplexError):
        v.rank_of([1])
    with pytest.raises(VoidComplexError):
        _ = v.rank
    with pytest.raises(VoidComplexError):
        v.minimal_nonfaces()
    with pytest.raises(VoidComplexError):
        v.loops_and_coloops()


def test_ground_size_validation():
    with pytest.raises(VertexRangeError):
        SimplicialComplex.from_facets(-1, [])
    with pytest.raises(VertexRangeError):
        SimplicialComplex.from_facets(MAX_GROUND + 1, [])
    with pytest.raises(VertexRangeError):
        SimplicialComplex.from_facets(2, [[3]])
    # the cap itself is fine
    cx = SimplicialComplex.from_facets(MAX_GROUND, [[MAX_GROUND]])
    assert cx.is_face([MAX_GROUND])


@pytest.mark.parametrize("mask", [-1, -8, 8, 1 << 64, True, False, 1.0, "1"])
def test_constructor_rejects_facet_masks_outside_the_ground(mask):
    # a mask is checked before it is decoded: unpacking a negative int
    # never ends, and a bool is no mask, as it is no vertex for `pack`
    with pytest.raises(VertexRangeError):
        SimplicialComplex(3, [0b101, mask])
    assert SimplicialComplex(3, [0b111]).facets == ((1, 2, 3),)


def test_zero_ground():
    cx = SimplicialComplex.from_facets(0, [])
    assert cx.faces() == [()]
    assert cx.rank == 0
    assert cx.minimal_nonfaces() == []


def test_immutability_and_hash():
    cx = SimplicialComplex.from_facets(3, [[1, 2]])
    with pytest.raises(AttributeError):
        cx.n = 5
    d = {cx: 1}
    assert d[SimplicialComplex.from_facets(3, [[1, 2], [1]])] == 1
    assert cx != SimplicialComplex.from_facets(4, [[1, 2]])
    assert cx != "not a complex"


def test_pickle_roundtrip():
    cx = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    cx.face_masks()  # populate cache; must not leak into the pickle
    back = pickle.loads(pickle.dumps(cx))
    assert back == cx
    assert pickle.loads(pickle.dumps(SimplicialComplex.void(2))).is_void


def test_faces_sorted_canonically():
    cx = SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
    assert cx.faces() == [(), (1,), (2,), (3,), (1, 2), (2, 3)]


def test_minimal_nonfaces_known():
    cx = SimplicialComplex.from_minimal_nonfaces(
        5, [[1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5]]
    )
    assert cx.facets == ((1, 4), (1, 5), (2, 3), (2, 4, 5), (3, 4, 5))
    assert cx.minimal_nonfaces() == [(1, 2), (1, 3), (1, 4, 5), (2, 3, 4), (2, 3, 5)]


def test_from_minimal_nonfaces_rejects_empty_set():
    with pytest.raises(ValueError):
        SimplicialComplex.from_minimal_nonfaces(2, [[]])


def test_from_minimal_nonfaces_rejects_ground_past_limit():
    # the faces come from a 2^n sweep, so this must fail before sweeping
    with pytest.raises(VertexRangeError, match=f"exceeds limit {MAX_NONFACE_GROUND}"):
        SimplicialComplex.from_minimal_nonfaces(MAX_NONFACE_GROUND + 1, [[1, 2]])


@pytest.mark.parametrize("n", [-1, 1.5, True, "3", None])
def test_from_minimal_nonfaces_checks_the_ground_size_first(n):
    # as the constructor does, before the sweep shifts by n
    with pytest.raises(VertexRangeError, match="must be a nonnegative integer"):
        SimplicialComplex.from_minimal_nonfaces(n, [])


def test_nonface_duality_small():
    # rebuilding from the computed minimal nonfaces gives the complex back,
    # over every complex on 3 vertices
    for bits in range(1 << 7):
        facets = [unpack(m) for m in range(1, 8) if bits >> (m - 1) & 1]
        cx = SimplicialComplex.from_facets(3, facets)
        again = SimplicialComplex.from_minimal_nonfaces(3, cx.minimal_nonfaces())
        assert again == cx


def test_rank_and_loops_coloops():
    cx = SimplicialComplex.from_facets(4, [[1, 2], [1, 3]])
    assert cx.rank == 2
    assert cx.rank_of([2, 3, 4]) == 1
    assert cx.rank_of([4]) == 0
    loops, coloops = cx.loops_and_coloops()
    assert loops == (4,)
    assert coloops == (1,)


def test_link_against_oracle():
    cx = SimplicialComplex.from_facets(4, [[1, 2, 3], [2, 3, 4], [1, 4]])
    for A in powerset([1, 2, 3, 4]):
        lk = cx.link(A)
        want = {frozenset(f) for f in naive_link(faces_of(cx), A)}
        if cx.is_face(A):
            assert {frozenset(f) for f in close_down(lk.facets)} == want
        else:
            assert lk.is_void
            assert want == set()


def test_link_of_vertex():
    cx = SimplicialComplex.from_facets(3, [[1, 2], [1, 3]])
    assert cx.link([1]).facets == ((2,), (3,))
    assert cx.link([2]).facets == ((1,),)
    assert cx.link([]) == cx


def test_restrict_delete():
    cx = SimplicialComplex.from_facets(5, [[1, 4], [1, 5], [2, 3], [2, 4, 5], [3, 4, 5]])
    assert cx.delete([4, 5]).facets == ((1,), (2, 3))
    assert cx.restrict([1, 2, 3]).facets == ((1,), (2, 3))
    # restriction keeps the ground size
    assert cx.restrict([1]).n == 5


def test_join_shifts_ground():
    a = SimplicialComplex.from_facets(2, [[1], [2]])
    b = SimplicialComplex.from_facets(1, [[1]])
    j = a * b
    assert j.n == 3
    assert j.facets == ((1, 3), (2, 3))
    assert a.join(SimplicialComplex.from_facets(0, [])) == a
    assert (a * SimplicialComplex.void(1)).is_void
    with pytest.raises(VertexRangeError, match="^joined ground size 70 exceeds limit 64$"):
        SimplicialComplex.from_facets(40, [[1]]).join(SimplicialComplex.from_facets(30, [[1]]))


def test_join_with_irrelevant_complex_adds_loops():
    a = SimplicialComplex.from_facets(1, [[1]])
    loops = SimplicialComplex.from_facets(2, [])
    j = a * loops
    assert j.n == 3
    assert j.facets == ((1,),)
    assert j.loops_and_coloops() == ((2, 3), (1,))


def test_json_roundtrip_and_errors():
    cx = SimplicialComplex.from_facets(3, [[1, 2], [3]])
    assert SimplicialComplex.from_json_dict(cx.to_json_dict()) == cx
    assert SimplicialComplex.from_json_dict(
        {"n": 3, "minimal_nonfaces": [[1, 3], [2, 3]]}
    ) == cx

    with pytest.raises(ValueError, match="'n'"):
        SimplicialComplex.from_json_dict({"facets": []})
    with pytest.raises(ValueError, match="'facets'"):
        SimplicialComplex.from_json_dict({"n": 2})
    with pytest.raises(ValueError, match="mutually exclusive"):
        SimplicialComplex.from_json_dict(
            {"n": 2, "facets": [], "minimal_nonfaces": []}
        )
    with pytest.raises(ValueError, match="'facets'"):
        SimplicialComplex.from_json_dict({"n": 2, "facets": [[1], "x"]})
    with pytest.raises(ValueError, match="'minimal_nonfaces'"):
        SimplicialComplex.from_json_dict({"n": 2, "minimal_nonfaces": [[]]})
    # json dict stays plain-JSON serializable
    json.dumps(cx.to_json_dict())


def test_boundary_simplex():
    bd = boundary_simplex([1, 2, 3])
    assert bd.n == 3
    assert bd.facets == ((1, 2), (1, 3), (2, 3))
    assert not bd.is_face([1, 2, 3])
    wide = boundary_simplex([2, 4], n=5)
    assert wide.n == 5
    assert wide.facets == ((2,), (4,))
    assert boundary_simplex([3]).facets == ((),)
    with pytest.raises(ValueError):
        boundary_simplex([])


def test_repr_mentions_shape():
    assert "void" in repr(SimplicialComplex.void(2))
    assert "facets" in repr(SimplicialComplex.from_facets(2, [[1]]))
