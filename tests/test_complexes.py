import itertools
import json
import pickle
import random
import time

import pytest

from srt1 import complexes
from srt1.matroids import is_matroid_circuit_elimination
from srt1.complexes import (
    MAX_GROUND,
    _CUBE_GROUND,
    _cube_circuits,
    _faces_of,
    _decoder,
    _minimal_nonfaces,
    _order_key,
    MAX_NONFACE_GROUND,
    SimplicialComplex,
    VertexRangeError,
    VoidComplexError,
    boundary_simplex,
    maximal_masks,
    pack,
    submasks,
    unpack,
)

from _census_reps import representatives
from _oracles import (
    close_down,
    faces_of,
    naive_link,
    naive_minimal_nonfaces,
    powerset,
    sweep_facets_of_nonfaces,
    sweep_minimal_nonfaces,
)


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
    assert [unpack(m) for m in sorted(masks, key=_order_key(MAX_GROUND))] == [
        (1,),
        (2,),
        (1, 2),
        (2, 3),
        (1, 2, 3),
    ]
    # one order key for every ground size, a table's beyond MAX_GROUND too;
    # at MAX_GROUND its values are the reversed bit string
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
                assert key(m) == (m.bit_count() << n) - reversed_mask



def test_two_byte_key_and_decoder_at_every_mask():
    # 9 to 16 vertices: the key is two table lookups whose sum is the key of
    # the packed bytes, the size above 16 bits less the reversed bit string,
    # and the decoder is two lookups that agree with `unpack`
    key, decode = _order_key(16), _decoder(16)
    for m in range(1 << 16):
        assert key(m) == (m.bit_count() << 16) - int(f"{m:016b}"[::-1], 2), m
        assert decode(m) == unpack(m), m


def test_one_key_and_one_decoder_per_byte_width():
    # each width's rules are made once, so the two-byte tables are built once
    for widths in (range(0, 1), range(1, 9), range(9, 17), range(17, 25), range(57, 65)):
        assert len({id(_order_key(n)) for n in widths}) == 1, widths
        assert len({id(_decoder(n)) for n in widths}) == 1, widths
    assert _order_key(16) is not _order_key(8) and _order_key(16) is not _order_key(17)
    # only 9 to 16 vertices decode by tables; every other width by `unpack`
    assert all(_decoder(n) is unpack for n in (0, 1, 8, 17, 64, 70))
    assert _decoder(9) is not unpack

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
    return sorted((pack(s, n) for s in sets if not any(s < t for t in sets)), key=_order_key(n))


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
    assert maximal_masks(bases) == sorted(bases, key=_order_key(12))


def test_minimal_nonface_masks_against_oracle():
    for cx in (cx for n in range(1, 6) for cx in representatives(n)):
        circuits = _minimal_nonfaces(cx.face_masks(), cx.n)
        got = [unpack(m) for m in sorted(circuits, key=_order_key(cx.n))]
        want = naive_minimal_nonfaces(faces_of(cx), range(1, cx.n + 1))
        assert got == sorted((tuple(sorted(s)) for s in want), key=lambda t: (len(t), t)), cx


def test_minimal_nonface_masks_void_family():
    assert sorted(_minimal_nonfaces(frozenset(), 3), key=_order_key(3)) == [0]
    assert sorted(_minimal_nonfaces(frozenset(), 0), key=_order_key(0)) == [0]
    assert _cube_circuits([], 3) == _cube_circuits([], 0) == [0]


def test_minimal_nonface_masks_empty_set_only():
    assert sorted(_minimal_nonfaces(frozenset({0}), 3), key=_order_key(3)) == [0b001, 0b010, 0b100]
    assert _cube_circuits([0], 3) == [0b001, 0b010, 0b100]
    assert _cube_circuits([0], 0) == []


def _random_cube_cases(n, seed):
    """Seeded facet lists on n vertices: random masks, some of them
    missing a few vertices that are then loops, with {emptyset} first."""
    rng = random.Random(seed)
    cases = [[0]]
    for _ in range(12):
        ground = (1 << n) - 1
        if n and rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                ground &= ~(1 << rng.randrange(n))
        cases.append([rng.getrandbits(n) & ground for _ in range(rng.randint(1, 2 * n + 1))])
    return cases


@pytest.mark.parametrize("n", range(_CUBE_GROUND + 1))
def test_cube_circuits_are_the_sweep_and_the_definition(n):
    # the face cube's circuits, ascending, against the sweep over the face
    # set at every n up to the bound, and against the definition over
    # frozensets where its powerset is small; the census classes too
    cases = _random_cube_cases(n, seed=1000 + n)
    if 1 <= n <= 5:
        cases += [list(cx.facet_masks) for cx in representatives(n)]
    for facets in cases:
        got = _cube_circuits(facets, n)
        assert got == sorted(_minimal_nonfaces(_faces_of(facets), n)), (n, facets)
        if n <= 8:
            faces = close_down(unpack(f) for f in facets)
            want = naive_minimal_nonfaces(faces, range(1, n + 1))
            assert sorted(map(unpack, got)) == sorted(tuple(sorted(c)) for c in want), (n, facets)


@pytest.mark.parametrize("n", [_CUBE_GROUND, _CUBE_GROUND + 1])
def test_public_minimal_nonfaces_on_both_sides_of_the_cube_bound(n):
    # off the face cube at n = 12, by the sweep at n = 13, each against the
    # oracle's sweep over all 2^n masks
    rng = random.Random(n)
    for _ in range(4):
        facets = [rng.sample(range(1, n + 1), rng.randint(1, 5)) for _ in range(rng.randint(2, 8))]
        cx = SimplicialComplex.from_facets(n, facets)
        want = sweep_minimal_nonfaces(cx.face_masks(), n)
        assert cx.minimal_nonface_masks() == sorted(want, key=_order_key(n)), cx


@pytest.mark.parametrize("n", [4, 8, _CUBE_GROUND, _CUBE_GROUND + 1, 16])
def test_circuits_build_a_face_set_and_sweep_only_past_the_cube_bound(monkeypatch, n):
    # a complex of rank 3 or more on at most 12 vertices reads its circuits
    # off the face cube, with no face set and no sweep; past that, one face
    # set and one sweep
    built, swept = [], []
    real_faces, real_sweep = complexes._faces_of, complexes._minimal_nonfaces
    monkeypatch.setattr(complexes, "_faces_of", lambda facets: built.append(1) or real_faces(facets))
    monkeypatch.setattr(
        complexes, "_minimal_nonfaces", lambda *args: swept.append(1) or real_sweep(*args)
    )
    cx = SimplicialComplex.from_facets(n, [range(1, n), [1, n], range(2, n + 1)])
    assert cx.rank >= 3
    cx.minimal_nonfaces()
    cx.minimal_nonfaces()
    past = n > _CUBE_GROUND
    assert (built, swept) == ([1] * past, [1] * past)
    assert (cx._faces is None) is not past


def test_minimal_nonface_masks_link_misses_vertices():
    # the link of vertex 1 in the cone 1 * (2-3 edge, 4) covers only 2, 3, 4;
    # 1 and 5 are the singleton nonfaces, {2, 4} and {3, 4} the others
    cx = SimplicialComplex.from_facets(5, [[1, 2, 3], [1, 4]])
    link = cx.link([1])
    assert link.vertices() == (2, 3, 4)
    got = [unpack(m) for m in sorted(_minimal_nonfaces(link.face_masks(), 5), key=_order_key(5))]
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


@pytest.mark.parametrize(
    "n, facets, message",
    [
        ("5", [[1]], "ground size '5' must be a nonnegative integer"),
        (None, [[1]], "ground size None must be a nonnegative integer"),
        (-1, [[1]], "ground size -1 must be a nonnegative integer"),
        (-1, [], "ground size -1 must be a nonnegative integer"),
        (1.5, [[1]], "ground size 1.5 must be a nonnegative integer"),
        (True, [[1]], "ground size True must be a nonnegative integer"),
        (MAX_GROUND + 1, [[70]], f"ground size {MAX_GROUND + 1} exceeds limit {MAX_GROUND}"),
    ],
)
def test_from_facets_checks_the_ground_size_first(n, facets, message):
    # the same fault whatever the facets are, and before any is packed
    def never_packed():
        raise AssertionError("a facet was read before the ground size was checked")
        yield

    with pytest.raises(VertexRangeError) as exc:
        SimplicialComplex.from_facets(n, facets)
    assert str(exc.value) == message
    with pytest.raises(VertexRangeError) as exc:
        SimplicialComplex.from_facets(n, never_packed())
    assert str(exc.value) == message


class _Vertex(int):
    """An int subclass, which `pack` accepts as a vertex."""


def _old_build(n, facets):
    """The build before the one-pass packing: `pack` per facet, then the
    checking constructor."""
    return SimplicialComplex(n, [pack(f, n) for f in facets] or [0])


def _outcome(build, n, facets):
    try:
        return build(n, facets).facet_masks
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _random_facet_lists(seed):
    """Facet lists with duplicate facets, duplicate vertices, non-maximal
    facets and empty facets, on up to 12 vertices."""
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    facets = []
    for _ in range(rng.randint(0, 12)):
        f = [rng.randint(1, n) for _ in range(rng.randint(0, n))] if n else []
        facets.append(f)
        if f and rng.random() < 0.3:
            facets.append(f[: len(f) // 2])  # a subset, absorbed
        if rng.random() < 0.2:
            facets.append(list(reversed(f)))  # a duplicate
        if rng.random() < 0.1:
            facets.append([])
    rng.shuffle(facets)
    return n, facets


def test_the_fast_build_is_the_old_build():
    # `from_facets` against `pack` per facet and the checking constructor
    cases = [(cx.n, cx.facets) for m in range(6) for cx in representatives(m)]
    cases += [_random_facet_lists(seed) for seed in range(300)]
    for n, facets in cases:
        assert _outcome(SimplicialComplex.from_facets, n, facets) == _outcome(
            _old_build, n, facets
        ), (n, facets)
    # each bad vertex kind, put into a random facet, with a second bad vertex
    # later in facet order: the first is the one named
    rng = random.Random(11)
    spoiled_cases = 0
    for n, facets in (_random_facet_lists(seed) for seed in range(40)):
        if not n or not facets:
            continue
        for bad in (True, 1.0, "1", 0, n + 1, -1):
            spoiled = [list(f) for f in facets]
            i = rng.randrange(len(spoiled))
            spoiled[i].insert(rng.randint(0, len(spoiled[i])), bad)
            spoiled.append([n + 2, "x"])
            if isinstance(bad, int) and not isinstance(bad, bool):
                message = f"vertex {bad} out of range 1..{n}"
            else:
                message = f"vertex {bad!r} is not an integer"
            got = _outcome(SimplicialComplex.from_facets, n, spoiled)
            assert got == (VertexRangeError, message), (n, spoiled)
            assert got == _outcome(_old_build, n, spoiled), (n, spoiled)
            spoiled_cases += 1
    assert spoiled_cases > 100
    # int subclass vertices are accepted and packed as ints
    facets = [[_Vertex(1), _Vertex(3)], [2, _Vertex(5)], [_Vertex(1)]]
    assert _outcome(SimplicialComplex.from_facets, 5, facets) == _outcome(_old_build, 5, facets)
    assert SimplicialComplex.from_facets(5, facets).facets == ((1, 3), (2, 5))
    # the canonical order of `maximal_masks` and the public views: every mask
    # below 2^10 at each ground size that holds it (n <= 8 is the one-byte
    # lookup), and seeded masks at every width up to 64
    for n in range(11):
        masks = list(range(1 << n))
        assert sorted(masks, key=_order_key(n)) == sorted(masks, key=_order_key(MAX_GROUND)), n
    for n in range(1, MAX_GROUND + 1):
        masks = [rng.getrandbits(n) for _ in range(60)] + [0, (1 << n) - 1]
        assert sorted(masks, key=_order_key(n)) == sorted(masks, key=_order_key(MAX_GROUND)), n
    # the inline face walk: the void complex still has no faces
    for n in (0, 1, 5, MAX_GROUND):
        assert SimplicialComplex.void(n).face_masks() == frozenset()
    assert _faces_of([]) == frozenset()
    assert _faces_of([0]) == frozenset({0})


def _random_graph(seed):
    """A complex of dimension at most 1 with loops and isolated vertices."""
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    verts = rng.sample(range(1, n + 1), rng.randint(0, n))  # the rest are loops
    edges = [list(e) for e in itertools.combinations(verts, 2) if rng.random() < 0.45]
    isolated = [[v] for v in verts if rng.random() < 0.3]
    return SimplicialComplex.from_facets(n, edges + isolated)


def test_graph_circuits_are_the_sweep():
    # the circuits of a complex of dimension <= 1 come off its adjacency,
    # with no face set; the sweep over its faces gives the same family
    cases = [cx for m in range(1, 6) for cx in representatives(m) if cx.rank <= 2]
    cases += [_random_graph(seed) for seed in range(200)]
    cases += [SimplicialComplex.from_facets(n, []) for n in (0, 1, 3, 6, MAX_GROUND)]
    for cx in cases:
        cx = SimplicialComplex(cx.n, cx.facet_masks)  # no cache carried over
        got = sorted(cx._circuit_masks())
        assert cx._faces is None, cx
        assert got == sorted(_minimal_nonfaces(cx.face_masks(), cx.n)), cx
        assert len(set(got)) == len(got), cx


def test_a_graph_builds_no_face_set_for_its_circuits():
    path = SimplicialComplex.from_facets(64, [[v, v + 1] for v in range(1, 64)])
    assert len(path.minimal_nonfaces()) == 63 * 62 // 2
    assert path._faces is None
    path = SimplicialComplex.from_facets(64, [[v, v + 1] for v in range(1, 64)])
    assert not is_matroid_circuit_elimination(path)
    assert path._faces is None


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
    # the facets come off a cube of 2^n bits, so this must fail before it is built
    with pytest.raises(VertexRangeError, match=f"exceeds limit {MAX_NONFACE_GROUND}"):
        SimplicialComplex.from_minimal_nonfaces(MAX_NONFACE_GROUND + 1, [[1, 2]])


@pytest.mark.parametrize("n", [-1, 1.5, True, "3", None])
def test_from_minimal_nonfaces_checks_the_ground_size_first(n):
    # as the constructor does, before the cube shifts by n
    with pytest.raises(VertexRangeError, match="must be a nonnegative integer"):
        SimplicialComplex.from_minimal_nonfaces(n, [])


def _random_nonface_lists(seed):
    """Seeded nonempty nonface masks on up to 7 vertices, none of them the
    empty set, with one nonface inside another now and then."""
    rng = random.Random(seed)
    n = rng.randint(0, 7)
    nonfaces = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(0, 6))] if n else []
    if nonfaces and rng.random() < 0.3:
        nonfaces.append(nonfaces[0] | rng.getrandbits(n))
    return n, nonfaces


def test_from_minimal_nonfaces_is_the_old_sweep():
    # the facets off the cube against the old test of every mask against
    # every nonface, on every complex on 3 vertices and on seeded lists
    cases = [(3, cx.minimal_nonface_masks()) for cx in representatives(3)]
    cases += [_random_nonface_lists(seed) for seed in range(400)]
    for n, nonfaces in cases:
        cx = SimplicialComplex.from_minimal_nonfaces(n, [unpack(c) for c in nonfaces])
        assert sorted(cx.facet_masks) == sweep_facets_of_nonfaces(n, nonfaces), (n, nonfaces)


def test_from_minimal_nonfaces_round_trip_at_twenty_vertices():
    # the 20-cycle from its 170 non-edges, and a 2-dimensional complex on
    # 20 vertices from its 153 circuits; the old sweep over all 2^20 masks
    # took 1.7-1.8 s for each, the cube 15-16 ms, best of 3 on a 2-vCPU host
    n = MAX_NONFACE_GROUND
    cycle = SimplicialComplex.from_facets(n, [[v, v % n + 1] for v in range(1, n + 1)])
    fans = SimplicialComplex.from_facets(n, [[1, v, v + 1] for v in range(2, n)] + [[2, n, 7]])
    for cx in (cycle, fans):
        nonfaces = cx.minimal_nonfaces()
        start = time.perf_counter()
        again = SimplicialComplex.from_minimal_nonfaces(n, nonfaces)
        assert time.perf_counter() - start < 0.5
        assert again == cx


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


def test_rank_of_is_the_largest_face_inside_a():
    # max |F n A| over the facets against the largest face inside A, at
    # every A of the census classes and at 32 seeded A of random complexes
    cases = [cx for m in range(1, 6) for cx in representatives(m)]
    cases += [SimplicialComplex.from_facets(*_random_facet_lists(seed)) for seed in range(300)]
    rng = random.Random(42)
    checked = 0
    for cx in cases:
        if not cx.facet_masks:
            continue  # the void complex has no rank
        full = (1 << cx.n) - 1
        masks = range(full + 1) if cx.n <= 5 else [rng.randint(0, full) for _ in range(32)]
        for a in masks:
            want = max(f.bit_count() for f in cx.face_masks() if not f & ~a)
            assert cx.rank_of(unpack(a)) == want, (cx, unpack(a))
            checked += 1
    assert checked == 13753


def test_rank_of_builds_no_face_set(monkeypatch):
    built = []
    real = complexes._faces_of
    monkeypatch.setattr(complexes, "_faces_of", lambda facets: built.append(facets) or real(facets))
    cx = SimplicialComplex.from_facets(20, [range(1, 19), range(3, 21), [1, 20]])
    assert cx.rank_of(range(1, 21)) == 18
    assert cx.rank_of([1, 2, 19, 20]) == 2
    assert cx.rank_of([]) == 0
    assert built == []


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


@pytest.mark.parametrize("F", [[1, "a"], ["a", 1], [2, 1.0], [True, 2], [1, None]])
def test_boundary_simplex_checks_vertices_before_sorting(F):
    # as `pack` does, and as `MultiDegree.make` does: no vertex is compared
    # with another before each is known to be an integer
    bad = next(v for v in F if not isinstance(v, int) or isinstance(v, bool))
    with pytest.raises(VertexRangeError, match=f"vertex {bad!r} is not an integer"):
        boundary_simplex(F)
    with pytest.raises(VertexRangeError, match="out of range"):
        boundary_simplex([1, 0])
    with pytest.raises(VertexRangeError, match=f"exceeds limit {MAX_GROUND}"):
        boundary_simplex([1, MAX_GROUND + 1])


def test_boundary_simplex_checks_the_ground_before_packing(monkeypatch):
    # n is checked once every vertex is known to be an integer, before
    # `pack` builds a mask of up to n bits or names a vertex
    packed = []

    def spy(verts, n):
        packed.append(n)
        if not isinstance(n, int) or not 0 <= n <= MAX_GROUND:
            raise AssertionError(f"pack on a ground of {n!r} before the ground check")
        return pack(verts, n)

    monkeypatch.setattr(complexes, "pack", spy)
    with pytest.raises(VertexRangeError, match=f"ground size {2**40} exceeds limit {MAX_GROUND}"):
        boundary_simplex([1, 2**40])
    with pytest.raises(VertexRangeError, match="ground size '5' must be a nonnegative integer"):
        boundary_simplex([1], "5")
    with pytest.raises(VertexRangeError, match="ground size -1 must be a nonnegative integer"):
        boundary_simplex([1, 2], -1)
    assert packed == []
    assert boundary_simplex([1, 2], MAX_GROUND).n == MAX_GROUND and packed == [MAX_GROUND]


def test_repr_mentions_shape():
    assert "void" in repr(SimplicialComplex.void(2))
    assert "facets" in repr(SimplicialComplex.from_facets(2, [[1]]))
