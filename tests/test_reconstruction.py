import collections
import itertools
import random
import time

import pytest

from srt1 import reconstruction
from srt1.complexes import SimplicialComplex, VertexRangeError
from srt1.cotangent import MultiDegree, T1Table, _matroid_table, t1_table
from srt1.matroids import is_discrete, is_matroid_exchange, uniform
from srt1.reconstruction import (
    DiscreteAmbiguousError,
    NotAMatroidTableError,
    classify_loops_coloops,
    rank_from_table,
    reconstruct,
    reconstruct_rank_one,
    slice_link_table,
)

from _census_reps import representatives
from _output_digest import complete_graph_matroid


# -- slicing -----------------------------------------------------------------


def test_slice_u42_at_vertex():
    t = slice_link_table(t1_table(uniform(4, 2)), [1])
    assert dict(t.items()) == {
        MultiDegree((), (2,)): 1,
        MultiDegree((), (3,)): 1,
        MultiDegree((), (4,)): 1,
    }


def test_slice_at_empty_is_identity():
    t = t1_table(uniform(4, 2))
    assert slice_link_table(t, []) == t


def test_slice_u32_at_vertex():
    # link of {1} in U(3,2) is the boundary of the edge {2,3}
    t = slice_link_table(t1_table(uniform(3, 2)), [1])
    assert dict(t.items()) == {MultiDegree((), (2, 3)): 1}


def test_slice_matches_link_table():
    for m in [uniform(4, 2), uniform(5, 3), uniform(4, 1) * uniform(1, 1)]:
        t = t1_table(m)
        for size in range(1, m.rank):
            for F in itertools.combinations(range(1, m.n + 1), size):
                if not m.is_face(F):
                    continue
                sliced = slice_link_table(t, F)
                link_t = t1_table(m.link(F))
                assert list(sliced.items()) == list(link_t.items()), (m.facets, F)


def test_slice_validates_range():
    with pytest.raises(ValueError):
        slice_link_table(t1_table(uniform(3, 2)), [4])


@pytest.mark.parametrize("F", [[True], [1.0], [[1]]], ids=["bool", "float", "list"])
def test_slice_validates_vertices_like_pack(F):
    with pytest.raises(VertexRangeError, match="not an integer"):
        slice_link_table(t1_table(uniform(4, 2)), F)


# -- loop/coloop classification ------------------------------------------------


def test_classify_coloop():
    t = t1_table(SimplicialComplex.from_facets(3, [[1, 3], [2, 3]]))
    assert classify_loops_coloops(t) == {1: "ordinary", 2: "ordinary", 3: "coloop"}


def test_classify_loop():
    t = t1_table(SimplicialComplex.from_facets(3, [[1], [2]]))
    assert classify_loops_coloops(t) == {1: "ordinary", 2: "ordinary", 3: "loop"}


def test_classify_all_ordinary():
    t = t1_table(uniform(4, 2))
    assert classify_loops_coloops(t) == {v: "ordinary" for v in range(1, 5)}


def test_classify_mixed():
    # coloop 5 and loop 6 around a U(4,2) core
    m = uniform(4, 2) * uniform(1, 1) * uniform(1, 0)
    roles = classify_loops_coloops(t1_table(m))
    assert roles == {1: "ordinary", 2: "ordinary", 3: "ordinary", 4: "ordinary",
                     5: "coloop", 6: "loop"}


def test_classify_empty_table():
    with pytest.raises(DiscreteAmbiguousError):
        classify_loops_coloops(T1Table(3, []))


def test_classify_agrees_with_structure():
    family = [
        uniform(3, 1),
        uniform(3, 2),
        uniform(4, 2) * uniform(2, 2),
        uniform(2, 1) * uniform(3, 0),
        uniform(3, 1) * uniform(1, 1) * uniform(1, 0),
    ]
    for m in family:
        loops, coloops = m.loops_and_coloops()
        roles = classify_loops_coloops(t1_table(m))
        for v in range(1, m.n + 1):
            want = "loop" if v in loops else "coloop" if v in coloops else "ordinary"
            assert roles[v] == want, (m.facets, v)


# -- rank ------------------------------------------------------------------------


def test_rank_from_table():
    assert rank_from_table(t1_table(uniform(4, 2))) == 2
    assert rank_from_table(t1_table(uniform(3, 2))) == 2
    assert rank_from_table(t1_table(uniform(3, 1))) == 1
    assert rank_from_table(t1_table(uniform(5, 3))) == 3
    with pytest.raises(DiscreteAmbiguousError):
        rank_from_table(T1Table(2, []))


# -- rank-one base case ------------------------------------------------------------


def test_rank_one_pair_branch():
    t = t1_table(uniform(2, 1) * uniform(2, 0))
    assert reconstruct_rank_one(t, (1, 2, 3, 4)) == (1, 2)
    assert reconstruct_rank_one(t1_table(uniform(2, 1)), (1, 2)) == (1, 2)


def test_rank_one_singleton_branch():
    t = t1_table(uniform(3, 1) * uniform(1, 0))
    assert reconstruct_rank_one(t, (1, 2, 3, 4)) == (1, 2, 3)
    t5 = t1_table(uniform(5, 1))
    assert reconstruct_rank_one(t5, tuple(range(1, 6))) == (1, 2, 3, 4, 5)


def test_rank_one_shape_errors():
    with pytest.raises(NotAMatroidTableError):
        reconstruct_rank_one(t1_table(uniform(4, 2)), (1, 2, 3, 4))
    with pytest.raises(NotAMatroidTableError):
        # pair entry pointing outside the allowed ground
        reconstruct_rank_one(t1_table(uniform(2, 1)), (3, 4))
    with pytest.raises(NotAMatroidTableError):
        reconstruct_rank_one(T1Table(3, [(((), (1,)), 5), (((), (2,)), 5)]), (1, 2, 3))


# -- full reconstruction -------------------------------------------------------------


def test_roundtrip_uniforms():
    for n in range(2, 7):
        for k in range(1, n):
            m = uniform(n, k)
            assert reconstruct(t1_table(m)) == m, (n, k)


def test_roundtrip_with_loops_and_coloops():
    family = [
        uniform(2, 1) * uniform(1, 1),
        uniform(2, 1) * uniform(1, 0),
        uniform(2, 1) * uniform(2, 0),
        uniform(2, 1) * uniform(2, 1),
        uniform(3, 2) * uniform(1, 1) * uniform(1, 0),
        uniform(4, 2) * uniform(2, 2),
        uniform(3, 1) * uniform(2, 0) * uniform(1, 1),
    ]
    for m in family:
        assert not is_discrete(m)
        assert reconstruct(t1_table(m)) == m, m.facets


def test_roundtrip_partition_matroid():
    m = uniform(2, 1) * uniform(2, 1) * uniform(2, 1)
    assert reconstruct(t1_table(m)) == m


def test_empty_table_is_ambiguous():
    with pytest.raises(DiscreteAmbiguousError):
        reconstruct(T1Table(3, []))
    with pytest.raises(DiscreteAmbiguousError):
        reconstruct(t1_table(uniform(2, 2) * uniform(1, 0)))


CENSUS_MATROIDS = [
    cx for n in range(1, 6) for cx in representatives(n) if is_matroid_exchange(cx)
]


def assert_rejected_or_reproduced(table):
    """A corrupted table raises, or yields a matroid whose table it really is.

    DiscreteAmbiguousError is allowed only for the empty table.
    """
    try:
        m = reconstruct(table)
    except DiscreteAmbiguousError:
        assert len(table) == 0
    except NotAMatroidTableError:
        pass
    else:
        assert t1_table(m) == table, m.facets


@pytest.mark.parametrize("m", CENSUS_MATROIDS)
def test_corrupted_dim_rejected(m):
    t = t1_table(m)
    for key in t:
        assert_rejected_or_reproduced(T1Table(t.n, [(k, d + (k == key)) for k, d in t.items()]))


@pytest.mark.parametrize("m", CENSUS_MATROIDS)
def test_dropped_entry_rejected(m):
    t = t1_table(m)
    for key in t:
        assert_rejected_or_reproduced(T1Table(t.n, [(k, d) for k, d in t.items() if k != key]))


def test_loop_in_a_support_rejected():
    # vertex 4 is classified as a loop, yet the added entry puts it in A
    t = t1_table(uniform(3, 2) * uniform(1, 0))
    assert classify_loops_coloops(t)[4] == "loop"
    with pytest.raises(NotAMatroidTableError):
        reconstruct(T1Table(t.n, [*t.items(), (MultiDegree((4,), (1, 3)), 1)]))


def test_nonmatroid_table_rejected():
    # the table of a nonmatroid complex is not the table of any matroid
    remark = SimplicialComplex.from_minimal_nonfaces(
        5, [[1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5]]
    )
    assert not is_matroid_exchange(remark)
    with pytest.raises(NotAMatroidTableError):
        reconstruct(t1_table(remark))


def test_reconstruct_consumes_only_the_table():
    # a table rebuilt through JSON carries no complex data at all
    m = uniform(5, 2) * uniform(1, 1)
    doc = t1_table(m).to_json_dict()
    assert reconstruct(T1Table.from_json_dict(doc)) == m


def test_reconstruct_checks_the_ground_before_walking_it(monkeypatch):
    # the loop/coloop step walks 1..n and builds a mask per vertex: a table
    # on 10^6 vertices raises on its ground size first, and the empty table
    # is still ambiguous before it is too large
    def spy(t):
        raise AssertionError("_roles ran before the ground check")

    monkeypatch.setattr(reconstruction, "_roles", spy)
    t = T1Table.from_json_dict({"n": 10**6, "entries": [{"A": [], "b": [1, 2], "dim": 1}]})
    start = time.perf_counter()
    with pytest.raises(VertexRangeError, match="ground size 1000000 exceeds limit 64"):
        reconstruct(t)
    assert time.perf_counter() - start < 1
    with pytest.raises(DiscreteAmbiguousError):
        reconstruct(T1Table(10**6, []))


# -- row order -----------------------------------------------------------------


def outcome(fn, doc):
    """What fn prints for the table of doc: its value, or its error's text."""
    try:
        return repr(fn(T1Table.from_json_dict(doc)))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def corrupted_docs(t, rng, count):
    """JSON documents of t with a few dimensions moved and a few entries
    added, most of them tables of no matroid."""
    n = t.n
    for _ in range(count):
        rows = {(tuple(e["A"]), tuple(e["b"])): e["dim"] for e in t.to_json_dict()["entries"]}
        for key in rng.sample(sorted(rows), min(len(rows), rng.randint(0, 3))):
            rows[key] += rng.choice((-1, 1))
        for _ in range(rng.randint(0, 2)):
            side = [rng.randrange(3) for _ in range(n)]
            A = tuple(v for v in range(1, n + 1) if side[v - 1] == 1)
            b = tuple(v for v in range(1, n + 1) if side[v - 1] == 2)
            if b:
                rows[A, b] = rng.randint(1, 3)
        entries = [{"A": list(A), "b": list(b), "dim": d} for (A, b), d in rows.items() if d > 0]
        yield {"n": n, "entries": entries}


SHUFFLE_MATROIDS = CENSUS_MATROIDS + [
    uniform(3, 2) * uniform(1, 1) * uniform(1, 0),
    uniform(3, 1) * uniform(2, 0) * uniform(1, 1),
    uniform(4, 2) * uniform(2, 2),
    uniform(6, 3),
]


def test_row_order_of_a_document_changes_nothing():
    # the rows of a table read from JSON keep the document's order; reconstruct
    # and the loop/coloop split give the same result, or the same error, as
    # for the canonical document, on tables of matroids, of non-matroids and
    # on corrupted ones
    rng = random.Random(16)
    docs = [t1_table(cx).to_json_dict() for n in range(1, 6) for cx in representatives(n)]
    for m in SHUFFLE_MATROIDS:
        docs += corrupted_docs(t1_table(m), rng, 6)
    errors = set()
    for doc in docs:
        canonical = T1Table.from_json_dict(doc).to_json_dict()
        want = [outcome(fn, canonical) for fn in (reconstruct, classify_loops_coloops)]
        errors.update(w.split(":")[0] for w in want)
        for _ in range(2):
            entries = canonical["entries"]
            shuffled = dict(canonical, entries=rng.sample(entries, len(entries)))
            got = [outcome(fn, shuffled) for fn in (reconstruct, classify_loops_coloops)]
            assert got == want, doc
    assert {"NotAMatroidTableError", "DiscreteAmbiguousError"} <= errors


# -- the readers decide by the rules that write the table ------------------------------

CENSUS = [cx for n in range(1, 6) for cx in representatives(n)]


def test_matroid_table_is_the_walks_root_verdict():
    # the first link of the walk decides: None exactly on the non-matroids,
    # the whole table on the matroids
    assert len(CENSUS) == 253
    nones = 0
    for cx in CENSUS:
        back = _matroid_table(cx)
        if is_matroid_exchange(cx):
            assert back == t1_table(cx), cx
        else:
            assert back is None, cx
            nones += 1
    assert nones == 184


def test_an_empty_table_is_discrete_exactly_on_one_facet():
    # a discrete matroid is a simplex with loops; every other matroid has a
    # nonzero degree, so an empty table on two or more facets is no matroid's
    empty = [cx for cx in CENSUS if len(t1_table(cx)) == 0]
    assert len(empty) == 37
    for cx in empty:
        assert (len(cx.facet_masks) == 1) == is_matroid_exchange(cx), cx
    for cx in CENSUS:
        if is_matroid_exchange(cx):
            loops, coloops = cx.loops_and_coloops()
            assert is_discrete(cx) == (len(loops) + len(coloops) == cx.n), cx


def _rank_one_table(n, members):
    return t1_table(SimplicialComplex.from_facets(n, [[v] for v in members]))


def test_rank_one_reads_back_uniform_rank_one_with_loops():
    rng = random.Random(22)
    for d in range(2, 13):
        n = d + 3
        members = tuple(sorted(rng.sample(range(1, n + 1), d)))
        t = _rank_one_table(n, members)
        assert reconstruct_rank_one(t, range(1, n + 1)) == members, d
        assert reconstruct_rank_one(t, members) == members, d


def _rows(t, extra=(), drop=()):
    rows = {(e.A, e.b): dim for e, dim in t.items() if (e.A, e.b) not in drop}
    rows.update(extra)
    return T1Table(t.n, list(rows.items()))


SHAPE = "table shape matches no rank-one matroid"
NONEMPTY_A = "rank-one table has an entry with nonempty A"


@pytest.mark.parametrize(
    "members, change, ground, message",
    [
        # U(4, 1) with the loops 5 and 6: (0, {i}) -> 2 at i = 1..4
        ((1, 2, 3, 4), {"extra": {((), (1,)): 3}}, None, SHAPE),
        ((1, 2, 3, 4), {"drop": [((), (4,))]}, None, SHAPE),
        ((1, 2, 3, 4), {"extra": {((), (5,)): 2}}, None, SHAPE),
        ((1, 2, 3, 4), {"extra": {((), (5, 6)): 1}}, None, SHAPE),
        ((1, 2, 3, 4), {"extra": {((5,), (6,)): 1}}, None, NONEMPTY_A),
        ((1, 2, 3, 4), {}, (1, 2, 3, 5, 6), "singleton entries (1, 2, 3, 4) leave the ground set"),
        # U(2, 1) with the loops: (0, {1, 2}) -> 1
        ((1, 2), {"extra": {((), (1, 2)): 2}}, None, SHAPE),
        ((1, 2), {"drop": [((), (1, 2))]}, None, SHAPE),  # the empty table
        ((1, 2), {"extra": {((), (3,)): 1}}, None, SHAPE),
        ((1, 2), {"extra": {((3,), (1,)): 1}}, None, NONEMPTY_A),
        ((1, 2), {}, (2, 3, 4, 5, 6), "pair entry (1, 2) leaves the ground set"),
        # U(3, 1): (0, {i}) -> 1 at i = 1..3, beside a pair
        ((1, 2, 3), {"extra": {((), (4, 5)): 1}}, None, SHAPE),
        # a nonempty A comes first, then the shape, then the ground
        ((1, 2, 3), {"extra": {((), (4,)): 7, ((4,), (5,)): 1}}, (), NONEMPTY_A),
        ((1, 2, 3), {"extra": {((), (4,)): 7}}, (), SHAPE),
    ],
)
def test_rank_one_corruptions_keep_their_messages(members, change, ground, message):
    t = _rows(_rank_one_table(6, members), **change)
    ground = range(1, 7) if ground is None else ground
    with pytest.raises(NotAMatroidTableError) as info:
        reconstruct_rank_one(t, ground)
    assert str(info.value) == message


# -- which error a perturbed matroid table reports -------------------------------

RECOVERED = "recovered matroid does not reproduce the table"


def _outcome(t):
    try:
        reconstruct(t)
    except NotAMatroidTableError as exc:
        return str(exc)
    return "reconstructed"


@pytest.mark.parametrize(
    "m, shape, recovered",
    [
        (uniform(6, 3), 60, 36),
        (complete_graph_matroid(4), 48, 36),
        (uniform(6, 3) * uniform(1, 0), 60, 36),
        (complete_graph_matroid(4) * uniform(1, 1), 48, 120),
    ],
)
def test_one_perturbed_row_reports_its_error(m, shape, recovered):
    # a row dropped or a dim raised in a group of the largest coloop-free A
    # breaks that rank-one group; anywhere else the walk's verification catches it
    t = t1_table(m)
    items = t.items()
    coloops = {v for v, role in classify_loops_coloops(t).items() if role == "coloop"}
    top = max(len(e.A) for e, _ in items if not coloops & set(e.A))
    counts = collections.Counter()
    for k, (key, dim) in enumerate(items):
        want = SHAPE if len(key.A) == top and not coloops & set(key.A) else RECOVERED
        for changed in (items[:k] + items[k + 1 :], items[:k] + [(key, dim + 1)] + items[k + 1 :]):
            assert _outcome(T1Table(t.n, changed)) == want, key
        counts[want] += 1
    assert counts == {SHAPE: shape, RECOVERED: recovered}


def _edited(m, drop=(), add=(), raise_=()):
    """The table of m, less the rows at drop, with the rows of add and the
    dims at raise_ one higher, as a shuffled document read back."""
    rows = {(e.A, e.b): dim for e, dim in t1_table(m).items()}
    for key in drop:
        del rows[key]
    rows.update(add)
    for key in raise_:
        rows[key] += 1
    return T1Table(m.n, list(rows.items()))


def test_the_first_bad_group_in_canonical_order_is_reported():
    # U(6, 3) with the loop 7: the group at A = {a, b} is U(4, 1) on the other four
    m = uniform(6, 3) * uniform(1, 0)
    leaves_at_12 = {"drop": [((1, 2), (6,))], "add": {((1, 2), (7,)): 2}}
    leaves_at_13 = {"drop": [((1, 3), (6,))], "add": {((1, 3), (7,)): 2}}
    shape_at_12 = [((1, 2), (3,))]
    shape_at_13 = [((1, 3), (2,))]
    leaves_12 = "singleton entries (3, 4, 5, 7) leave the ground set"
    leaves_13 = "singleton entries (2, 4, 5, 7) leave the ground set"
    assert _outcome(_edited(m, **leaves_at_12, raise_=shape_at_13)) == leaves_12
    assert _outcome(_edited(m, **leaves_at_13, raise_=shape_at_12)) == SHAPE
    assert _outcome(_edited(m, **leaves_at_13, raise_=shape_at_13)) == SHAPE
    assert _outcome(_edited(m, **leaves_at_13)) == leaves_13
    t = _edited(m, **leaves_at_12, raise_=shape_at_13)
    assert classify_loops_coloops(t)[7] == "loop"
    rng = random.Random(27)
    entries = t.to_json_dict()["entries"]
    for _ in range(5):
        doc = {"n": t.n, "entries": rng.sample(entries, len(entries))}
        assert _outcome(T1Table.from_json_dict(doc)) == leaves_12


def test_a_pair_group_leaving_the_ground_set_names_its_pair():
    # U(3, 2) with the loop 4: the group at A = {1} is the pair {2, 3}; moved to {2, 4}
    m = uniform(3, 2) * uniform(1, 0)
    t = _edited(m, drop=[((1,), (2, 3))], add={((1,), (2, 4)): 1})
    assert classify_loops_coloops(t)[4] == "loop"
    assert _outcome(t) == "pair entry (2, 4) leaves the ground set"


@pytest.mark.parametrize(
    "ground, want",
    [
        # ground is read as a set: a member equal to a vertex counts as that vertex
        ((True, 2.0, 3, 4), (1, 2, 3, 4)),
        ((0, 1, 2, 3, 4, 99), (1, 2, 3, 4)),
        ((1, 2, 3, "4"), "singleton entries (1, 2, 3, 4) leave the ground set"),
        (iter((4, 3, 2, 1)), (1, 2, 3, 4)),
    ],
)
def test_rank_one_reads_its_ground_as_a_set(ground, want):
    t = _rank_one_table(6, (1, 2, 3, 4))
    try:
        got = reconstruct_rank_one(t, ground)
    except NotAMatroidTableError as exc:
        got = str(exc)
    assert got == want
