"""The grouped layout of `T1Table`: one dict b -> dim per face A.

A table keeps its rows as `_groups`, a -> {b: dim} with a and b masks, and
never an empty group; the tables `t1_table` builds share one group between
the faces of one flat of a matroid, and between the faces of a uniform
link's up-set that differ by coloops.  On the census classes on at most 5
vertices, U(n, k) for n <= 8, 300 seeded random complexes and M(K4): no
group is empty; `t1_table`, the checking constructors, pickle and
`_of_groups` of shuffled groups give equal tables with equal hashes;
`slice_link_table` is the filter over the flattened rows; and on a matroid
two faces whose links have one vertex mask share one group object.
"""

import collections
import pickle
import random

from srt1.complexes import _link_facets, _union, unpack
from srt1.cotangent import T1Table, t1_table
from srt1.matroids import is_matroid_exchange, uniform
from srt1.reconstruction import slice_link_table

from _census_reps import representatives
from _output_digest import complete_graph_matroid
from test_dim_t1_rules import random_complex

K4 = complete_graph_matroid(4)
_rng = random.Random(35)
CASES = (
    [cx for n in range(1, 6) for cx in representatives(n)]
    + [uniform(n, k) for n in range(1, 9) for k in range(n + 1)]
    + [random_complex(_rng) for _ in range(300)]
    + [K4]
)
TABLES = [(cx, t1_table(cx)) for cx in CASES]


def flat_rows(t):
    """The rows of t as one dict (a, b) -> dim."""
    return {(a, b): dim for a, group in t._groups.items() for b, dim in group.items()}


def test_no_table_holds_an_empty_group():
    assert all(all(t._groups.values()) for _, t in TABLES)
    assert sum(len(t) > 0 for _, t in TABLES) == 400


def test_every_way_to_a_table_gives_one_table():
    rng = random.Random(36)
    for cx, t in TABLES:
        shuffled = [(a, list(group.items())) for a, group in t._groups.items()]
        rng.shuffle(shuffled)
        for _, rows in shuffled:
            rng.shuffle(rows)
        copies = [
            t1_table(cx),
            T1Table(t.n, t.items()),
            T1Table.from_json_dict(t.to_json_dict()),
            pickle.loads(pickle.dumps(t)),
            T1Table._of_groups(t.n, {a: dict(rows) for a, rows in shuffled}),
        ]
        for copy in copies:
            assert copy == t and hash(copy) == hash(t), cx
            assert flat_rows(copy) == flat_rows(t), cx
            assert all(copy._groups.values()), cx


def test_slice_is_the_filter_over_flattened_rows():
    for cx, t in TABLES:
        singles = [1 << i for i in range(t.n)]
        for f in {0, *t._groups, *singles}:
            want = {(a ^ f, b): dim for (a, b), dim in flat_rows(t).items() if a & f == f}
            sliced = slice_link_table(t, unpack(f))
            assert flat_rows(sliced) == want, (cx, f)
            assert all(sliced._groups.values()), (cx, f)


def test_faces_of_one_flat_share_one_group():
    # for a face A of a matroid, link(A) is M/cl(A) on E - cl(A): one
    # vertex mask, one flat, one group object
    shared = collections.Counter()
    for cx, t in TABLES:
        if not is_matroid_exchange(cx):
            continue
        by_link = collections.defaultdict(list)
        for a in t._groups:
            by_link[_union(_link_facets(cx.facet_masks, a))].append(a)
        for faces in by_link.values():
            assert len({id(t._groups[a]) for a in faces}) == 1, (cx, faces)
            shared[cx is K4] += len(faces) > 1
    # M(K4), no uniform matroid: the three pairs of edges in each of its
    # four triangles span the triangle, and share its group
    assert shared[True] == 4


def test_faces_of_a_uniform_up_set_share_one_group_across_coloops():
    # U(4, 2) with coloops 5 and 6: each face keeps its group when a subset
    # of the coloops is added to it
    cx = uniform(4, 2) * uniform(2, 2)
    t = t1_table(cx)
    coloops = (0b010000, 0b100000, 0b110000)
    for a in (0, 0b0001, 0b0010):
        assert all(t._groups[a | c] is t._groups[a] for c in coloops), a
    assert t == T1Table(cx.n, t.items())
