"""The closed-form matroid path of `t1_table` against the graph engine.

`t1_table` follows the walk `cotangent._walk`, which sends each link of
rank 1, and each other link that passes the singleton test, to the matroid
rules of `cotangent._table_of`, and every other link to the graph
dimensions: its singleton-test rows at its vertices, read off the
adjacency by `cotangent._graph_dims` at a link of dimension 1, and the
rules that `cotangent._wide_dim` lists at its wider degrees.  A matroid
link whose circuits are all the r + 1-subsets of their union W
(`cotangent._uniform_shape`), a link of rank 1 among them, is U(|W|, r)
with coloops, and the uniform rule `cotangent._uniform_rows` writes it and
every link above it (`cotangent._uniform_up_set`).  Any other
matroid link takes the class rule `cotangent._class_rows`, at it and at
each link above it, which `cotangent._matroid_up_set` writes: it reads each
link's vertex mask, the link's flat, off the parent's circuits of two
vertices, contracts the circuits and keeps the rows once per mask, and
steps to a link of rank 1 without circuits or lookups.  The uniform rule meets the
class rule on U(m, r) with 0, 1 or 2 coloops for 1 <= r < m <= 10, and at
rank 1 the graph on U(d, 1) for d = 2..12, with and without loops, on every
link of rank 1 of the census classes and on seeded random graphs.  The
up-set writer meets the links built from their faces, and `t1_table`
meets an independent graph table (the graph at every face of every link,
each built from its facets) on every census class, on every U(n, k) with
n <= 8, on seeded partition and graphic matroids on 8 and 9 elements, some
with loops and coloops, and on a non-matroid near U(10, 5); the
vertex-mask rule holds at every step on the census matroids and on 100
seeded sparse paving matroids; and the class rule at every face, on
circuits of links built from their facets, on M(K5), M(K6), U(5, 3) with
each element tripled, U(7, 4) with each element doubled and seeded
partition matroids with coloops.  The dispatch guards
check that a matroid's table and its reconstruction build no face set of a
link, that no link of rank 1 gets a face set, circuits, the class rule or a
face lookup, that a uniform link and the links above it run no class rule
and no contraction, that the class rule and the contraction step run once
per flat of M(K6) and keep no rows across the matroid links of a
non-matroid, that
non-matroids compute no singleton degree and no circuit family twice, that
a graph link reads the rule once, counts its edges only when it fails the
singleton test, and builds no circuit family and counts no graph over
faces, that the graph runs only at faces in a circuit, that only links
failing the singleton test run the graph past their singleton degrees, and
that the recognition functions keep the graph, the rule on a 1-dimensional
matroid and the circuit rule `cotangent._vertex_dims` on a 2-dimensional
one: `formula_discrepancies` at the singleton degrees of every link the
walk reaches, with no face engine on a matroid, the private full
comparison at every degree.  `t1_table` builds its table without the entry
checks, so the checking constructors are run on what it builds, matroid or
not.
"""

import collections
import itertools
import random

import pytest

from srt1 import complexes, cotangent, definition, reconstruction
from srt1.complexes import SimplicialComplex, _union, boundary_simplex, submasks, unpack
from srt1.cotangent import (
    MultiDegree,
    T1Table,
    _isolated_circuits,
    _matroid_up_set,
    t1_table,
)
from srt1.matroids import is_matroid_exchange, uniform
from srt1.recognition import formula_discrepancies, is_matroid_via_t1
from srt1.reconstruction import reconstruct

from _census_reps import representatives
from _matroids import sparse_paving_matroid
from _oracles import definition_discrepancies
from test_large_matroids import minus_bases

SEEDS = range(6)


def partition_matroid(seed):
    """Blocks of a shuffled [n] with capacities; capacity 0 makes loops and a
    full capacity coloops."""
    rng = random.Random(seed)
    n = 8 + seed % 2
    labels = rng.sample(range(1, n + 1), n)
    cuts = sorted(rng.sample(range(1, n), 3))
    blocks = [labels[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    caps = [rng.randint(0, len(block)) for block in blocks]
    choices = [itertools.combinations(block, cap) for block, cap in zip(blocks, caps)]
    facets = [sum(parts, ()) for parts in itertools.product(*choices)]
    return SimplicialComplex.from_facets(n, facets)


def graphic_matroid(seed):
    """The spanning forests of a seeded multigraph whose n edges are the
    elements; self-loops are loops and bridges coloops."""
    rng = random.Random(100 + seed)
    n = 8 + seed % 2
    nodes = 5
    edges = [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(n)]

    def acyclic(subset):
        parent = list(range(nodes))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in subset:
            ru, rv = find(edges[i][0]), find(edges[i][1])
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    forests = [s for r in range(n + 1) for s in itertools.combinations(range(n), r) if acyclic(s)]
    return SimplicialComplex.from_facets(n, [[i + 1 for i in s] for s in forests])


NAMED = (
    [
        (f"census-{n}-{i}", cx)
        for n in range(1, 6)
        for i, cx in enumerate(representatives(n))
        if is_matroid_exchange(cx)
    ]
    + [(f"U({n},{k})", uniform(n, k)) for n in range(1, 9) for k in range(n + 1)]
    + [
        (f"{make.__name__}-{seed}", make(seed))
        for make in (partition_matroid, graphic_matroid)
        for seed in SEEDS
    ]
)
MATROIDS = [cx for _, cx in NAMED]


def graph_engine_table(cx):
    """The table from the inclusion graph at every nonempty face of the link
    at every face of cx, each link built from its facets, plus 1 at each
    isolated circuit of a link: no walk, no rule and no hand-off."""
    out = {}
    for a in cx.face_masks():
        A = unpack(a)
        link = cx.link_mask(a)
        faces = link.face_masks()
        out.update({(A, unpack(c)): 1 for c in _isolated_circuits(link.minimal_nonface_masks())})
        for b in faces:
            if b and (dim := definition._dim_on_faces(faces, b)):
                out[(A, unpack(b))] = dim
    return out


def test_matroid_scale():
    assert len(MATROIDS) == 69 + 44 + 12
    assert all(is_matroid_exchange(cx) and is_matroid_via_t1(cx) for cx in MATROIDS)
    # the seeded families reach loops and coloops on 8 and 9 elements
    seeded = MATROIDS[-12:]
    assert {cx.n for cx in seeded} == {8, 9}
    roles = [cx.loops_and_coloops() for cx in seeded]
    assert any(loops for loops, _ in roles) and any(coloops for _, coloops in roles)
    # some of them have an isolated circuit, which the class rule writes
    assert any(_isolated_circuits(cx.minimal_nonface_masks()) for cx in MATROIDS)


@pytest.mark.parametrize("cx", MATROIDS, ids=[name for name, _ in NAMED])
def test_class_rule_matches_graph_engine(cx):
    table = {(k.A, k.b): dim for k, dim in t1_table(cx).items()}
    assert table == graph_engine_table(cx)


# U(10, 5) without two bases that share four elements: not a matroid, but
# most of its links are
NEAR_U10 = minus_bases([(1, 2, 3, 4, 5), (1, 2, 3, 4, 6)])
CENSUS = [cx for n in range(1, 6) for cx in representatives(n)]
NON_MATROIDS = [
    (f"census-{n}-{i}", cx)
    for n in range(1, 6)
    for i, cx in enumerate(representatives(n))
    if not is_matroid_exchange(cx)
] + [("near-U(10,5)", NEAR_U10)]


@pytest.mark.parametrize("cx", [cx for _, cx in NON_MATROIDS], ids=[n for n, _ in NON_MATROIDS])
def test_walk_matches_graph_engine_on_non_matroids(cx):
    # with the census matroids above, every census class
    table = {(k.A, k.b): dim for k, dim in t1_table(cx).items()}
    assert table == graph_engine_table(cx)


def test_only_links_failing_the_singleton_test_run_wider_graphs(monkeypatch):
    # the graph runs at a face b of two or more vertices only on the links
    # where the singleton test fails; every other link is a matroid link or
    # lies above one, and takes the class rule
    failing = {a for a in NEAR_U10.face_masks() if not is_matroid_via_t1(NEAR_U10.link_mask(a))}
    calls = []
    real = cotangent._wide_dim
    monkeypatch.setattr(cotangent, "_wide_dim", lambda *args: calls.append(args[1]) or real(*args))
    t1_table(NEAR_U10)
    assert calls and all(a in failing for a in calls)
    assert len(failing) < len(NEAR_U10.face_masks()) // 10


def _record_contractions(monkeypatch):
    """The pairs (a, circuits) of each `_contract` call, by its face a."""
    contracted = []
    real = cotangent._contract

    def contract(faces, a, v, below):
        contracted.append((a, real(faces, a, v, below)))
        return contracted[-1][1]

    monkeypatch.setattr(cotangent, "_contract", contract)
    return contracted


def _in_two_facets(cx):
    return {a for a in cx.face_masks() if sum(f & a == a for f in cx.facet_masks) > 1}


@pytest.mark.parametrize(
    "cx", MATROIDS + [uniform(9, 4)], ids=[name for name, _ in NAMED] + ["U(9,4)"]
)
def test_matroid_walk_matches_links_built_from_faces(monkeypatch, cx):
    # the writer reaches each face in two or more facets once, and no other;
    # each contraction step gives the circuits of the link built from its
    # facets, at a link of rank 2 or more; and two faces share a group
    # exactly when their links have one vertex mask, the writer's memo key
    contracted = _record_contractions(monkeypatch)
    circuits = [c for c in cx.minimal_nonface_masks() if c.bit_count() > 1]
    written = WriteOnce()
    _matroid_up_set(written, cx, 0, cx.vertex_mask, circuits)
    assert set(written) == _in_two_facets(cx)
    for a, found in contracted:
        link = cx.link_mask(a)
        assert link.rank > 1, unpack(a)
        assert sorted(found) == sorted(c for c in link.minimal_nonface_masks() if c.bit_count() > 1)
    masks = collections.defaultdict(set)  # group -> the vertex masks of its faces' links
    for a, group in written.items():
        masks[id(group)].add(cx.link_mask(a).vertex_mask)
    assert all(len(m) == 1 for m in masks.values())
    assert len(masks) == len(set().union(*masks.values()))


def _bits(mask):
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def _link_vertices(cx, a):
    """The vertex mask of link(cx, a) from the facets through a."""
    return _union([f for f in cx.facet_masks if f & a == a]) & ~a


def _link_rank(cx, a):
    """The rank of link(cx, a) from the facets through a."""
    return max(f.bit_count() for f in cx.facet_masks if f & a == a) - a.bit_count()


RANDOM_MATROIDS = []
for seed in range(100):
    rng = random.Random(f"vertex-mask:{seed}")
    n = rng.randint(6, 9)
    RANDOM_MATROIDS.append(sparse_paving_matroid(n, rng.randint(3, n - 2), seed))


@pytest.mark.parametrize("family", ["census", "sparse-paving"])
def test_vertex_mask_rule_at_every_step(monkeypatch, family):
    # at each step from a face a to a u {v}, the writer keys the child by the
    # link's vertices less v and the u with {u, v} one of the link's circuits
    # (the circuits it holds: the root's, or those `_contract` gave the
    # flat); that mask is the e with a u v u e a face, link(a u {v})'s vertices
    contracted = _record_contractions(monkeypatch)
    cases = [cx for name, cx in NAMED if name.startswith("census")]
    steps = 0
    for cx in cases if family == "census" else RANDOM_MATROIDS:
        faces = cx.face_masks()
        written = {}
        circuits = [c for c in cx.minimal_nonface_masks() if c.bit_count() > 1]
        contracted.clear()
        _matroid_up_set(written, cx, 0, cx.vertex_mask, circuits)
        held = {cx.vertex_mask: circuits} | {_link_vertices(cx, a): c for a, c in contracted}
        for a in written:
            verts = _link_vertices(cx, a)
            if _link_rank(cx, a) < 2:
                continue
            pairs = [c for c in held[verts] if c.bit_count() == 2]
            for v in (u for u in _bits(verts) if u > a):
                rule = verts & ~_union([v] + [c for c in pairs if c & v])
                assert rule == _union([e for e in _bits(verts ^ v) if a | v | e in faces])
                assert rule == _link_vertices(cx, a | v)
                steps += 1
    assert steps == {"census": 360, "sparse-paving": 11603}[family]


class WriteOnce(dict):
    """A dict that refuses to store one key twice."""

    def __setitem__(self, key, value):
        assert key not in self, key
        super().__setitem__(key, value)


def test_engine_states_each_degree_once(monkeypatch):
    # the table keeps one group per face and one dim per b in it, and its
    # dicts would keep one of two statements: a walk that reached a face
    # twice, or a second rule that wrote a link's isolated circuits beside
    # the class rule, which writes them as classes, would state rows twice.
    # So each face is counted where its rows are written (a link the walk
    # yields with dims or at rank 1, a face of either up-set writer, through
    # `WriteOnce`), and the walk's dims, a list of a link's rows, are checked
    # for a repeated b; the two row rules return a group, a dict, which
    # states each b once
    faces = collections.Counter()

    def once(rows):
        bs = [b for b, _ in rows]
        assert len(bs) == len(set(bs)), rows
        return rows

    def walk(cx, real=cotangent._walk):
        for a, verts, circuits, dims in real(cx):
            if dims is not None or circuits is None:
                faces[a] += 1
            yield a, verts, circuits, dims if dims is None else once(dims)

    def up_set(groups, *args, real):
        written = WriteOnce()
        real(written, *args)
        faces.update(written.keys())
        groups.update(written)

    monkeypatch.setattr(cotangent, "_walk", walk)
    for name in ("_uniform_up_set", "_matroid_up_set"):
        real = getattr(cotangent, name)
        monkeypatch.setattr(cotangent, name, lambda *args, real=real: up_set(*args, real=real))
    isolated = 0
    for cx in MATROIDS + CENSUS + [NEAR_U10]:
        faces.clear()
        t = t1_table(cx)
        assert set(t._groups) <= set(faces) and max(faces.values(), default=1) == 1, cx
        isolated += any(_isolated_circuits(cx.minimal_nonface_masks()))
    assert isolated


def _class_rows_by_scan(circuits):
    """The class rule by its definition: each vertex's circuits found by a
    scan of all of them, each class a set of vertices with the same ones."""
    classes = collections.defaultdict(int)
    for v in range(64):
        through = tuple(c for c in circuits if c >> v & 1)
        if through:
            classes[through] |= 1 << v
    rows = set()
    for through, members in classes.items():
        count = len(through)
        for b in submasks(members):
            if b & (b - 1):
                rows.add((b, count))
            elif b and count > 1:
                rows.add((b, count - 1))
    return rows


@pytest.mark.parametrize("top", [2, 7, 8, 9, 16, 17, 40, 63, 64])
def test_class_rule_reads_every_width(top):
    # the circuits through each vertex are read off one integer that packs
    # the circuits a whole number of bytes apart; each byte width, up to the
    # 64th vertex, and the classes that hold several vertices, read back
    rng = random.Random(f"class-rows:{top}")
    for _ in range(40):
        verts = rng.sample(range(1, top + 1), min(top, rng.randint(2, 12)))
        circuits = []
        for _ in range(rng.randint(1, 30)):
            size = rng.randint(2, min(5, len(verts)))
            circuits.append(complexes.pack(rng.sample(verts, size), 64))
        circuits = list(dict.fromkeys(circuits))
        got = cotangent._class_rows(circuits)
        assert set(got.items()) == _class_rows_by_scan(circuits), circuits


def test_class_rule_on_the_64_vertex_path():
    # the root of the path: 1953 circuits, its non-edges, up to vertex 64
    circuits = cotangent._graph_circuits(cotangent._adjacency(PATH_64.facet_masks))
    assert len(circuits) == 1953
    assert set(cotangent._class_rows(circuits).items()) == _class_rows_by_scan(circuits)


@pytest.mark.parametrize("cx", MATROIDS, ids=[name for name, _ in NAMED])
def test_class_rule_writes_each_isolated_circuit(cx):
    # an isolated circuit of a matroid link of rank 2 or more is a class of
    # the class rule, which gives it the formula's 1 with the link's other
    # rows; on a link of rank 1 it is the pair of U(2, 1), and the uniform
    # rule at rank 1 gives it 1
    circuits = [c for c in cx.minimal_nonface_masks() if c.bit_count() > 1]
    groups = {}
    _matroid_up_set(groups, cx, 0, cx.vertex_mask, circuits)
    for a, group in groups.items():
        link_circuits = [c for c in cx.link_mask(a).minimal_nonface_masks() if c & (c - 1)]
        for c in _isolated_circuits(link_circuits):
            assert group.get(c) == 1, (unpack(a), unpack(c))


# -- links of rank 1 ----------------------------------------------------------


def _graph_rows(faces, verts):
    """{b: dim} at each nonempty b within verts where the graph dimension over
    these faces is positive: a link's whole table, its nonfaces included."""
    return {b: dim for b in submasks(verts) if b and (dim := definition._dim_on_faces(faces, b))}


def _rank_one(link):
    """Whether a link has two or more facets, each one vertex: U(d, 1) with loops."""
    return len(link.facet_masks) > 1 and link.rank == 1


def test_rank_one_rows_match_the_graph_on_uniform_rank_one():
    rng = random.Random(1)
    for d in range(2, 13):
        for loops in (0, 3):
            n = d + loops
            cx = SimplicialComplex.from_facets(n, [[v] for v in rng.sample(range(1, n + 1), d)])
            assert len(cx.loops_and_coloops()[0]) == loops
            want = _graph_rows(cx.face_masks(), cx.vertex_mask)
            assert dict(cotangent._uniform_rows(cx.vertex_mask, 1)) == want, (d, loops)
            assert t1_table(cx)._groups == {0: want}, (d, loops)
            assert cotangent._matroid_table(cx) == t1_table(cx)


def test_rank_one_rows_match_the_graph_on_census_links():
    seen = collections.Counter()
    for cx in CENSUS:
        for a in cx.face_masks():
            link = cx.link_mask(a)
            if _rank_one(link):
                want = _graph_rows(link.face_masks(), link.vertex_mask)
                assert dict(cotangent._uniform_rows(link.vertex_mask, 1)) == want, (cx, a)
                seen[link.vertex_mask.bit_count()] += 1
    assert seen == {2: 452, 3: 161, 4: 31, 5: 1}


@pytest.mark.parametrize("seed", range(8))
def test_rank_one_rows_match_the_graph_on_random_graphs(seed):
    # every vertex link of a graph has rank 1 or a single facet
    rng = random.Random(f"graph:{seed}")
    n = rng.randint(6, 14)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    cx = SimplicialComplex.from_facets(n, rng.sample(pairs, rng.randint(n, 2 * n)))
    links = [cx.link([v]) for v in cx.vertices()]
    assert any(_rank_one(link) for link in links)
    for link in links:
        if _rank_one(link):
            want = _graph_rows(link.face_masks(), link.vertex_mask)
            assert dict(cotangent._uniform_rows(link.vertex_mask, 1)) == want
    assert {(k.A, k.b): dim for k, dim in t1_table(cx).items()} == graph_engine_table(cx)


def _all_pairs_in(circuits):
    # the circuits of U(d, 1) with loops hold every pair of their vertices;
    # no link of the inputs below has a coloop, which no circuit would show
    found = set(circuits)
    verts = _union(circuits)
    bits = [1 << i for i in range(verts.bit_length()) if verts >> i & 1]
    return len(bits) > 1 and all(u | w in found for u, w in itertools.combinations(bits, 2))


# whether a call of each engine step, by the module that binds it, is made
# for a link of rank 1; the circuit sweep runs behind the complex's cache
RANK_ONE_CALL = {
    (complexes, "_faces_of"): (
        lambda facets: len(facets) > 1 and all(f.bit_count() == 1 for f in facets)
    ),
    (complexes, "_minimal_nonfaces"): (
        lambda faces, n: max(f.bit_count() for f in faces) == 1 < len(faces) - 1
    ),
    (cotangent, "_class_rows"): _all_pairs_in,
}
PATH_64 = SimplicialComplex.from_facets(64, [[v, v + 1] for v in range(1, 64)])


@pytest.mark.parametrize("cx", [PATH_64, uniform(9, 4)], ids=["path-64", "U(9,4)"])
def test_rank_one_links_build_no_faces_circuits_or_classes(monkeypatch, cx):
    # the walk yields a link of rank 1 before building its faces or its
    # circuits, the up-set writer steps to one without either, and its
    # rows come from the uniform rule, not the class rule
    made = collections.Counter()
    for (module, name), rank_one in RANK_ONE_CALL.items():

        def watched(*args, name=name, real=getattr(module, name), rank_one=rank_one):
            made[name, rank_one(*args)] += 1
            return real(*args)

        monkeypatch.setattr(module, name, watched)
    table = t1_table(cx)
    assert formula_discrepancies(cx) == [] or cx is PATH_64
    if cx is not PATH_64:
        assert reconstruct(table) == cx
    assert not any(rank_one for _, rank_one in made), made
    # the 62 inner vertex links of the path are U(2, 1), with 1 at the
    # pair, and the 84 links of U(9, 4) at three vertices U(6, 1), with 4
    # at each vertex
    top = [d for a, g in table._groups.items() if a.bit_count() == cx.rank - 1 for d in g.values()]
    assert top == ([1] * 62 if cx is PATH_64 else [4] * 84 * 6)


def test_contraction_walk_looks_up_no_face_for_a_rank_one_link(monkeypatch):
    # a step from a link L = M/a to a u {v} reads the child's vertex mask
    # off L's circuits and, at a mask not met before, tests each circuit of
    # L that misses v, here with one lookup; only a child of rank 2 or more
    # needs that, so only a parent of rank 3 or more makes a lookup
    m = uniform(9, 4)
    want, seen = 0, set()
    for a in m.face_masks():
        link = m.link_mask(a)
        if len(link.facet_masks) > 1 and link.rank >= 3:
            circuits = [c for c in link.minimal_nonface_masks() if c.bit_count() > 1]
            above = link.vertex_mask & -(1 << a.bit_length())
            for v in (1 << i for i in range(m.n) if above >> i & 1):
                child = m.link_mask(a | v).vertex_mask
                if child not in seen:
                    seen.add(child)
                    want += sum(1 for c in circuits if not c & v)
    lookups = []

    class Watched(frozenset):
        def __contains__(self, f):
            lookups.append(f)
            return frozenset.__contains__(self, f)

    faces = Watched(m.face_masks())
    circuits = [c for c in m.minimal_nonface_masks() if c.bit_count() > 1]
    monkeypatch.setattr(SimplicialComplex, "face_masks", lambda self: faces)
    written = WriteOnce()
    _matroid_up_set(written, m, 0, m.vertex_mask, circuits)
    assert len(written) == 1 + 9 + 36 + 84
    assert len(lookups) == want == 9 * 56 + 36 * 35


def test_table_and_reconstruct_build_no_multidegree(monkeypatch):
    # the rows stay mask pairs from the walk through the final check of
    # `reconstruct`; a MultiDegree is made only where a caller asks for one
    made = []
    real = MultiDegree.__new__

    def record(cls, *args):
        made.append(args)
        return real(cls, *args)

    monkeypatch.setattr(MultiDegree, "__new__", record)
    m = uniform(8, 4)
    t = t1_table(m)
    assert reconstruct(t) == m
    assert T1Table.from_json_dict(t.to_json_dict()) == t
    assert made == []
    keys = t.keys()  # the count sees the MultiDegrees the public views make
    assert len(made) == len(keys) == len(t) > 0


def test_table_and_reconstruct_sort_only_the_rank_one_groups(monkeypatch):
    # rows carry no order until a public view shows them: building a table
    # and reading one from JSON sort nothing, and `reconstruct` orders only
    # the A of its rank-one groups, so that its first error is the table's
    calls = []
    real = cotangent._order_key

    def counting(n):
        key = real(n)
        return lambda m: calls.append(m) or key(m)

    monkeypatch.setattr(cotangent, "_order_key", counting)
    monkeypatch.setattr(reconstruction, "_order_key", counting)
    m = uniform(8, 4)
    t = t1_table(m)
    assert calls == []
    doc = t.to_json_dict()
    calls.clear()
    back = T1Table.from_json_dict(doc)
    assert calls == []
    assert reconstruct(back) == m
    groups = {a for a in t._groups if a.bit_count() == 3}
    assert sorted(calls) == sorted(groups) and len(groups) == 56


def test_matroid_table_runs_no_isolated_circuit_pass(monkeypatch):
    # one rule writes a matroid link's rows: the class rule, isolated
    # circuits included
    calls = []
    real = cotangent._isolated_circuits
    monkeypatch.setattr(
        cotangent, "_isolated_circuits", lambda circuits: calls.append(circuits) or real(circuits)
    )
    t1_table(uniform(8, 4))
    triangles = boundary_simplex([1, 2, 3]) * boundary_simplex([1, 2, 3])
    table = t1_table(triangles)
    assert calls == []
    assert table.dim((), (1, 2, 3)) == 1 and table.dim((), (4, 5, 6)) == 1


def test_matroid_table_builds_no_link_face_set(monkeypatch):
    # on a uniform matroid, written from its shape, and on M(K5), whose
    # links `_matroid_up_set` writes: the only face sets built are the
    # matroid's own, for the table and for the check of its reconstruction
    calls = []
    real = complexes._faces_of
    monkeypatch.setattr(
        complexes, "_faces_of", lambda facets: calls.append(sorted(facets)) or real(facets)
    )
    for m in (uniform(8, 4), complete_graph_matroid(5)):
        calls.clear()
        table = t1_table(m)
        assert reconstruct(table) == m
        assert calls and all(facets == sorted(m.facet_masks) for facets in calls)


def test_rank_two_contraction_walk_builds_no_face_set(monkeypatch):
    # K(2, 3) = U(2, 1) + U(3, 1) is a rank-2 matroid that is not uniform,
    # so `_matroid_up_set` starts at its root; it steps only to links of
    # rank 1 and looks no face up, so no face set of the complex is built
    calls = []
    real = complexes._faces_of
    monkeypatch.setattr(complexes, "_faces_of", lambda facets: calls.append(1) or real(facets))
    k23 = SimplicialComplex.from_facets(5, [[u, w] for u in (1, 2) for w in (3, 4, 5)])
    table = t1_table(k23)
    assert calls == [] and len(table) == 13
    assert reconstruct(table) == k23 and calls == []


VALID_TABLE_CASES = (
    [cx for n in range(1, 6) for cx in representatives(n)]
    + [uniform(9, 4), uniform(10, 5), partition_matroid(1), graphic_matroid(1)]
)


def test_engine_builds_only_valid_tables():
    # `t1_table` skips the entry checks; the checking constructors accept its output
    assert {cx.n for cx in VALID_TABLE_CASES[-2:]} == {9}
    for cx in VALID_TABLE_CASES:
        t = t1_table(cx)
        assert T1Table(t.n, list(t.items())) == t, cx
        assert T1Table.from_json_dict(t.to_json_dict()) == t, cx


def _record_singletons(monkeypatch):
    """The vertices b where `_vertex_dims` yields a dimension, and the
    degrees b where `_wide_dim` decides one, in the order they come."""
    singletons, counted = [], []
    real_vertex_dims, real_wide = cotangent._vertex_dims, cotangent._wide_dim

    def vertex_dims(faces, a, circuits, rank):
        for row in real_vertex_dims(faces, a, circuits, rank):
            singletons.append(row[0])
            yield row

    monkeypatch.setattr(cotangent, "_vertex_dims", vertex_dims)
    monkeypatch.setattr(
        cotangent, "_wide_dim", lambda *args: counted.append(args[-1]) or real_wide(*args)
    )
    return singletons, counted


def test_matroid_table_builds_no_graph_past_singletons(monkeypatch):
    # the circuit rule decides U(6, 3) at its six vertices, and no wider
    # rule runs at all
    m = uniform(6, 3)
    want = graph_engine_table(m)
    singletons, counted = _record_singletons(monkeypatch)
    assert {(k.A, k.b): d for k, d in t1_table(m).items()} == want
    assert singletons == [1 << i for i in range(m.n)] and counted == []


def _path_edges(n):
    return [[v, v + 1] for v in range(1, n)]


def _count_engine_calls(monkeypatch, cx):
    """Counters of the calls `t1_table` makes on the complex cx: the graph
    at each degree b of the root link, by the circuit rule `_vertex_dims`
    at a vertex and the wider rule of `_wide_dim` else, and the circuit
    family, by the reader (the face cube or the sweep) and the ground size;
    and of the rule `_graph_dims`, by the adjacency it is given."""
    faces = cx.face_masks()
    dims, circuits, rule = collections.Counter(), [], []
    real_wide = cotangent._wide_dim
    real_vertex_dims = cotangent._vertex_dims
    real_cube = complexes._cube_circuits
    real_circuits = complexes._minimal_nonfaces
    real_rule = cotangent._graph_dims

    def count_wide(link, a, link_circuits, rank, b):
        if link == faces and not a:
            dims[b] += 1
        return real_wide(link, a, link_circuits, rank, b)

    def count_vertex_dims(face_set, a, link_circuits, rank):
        for row in real_vertex_dims(face_set, a, link_circuits, rank):
            if face_set == faces and not a:
                dims[row[0]] += 1
            yield row

    def count_cube(facets, ground):
        if tuple(facets) == cx.facet_masks:
            circuits.append(("cube", ground))
        return real_cube(facets, ground)

    def count_circuits(face_set, ground):
        if face_set == faces:
            circuits.append(("sweep", ground))
        return real_circuits(face_set, ground)

    monkeypatch.setattr(cotangent, "_wide_dim", count_wide)
    monkeypatch.setattr(cotangent, "_vertex_dims", count_vertex_dims)
    monkeypatch.setattr(complexes, "_cube_circuits", count_cube)
    monkeypatch.setattr(complexes, "_minimal_nonfaces", count_circuits)
    monkeypatch.setattr(cotangent, "_graph_dims", lambda adj: rule.append(adj) or real_rule(adj))
    return dims, circuits, rule


@pytest.mark.parametrize(
    "n, facets", [(12, _path_edges(12)), (4, [[1, 2], [3, 4]])], ids=["path-12", "two-edges"]
)
def test_non_matroid_pays_once(monkeypatch, n, facets):
    # a graph's table reads the rule once, at the root, whose circuits come
    # off the adjacency too; no circuit family is built and no rule reads
    # a face set
    cx = SimplicialComplex.from_facets(n, facets)
    want = graph_engine_table(SimplicialComplex.from_facets(n, facets))
    dims, circuits, rule = _count_engine_calls(monkeypatch, cx)
    table = t1_table(cx)
    assert circuits == []
    assert rule == [cotangent._adjacency(cx.facet_masks)]
    assert not dims
    assert {(k.A, k.b): d for k, d in table.items()} == want
    assert not is_matroid_via_t1(cx)


@pytest.mark.parametrize(
    "n, facets",
    [(5, [[1, 2, 3], [3, 4, 5]]), (6, [[1, 2, 3], [3, 4], [4, 5, 6]])],
    ids=["bowtie", "two-triangles-and-an-edge"],
)
def test_non_matroid_of_dimension_two_pays_once_per_degree(monkeypatch, n, facets):
    # the root link is 2-dimensional, so the graph is counted there once at
    # each face in a circuit, by the circuit rule at a vertex and the wider
    # rule at a wider face (a vertex in none is 0 by rule 1), and every
    # vertex link of dimension 1 takes the rule once; the root's circuits
    # are read once, off its face cube on so small a ground
    cx = SimplicialComplex.from_facets(n, facets)
    want = graph_engine_table(SimplicialComplex.from_facets(n, facets))
    mnf = SimplicialComplex.from_facets(n, facets).minimal_nonface_masks()
    dims, circuits, rule = _count_engine_calls(monkeypatch, cx)
    table = t1_table(cx)
    assert circuits == [("cube", n)]
    assert max(dims.values()) == 1 and set(dims) == cotangent._circuit_faces(mnf)
    links = [cx.link_mask(1 << (v - 1)) for v in cx.vertices()]
    graph_links = [link.vertex_mask for link in links if link.rank == 2 and len(link.facet_masks) > 1]
    assert graph_links and sorted(map(_union, rule)) == sorted(graph_links)
    assert {(k.A, k.b): d for k, d in table.items()} == want
    assert not is_matroid_via_t1(cx)


def test_recognition_keeps_the_graph_engine(monkeypatch):
    # a graph dimension one too high at every degree must show, matroid or
    # not: through the rule on the 1-dimensional U(4, 2), through the
    # circuit rule at the vertices of the 2-dimensional U(5, 3)
    real_rule, real_edge = cotangent._graph_dims, cotangent._graph_edge_dim
    too_high = lambda adj: ((b, g + 1, f) for b, g, f in real_rule(adj))
    with monkeypatch.context() as patch:
        patch.setattr(cotangent, "_graph_dims", too_high)
        patch.setattr(cotangent, "_graph_edge_dim", lambda adj, b: real_edge(adj, b) + 1)
        assert formula_discrepancies(uniform(4, 2))
        assert not is_matroid_via_t1(uniform(4, 2))
        assert formula_discrepancies(uniform(5, 3)) == [] and is_matroid_via_t1(uniform(5, 3))
    real = cotangent._vertex_dims
    too_high = lambda *args: ((b, g + 1, f) for b, g, f in real(*args))
    monkeypatch.setattr(cotangent, "_vertex_dims", too_high)
    assert formula_discrepancies(uniform(5, 3))
    assert not is_matroid_via_t1(uniform(5, 3))
    assert formula_discrepancies(uniform(4, 2)) == [] and is_matroid_via_t1(uniform(4, 2))


def test_discrepancies_on_a_matroid_run_only_singleton_graphs(monkeypatch):
    # U(8, 4) passes the singleton test at the empty face, and every other
    # link is a contraction of it, so the graph is counted once per vertex,
    # by the circuit rule, and the wider rule never runs
    singletons, counted = _record_singletons(monkeypatch)
    assert formula_discrepancies(uniform(8, 4)) == []
    assert sorted(singletons) == [1 << i for i in range(8)] and counted == []


REMARK = SimplicialComplex.from_minimal_nonfaces(
    5, [[1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5]]
)


def test_full_comparison_checks_what_the_shortcut_assumes(monkeypatch):
    # a graph dimension one too high at the faces of two or more vertices
    # of the links of rank 3 or more leaves every singleton test intact: the
    # shortcut, whose wider rule is patched, trusts the main theorem on a
    # matroid and misses it, the full comparison, whose definition is
    # patched, reports it, and on a non-matroid both do
    before = formula_discrepancies(REMARK)
    real_wide, real_dim = cotangent._wide_dim, definition._dim_on_faces
    wrong = lambda link, a, circuits, rank, b: real_wide(link, a, circuits, rank, b) + (rank > 2)
    monkeypatch.setattr(cotangent, "_wide_dim", wrong)
    monkeypatch.setattr(
        definition, "_dim_on_faces", lambda faces, b: real_dim(faces, b) + (b.bit_count() > 1)
    )
    assert formula_discrepancies(uniform(4, 2)) == []
    assert definition_discrepancies(uniform(4, 2))
    added = [d for d in formula_discrepancies(REMARK) if d not in before]
    assert added and all(len(d.degree.b) > 1 for d in added)
    assert added == [d for d in definition_discrepancies(REMARK) if d not in before]


# -- uniform links and flats ----------------------------------------------------


def uniform_with_coloops(m, r, coloops):
    """U(m, r) joined with a simplex on coloops vertices, beside one loop,
    on shuffled labels: the matroid, its uniform part W and its coloops."""
    n = m + coloops + 1
    labels = random.Random(f"uniform:{m}:{r}:{coloops}").sample(range(1, n + 1), n)
    part, free = labels[:m], labels[m : m + coloops]
    facets = [list(s) + free for s in itertools.combinations(part, r)]
    cx = SimplicialComplex.from_facets(n, facets)
    return cx, complexes.pack(part, n), complexes.pack(free, n)


def contraction_rows(cx, circuits):
    """The groups face -> {b: dim} of the matroid cx and of every link above
    it, the way a non-uniform matroid link takes them: `_matroid_up_set`,
    the class rule at each link, or the uniform rule at rank 1."""
    groups = {}
    _matroid_up_set(groups, cx, 0, cx.vertex_mask, circuits)
    return groups


@pytest.mark.parametrize("coloops", [0, 1, 2])
def test_uniform_rows_match_the_class_rule(coloops):
    # for every 1 <= r < m <= 10: the shape test names W and r, the uniform
    # rows are the class rule's on the link's circuits, and the up-set the
    # uniform rule writes is what the other up-set writer and the class rule
    # write at each link above
    for m in range(2, 11):
        for r in range(1, m):
            cx, part, free = uniform_with_coloops(m, r, coloops)
            circuits = [c for c in cx.minimal_nonface_masks() if c & (c - 1)]
            assert cotangent._uniform_shape(circuits) == (part, r), (m, r)
            rows = cotangent._uniform_rows(part, r)
            assert rows == cotangent._class_rows(circuits), (m, r)
            up_set = WriteOnce()  # each face of the up-set is written once
            cotangent._uniform_up_set(up_set, 0, part | free, part, r)
            assert up_set == contraction_rows(cx, circuits), (m, r)
            assert t1_table(cx)._groups == up_set


def test_uniform_shape_rejects_other_circuit_families():
    # one circuit short of all the 3-subsets, circuits of two sizes, and the
    # two parallel classes of U(2, 1) joined with U(2, 1)
    triples = [complexes.pack(t, 5) for t in itertools.combinations(range(1, 6), 3)]
    assert cotangent._uniform_shape(triples) == (0b11111, 2)
    assert cotangent._uniform_shape(triples[:-1]) is None
    assert cotangent._uniform_shape(triples[:-1] + [0b11000]) is None
    assert cotangent._uniform_shape([0b0011, 0b1100]) is None


def complete_graph_matroid(nodes):
    """M(K_nodes): the spanning trees of the complete graph, its edges the
    elements in lexicographic order."""
    edges = list(itertools.combinations(range(nodes), 2))

    def spanning_tree(subset):
        parent = list(range(nodes))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in subset:
            ru, rv = find(edges[i][0]), find(edges[i][1])
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    trees = itertools.combinations(range(len(edges)), nodes - 1)
    return SimplicialComplex.from_facets(
        len(edges), [[i + 1 for i in s] for s in trees if spanning_tree(s)]
    )


def parallel_copies(cx, times):
    """cx with each element v replaced by the times parallel elements
    times * (v - 1) + 1 .. times * v."""
    copies = lambda v: range(times * (v - 1) + 1, times * v + 1)
    facets = [p for f in cx.facets for p in itertools.product(*map(copies, f))]
    return SimplicialComplex.from_facets(cx.n * times, facets)


def class_rule_at_every_face(cx):
    """The groups of the table from the class rule at every face of cx, on
    the circuits of the link built from its facets: no walk, no contraction,
    no shape test."""
    out = {}
    for a in cx.face_masks():
        circuits = [c for c in cx.link_mask(a).minimal_nonface_masks() if c & (c - 1)]
        if circuits:
            out[a] = dict(cotangent._class_rows(circuits))
    return out


K6 = complete_graph_matroid(6)
FLAT_CASES = [
    ("M(K5)", complete_graph_matroid(5)),
    ("M(K6)", K6),
    ("U(5,3)-tripled", parallel_copies(uniform(5, 3), 3)),
    ("U(7,4)-doubled", parallel_copies(uniform(7, 4), 2)),
] + [(f"partition-{seed}", partition_matroid(seed)) for seed in (0, 20, 35, 38)]


@pytest.mark.parametrize("cx", [cx for _, cx in FLAT_CASES], ids=[name for name, _ in FLAT_CASES])
def test_t1_table_matches_the_class_rule_at_every_face(cx):
    assert is_matroid_exchange(cx)
    assert t1_table(cx)._groups == class_rule_at_every_face(cx)


def test_flat_cases_reach_coloops_past_the_uniform_rule():
    # each seeded partition matroid has a coloop, and its root is no uniform
    # link, so the class rule writes it
    for _, cx in FLAT_CASES[-4:]:
        circuits = [c for c in cx.minimal_nonface_masks() if c & (c - 1)]
        assert cx.loops_and_coloops()[1] and cotangent._uniform_shape(circuits) is None


def _record_calls(monkeypatch, name):
    """The argument tuples of each call of the engine step `name`."""
    calls = []
    real = getattr(cotangent, name)
    monkeypatch.setattr(cotangent, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_uniform_links_run_no_class_rule_or_contraction(monkeypatch):
    # a uniform matroid with coloops is written from its shape: no class
    # rule and no contraction step at its root or above it
    class_rows = _record_calls(monkeypatch, "_class_rows")
    contractions = _record_calls(monkeypatch, "_matroid_up_set")
    for m, r, coloops in ((6, 3, 2), (9, 4, 1), (40, 2, 0)):
        cx, _, _ = uniform_with_coloops(m, r, coloops)
        assert reconstruct(t1_table(cx)) == cx
    assert class_rows == [] and contractions == []
    # near U(10, 5) most matroid links are uniform and take the rule: the
    # other up-set writer starts only at a link that is not
    roots = [
        (a, circuits)
        for a, _, circuits, dims in cotangent._walk(NEAR_U10)
        if dims is None and circuits is not None
    ]
    uniform_roots = [a for a, circuits in roots if cotangent._uniform_shape(circuits)]
    t1_table(NEAR_U10)
    assert uniform_roots and len(contractions) == len(roots) - len(uniform_roots)
    assert all(cotangent._uniform_shape(circuits) is None for *_, circuits in contractions)


def test_class_rule_runs_once_per_flat(monkeypatch):
    # a link of a matroid is fixed by its flat, which its vertex mask names:
    # M(K6)'s 1636 links have 202 vertex masks, its flats of rank at most 4;
    # the 31 of rank 4 have links of rank 1, and the class rule runs once at
    # each of the other 171
    links = [K6.link_mask(a) for a in _in_two_facets(K6)]
    assert len(links) == 1636
    assert len({link.vertex_mask for link in links}) == 202
    assert len({link.vertex_mask for link in links if link.rank == 1}) == 31
    class_rows = _record_calls(monkeypatch, "_class_rows")
    table = t1_table(K6)
    assert len(class_rows) == len({frozenset(c) for (c,) in class_rows}) == 171
    assert reconstruct(table) == K6


def test_contraction_runs_once_per_flat(monkeypatch):
    # the steps from M(K6)'s links of rank 3 or more reach 170 vertex masks,
    # its flats of rank 1 to 3, and each is contracted once, at the first
    # step that reaches it; a step per face made 555 contractions
    reached = set()
    for a in _in_two_facets(K6):
        if _link_rank(K6, a) >= 3:
            reached |= {_link_vertices(K6, a | v) for v in _bits(_link_vertices(K6, a)) if v > a}
    contractions = _record_calls(monkeypatch, "_contract")
    t1_table(K6)
    assert len(contractions) == len(reached) == 170
    assert {_link_vertices(K6, a) for _, a, _, _ in contractions} == reached


def test_flat_memo_is_not_shared_between_matroid_links():
    # the links at 1 and at 2 are matroids on the same vertices 3..6, with
    # different parallel classes, inside a complex that is no matroid: each
    # matroid link keeps its own memo
    first = [[1, 3, 5], [1, 3, 6], [1, 4, 5], [1, 4, 6]]  # classes 34, 56
    second = [[2, 3, 4], [2, 3, 6], [2, 5, 4], [2, 5, 6]]  # classes 35, 46
    cx = SimplicialComplex.from_facets(6, first + second)
    assert not is_matroid_via_t1(cx)
    links = {a: v for a, v, _, dims in cotangent._walk(cx) if dims is None}
    assert links[0b1] == links[0b10] == 0b111100
    table = t1_table(cx)
    assert {(k.A, k.b): dim for k, dim in table.items()} == graph_engine_table(cx)
    assert table.dim((1,), (3, 4)) == table.dim((2,), (3, 5)) == 1
    assert table.dim((1,), (3, 5)) == table.dim((2,), (3, 4)) == 0


def test_rank_two_links_count_edges_only_past_a_failed_test(monkeypatch):
    # the singleton test reads the vertices of a link of dimension 1 alone;
    # the graph at its edges is counted only when the test fails
    drawn = {"_graph_dims": [], "_graph_edge_dim": []}
    real_rule, real_edge = cotangent._graph_dims, cotangent._graph_edge_dim

    def rows(adj):
        drawn["_graph_dims"].append(0)  # the rows read, per call
        for row in real_rule(adj):
            drawn["_graph_dims"][-1] += 1
            yield row

    def edge(adj, b):
        drawn["_graph_edge_dim"].append(b)  # the edges counted
        return real_edge(adj, b)

    monkeypatch.setattr(cotangent, "_graph_dims", rows)
    monkeypatch.setattr(cotangent, "_graph_edge_dim", edge)
    t1_table(uniform(40, 2))
    assert drawn == {"_graph_dims": [40], "_graph_edge_dim": []}
    for counts in drawn.values():
        counts.clear()
    t1_table(SimplicialComplex.from_facets(12, _path_edges(12)))
    assert drawn == {"_graph_dims": [12], "_graph_edge_dim": [3 << v for v in range(11)]}
