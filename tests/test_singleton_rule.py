"""The singleton rule and the wider rule from the circuits against the face engine.

At a vertex v of a link L, `cotangent._vertex_dims` reads the graph
dimension off the circuits of L through v: they are the nodes of a graph
G_v, two of them joined when their union less v is a face, and the
dimension is c(G_v) - 1, clamped at 0; beside it the rule yields the
circuit count, the number of nodes less one, clamped.  Here the dimension
meets `definition._dim_on_faces` and the count `definition._formula_on_link`
at every vertex of every link, each link built from its facets
(`complexes._link_facets`, `complexes._faces_of`), on the census classes,
on seeded random complexes on 6 to 9 vertices, on M(K5), on U(12, 6) and
on "three facets k = 10", the complex with facets {1..10}, {3..16} and
{1, 16}; a vertex in no circuit gets 0 from the face engine, and the rule
lists it nowhere.  On the census and the random complexes, as an
observation, the test passes exactly when weak circuit elimination holds at
every vertex, and so exactly when the complex is a matroid.

At a face b of two or more vertices in a circuit of a link of rank 3 or
more, the wider rule of `cotangent._wide_dim` reads the link off cx's faces
as the walk does, and counts the components of the graph G_b on the
circuits through b that hold no node killed by a circuit meeting b without
containing it; it meets the face engine over the link's own faces on the
census classes, the random complexes, three facets k = 9 and 10 and U(8, 4)
less two bases, with pinned counts of nonzero dimensions and of the
components the kill test drops.  On U(10, 5) less two bases it makes at most
one face lookup per pair of nodes and one per node and killer, and the table
of U(11, 5) less two bases takes well under half a second.  Over the census,
C |-> C - b maps the circuits through each nonempty face b into
`t1_upper_bound`'s first count c1.

The guards count calls, with no timing: the table, the T1 recognition, the
discrepancies and the reconstruction of U(12, 6), M(K6) and four parallel
classes of 12 run neither the wider rule nor the face engine nor its
union-find, and `is_matroid_via_t1` reads the rule lazily, up to the first
vertex that fails.  The T1 recognition, `dim_t1` at the vertices, the table
and the discrepancies share one face set and one circuit sweep, cx's cached
ones, at the root and at every link above it, at the singleton test and at
the wider faces alike; on three facets k = 12 none of them runs N_b, its
marks or its union-find.
"""

import collections
import itertools
import random
import time

import pytest

from srt1 import complexes, cotangent, definition
from srt1.complexes import SimplicialComplex, _faces_of, _link_facets, _minimal_nonfaces, unpack
from srt1.cotangent import _vertex_dims, dim_t1, t1_table
from srt1.definition import _dim_on_faces, _formula_on_link
from srt1.matroids import is_matroid_exchange, uniform
from srt1.recognition import formula_discrepancies, is_matroid_via_t1
from srt1.reconstruction import reconstruct

from _census_reps import representatives
from test_matroid_engine import K6, complete_graph_matroid, parallel_copies


def random_complex(rng):
    """A complex on 6 to 9 vertices with two to seven random facets of one
    to five vertices."""
    n = rng.randint(6, 9)
    facets = [rng.sample(range(1, n + 1), rng.randint(1, 5)) for _ in range(rng.randint(2, 7))]
    return SimplicialComplex.from_facets(n, facets)


def three_facets(k):
    return SimplicialComplex.from_facets(
        2 * k - 4, [range(1, k + 1), range(k - 7, 2 * k - 3), [1, 2 * k - 4]]
    )


CENSUS = [cx for n in range(1, 6) for cx in representatives(n)]
RANDOMS = [random_complex(random.Random(seed)) for seed in range(300)]
# each with whether the rule joins two circuits somewhere, as it does only
# where the singleton test fails
LARGE = {
    "M(K5)": (complete_graph_matroid(5), False),
    "U(12,6)": (uniform(12, 6), False),
    "three-facets-10": (three_facets(10), True),
}


def _compare_every_vertex(cx, fewest_facets=1):
    """Compares the rule with the face engine at each vertex of the link of
    each face of cx in fewest_facets or more facets.  Counts the vertices
    checked, those in no circuit of two or more vertices, and those where
    G_v has an edge, so that the rule joins two circuits.  A link in one
    facet is a simplex, with no such circuit and 0 from the face engine at
    each vertex, as the census and random batteries check."""
    counts = collections.Counter()
    for a in cx.face_masks():
        link_facets = _link_facets(cx.facet_masks, a)
        if len(link_facets) < fewest_facets:
            continue
        faces = _faces_of(link_facets)
        circuits = [c for c in _minimal_nonfaces(faces, cx.n) if c & (c - 1)]
        rank = max(map(int.bit_count, link_facets))
        rows = list(_vertex_dims(faces, 0, circuits, rank))
        assert [b for b, _, _ in rows] == sorted(b for b, _, _ in rows), (cx, a)
        for b, _, count in rows:
            assert count == _formula_on_link(circuits, b), (cx, a, b)
        got = {b: graph for b, graph, _ in rows}
        for b in (1 << i for i in range(cx.n)):
            if b not in faces:
                assert b not in got, (cx, a, b)
                continue
            assert got.get(b, 0) == _dim_on_faces(faces, b), (cx, a, b)
            counts["checked"] += 1
            counts["outside"] += b not in got
            counts["joined"] += got.get(b, 0) < sum(1 for c in circuits if c & b) - 1
    return counts


@pytest.mark.parametrize("complexes", [CENSUS, RANDOMS], ids=["census", "random"])
def test_rule_matches_the_face_engine_at_every_vertex_of_every_link(complexes):
    counts = sum(map(_compare_every_vertex, complexes), collections.Counter())
    assert counts["checked"] > 5000 and counts["outside"] > 1000 and counts["joined"] > 100


@pytest.mark.parametrize("cx, joins", LARGE.values(), ids=LARGE)
def test_rule_matches_the_face_engine_past_the_census(cx, joins):
    # at the links in two or more facets, 258 of them on three facets
    counts = _compare_every_vertex(cx, fewest_facets=2)
    assert counts["checked"] > 0 and bool(counts["joined"]) == joins


def test_the_test_passes_iff_weak_circuit_elimination_holds():
    # observed: no two circuits C != C' through a vertex v have a face for
    # (C u C') - v exactly when the complex passes, and so exactly when it
    # is a matroid
    verdicts = set()
    for cx in CENSUS + RANDOMS:
        faces = cx.face_masks()
        circuits = [c for c in cx.minimal_nonface_masks() if c & (c - 1)]
        eliminates = not any(
            (c | d) & ~(1 << i) in faces
            for c, d in itertools.combinations(circuits, 2)
            for i in range(cx.n)
            if (c & d) >> i & 1
        )
        verdict = is_matroid_via_t1(cx)
        assert verdict == eliminates == is_matroid_exchange(cx), cx
        verdicts.add(verdict)
    assert verdicts == {True, False}


GUARD_CASES = [uniform(12, 6), K6, parallel_copies(uniform(4, 4), 12)]


@pytest.mark.parametrize("cx", GUARD_CASES, ids=["U(12,6)", "M(K6)", "four-classes-of-12"])
def test_matroids_run_no_face_engine_and_no_union_find(monkeypatch, cx):
    calls = []
    for module, name in (
        (definition, "_dim_on_faces"),
        (definition, "_component_ids"),
        (cotangent, "_wide_dim"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    cx = SimplicialComplex(cx.n, cx.facet_masks)
    assert is_matroid_via_t1(cx)
    # through `_walk`, which would reach the wider rule at a link that fell to it
    assert formula_discrepancies(cx) == []
    assert reconstruct(t1_table(cx)) == cx
    assert calls == []


def test_recognition_stops_at_the_first_vertex_that_fails(monkeypatch):
    # the rule yields lazily: the bowtie fails at vertex 1, where the
    # circuits 14 and 15 are joined by the face 45, and no other vertex is read
    drawn = []
    real = cotangent._vertex_dims

    def counted(*args):
        for row in real(*args):
            drawn.append(row[0])
            yield row

    monkeypatch.setattr(cotangent, "_vertex_dims", counted)
    assert not is_matroid_via_t1(SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4, 5]]))
    assert drawn == [0b1]


def _failing_links(cx):
    """The facets of each link of a nonempty face of cx that is no matroid,
    in two or more facets, of rank 3 or more and with a circuit of three or
    more vertices: the links where `_walk` runs the wider rule at a face of
    two or more vertices in a circuit, off cx's face set."""
    out = []
    for a in cx.face_masks() - {0}:
        link = cx.link_mask(a)
        if len(link.facet_masks) > 1 and link.rank > 2 and not is_matroid_exchange(link):
            if any(c.bit_count() > 2 for c in link.minimal_nonface_masks()):
                out.append(sorted(link.facet_masks))
    return out


def uniform_less_two_bases(n=8, k=4):
    """U(n, k) less the bases [k] and [k - 1] + {k + 1}, which share k - 1
    elements: U(8, 4) less 1234 and 1235 by default."""
    dropped = {tuple(range(1, k + 1)), tuple(range(1, k)) + (k + 1,)}
    return SimplicialComplex.from_facets(n, [f for f in uniform(n, k).facets if f not in dropped])


@pytest.mark.parametrize(
    "cx, failing",
    [
        (uniform(5, 3), 0),
        (SimplicialComplex.from_facets(5, [[1, 2, 3], [3, 4, 5]]), 0),
        (three_facets(9), 0),
        (uniform_less_two_bases(), 3),
    ],
    ids=["U(5,3)", "bowtie", "three-facets-9", "U(8,4)-less-two-bases"],
)
def test_the_root_readers_share_one_face_set_and_one_circuit_sweep(monkeypatch, cx, failing):
    # the T1 recognition, `dim_t1` at each vertex, the table and the
    # discrepancies read the root through `cotangent._read_link`, from cx's
    # cached faces and circuits, and every larger link through them too, its
    # circuits contracted from cx's, at its singleton test and at its wider
    # faces alike: one circuit sweep and one face set in all
    links = _failing_links(SimplicialComplex(cx.n, cx.facet_masks))
    assert len(links) == failing
    sweeps, face_sets = [], []
    real_sweep = complexes._minimal_nonfaces
    monkeypatch.setattr(
        complexes, "_minimal_nonfaces", lambda *args: sweeps.append(args[1]) or real_sweep(*args)
    )
    real = complexes._faces_of
    monkeypatch.setattr(
        complexes, "_faces_of", lambda facets: face_sets.append(sorted(facets)) or real(facets)
    )
    cx = SimplicialComplex(cx.n, cx.facet_masks)
    is_matroid_via_t1(cx)
    for v in cx.vertices():
        dim_t1(cx, ((), (v,)))
    t1_table(cx)
    formula_discrepancies(cx)
    assert sweeps == [cx.n]
    assert face_sets == [sorted(cx.facet_masks)]


# the inputs of the wider rule's differential test, each with the (link, b)
# pairs compared, those with a nonzero dimension and the components of the
# graph on the circuits through b that the kill test drops
WIDER = {
    "census": (CENSUS, 1_363, 345, 1_058),
    "random": (RANDOMS, 1_520, 105, 1_418),
    "three-facets-9-and-10": ([three_facets(9), three_facets(10)], 34, 0, 34),
    "U(8,4)-less-two-bases": ([uniform_less_two_bases()], 592, 0, 592),
}


@pytest.mark.parametrize("family", WIDER)
def test_wider_rule_matches_the_face_engine_at_every_wider_face(monkeypatch, family):
    # at each face b of two or more vertices in a circuit of the link at a,
    # for every face a in two or more facets whose link has rank 3 or more,
    # `_wide_dim` reads the link off cx's faces as the walk does, and meets
    # the face engine over the link's own faces
    complexes_, want_pairs, want_nonzero, want_dropped = WIDER[family]
    dropped = []
    real = cotangent._unkilled_components

    def unkilled_components(faces, nodes, killers):
        # the components that the kill test drops
        kept = real(faces, nodes, killers)
        dropped.append(real(faces, nodes, []) - kept)
        return kept

    monkeypatch.setattr(cotangent, "_unkilled_components", unkilled_components)
    pairs = nonzero = 0
    for cx in complexes_:
        faces = cx.face_masks()
        for a in faces:
            link_facets = _link_facets(cx.facet_masks, a)
            rank = max(map(int.bit_count, link_facets), default=0)
            if len(link_facets) < 2 or rank < 3:
                continue
            _, circuits, _ = cotangent._read_link(cx, a, link_facets, rank)
            link_faces = _faces_of(link_facets)
            for b in cotangent._circuit_faces(circuits):
                if b & (b - 1):
                    want = _dim_on_faces(link_faces, b)
                    assert cotangent._wide_dim(faces, a, circuits, rank, b) == want, (cx, a, b)
                    pairs += 1
                    nonzero += want > 0
    assert (pairs, nonzero, sum(dropped)) == (want_pairs, want_nonzero, want_dropped)


class CountingFaces(frozenset):
    """A face set that counts its membership lookups."""

    lookups = 0

    def __contains__(self, face):
        CountingFaces.lookups += 1
        return frozenset.__contains__(self, face)


def test_the_wider_rule_makes_one_lookup_per_pair_of_nodes_and_per_killer(monkeypatch):
    # on U(10, 5) less two bases, at each wider face b of each link that
    # fails the singleton test, the components of G_b cost at most one
    # lookup per pair of nodes, and the kill test one per node and killer
    calls = []
    real = cotangent._unkilled_components

    def unkilled_components(faces, nodes, killers):
        CountingFaces.lookups = 0
        kept = real(CountingFaces(faces), nodes, killers)
        calls.append((CountingFaces.lookups, len(nodes), len(killers)))
        return kept

    monkeypatch.setattr(cotangent, "_unkilled_components", unkilled_components)
    t1_table(uniform_less_two_bases(10, 5))
    for lookups, nodes, killers in calls:
        assert lookups <= nodes * (nodes - 1) // 2 + nodes * killers
    assert len(calls) == 2_093 and sum(lookups for lookups, _, _ in calls) == 85_557
    assert max(nodes for _, nodes, _ in calls) > 1 and max(k for _, _, k in calls) > 0


def test_the_wider_rule_is_quick_on_a_near_uniform_non_matroid():
    # the table of U(11, 5) less two bases took 0.9-1.05 s while the rule grew
    # the unmarked part W of N_b face by face, and 0.17 s by the kill test
    best = min(_timed_table(uniform_less_two_bases(11, 5)) for _ in range(2))
    assert best < 0.45


def _timed_table(cx):
    start = time.perf_counter()
    t1_table(cx)
    return time.perf_counter() - start


def test_circuits_through_a_face_map_into_the_first_bound_count():
    # C |-> C - b sends the circuits through a nonempty face b into the
    # minimal nonfaces of link(b) that are faces of the deletion of b, the
    # first count c1 of `t1_upper_bound`, so G_b has at most c1 nodes, and
    # the dimension at (emptyset, b) is at most that many, less one at a
    # singleton
    checked = equal = 0
    for cx in CENSUS:
        circuits = cx.minimal_nonface_masks()
        for b in cx.face_masks() - {0}:
            link, deletion = cx.link_mask(b), cx.delete(unpack(b))
            first = {c for c in link.minimal_nonface_masks() if deletion.is_face_mask(c)}
            nodes = {c ^ b for c in circuits if not b & ~c}
            assert nodes <= first, (cx, unpack(b))
            assert dim_t1(cx, ((), unpack(b))) <= max(len(nodes) - (b.bit_count() == 1), 0)
            checked += 1
            equal += len(nodes) == len(first)
    assert (checked, equal) == (3_400, 1_775)


def test_three_facets_runs_no_face_engine(monkeypatch):
    # on three facets k = 12 the table, the discrepancies and `dim_t1` at
    # each of the 17 wider faces of the root in a circuit, the only ones in
    # the table's dims, decide every degree without N_b, its marks or its
    # union-find, and the two walks build one face set, the complex's own
    cx = three_facets(12)
    table = t1_table(cx)
    wider = [b for b in cotangent._circuit_faces(cx.minimal_nonface_masks()) if b & (b - 1)]
    calls = []
    for module, name in (
        (definition, "_dim_on_faces"),
        (definition, "_marks"),
        (definition, "_component_ids"),
        (definition, "_ndel"),
        (complexes, "_ndel"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    face_sets = []
    real_faces = complexes._faces_of
    monkeypatch.setattr(
        complexes,
        "_faces_of",
        lambda facets: face_sets.append(sorted(facets)) or real_faces(facets),
    )
    cx = SimplicialComplex(cx.n, cx.facet_masks)
    assert t1_table(cx) == table
    assert formula_discrepancies(cx)
    assert face_sets == [sorted(cx.facet_masks)]
    assert len(wider) == 17
    for b in wider:
        assert dim_t1(cx, ((), unpack(b))) == table.dim((), unpack(b)), unpack(b)
    assert calls == [] and face_sets == [sorted(cx.facet_masks)]
