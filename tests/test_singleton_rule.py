"""The singleton rule from the circuits against the face engine.

At a vertex v of a link L, `cotangent._vertex_dims` reads the graph
dimension off the circuits of L through v: they are the nodes of a graph
G_v, two of them joined when their union less v is a face, and the
dimension is c(G_v) - 1, clamped at 0; beside it the rule yields the
circuit count, the number of nodes less one, clamped.  Here the dimension
meets `cotangent._dim_on_faces` and the count `cotangent._formula_on_link`
at every vertex of every link, each link built from its facets
(`complexes._link_facets`, `complexes._faces_of`), on the census classes,
on seeded random complexes on 6 to 9 vertices, on M(K5), on U(12, 6) and
on "three facets k = 10", the complex with facets {1..10}, {3..16} and
{1, 16}; a vertex in no circuit gets 0 from the face engine (rule 1), and
the rule lists it nowhere.  On the census and the random
complexes, as an observation, the test passes exactly when weak circuit
elimination holds at every vertex, and so exactly when the complex is a
matroid.  The guard below counts calls, with no timing: the table, the T1
recognition, the discrepancies and the reconstruction of U(12, 6), M(K6) and
four parallel classes of 12 run neither the face engine nor its union-find, and
`is_matroid_via_t1` reads the rule lazily, up to the first vertex that
fails.  The T1 recognition, `dim_t1` at the vertices, the table and the
discrepancies share one face set and one circuit sweep, cx's cached ones,
at the root and at every link above it; a link builds its own face set only
where the inclusion graph is counted at a wider face.
"""

import collections
import itertools
import random

import pytest

from srt1 import complexes, cotangent
from srt1.complexes import SimplicialComplex, _faces_of, _link_facets, _minimal_nonfaces
from srt1.cotangent import _dim_on_faces, _formula_on_link, _vertex_dims, dim_t1, t1_table
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
    for name in ("_dim_on_faces", "_component_ids"):
        real = getattr(cotangent, name)
        monkeypatch.setattr(
            cotangent, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    cx = SimplicialComplex(cx.n, cx.facet_masks)
    assert is_matroid_via_t1(cx)
    # through `_walk`, which would reach the face engine at a link that fell to it
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
    more vertices: the links whose inclusion graph `_walk` counts at a face
    of two or more vertices in a circuit, by the definition."""
    out = []
    for a in cx.face_masks() - {0}:
        link = cx.link_mask(a)
        if len(link.facet_masks) > 1 and link.rank > 2 and not is_matroid_exchange(link):
            if any(c.bit_count() > 2 for c in link.minimal_nonface_masks()):
                out.append(sorted(link.facet_masks))
    return out


def uniform_less_two_bases():
    """U(8, 4) less the bases 1234 and 1235, which share three elements."""
    dropped = {(1, 2, 3, 4), (1, 2, 3, 5)}
    return SimplicialComplex.from_facets(8, [f for f in uniform(8, 4).facets if f not in dropped])


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
    # circuits contracted from cx's: one circuit sweep in all, and one face
    # set for cx and, in each of the two walks, one for each link where the
    # inclusion graph is counted
    links = _failing_links(SimplicialComplex(cx.n, cx.facet_masks))
    assert len(links) == failing
    sweeps, face_sets = [], []
    real_sweep = complexes._minimal_nonfaces
    monkeypatch.setattr(
        complexes, "_minimal_nonfaces", lambda *args: sweeps.append(args[1]) or real_sweep(*args)
    )
    for module in (complexes, cotangent):
        real = module._faces_of
        monkeypatch.setattr(
            module, "_faces_of", lambda facets, real=real: face_sets.append(sorted(facets)) or real(facets)
        )
    cx = SimplicialComplex(cx.n, cx.facet_masks)
    is_matroid_via_t1(cx)
    for v in cx.vertices():
        dim_t1(cx, ((), (v,)))
    t1_table(cx)
    formula_discrepancies(cx)
    assert sweeps == [cx.n]
    assert sorted(face_sets) == sorted([sorted(cx.facet_masks)] + links + links)
