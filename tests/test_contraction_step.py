"""Link circuits by contraction against the circuit sweep of each link.

`cotangent._contract` takes the circuits of two or more vertices of
link(cx, a - v) to those of link(cx, a); `cotangent._read_link` applies it
at each vertex of a, from cx's
cached circuits.  Here both meet `complexes._minimal_nonfaces` over the
link's own face set (`complexes._link_facets`, `complexes._faces_of`): the
circuits `_read_link` returns at every face in two or more facets whose
link has rank 3 or more, on the 253 census classes, the 300 seeded random
complexes of `test_singleton_rule`, "three facets k = 10" and U(8, 4) less
two bases that share three elements; and one step at every vertex v of
every nonempty face a, on all but three facets, matroids among them, as
`cotangent._matroid_up_set` takes the same step.  There the link's vertices
are those of link(cx, a - v) less v and the new loops, the u with {u, v} a
circuit of that link: the e with a u e a face.
"""

import collections

import pytest

from srt1.complexes import _faces_of, _link_facets, _minimal_nonfaces, _union
from srt1.cotangent import _contract, _read_link
from srt1.matroids import is_matroid_exchange

from test_singleton_rule import CENSUS, RANDOMS, three_facets, uniform_less_two_bases

FAMILIES = {
    "census": CENSUS,
    "random": RANDOMS,
    "three-facets-10": [three_facets(10)],
    "U(8,4)-less-two-bases": [uniform_less_two_bases()],
}


def _bits(mask):
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


def swept(cx, a):
    """The facets, vertex mask and circuits of two or more vertices of the
    link of cx at a, the circuits from a sweep over its own face set."""
    link_facets = _link_facets(cx.facet_masks, a)
    circuits = _minimal_nonfaces(_faces_of(link_facets), cx.n)
    return link_facets, _union(link_facets), sorted(c for c in circuits if c & (c - 1))


@pytest.mark.parametrize("family", FAMILIES)
def test_read_link_circuits_are_the_swept_ones(family):
    counts = collections.Counter()
    for cx in FAMILIES[family]:
        for a in cx.face_masks():
            link_facets, _, want = swept(cx, a)
            rank = max(map(int.bit_count, link_facets))
            if len(link_facets) < 2 or rank < 3:
                continue
            faces, circuits, _ = _read_link(cx, a, link_facets, rank)
            assert faces is cx.face_masks()
            assert sorted(circuits) == want, (cx, a)
            counts["links"] += 1
            counts["contracted"] += a != 0
    assert counts["contracted"] > 0 and counts["links"] > counts["contracted"]


@pytest.mark.parametrize("family", ["census", "random", "U(8,4)-less-two-bases"])
def test_one_step_gives_the_circuits_and_loops_of_the_link(family):
    counts = collections.Counter()
    for cx in FAMILIES[family]:
        faces = cx.face_masks()
        matroid = is_matroid_exchange(cx)
        for a in faces - {0}:
            _, verts, want = swept(cx, a)
            for v in (1 << i for i in range(cx.n) if a >> i & 1):
                _, below_verts, below = swept(cx, a ^ v)
                circuits = _contract(faces, a, v, below)
                assert sorted(circuits) == want, (cx, a, v)
                assert verts == sum(e for e in _bits(below_verts ^ v) if a | e in faces), (cx, a, v)
                loops = _union([c ^ v for c in below if c & v and c.bit_count() == 2])
                assert loops == below_verts & ~(v | verts), (cx, a, v)
                counts["steps"] += 1
                counts["loops"] += loops != 0
                counts["dropped"] += len(below) > len(circuits) + loops.bit_count()
                counts["matroid"] += matroid
    assert counts["steps"] > counts["loops"] > 0 and counts["dropped"] > 0
    assert family == "U(8,4)-less-two-bases" or counts["matroid"] > 0
