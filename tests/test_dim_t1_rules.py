"""`dim_t1` by the walk's rules against the definition.

`dim_t1` decides one degree (A, b) by the rule `cotangent._walk` applies
there: the U(d, 1) row at a link of rank 1, the adjacency rules at a link of
dimension 1, rule 1, the circuit rule at a vertex and one count over the
link's faces at a wider face of a larger link, and the isolated-circuit
rule at a nonface.  The definition is the inclusion graph over the link's
whole face set (`cotangent._dim_on_faces`), 0 outside the vanishing range.
The two meet at every face A, one nonface A and every nonempty b disjoint
from A, on the census classes and on seeded random complexes on 6 to 8
vertices; a work count shows that a singleton degree of "three facets
k = 12" runs no count over faces.
"""

import random

import pytest

from srt1 import cotangent
from srt1.complexes import SimplicialComplex, _faces_of, _link_facets, _union, submasks, unpack
from srt1.cotangent import _dim_on_faces, dim_t1

from _census_reps import representatives
from test_singleton_rule import three_facets


def random_complex(rng):
    """A complex on 6 to 8 vertices with two to seven random facets of one
    to five vertices."""
    n = rng.randint(6, 8)
    facets = [rng.sample(range(1, n + 1), rng.randint(1, 5)) for _ in range(rng.randint(2, 7))]
    return SimplicialComplex.from_facets(n, facets)


def definition(cx, a, b):
    """dim T1 of cx at (a, b) from the inclusion graph over the whole face
    set of the link, 0 outside the vanishing range."""
    link_facets = _link_facets(cx.facet_masks, a)
    if b & ~_union(link_facets):
        return 0
    return _dim_on_faces(_faces_of(link_facets), b)


CENSUS = [cx for n in range(1, 6) for cx in representatives(n)]
RANDOMS = [random_complex(random.Random(f"dim-t1:{seed}")) for seed in range(160)]


# the degrees compared and how many of them are nonzero, per family
FAMILIES = {"census": (CENSUS, 36_385, 3_291), "random": (RANDOMS, 205_473, 827)}


@pytest.mark.parametrize("family", FAMILIES)
def test_dim_t1_meets_the_definition_at_every_degree(family):
    complexes, want_degrees, want_nonzero = FAMILIES[family]
    degrees = nonzero = 0
    for cx in complexes:
        faces = cx.face_masks()
        full = (1 << cx.n) - 1
        nonfaces = [m for m in range(1 << cx.n) if m not in faces][:1]
        for a in sorted(faces) + nonfaces:
            for b in submasks(full & ~a):
                if not b:
                    continue
                want = definition(cx, a, b) if a in faces else 0
                assert dim_t1(cx, (unpack(a), unpack(b))) == want, (cx, unpack(a), unpack(b))
                degrees += 1
                nonzero += want > 0
    assert (degrees, nonzero) == (want_degrees, want_nonzero)


def test_singleton_degree_counts_no_graph_over_faces(monkeypatch):
    # at (emptyset, {1}) of three facets k = 12 the circuit rule decides:
    # no inclusion graph is counted over the 69,377 faces
    cx = three_facets(12)
    want = _dim_on_faces(cx.face_masks(), 1)
    calls = []
    real = cotangent._dim_on_faces
    monkeypatch.setattr(cotangent, "_dim_on_faces", lambda f, b: calls.append(b) or real(f, b))
    assert dim_t1(cx, ((), (1,))) == want
    assert calls == []
