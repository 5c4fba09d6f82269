"""The graph engine's counting rules against the definitions.

`definition._dim_on_faces` joins only the unmarked part W of N_b and drops
a component of W that lies one vertex below a marked member of N_b.  At a
link of dimension 2 or more that the walk `cotangent._walk` hands to the
graph, the graph runs only at the nonempty proper subsets of the link's
circuits (`cotangent._circuit_faces`), and every other face b of the link
is 0, since it lies in no circuit (rule 1).  Here the first meets the
former exhaustive count (`_oracles._scan_dim`) at every nonempty face b of
every link of the differential battery, and the rule meets the definitions
on the census classes on up to 4 vertices and the face engine on every
link of the census classes on up to 5 vertices and of seeded random
complexes.
"""

import collections
import random

import pytest

from srt1 import cotangent
from srt1.complexes import SimplicialComplex, submasks
from srt1.cotangent import _circuit_faces, _isolated_circuits, _walk
from srt1.definition import _dim_on_faces

from _census_reps import representatives
from _oracles import (
    _scan_dim,
    faces_of,
    naive_dim_t1,
    naive_link,
    naive_minimal_nonfaces,
    sweep_minimal_nonfaces,
)
from test_differential import SCAN_COMPLEXES, degrees

# the exits of `_dim_on_faces`, in the order it reaches them
EXITS = ("N_b empty", "singleton b", "W empty", "W-component dropped", "W-component survives")

def _exits(link, b):
    """The exits `_dim_on_faces(link, b)` takes, from the definitions: one
    for each of the first three, else one per component of W."""
    nvert = [f for f in link if not f & b and (f | b) not in link]
    if not nvert:
        return ["N_b empty"]
    if b.bit_count() == 1:
        return ["singleton b"]
    drops = [b & ~v for v in submasks(b) if v.bit_count() == 1]
    unmarked = [f for f in nvert if all((f | d) in link for d in drops)]
    if not unmarked:
        return ["W empty"]
    marked = set(nvert) - set(unmarked)
    out = []
    for comp in _components(unmarked):
        dropped = any(f & ~g == 0 for f in comp for g in marked)
        out.append("W-component dropped" if dropped else "W-component survives")
    return out


def _components(family):
    """Components of the comparability graph on a family of masks."""
    left, out = set(family), []
    while left:
        comp, queue = set(), [left.pop()]
        while queue:
            f = queue.pop()
            comp.add(f)
            near = {g for g in left if f & ~g == 0 or g & ~f == 0}
            left -= near
            queue += near
        out.append(comp)
    return out


def test_dim_on_faces_matches_scan_dim_at_every_exit():
    reached = collections.Counter()
    for cx in SCAN_COMPLEXES:
        faces = cx.face_masks()
        for a in faces:
            link = frozenset(f ^ a for f in faces if f & a == a)
            for b in link:
                if b:
                    assert _dim_on_faces(link, b) == _scan_dim(link, b), (cx, a, b)
                    reached.update(_exits(link, b))
    # the battery reaches every exit, no hand-built complex needed
    assert set(reached) == set(EXITS), reached


CENSUS = [cx for n in range(1, 5) for cx in representatives(n)]


def test_b_in_no_link_circuit_has_zero_dimension():
    # every minimal nonface inside F u b of an unmarked F in N_b contains b
    checked = 0
    for cx in CENSUS:
        faces, ground = faces_of(cx), range(1, cx.n + 1)
        for A, b in degrees(cx):
            if len(b) < 2:
                continue
            circuits = naive_minimal_nonfaces(naive_link(faces, A), ground)
            if not any(set(b) <= c for c in circuits):
                assert naive_dim_t1(cx, A, b) == 0, (cx, A, b)
                checked += 1
    assert len(CENSUS) == 44 and checked == 642


def _path_edges(n):
    return [[v, v + 1] for v in range(1, n)]


@pytest.mark.parametrize(
    "n, facets",
    [(12, _path_edges(12)), (4, [[1, 2], [3, 4]]), (5, [[1, 2, 3], [3, 4, 5]])],
    ids=["path-12", "two-edges", "bowtie"],
)
def test_walk_skips_b_in_no_link_circuit(monkeypatch, n, facets):
    # a graph link takes the rules of `cotangent._graph_dims` and
    # `cotangent._graph_edge_dim` and counts no graph at all; the
    # 2-dimensional root link of the bowtie counts one only at its
    # singletons, by the circuit rule `cotangent._vertex_dims`, and runs
    # the wider rule of `cotangent._wide_dim` nowhere
    cx = SimplicialComplex.from_facets(n, facets)
    calls = []
    real_wide, real_vertex_dims = cotangent._wide_dim, cotangent._vertex_dims

    def wide_dim(link, a, circuits, rank, b):
        # a larger link is read at a through the complex's faces
        if rank > 2:
            calls.append((frozenset(f ^ a for f in link if f & a == a), b))
        return real_wide(link, a, circuits, rank, b)

    def vertex_dims(faces, a, circuits, rank):
        link_faces = frozenset(f ^ a for f in faces if f & a == a)
        for row in real_vertex_dims(faces, a, circuits, rank):
            calls.append((link_faces, row[0]))
            yield row

    monkeypatch.setattr(cotangent, "_wide_dim", wide_dim)
    monkeypatch.setattr(cotangent, "_vertex_dims", vertex_dims)
    skipped = 0
    for _, _, _, dims in _walk(cx):
        skipped += sum(1 for b, _ in dims or () if b.bit_count() > 1)
    for faces, b in calls:
        assert any(b & ~c == 0 for c in sweep_minimal_nonfaces(faces, n)), b
    # no face b with two or more vertices lies in a link circuit of these
    assert skipped > 0 and not [b for _, b in calls if b.bit_count() > 1]
    assert bool(calls) == (cx.rank > 2)


def _random_complex(rng):
    """A complex on 4 to 8 vertices with two to six random facets of one to
    four vertices."""
    n = rng.randint(4, 8)
    facets = [rng.sample(range(1, n + 1), rng.randint(1, 4)) for _ in range(rng.randint(2, 6))]
    return SimplicialComplex.from_facets(n, facets)


RULE_COMPLEXES = [cx for n in range(1, 6) for cx in representatives(n)] + [
    _random_complex(random.Random(seed)) for seed in range(300)
]


def test_graph_is_nonzero_only_in_a_proper_subset_of_a_circuit():
    nonzero = 0
    for cx in RULE_COMPLEXES:
        for a in cx.face_masks():
            link = cx.link_mask(a)
            faces, in_circuits = link.face_masks(), _circuit_faces(link._circuit_masks())
            assert in_circuits <= faces, (cx, a)
            for b in faces - in_circuits - {0}:
                assert _dim_on_faces(faces, b) == 0, (cx, a, b)
            nonzero += sum(1 for b in in_circuits if _dim_on_faces(faces, b))
    assert nonzero > 1000


def test_walk_rows_are_the_face_scan_rows():
    # at each link the walk lists, the nonzero rows are those of the graph
    # at every nonempty face and of 1 at every isolated circuit
    larger = 0
    for cx in RULE_COMPLEXES:
        for a, _, circuits, dims in _walk(cx):
            if dims is None:
                continue
            faces = cx.link_mask(a).face_masks()
            scan = {c: 1 for c in _isolated_circuits(circuits)}
            scan.update((b, _dim_on_faces(faces, b)) for b in faces if b)
            assert {b: d for b, d in dims if d} == {b: d for b, d in scan.items() if d}, (cx, a)
            larger += max(f.bit_count() for f in faces) > 2
    assert larger > 100
