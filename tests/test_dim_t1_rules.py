"""`dim_t1` by the walk's rules against the definition.

`dim_t1` decides one degree (A, b) by the graph side of the rules of
`cotangent._walk` at every link, one of rank 1 included, which
`cotangent._read_link` reads as a graph with no edge: the singleton-test
row at a vertex, and at a wider b the rules that `cotangent._wide_dim`
lists.  The walk applies them only at a link that fails the singleton
test; at one that passes, and at a link of rank 1, it writes the circuit
formula, which the main theorem makes equal.  The definition is the
inclusion graph over the link's whole face set (`definition._dim_on_faces`),
0 outside the vanishing range.  The two meet at every face A, one nonface
A and every nonempty b disjoint from A, on the census classes and on
seeded random complexes on 6 to 8 vertices; at every wider degree of a link
that fails the test, `dim_t1` and the walk agree and both call `_wide_dim`;
`dim_t1` meets `t1_table` at every row of the star K(1, 63) and at the
degrees of its centre link, U(63, 1); a work count shows that a singleton
degree of "three facets k = 12" runs no wider rule.
"""

import random

import pytest

from srt1 import cotangent
from srt1.complexes import SimplicialComplex, _faces_of, _link_facets, _union, submasks, unpack
from srt1.cotangent import dim_t1, t1_table
from srt1.definition import _dim_on_faces

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


def test_dim_t1_meets_the_table_on_a_rank_one_link():
    # the centre link of the star K(1, 63) is U(63, 1), a graph with no
    # edge: 61 at each vertex and 0 at every wider degree, as `t1_table`
    # writes it by `_uniform_rows`; every row of the table is met too
    star = SimplicialComplex.from_facets(64, [[1, v] for v in range(2, 65)])
    table = t1_table(star)
    leaves = range(2, 65)
    wider = [(u, v) for u in (2, 64) for v in leaves if u != v] + [(2, 3, 4), tuple(leaves)]
    for b in [(v,) for v in leaves] + wider:
        assert dim_t1(star, ((1,), b)) == table.dim((1,), b) == (61 if len(b) == 1 else 0), b
    assert len(table) == 126
    for (A, b), dim in table.items():
        assert dim_t1(star, (A, b)) == dim, (A, b)


def test_singleton_degree_counts_no_graph_over_faces(monkeypatch):
    # at (emptyset, {1}) of three facets k = 12 the circuit rule decides:
    # no wider rule runs over the 69,377 faces
    cx = three_facets(12)
    want = _dim_on_faces(cx.face_masks(), 1)
    calls = []
    real = cotangent._wide_dim
    monkeypatch.setattr(cotangent, "_wide_dim", lambda *args: calls.append(args[-1]) or real(*args))
    assert dim_t1(cx, ((), (1,))) == want
    assert calls == []


WIDE_RULES = ("_graph_edge_dim", "_unkilled_components", "_isolated_circuits")


def record_wide_calls(monkeypatch):
    """Patches `cotangent._wide_dim` to record each call as (b, the names
    of the WIDE_RULES it reached), in call order; a rule run outside a call
    of `_wide_dim` is not recorded."""
    calls, inside = [], []
    real = cotangent._wide_dim

    def wide_dim(link, a, circuits, rank, b):
        inside.append(set())
        try:
            return real(link, a, circuits, rank, b)
        finally:
            calls.append((b, inside.pop()))

    def reaching(name, rule):
        def reached(*args):
            if inside:
                inside[-1].add(name)
            return rule(*args)

        return reached

    monkeypatch.setattr(cotangent, "_wide_dim", wide_dim)
    for name in WIDE_RULES:
        monkeypatch.setattr(cotangent, name, reaching(name, getattr(cotangent, name)))
    return calls


def test_walk_and_dim_t1_decide_wide_degrees_by_one_rule(monkeypatch):
    # at each degree of two or more vertices in the dims of a link that
    # fails the singleton test, dim_t1 meets the walk and both decide it
    # through `_wide_dim`; the walk lists its isolated circuits itself, by
    # `_isolated_circuits`, the rule `_wide_dim` applies at a nonface of a
    # graph link.  A failing graph link has no isolated circuit, so that
    # rule is reached at the isolated circuits of two passing graph links:
    # the triangle of K3 and the non-edge {1, 2} of K(2, 3)
    calls = record_wide_calls(monkeypatch)
    reached, checked = set(), 0
    for cx in CENSUS + RANDOMS:
        links = cotangent._walk(cx)
        while True:
            del calls[:]
            link = next(links, None)
            if link is None:
                break
            a, _, circuits, dims = link
            if dims is None:
                continue
            walk_calls = calls[:]
            isolated = set(cotangent._isolated_circuits(circuits))
            wide = {b: dim for b, dim in dims if b & (b - 1)}
            assert sorted(b for b, _ in walk_calls) == sorted(set(wide) - isolated), (cx, a)
            for b, dim in wide.items():
                del calls[:]
                assert dim_t1(cx, (unpack(a), unpack(b))) == dim, (cx, unpack(a), unpack(b))
                assert [c for c, _ in calls] == [b], (cx, unpack(a), unpack(b))
                reached |= calls[0][1]
                checked += 1
            for _, rules in walk_calls:
                reached |= rules
    k3 = SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]])
    k23 = SimplicialComplex.from_facets(5, [[u, w] for u in (1, 2) for w in (3, 4, 5)])
    for cx, b in ((k3, 0b111), (k23, 0b11)):
        del calls[:]
        assert dim_t1(cx, ((), unpack(b))) == definition(cx, 0, b) == 1, cx
        assert [c for c, _ in calls] == [b], cx
        reached |= calls[0][1]
    assert checked == 3_030 and reached == set(WIDE_RULES)


def test_dim_t1_builds_graph_circuits_only_at_a_nonface(monkeypatch):
    # on a graph link an edge takes the edge rule alone; only a nonface
    # needs the circuits, for the isolated-circuit rule
    cx = SimplicialComplex.from_facets(5, [[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]])
    calls = []
    real = cotangent._graph_circuits
    monkeypatch.setattr(cotangent, "_graph_circuits", lambda adj: calls.append(adj) or real(adj))
    assert dim_t1(cx, ((), (1, 2))) == definition(cx, 0, 0b11) and calls == []
    assert dim_t1(cx, ((), (1, 3))) == 0 and len(calls) == 1
