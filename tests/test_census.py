import collections
import itertools
import os

import pytest

from srt1 import census, complexes, cotangent, definition, matroids
from srt1.census import (
    BATTERY_ORDER,
    MAX_CENSUS_GROUND,
    all_antichain_masks,
    canonical_form,
    check_complex,
    check_threads,
    orbit_size,
    representatives,
    run_census,
    _perm_tables,
)
from srt1.complexes import SimplicialComplex
from srt1.matroids import is_matroid_exchange, uniform

from _census_reps import representatives as cached_representatives

# antichain counts of subsets of [n] (Dedekind numbers)
DEDEKIND = [2, 3, 6, 20, 168, 7581]
# relabeling classes, void excluded
REP_COUNTS = {1: 2, 2: 4, 3: 9, 4: 29, 5: 209}
# matroids among them
MATROID_REP_COUNTS = {1: 2, 2: 4, 3: 8, 4: 17, 5: 38}


def test_antichain_counts_match_dedekind():
    for n in range(6):
        assert len(all_antichain_masks(n)) == DEDEKIND[n], n


def test_antichains_are_antichains():
    for facets in all_antichain_masks(3):
        for a in facets:
            for b in facets:
                if a != b:
                    assert a & ~b and b & ~a


def test_representative_counts():
    for n, count in REP_COUNTS.items():
        if n == 5:
            continue  # covered in the acceptance run
        assert len(representatives(n)) == count, n


def test_representative_count_n5():
    assert len(representatives(5)) == REP_COUNTS[5]


def test_matroid_representative_counts():
    for n in range(1, 6):
        got = sum(1 for cx in representatives(n) if is_matroid_exchange(cx))
        assert got == MATROID_REP_COUNTS[n], n


def test_orbits_partition_the_antichains():
    # orbit sizes of the representatives sum back to the raw antichain count
    for n in range(1, 5):
        total = sum(orbit_size(cx) for cx in representatives(n))
        assert total == DEDEKIND[n] - 1, n  # void excluded


def test_canonical_form_is_relabel_invariant():
    tables = _perm_tables(4)
    cx = SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])
    relabeled = SimplicialComplex.from_facets(4, [[2, 4], [1, 3]])
    assert canonical_form(cx.facet_masks, tables) == canonical_form(
        relabeled.facet_masks, tables
    )


def test_representatives_match_canonical_form_of_every_antichain():
    # the orbit of each new class is set aside instead of taking the
    # canonical form of every antichain; keys and order must not change
    for n in range(1, 6):
        tables = _perm_tables(n)
        keys = {}
        for facets in all_antichain_masks(n):
            if facets:
                keys.setdefault(canonical_form(facets, tables), None)
        assert list(representatives(n)) == [SimplicialComplex(n, key) for key in keys], n


def test_representatives_cover_distinct_classes():
    tables = _perm_tables(3)
    forms = [canonical_form(cx.facet_masks, tables) for cx in representatives(3)]
    assert len(forms) == len(set(forms))


def test_check_complex_flags():
    data, matroid = check_complex(SimplicialComplex.from_facets(3, [[1, 2], [1, 3], [2, 3]]))
    assert matroid
    assert all(rep.ok for rep in data.values())

    _, matroid = check_complex(SimplicialComplex.from_facets(3, [[1, 2], [3]]))
    assert not matroid


def test_census_reports_compare_by_name_count_and_failures():
    report = census.CensusReport("round-trip", 3, ["n=1 facets=[[1]]"])
    assert report == census.CensusReport("round-trip", 3, ["n=1 facets=[[1]]"])
    assert report != census.CensusReport("round-trip", 4, ["n=1 facets=[[1]]"])
    assert report != census.CensusReport("round-trip", 3, [])
    assert report != census.CensusReport("upper-bound", 3, ["n=1 facets=[[1]]"])
    assert (report == "round-trip") is False and report != ("round-trip", 3)
    assert census.CensusReport("antichain") == census.CensusReport("antichain", 0, [])


def test_census_report_repr_names_its_fields():
    report = census.CensusReport("round-trip", 3, ["n=1 facets=[[1]]"])
    want = "CensusReport(name='round-trip', checked=3, failures=['n=1 facets=[[1]]'])"
    assert repr(report) == want


def test_check_complex_reports_a_wrong_engine(monkeypatch):
    # a nonface dimension one too high and a bound one too low must each be
    # caught, with the upper bound's failures in canonical face order and
    # capped at five
    nonface, bound = census.dim_t1_nonface, census.t1_upper_bound
    monkeypatch.setattr(census, "dim_t1_nonface", lambda cx, b: nonface(cx, b) + 1)
    monkeypatch.setattr(census, "t1_upper_bound", lambda cx, b: bound(cx, b) - 1)
    data, _ = check_complex(uniform(3, 2))
    tag = "n=3 facets=[[1, 2], [1, 3], [2, 3]]"
    assert {name: rep.failures for name, rep in data.items() if not rep.ok} == {
        "upper-bound": [
            f"{tag}: b=(1,) dim 0 > bound -1",
            f"{tag}: b=(2,) dim 0 > bound -1",
            f"{tag}: b=(3,) dim 0 > bound -1",
            f"{tag}: b=(1, 2) dim 1 > bound 0",
            f"{tag}: b=(1, 2) matroid dim 1 != bound 0",
        ],
        "nonface-dimension": [f"{tag}: b=(1, 2, 3)"],
    }


# -- mutants: each breaks one code path the battery claims to check --------------


def _link_drops_a_facet(monkeypatch):
    # a link of a nonempty face loses its last facet
    link_mask = SimplicialComplex.link_mask

    def wrong(cx, a):
        link = link_mask(cx, a)
        if a and len(link.facet_masks) > 1:
            return SimplicialComplex(link.n, link.facet_masks[:-1])
        return link

    monkeypatch.setattr(SimplicialComplex, "link_mask", wrong)


def _link_of_a_nonface_is_the_empty_face(monkeypatch):
    # the void link of a nonface mixed up with {emptyset}
    link_mask = SimplicialComplex.link_mask

    def wrong(cx, a):
        link = link_mask(cx, a)
        return link if link.facet_masks else SimplicialComplex(link.n, [0])

    monkeypatch.setattr(SimplicialComplex, "link_mask", wrong)


def _restriction_drops_a_facet(monkeypatch):
    # a restriction to a proper subset of the ground loses its last facet
    restrict = SimplicialComplex.restrict

    def wrong(cx, W):
        r = restrict(cx, W)
        if set(W) != set(range(1, cx.n + 1)) and len(r.facet_masks) > 1:
            return SimplicialComplex(r.n, r.facet_masks[:-1])
        return r

    monkeypatch.setattr(SimplicialComplex, "restrict", wrong)


def _no_marks_at_pairs(monkeypatch):
    # N~_b is empty at every b of two vertices
    marks = definition._marks

    def wrong(faces, nvert, b):
        return [False] * len(nvert) if b.bit_count() == 2 else marks(faces, nvert, b)

    monkeypatch.setattr(definition, "_marks", wrong)
    monkeypatch.setattr(census, "_marks", wrong)


def _components_fall_apart(monkeypatch):
    # every member is its own component once there are more than two
    component_ids = definition._component_ids

    def wrong(nvert):
        return list(range(len(nvert))) if len(nvert) > 2 else component_ids(nvert)

    monkeypatch.setattr(definition, "_component_ids", wrong)


def _circuit_graph_joins_no_pair(monkeypatch):
    # the singleton rule joins no two circuits through a vertex, so its
    # dimension is the circuit count less one, the count the rule yields
    # beside it, and every link of rank >= 3 passes the singleton test
    vertex_dims = cotangent._vertex_dims

    def wrong(faces, a, circuits, rank):
        return ((v, count, count) for v, _, count in vertex_dims(faces, a, circuits, rank))

    monkeypatch.setattr(cotangent, "_vertex_dims", wrong)


def _class_rows_drop_singletons(monkeypatch):
    # a matroid link's table loses its rows at singleton b
    class_rows = cotangent._class_rows

    def wrong(link_circuits):
        return {b: d for b, d in class_rows(link_circuits).items() if b & (b - 1)}

    monkeypatch.setattr(cotangent, "_class_rows", wrong)


def _rank_one_vertices_one_too_high(monkeypatch):
    # the uniform rule at rank 1, U(d, 1) on d >= 3 vertices, gives d - 1 at
    # each vertex, not d - 2
    uniform_rows = cotangent._uniform_rows

    def wrong(part, rank):
        rows = uniform_rows(part, rank)
        return {b: d + (not b & (b - 1)) for b, d in rows.items()} if rank == 1 else rows

    monkeypatch.setattr(cotangent, "_uniform_rows", wrong)


def _uniform_vertices_one_too_high(monkeypatch):
    # the uniform rule at rank 2 or more gives C(m - 1, r) at each vertex of
    # U(m, r), m > r + 1, not C(m - 1, r) - 1
    uniform_rows = cotangent._uniform_rows

    def wrong(part, rank):
        rows = uniform_rows(part, rank)
        return {b: d + (not b & (b - 1)) for b, d in rows.items()} if rank > 1 else rows

    monkeypatch.setattr(cotangent, "_uniform_rows", wrong)


def _graph_vertices_one_too_high(monkeypatch):
    # a link of dimension at most 1 reads one too high at each vertex
    graph_dims = cotangent._graph_dims

    def wrong(adj):
        return ((v, graph + 1, count) for v, graph, count in graph_dims(adj))

    monkeypatch.setattr(cotangent, "_graph_dims", wrong)


def _graph_edges_one_too_high(monkeypatch):
    # a link of dimension at most 1 reads one too high at each edge
    graph_edge_dim = cotangent._graph_edge_dim

    def wrong(adj, b):
        return graph_edge_dim(adj, b) + 1

    monkeypatch.setattr(cotangent, "_graph_edge_dim", wrong)


def _graph_circuits_drop_triangles(monkeypatch):
    # a link of dimension 1 loses its triangles from its circuits; only the
    # engine's binding is patched, so a complex's own circuits stay whole
    graph_circuits = cotangent._graph_circuits

    def wrong(adj):
        return [c for c in graph_circuits(adj) if c.bit_count() == 2]

    monkeypatch.setattr(cotangent, "_graph_circuits", wrong)


def _circuits_drop_the_last(monkeypatch):
    # the minimal nonfaces read off the face cube lose the last one, the
    # largest mask; every class of rank 3 or more is read there, as its
    # ground is small, and the engine's links take theirs from the
    # complex's by contraction
    cube_circuits = complexes._cube_circuits

    def wrong(facets, n):
        return cube_circuits(facets, n)[:-1]

    monkeypatch.setattr(complexes, "_cube_circuits", wrong)


def _rank_of_the_ground_too_low(monkeypatch):
    # the rank of the whole ground comes out one too low
    rank_of = SimplicialComplex.rank_of

    def wrong(cx, A):
        r = rank_of(cx, A)
        return r - 1 if set(A) == set(range(1, cx.n + 1)) else r

    monkeypatch.setattr(SimplicialComplex, "rank_of", wrong)


def _no_coloops(monkeypatch):
    # the loop/coloop split reports no coloops
    loops_and_coloops = SimplicialComplex.loops_and_coloops

    def wrong(cx):
        return loops_and_coloops(cx)[0], ()

    monkeypatch.setattr(SimplicialComplex, "loops_and_coloops", wrong)


def _exchange_skips_the_top_level(monkeypatch):
    # independence exchange stops one level short, so no face of rank - 1
    # vertices is tested against a facet of rank vertices: the verdict is
    # that of the complex's faces of fewer than rank vertices
    exchange_holds = matroids._exchange_holds

    def wrong(cx):
        if cx.rank == 0:
            return exchange_holds(cx)
        lower = [f for f in cx.face_masks() if f.bit_count() < cx.rank]
        return exchange_holds(SimplicialComplex(cx.n, lower))

    monkeypatch.setattr(matroids, "_exchange_holds", wrong)


def _exchange_reads_the_one_skeleton(monkeypatch):
    # independence exchange reads only the faces of at most two vertices, so
    # only the link graph of the empty face and the links of its vertices,
    # graphs with no edge, are tested: the verdict is that of the 1-skeleton
    exchange_holds = matroids._exchange_holds

    def wrong(cx):
        edges = [f for f in cx.face_masks() if f.bit_count() <= 2]
        return exchange_holds(SimplicialComplex(cx.n, edges))

    monkeypatch.setattr(matroids, "_exchange_holds", wrong)


def _unique_min_accepts_two_minima(monkeypatch):
    # the criterion on N_v passes a member that holds two minimal members
    def wrong(cx):
        faces = cx.face_masks()
        for v in range(cx.n):
            bit = 1 << v
            nv = complexes._ndel(faces, bit)
            minimal = [
                f for f in nv
                if all((f & ~(1 << u)) | bit in faces for u in range(cx.n) if f >> u & 1)
            ]
            if any([m & ~f for m in minimal].count(0) > 2 for f in nv):
                return False
        return True

    monkeypatch.setattr(census, "is_matroid_unique_min", wrong)


def _elimination_outside_the_union(monkeypatch):
    # strong circuit elimination takes the circuit that contains f and avoids
    # i from anywhere, not only from inside C u C'
    def wrong(cx):
        circuits = cx._circuit_masks()
        through = [sum(1 << k for k, c in enumerate(circuits) if c >> v & 1) for v in range(cx.n)]
        for c1, c2 in itertools.combinations(circuits, 2):
            for i in range(cx.n):
                if (c1 & c2) >> i & 1:
                    for f in range(cx.n):
                        if (c1 ^ c2) >> f & 1 and not through[f] & ~through[i]:
                            return False
        return True

    monkeypatch.setattr(census, "is_matroid_circuit_elimination", wrong)


def _elimination_within_r(monkeypatch):
    # strong circuit elimination tested only at the meeting pairs whose union
    # has at most r vertices, one too few: a pair of r + 1 goes untested
    def wrong(cx):
        circuits = cx._circuit_masks()
        for c1, c2 in itertools.combinations(circuits, 2):
            union = c1 | c2
            if not c1 & c2 or union.bit_count() > cx.rank:
                continue
            inside = [c for c in circuits if not c & ~union]
            for i in range(cx.n):
                if (c1 & c2) >> i & 1:
                    avoiding = [c for c in inside if not c >> i & 1]
                    for f in range(cx.n):
                        if (c1 ^ c2) >> f & 1 and not any(c >> f & 1 for c in avoiding):
                            return False
        return True

    monkeypatch.setattr(census, "is_matroid_circuit_elimination", wrong)


def _wider_rule_keeps_every_component(monkeypatch):
    # the wider rule ignores the killers and counts every component of the
    # graph on the circuits through b
    real = cotangent._unkilled_components
    monkeypatch.setattr(
        cotangent, "_unkilled_components", lambda faces, nodes, killers: real(faces, nodes, [])
    )


def _wider_rule_keeps_no_component(monkeypatch):
    # the wider rule treats every node as killed, so it counts no component
    monkeypatch.setattr(cotangent, "_unkilled_components", lambda *args: 0)


def _no_isolated_circuits(monkeypatch):
    # the engine finds no isolated circuit, so every nonface degree reads 0
    monkeypatch.setattr(cotangent, "_isolated_circuits", lambda circuits: [])


def _contraction_keeps_every_circuit_off_v(monkeypatch):
    # a contraction step keeps every circuit that misses v, with no face test
    def wrong(faces, a, v, circuits):
        cut = [c ^ v if c & v else c for c in circuits]
        return [c for c in cut if c & (c - 1)]

    monkeypatch.setattr(cotangent, "_contract", wrong)


# the invariants each mutant fails on the classes on up to 4 vertices
MUTANTS = {
    "link-drops-a-facet": (
        _link_drops_a_facet,
        {
            "bijection-generators",
            "coloop-free-link-heredity",
            "link-reduction",
            "link-restrict-commute",
            "upper-bound",
        },
    ),
    "link-of-a-nonface-is-the-empty-face": (
        _link_of_a_nonface_is_the_empty_face,
        {"link-restrict-commute"},
    ),
    "restriction-drops-a-facet": (
        _restriction_drops_a_facet,
        {"link-restrict-commute", "ndel-star-shape", "upper-bound"},
    ),
    "no-marks-at-pairs": (
        _no_marks_at_pairs,
        {"link-reduction", "main-theorem-iff", "ndelred-empty-equivalence", "nonface-dimension"},
    ),
    "components-fall-apart": (
        _components_fall_apart,
        {
            "link-reduction",
            "main-theorem-iff",
            "nonface-dimension",
            "singleton-discrepancy-direction",
            "upper-bound",
        },
    ),
    "circuit-graph-joins-no-pair": (
        _circuit_graph_joins_no_pair,
        {"link-reduction", "recognition-corollary"},
    ),
    "class-rows-drop-singletons": (_class_rows_drop_singletons, {"link-reduction"}),
    "rank-one-vertices-one-too-high": (
        _rank_one_vertices_one_too_high,
        {"link-reduction", "round-trip"},
    ),
    "uniform-vertices-one-too-high": (
        _uniform_vertices_one_too_high,
        {"link-reduction"},
    ),
    "graph-vertices-one-too-high": (
        _graph_vertices_one_too_high,
        {"link-reduction", "loop-coloop-classify", "recognition-corollary", "round-trip"},
    ),
    "graph-edges-one-too-high": (_graph_edges_one_too_high, {"link-reduction"}),
    "graph-circuits-drop-triangles": (
        _graph_circuits_drop_triangles,
        {
            "link-reduction",
            "link-rigidity-basis",
            "loop-coloop-classify",
            "rigidity-discrete",
            "round-trip",
        },
    ),
    "circuits-drop-the-last": (
        _circuits_drop_the_last,
        {
            "bijection-generators",
            "link-reduction",
            "link-rigidity-basis",
            "loop-coloop-classify",
            "main-theorem-iff",
            "min-element-containment",
            "ndelred-empty-equivalence",
            "nonface-dimension",
            "nonface-duality",
            "oracle-agreement",
            "recognition-corollary",
            "rigidity-discrete",
            "round-trip",
            "singleton-discrepancy-direction",
            "upper-bound",
        },
    ),
    "exchange-skips-the-top-level": (
        _exchange_skips_the_top_level,
        {
            "basis-extension",
            "coloop-free-link-heredity",
            "deletion-basis-saturation",
            "link-rigidity-basis",
            "loop-coloop-classify",
            "main-theorem-iff",
            "matroid-equicardinal-facets",
            "oracle-agreement",
            "recognition-corollary",
            "rigidity-discrete",
            "round-trip",
            "upper-bound",
        },
    ),
    "exchange-reads-the-one-skeleton": (
        _exchange_reads_the_one_skeleton,
        {
            "basis-extension",
            "coloop-free-link-heredity",
            "deletion-basis-saturation",
            "link-rigidity-basis",
            "loop-coloop-classify",
            "main-theorem-iff",
            "matroid-equicardinal-facets",
            "matroid-minor-closure",
            "oracle-agreement",
            "recognition-corollary",
            "round-trip",
        },
    ),
    "unique-min-accepts-two-minima": (_unique_min_accepts_two_minima, {"oracle-agreement"}),
    "elimination-outside-the-union": (_elimination_outside_the_union, {"oracle-agreement"}),
    "elimination-within-r": (_elimination_within_r, {"oracle-agreement"}),
    "wider-rule-keeps-every-component": (_wider_rule_keeps_every_component, {"link-reduction"}),
    "wider-rule-keeps-no-component": (_wider_rule_keeps_no_component, {"link-reduction"}),
    "rank-of-the-ground-too-low": (_rank_of_the_ground_too_low, {"rank-monotone"}),
    "no-coloops": (
        _no_coloops,
        {"link-rigidity-basis", "loop-coloop-classify", "rigidity-discrete", "round-trip"},
    ),
}


def _failed_invariants(classes):
    failed = set()
    for cx in classes:
        # a fresh copy, so that no face set or circuit list cached before the
        # mutant was applied is read
        data, _ = check_complex(SimplicialComplex(cx.n, cx.facet_masks))
        failed |= {name for name, rep in data.items() if not rep.ok}
    return failed


@pytest.mark.parametrize("mutate, fails", MUTANTS.values(), ids=MUTANTS)
def test_each_mutant_fails_its_invariants(monkeypatch, mutate, fails):
    classes = [cx for n in range(1, 5) for cx in cached_representatives(n)]
    mutate(monkeypatch)
    assert _failed_invariants(classes) == fails


# two engine mutants that fail no invariant on the classes on up to 4
# vertices, each with a class on 5 vertices where `link-reduction` fails
BLIND_SPOTS = {
    "no-isolated-circuits": (_no_isolated_circuits, [[1, 2], [1, 3], [2, 4, 5], [3, 4, 5]]),
    "contraction-keeps-every-circuit-off-v": (
        _contraction_keeps_every_circuit_off_v,
        [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3, 4, 5]],
    ),
}


@pytest.mark.parametrize("mutate, facets", BLIND_SPOTS.values(), ids=BLIND_SPOTS)
def test_a_mutant_past_four_vertices_fails_link_reduction(monkeypatch, mutate, facets):
    named = SimplicialComplex.from_facets(5, facets)
    assert named.facet_masks in [cx.facet_masks for cx in cached_representatives(5)]
    small = [cx for n in range(1, 5) for cx in cached_representatives(n)]
    mutate(monkeypatch)
    assert _failed_invariants(small) == set()
    assert _failed_invariants([named]) == {"link-reduction"}


def _join_shifts_by_the_other_ground(monkeypatch):
    # the other operand's vertices are shifted past its own ground, not past
    # this one's: its vertices meet this one's or leave the joined ground
    def wrong(self, other):
        masks = [f | g << other.n for f in self.facet_masks for g in other.facet_masks]
        return SimplicialComplex._of_masks(self.n + other.n, masks)

    monkeypatch.setattr(SimplicialComplex, "join", wrong)


def _join_is_the_disjoint_union(monkeypatch):
    # the facets of both operands side by side, none joined with another
    def wrong(self, other):
        facets = list(self.facet_masks) + [g << self.n for g in other.facet_masks]
        return SimplicialComplex._of_masks(self.n + other.n, facets)

    monkeypatch.setattr(SimplicialComplex, "join", wrong)


# mutants of `join`, which only the family invariants of `_check_families`
# read: `test_each_mutant_fails_its_invariants` runs `check_complex` alone
FAMILY_MUTANTS = {
    "join-shifts-by-the-other-ground": (
        _join_shifts_by_the_other_ground,
        {"coloop-extension", "join-associativity"},
    ),
    "join-is-the-disjoint-union": (
        _join_is_the_disjoint_union,
        {"coloop-extension", "join-matroid-closure"},
    ),
}


def _failed_with_families(classes):
    """The invariants that fail on these classes, each through `check_complex`
    on a fresh copy, then the family invariants on the matroids among them,
    as `run_census` reads them."""
    failed = set()
    rec = census._Recorder()
    matroid_reps = collections.defaultdict(list)
    for cx in classes:
        data, matroid = check_complex(SimplicialComplex(cx.n, cx.facet_masks))
        failed |= {name for name, rep in data.items() if not rep.ok}
        if matroid:
            matroid_reps[cx.n].append(cx)
    assert sum(map(len, matroid_reps.values())) == 31
    census._check_families(rec, dict(matroid_reps))
    return failed | {name for name, rep in rec.data.items() if not rep.ok}


def test_the_family_harness_passes_the_clean_engine():
    classes = [cx for n in range(1, 5) for cx in cached_representatives(n)]
    assert _failed_with_families(classes) == set()


@pytest.mark.parametrize("mutate, fails", FAMILY_MUTANTS.values(), ids=FAMILY_MUTANTS)
def test_each_family_mutant_fails_its_invariants(monkeypatch, mutate, fails):
    classes = [cx for n in range(1, 5) for cx in cached_representatives(n)]
    mutate(monkeypatch)
    assert _failed_with_families(classes) == fails


def test_check_complex_reports_a_wrong_loop_coloop_split(monkeypatch):
    # a split that misses a coloop makes `classify_loops_coloops` raise; the
    # battery reports that as a failure instead of crashing
    _no_coloops(monkeypatch)
    data, _ = check_complex(SimplicialComplex.from_facets(1, [[1]]))
    failed = {name: rep.failures for name, rep in data.items() if not rep.ok}
    assert sorted(failed) == [
        "link-rigidity-basis",
        "loop-coloop-classify",
        "rigidity-discrete",
        "round-trip",
    ]
    assert failed["loop-coloop-classify"] == [
        "n=1 facets=[[1]]: the empty table does not separate loops from coloops"
    ]


def test_check_complex_reports_wrong_links(monkeypatch):
    # a link of a nonempty face that loses its last facet breaks exactly the
    # invariants that read links, and each failure names its degree or pair
    _link_drops_a_facet(monkeypatch)
    data, _ = check_complex(SimplicialComplex.from_facets(3, [[1, 2], [1, 3]]))
    failed = {name: rep.failures for name, rep in data.items() if not rep.ok}
    assert sorted(failed) == ["bijection-generators", "link-reduction", "link-restrict-commute"]
    assert failed["link-reduction"][0] == "n=3 facets=[[1, 2], [1, 3]]: degree ((1,),(2, 3)) 1 != 0"


def test_check_complex_builds_no_complex_per_pair(monkeypatch):
    # `link-restrict-commute` compares cached face sets instead of building
    # two complexes at each of the 3^n pairs F <= W, and the degree checks
    # read dim T1 at (emptyset, b) off `link-reduction` instead of again.
    # `link-reduction` checks 206 degrees of U(5, 3); the 30 at its 10
    # facets, whose links have no vertex, are 0 by the vanishing range, and
    # each of the other 176 reads the definition once.  Complexes are
    # counted at `_set`, the one body that `__init__` and `_of_masks` both
    # reach, and a battery that built two per pair would add 2 * 3^5 alone
    cx = uniform(5, 3)
    built, counts = [], []
    set_body, dim_on_faces = SimplicialComplex._set, census._dim_on_faces

    def counting_set(self, n, masks):
        built.append(n)
        set_body(self, n, masks)

    def counting_dim(faces, b):
        counts.append((faces, b))
        return dim_on_faces(faces, b)

    monkeypatch.setattr(SimplicialComplex, "_set", counting_set)
    monkeypatch.setattr(census, "_dim_on_faces", counting_dim)
    data, _ = check_complex(cx)
    assert all(rep.ok for rep in data.values())
    assert 0 < len(built) < 2 * 3**5
    assert data["link-reduction"].checked == 206 == len(counts) + 10 * 3
    assert len(set(counts)) == len(counts) == 176


def test_check_complex_counts_the_definition_once_per_degree(monkeypatch):
    # `link-reduction` counts T1 by the definition at each face a and each
    # nonempty b inside the vertices of link(a), and `main-theorem-iff` reads
    # those counts: no other part of the battery reaches the face engine, by
    # the census's binding or by the module's
    calls = []
    dim_on_faces = definition._dim_on_faces

    def counting_dim(faces, b):
        calls.append(b)
        return dim_on_faces(faces, b)

    monkeypatch.setattr(definition, "_dim_on_faces", counting_dim)
    monkeypatch.setattr(census, "_dim_on_faces", counting_dim)
    for n in range(1, 5):
        for cx in cached_representatives(n):
            calls.clear()
            check_complex(cx)
            links = [cx.link_mask(a) for a in cx.face_masks()]
            assert len(calls) == sum((1 << link.vertex_mask.bit_count()) - 1 for link in links), cx


def test_run_census_small_green():
    reports = run_census(3)
    assert [r.name for r in reports] == BATTERY_ORDER
    for r in reports:
        assert r.ok, (r.name, r.failures)
    assert all(r.checked > 0 for r in reports)


def test_run_census_rejects_bad_bounds():
    with pytest.raises(ValueError):
        run_census(0)
    with pytest.raises(ValueError):
        run_census(MAX_CENSUS_GROUND + 1)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_run_census_threads_match():
    # 44 complexes on up to 4 vertices, past the 16 that start the pool
    serial = run_census(4, threads=1)
    parallel = run_census(4, threads=2)
    assert [(r.name, r.checked, r.failures) for r in serial] == [
        (r.name, r.checked, r.failures) for r in parallel
    ]


@pytest.mark.parametrize("threads", [0, (os.cpu_count() or 1) + 1, True, 1.0, 1.5, "1"])
def test_run_census_rejects_thread_count_outside_cpu_range(threads):
    with pytest.raises(ValueError, match="threads must be an integer"):
        run_census(1, threads=threads)
    with pytest.raises(ValueError, match="threads must be an integer"):
        check_threads(threads)


def test_one_thread_reads_no_cpu_count(monkeypatch):
    # `t1_table` checks its thread count on every call; a count of 1 is
    # always in range, so the CPU count is read only above 1 and for the
    # message of a refusal
    reads = []
    monkeypatch.setattr(complexes.os, "cpu_count", lambda: reads.append(1) or 2)
    assert check_threads(1) == 1 and reads == []
    assert check_threads(2) == 2 and reads == [1]
    with pytest.raises(ValueError, match=r"in 1\.\.2 \(the CPU count\), got 3"):
        check_threads(3)


@pytest.mark.parametrize("max_n", [True, False, 1.0, 2.5, "2"])
def test_run_census_rejects_non_integer_max_n(max_n):
    # bool is an int subclass and 1.0 compares equal to 1; both are refused,
    # as `pack` and `T1Table` refuse them, before any complex is built
    with pytest.raises(ValueError, match="census supports"):
        run_census(max_n)
