import os

import pytest

from srt1 import census
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


def test_check_complex_reports_wrong_links(monkeypatch):
    # a link of a nonempty face that loses its last facet breaks exactly the
    # invariants that read links, and each failure names its degree or pair
    link_mask = SimplicialComplex.link_mask

    def wrong_link(cx, a):
        link = link_mask(cx, a)
        if a and len(link.facet_masks) > 1:
            return SimplicialComplex(link.n, link.facet_masks[:-1])
        return link

    monkeypatch.setattr(SimplicialComplex, "link_mask", wrong_link)
    data, _ = check_complex(SimplicialComplex.from_facets(3, [[1, 2], [1, 3]]))
    failed = {name: rep.failures for name, rep in data.items() if not rep.ok}
    assert sorted(failed) == ["bijection-generators", "link-reduction", "link-restrict-commute"]
    assert failed["link-reduction"][0] == "n=3 facets=[[1, 2], [1, 3]]: degree ((1,),(2, 3)) 1 != 0"


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


@pytest.mark.parametrize("max_n", [True, False, 1.0, 2.5, "2"])
def test_run_census_rejects_non_integer_max_n(max_n):
    # bool is an int subclass and 1.0 compares equal to 1; both are refused,
    # as `pack` and `T1Table` refuse them, before any complex is built
    with pytest.raises(ValueError, match="census supports"):
        run_census(max_n)
