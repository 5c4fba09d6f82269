"""Matroids and near-matroids past the census, and past the graph engine's reach.

The closed-form matroid path of `t1_table` takes its table from the circuits
of each link.  On a 2-vCPU host the table of U(12, 6), a matroid with 2510
faces, takes about 0.55 s, the `reconstruct` round trip, which recomputes the
table to verify it, about 0.9 s, and the whole test about 2 s; the 10 s
bound is deliberately loose.

`formula_discrepancies` runs the graph only at the singleton degrees of a
link that is not a contraction of a matroid link, so on U(12, 6) it takes
about 0.05 s where a graph at every degree took 9 s.  On complexes near
U(10, 5) and on every census class it must agree with the full comparison,
which runs the graph at every degree.
"""

import itertools
import random
import time

import pytest

from srt1.complexes import SimplicialComplex
from srt1.cotangent import t1_table
from srt1.definition import dim_t1_matroid_formula
from srt1.matroids import is_matroid_exchange, uniform
from srt1.recognition import formula_discrepancies
from srt1.reconstruction import reconstruct

from _oracles import definition_discrepancies

BOUND_S = 10.0


def test_uniform_12_6_round_trip():
    start = time.perf_counter()
    m = uniform(12, 6)
    assert len(m.face_masks()) == 2510
    table = t1_table(m)
    assert reconstruct(table) == m

    # a few stored entries and a few absent degrees against the formula,
    # whose exchange test runs on the first call only: m caches the verdict
    rng = random.Random(12)
    sampled = rng.sample(sorted(table.keys(), key=lambda d: d.key()), 4)
    absent = [((1, 2), (3, 4)), ((1, 2, 3, 4, 5, 6), (7,)), ((), (1, 2, 3, 4, 5, 6, 7))]
    for degree in sampled + absent:
        assert table.dim(degree) == dim_t1_matroid_formula(m, degree), degree
    assert all(table.dim(degree) == 0 for degree in absent)
    assert time.perf_counter() - start < BOUND_S


def test_uniform_12_6_has_no_discrepancy():
    start = time.perf_counter()
    assert formula_discrepancies(uniform(12, 6)) == []
    assert time.perf_counter() - start < BOUND_S


def minus_bases(drops):
    """U(10, 5) without the given bases, each replaced by its 4-subsets."""
    kept = [b for b in itertools.combinations(range(1, 11), 5) if b not in drops]
    return SimplicialComplex.from_facets(
        10, kept + [tuple(v for v in d if v != u) for d in drops for u in d]
    )


@pytest.mark.parametrize(
    "drops, matroid",
    [
        # one basis dropped leaves a matroid: the basis becomes a circuit
        # and a hyperplane, a sparse paving matroid
        ([(1, 2, 3, 4, 5)], True),
        # two bases sharing four elements do not
        ([(1, 2, 3, 4, 5), (1, 2, 3, 4, 6)], False),
    ],
    ids=["one-basis", "two-bases"],
)
def test_near_uniform_matches_full_comparison(drops, matroid):
    cx = minus_bases(drops)
    assert is_matroid_exchange(cx) == matroid
    found = formula_discrepancies(cx)
    assert found == definition_discrepancies(minus_bases(drops))
    assert (found == []) == matroid


def test_census_matches_full_comparison(reps5):
    checked = 0
    for reps in reps5.values():
        for cx in reps:
            assert formula_discrepancies(cx) == definition_discrepancies(cx), cx.facets
            checked += 1
    assert checked == 253
