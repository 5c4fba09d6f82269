"""`is_matroid_circuit_elimination` tests strong elimination only at the
meeting pairs of circuits whose union has at most r + 1 vertices, r the size
of the largest facet: weak elimination holds for free at any wider pair, so
the verdict is that of the full axiom.  Each verdict here is checked against
`_oracles.naive_circuit_elimination`, which tests every pair of circuits
over frozensets.
"""

import itertools
import random
import time

import pytest

from srt1.complexes import SimplicialComplex
from srt1.matroids import is_matroid_circuit_elimination

from _matroids import less_two_bases, sparse_paving_matroid
from _oracles import naive_circuit_elimination

SPARSE_PAVING = [(8, 3), (9, 4), (10, 4), (10, 5)]


def random_complexes(count, seed):
    """Seeded complexes on 6 to 9 vertices: some of the k-subsets of [n],
    all of them a quarter of the time, and half the time a few facets of
    other sizes beside them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(6, 9)
        k = rng.randint(1, n - 1)
        subsets = list(itertools.combinations(range(1, n + 1), k))
        facets = subsets if rng.random() < 0.25 else rng.sample(subsets, rng.randint(1, len(subsets)))
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                facets.append(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        out.append(SimplicialComplex.from_facets(n, facets))
    return out


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, r", SPARSE_PAVING, ids=[f"({n},{r})" for n, r in SPARSE_PAVING])
def test_the_bounded_test_meets_the_axiom_on_sparse_paving_matroids(n, r, seed):
    # the matroid and its two-base perturbation, whose exchange fails
    for cx, want in ((sparse_paving_matroid(n, r, seed), True), (less_two_bases(n, r, seed), False)):
        assert naive_circuit_elimination(cx) is want
        assert is_matroid_circuit_elimination(cx) is want, (n, r, seed, want)


def test_the_bounded_test_meets_the_axiom_on_random_complexes():
    cases = random_complexes(120, seed=41)
    verdicts = [naive_circuit_elimination(cx) for cx in cases]
    for cx, want in zip(cases, verdicts):
        assert is_matroid_circuit_elimination(cx) == want, (cx.n, cx.facets)
    assert {cx.n for cx in cases} == {6, 7, 8, 9}
    assert len(set(verdicts)) == 2


def test_large_sparse_paving_matroids_are_decided_at_once():
    # testing every meeting pair took 8 s on the (14, 5) matroid alone
    cases = [
        (make(n, r, 0), want)
        for n, r in [(14, 5), (14, 7)]
        for make, want in ((sparse_paving_matroid, True), (less_two_bases, False))
    ]
    start = time.perf_counter()
    for cx, want in cases:
        assert is_matroid_circuit_elimination(cx) is want
    assert time.perf_counter() - start < 1.0
