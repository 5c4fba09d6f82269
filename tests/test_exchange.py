"""`is_matroid_exchange` reads exchange in one pass over the faces: it builds
e(J) = {v : J u {v} a face} for every face J and asks that the graph of each
link on e(J) be complete multipartite, that is, that non-adjacency be an
equivalence.  Each verdict here is checked against
`_oracles.naive_is_matroid`, which tests every smaller face against every
larger one over frozensets.
"""

import time

import pytest

from srt1.matroids import is_matroid_exchange

from _matroids import less_two_bases, sparse_paving_matroid
from _oracles import naive_is_matroid
from test_circuit_elimination import SPARSE_PAVING, random_complexes


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, r", SPARSE_PAVING, ids=[f"({n},{r})" for n, r in SPARSE_PAVING])
def test_one_pass_meets_the_axiom_on_sparse_paving_matroids(n, r, seed):
    # the matroid and its two-base perturbation, whose exchange fails
    for cx, want in ((sparse_paving_matroid(n, r, seed), True), (less_two_bases(n, r, seed), False)):
        assert naive_is_matroid(cx) is want
        assert is_matroid_exchange(cx) is want, (n, r, seed, want)


def test_one_pass_meets_the_axiom_on_random_complexes():
    cases = random_complexes(120, seed=41)
    verdicts = [naive_is_matroid(cx) for cx in cases]
    for cx, want in zip(cases, verdicts):
        assert is_matroid_exchange(cx) == want, (cx.n, cx.facets)
    assert {cx.n for cx in cases} == {6, 7, 8, 9}
    assert len(set(verdicts)) == 2


def test_large_sparse_paving_matroids_are_decided_at_once():
    # testing every k-face against every (k + 1)-face took 1.3 s on these six
    cases = [
        (make(n, r, 0), want)
        for n, r in [(14, 5), (14, 7), (16, 5)]
        for make, want in ((sparse_paving_matroid, True), (less_two_bases, False))
    ]
    for cx, _ in cases:
        cx.face_masks()  # the face sets are built before the clock starts
    start = time.perf_counter()
    for cx, want in cases:
        assert is_matroid_exchange(cx) is want
    assert time.perf_counter() - start < 0.5
