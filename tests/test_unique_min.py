"""`is_matroid_unique_min` gives each member of N_v its one minimal member in
one pass over the members by size: the member itself when no one-vertex
deletion of it is a member, else the one its member deletions carry, and
it fails where two deletions carry different ones.  Each verdict here is
checked against `_oracles.naive_unique_min`, which compares every member
with every minimal member over frozensets.
"""

import time

import pytest

from srt1.matroids import is_matroid_unique_min

from _matroids import less_two_bases, sparse_paving_matroid
from _oracles import naive_unique_min
from test_circuit_elimination import SPARSE_PAVING


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, r", SPARSE_PAVING, ids=[f"({n},{r})" for n, r in SPARSE_PAVING])
def test_one_pass_meets_the_criterion_on_sparse_paving_matroids(n, r, seed):
    # the matroid and its two-base perturbation, whose exchange fails
    cases = ((sparse_paving_matroid(n, r, seed), True), (less_two_bases(n, r, seed), False))
    for cx, want in cases:
        assert naive_unique_min(cx) is want
        assert is_matroid_unique_min(cx) is want, (n, r, seed, want)


def test_large_sparse_paving_matroids_are_decided_at_once():
    # comparing every member of N_v with every minimal member took 0.6 s on
    # the (14, 5) matroid alone
    cases = [
        (make(n, r, 0), want)
        for n, r in [(14, 5), (14, 7)]
        for make, want in ((sparse_paving_matroid, True), (less_two_bases, False))
    ]
    for cx, _ in cases:
        cx.face_masks()  # the face sets are built before the clock starts
    start = time.perf_counter()
    for cx, want in cases:
        assert is_matroid_unique_min(cx) is want
    assert time.perf_counter() - start < 1.0
