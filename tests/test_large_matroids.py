"""U(12, 6), a matroid with 2510 faces, past the graph engine's reach.

The closed-form matroid path of `t1_table` takes its table from the circuits
of each link.  On a 2-vCPU host the table takes about 0.55 s, the
`reconstruct` round trip, which recomputes the table to verify it, about
0.9 s, and the whole test about 2 s; the 10 s bound is deliberately loose.
"""

import random
import time

from srt1.cotangent import dim_t1_matroid_formula, t1_table
from srt1.matroids import uniform
from srt1.reconstruction import reconstruct

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
