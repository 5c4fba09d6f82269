"""Seeded sparse paving matroids on up to 12 elements, and non-matroids near them.

A sparse paving matroid (`_matroids.sparse_paving`) is uniform but for its
circuit-hyperplanes, so its links are no uniform links and `t1_table` writes
them flat by flat (`cotangent._matroid_up_set`); the (12, 6) one below has
1241 distinct groups among its 1586 faces.  On each matroid the table meets
the circuit formula `dim_t1_matroid_formula` and `dim_t1` at seeded degrees,
reconstructs the matroid, and the three oracles and `is_matroid_via_t1`
accept it.  Dropping two bases that share r - 1 elements
(`_matroids.less_two_bases`) leaves a non-matroid that all four refuse.
Where n <= 10 `formula_discrepancies` meets the full comparison on both.
`python3 tests/_sparse_paving_large.py` runs the same checks on n = 14
and 16, past the tier-1 time budget.
"""

import random
import time

import pytest

from srt1 import cotangent
from srt1.complexes import unpack
from srt1.cotangent import dim_t1, t1_table
from srt1.definition import dim_t1_matroid_formula
from srt1.matroids import (
    is_matroid_circuit_elimination,
    is_matroid_exchange,
    is_matroid_unique_min,
)
from srt1.recognition import formula_discrepancies, is_matroid_via_t1
from srt1.reconstruction import reconstruct

from _matroids import less_two_bases, sparse_paving, sparse_paving_matroid
from _oracles import definition_discrepancies

CASES = [(8, 3), (9, 4), (10, 4), (10, 5), (12, 4), (12, 6)]
ORACLES = (is_matroid_exchange, is_matroid_circuit_elimination, is_matroid_unique_min)
BOUND_S = 10.0


def sampled_degrees(cx, table, seed, count=12):
    """Seeded degrees (A, b): stored rows of the table, and pairs of a face A
    with a random nonempty b outside it, most of them zero."""
    rng = random.Random(f"degrees:{seed}")
    keys = sorted(table.keys(), key=lambda d: d.key())
    out = [(k.A, k.b) for k in rng.sample(keys, min(count, len(keys)))]
    faces = sorted(cx.face_masks())
    for _ in range(count):
        a = rng.choice(faces)
        rest = [v for v in range(1, cx.n + 1) if not a >> (v - 1) & 1]
        out.append((unpack(a), tuple(sorted(rng.sample(rest, rng.randint(1, min(3, len(rest))))))))
    return out


def check(n, r, seed):
    """The checks of this module on one (n, r, seed), but the full
    comparison; returns the matroid and its table."""
    m = sparse_paving_matroid(n, r, seed)
    circuits = [c for c in m.minimal_nonface_masks() if c & (c - 1)]
    assert sparse_paving(n, r, seed)[1] and cotangent._uniform_shape(circuits) is None
    table = t1_table(m)
    for degree in sampled_degrees(m, table, seed):
        assert table.dim(degree) == dim_t1_matroid_formula(m, degree) == dim_t1(m, degree), degree
    assert reconstruct(table) == m
    assert all(oracle(m) for oracle in ORACLES) and is_matroid_via_t1(m)
    near = less_two_bases(n, r, seed)
    assert not any(oracle(near) for oracle in ORACLES) and not is_matroid_via_t1(near)
    return m, table


@pytest.mark.parametrize("n, r", CASES, ids=[f"({n},{r})" for n, r in CASES])
@pytest.mark.parametrize("seed", range(2))
def test_sparse_paving_matroid(n, r, seed):
    start = time.perf_counter()
    m, table = check(n, r, seed)
    assert time.perf_counter() - start < BOUND_S
    if (n, r, seed) == (12, 6, 0):
        assert len(table._groups) == 1586 and len({id(g) for g in table._groups.values()}) == 1241


@pytest.mark.parametrize("n, r", [(n, r) for n, r in CASES if n <= 10])
def test_sparse_paving_discrepancies_match_the_full_comparison(n, r):
    m = sparse_paving_matroid(n, r, 0)
    fresh = sparse_paving_matroid(n, r, 0)
    assert formula_discrepancies(m) == definition_discrepancies(fresh) == []
    near = less_two_bases(n, r, 0)
    found = formula_discrepancies(near)
    assert found and found == definition_discrepancies(less_two_bases(n, r, 0))
