"""The checks of `test_sparse_paving` on sparse paving matroids of 14 and 16
elements, past the tier-1 time budget, with the time of each step.

Run from the repository root:

    PYTHONPATH=src python3 tests/_sparse_paving_large.py

Prints two lines per matroid: its faces, the distinct groups of its table
and the seconds taken by `t1_table`, `reconstruct` and the whole check;
then the seconds each matroid oracle takes on the matroid and on its
`less_two_bases` perturbation, fresh complexes whose face sets and circuits
are built before the clock starts.  pytest does not collect this file.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from srt1.cotangent import t1_table  # noqa: E402
from srt1.matroids import (  # noqa: E402
    is_matroid_circuit_elimination,
    is_matroid_exchange,
    is_matroid_unique_min,
)
from srt1.reconstruction import reconstruct  # noqa: E402

from _matroids import less_two_bases, sparse_paving_matroid  # noqa: E402
from test_sparse_paving import check  # noqa: E402

CASES = [(14, 5), (14, 7), (16, 4), (16, 5), (16, 8)]
ORACLES = {
    "exchange": is_matroid_exchange,
    "circuit elimination": is_matroid_circuit_elimination,
    "unique-min": is_matroid_unique_min,
}


def oracle_seconds(n, r):
    """Each oracle's seconds on the matroid and on its perturbation."""
    times = {}
    for name, oracle in ORACLES.items():
        for make, want in ((sparse_paving_matroid, True), (less_two_bases, False)):
            cx = make(n, r, 0)
            cx.face_masks()
            cx._circuit_masks()
            start = time.perf_counter()
            assert oracle(cx) is want
            times.setdefault(name, []).append(time.perf_counter() - start)
    return "; ".join(f"{name} {a:.3f} + {b:.3f} s" for name, (a, b) in times.items())


def main() -> int:
    for n, r in CASES:
        start = time.perf_counter()
        check(n, r, 0)
        whole = time.perf_counter() - start
        m = sparse_paving_matroid(n, r, 0)
        start = time.perf_counter()
        table = t1_table(m)
        built = time.perf_counter() - start
        start = time.perf_counter()
        assert reconstruct(table) == m
        back = time.perf_counter() - start
        groups = len({id(g) for g in table._groups.values()})
        print(
            f"({n}, {r}): {len(table._groups)} faces in two or more facets, {groups} groups; "
            f"t1_table {built:.3f} s, reconstruct {back:.3f} s, check {whole:.1f} s",
            flush=True,
        )
        print(f"  oracles, matroid + perturbation: {oracle_seconds(n, r)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
