"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line (visible with
`pytest -v -s`, or in the captured-output section on failure).  The heavier
criteria share the census fixtures: `reps5` from conftest.py, `census5` below.
"""

import hashlib
import itertools
import math
import time

import pytest

import srt1
from srt1 import cli
from srt1.census import run_census
from srt1.complexes import SimplicialComplex
from srt1.cotangent import MultiDegree, T1Table, dim_t1, t1_table
from srt1.definition import dim_t1_nonface, n_del, n_del_red, t1_upper_bound
from srt1.matroids import (
    is_matroid_circuit_elimination,
    is_matroid_exchange,
    is_matroid_unique_min,
    uniform,
)
from srt1.recognition import is_matroid_via_t1
from srt1.reconstruction import DiscreteAmbiguousError, reconstruct

from _oracles import definition_discrepancies, powerset

REMARK = SimplicialComplex.from_minimal_nonfaces(
    5, [[1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5]]
)


@pytest.fixture(scope="module")
def census5():
    return {rep.name: rep for rep in run_census(5)}


# each invariant's check count over the <=5-vertex census; a refactor of the
# battery that drops or doubles a check changes one of them
CENSUS5_CHECKED = {
    "antichain": 253,
    "nonface-duality": 253,
    "link-restrict-commute": 53421,
    "rank-monotone": 7244,
    "oracle-agreement": 253,
    "matroid-minor-closure": 2315,
    "coloop-free-link-heredity": 375,
    "matroid-equicardinal-facets": 69,
    "link-reduction": 35374,
    "ndel-star-shape": 6991,
    "min-element-containment": 13982,
    "ndelred-empty-equivalence": 6991,
    "upper-bound": 3400,
    "deletion-basis-saturation": 1503,
    "basis-extension": 2942,
    "main-theorem-iff": 253,
    "recognition-corollary": 253,
    "singleton-discrepancy-direction": 1360,
    "nonface-dimension": 3591,
    "bijection-generators": 1815,
    "rigidity-discrete": 69,
    "round-trip": 49,
    "loop-coloop-classify": 49,
    "link-rigidity-basis": 375,
    "join-matroid-closure": 1128,
    "join-associativity": 224,
    "coloop-extension": 24,
}


def all_degrees(n):
    verts = list(range(1, n + 1))
    for A in powerset(verts):
        rest = [v for v in verts if v not in A]
        for b in powerset(rest):
            if b:
                yield MultiDegree.make(A, b)


def test_acceptance_1_golden_values():
    started = time.perf_counter()

    tetra_skel = SimplicialComplex.from_facets(
        4, [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    )
    assert n_del(tetra_skel, [1, 2]) == [(3,), (4,), (3, 4)]
    assert n_del_red(tetra_skel, [1, 2]) == [(3, 4)]

    assert dim_t1(REMARK, ((), (4, 5))) == 1

    # U(3,2): the stated entry, inside the full table frozen from the
    # brute-force oracle.  The closed form forces the pair and flag degrees
    # nonzero as well, so the table cannot be the single-entry one.
    table = t1_table(uniform(3, 2))
    assert table.dim([], [1, 2, 3]) == 1
    assert dict(table.items()) == {
        MultiDegree((), (1, 2)): 1,
        MultiDegree((), (1, 3)): 1,
        MultiDegree((), (2, 3)): 1,
        MultiDegree((), (1, 2, 3)): 1,
        MultiDegree((1,), (2, 3)): 1,
        MultiDegree((2,), (1, 3)): 1,
        MultiDegree((3,), (1, 2)): 1,
    }

    checked_discrete = 0
    for total in range(1, 7):
        for coloops in range(total + 1):
            m = uniform(total - coloops, 0) * uniform(coloops, coloops)
            assert len(t1_table(m)) == 0, (total, coloops)
            checked_discrete += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1: PASS golden values (tetrahedron N/N~, Remark dim 1, "
        f"U(3,2) table with ({{}},{{1,2,3}})->1 among its 7 oracle-frozen entries, "
        f"{checked_discrete} discrete tables empty) [{elapsed:.2f}s]"
    )


def test_acceptance_2_main_theorem_iff(reps5):
    started = time.perf_counter()
    checked = 0
    for n, reps in reps5.items():
        for cx in reps:
            matroid_votes = (
                is_matroid_exchange(cx),
                is_matroid_circuit_elimination(cx),
                is_matroid_unique_min(cx),
            )
            assert len(set(matroid_votes)) == 1, cx.facets
            # the full comparison: formula_discrepancies assumes the theorem
            # on every link that passes the singleton test
            formula_holds = definition_discrepancies(cx) == []
            assert formula_holds == matroid_votes[0], cx.facets
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(
        f"ACCEPTANCE 2: PASS main theorem iff over {checked} relabeling classes "
        f"on <=5 vertices [{elapsed:.1f}s]"
    )


def test_acceptance_3_recognition_corollary(reps5):
    started = time.perf_counter()
    checked = 0
    for reps in reps5.values():
        for cx in reps:
            assert is_matroid_via_t1(cx) == is_matroid_exchange(cx), cx.facets
            checked += 1
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 3: PASS recognition corollary over {checked} relabeling "
        f"classes on <=5 vertices [{elapsed:.1f}s]"
    )


def test_acceptance_4_uniform_closed_form():
    started = time.perf_counter()

    def closed_form(n, k, d):
        if len(d.A) > k:
            return 0
        if len(d.b) == 1:
            if k < n - 1 and len(d.A) + 1 <= k:
                return math.comb(n - len(d.A) - 1, n - k - 1) - 1
            return 0
        return 1 if k == n - 1 else 0

    checked = 0
    for n in range(1, 8):
        for k in range(1, n + 1):
            m = uniform(n, k)
            for d in all_degrees(n):
                assert dim_t1(m, d) == closed_form(n, k, d), (n, k, d)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 4: PASS uniform closed form over {checked} degrees, "
        f"1 <= k <= n <= 7 [{elapsed:.1f}s]"
    )


def test_acceptance_5_upper_bound(reps5):
    started = time.perf_counter()
    checked = tight = 0
    for n, reps in reps5.items():
        for cx in reps:
            matroid = is_matroid_exchange(cx)
            for b in powerset(range(1, n + 1)):
                if not b or not cx.is_face(b):
                    continue
                dim = dim_t1(cx, ((), b))
                bound = t1_upper_bound(cx, b)
                assert dim <= bound, (cx.facets, b)
                checked += 1
                if matroid and dim > 0:
                    assert dim == bound, (cx.facets, b)
                    tight += 1
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 5: PASS dim <= bound at {checked} face degrees, equality at "
        f"all {tight} nonzero matroid degrees [{elapsed:.1f}s]"
    )


def test_acceptance_6_nonface_degrees(reps5):
    started = time.perf_counter()
    checked = 0
    for n, reps in reps5.items():
        for cx in reps:
            for b in powerset(range(1, n + 1)):
                if not b or cx.is_face(b):
                    continue
                assert dim_t1_nonface(cx, b) == dim_t1(cx, ((), b)), (cx.facets, b)
                checked += 1
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 6: PASS nonface degree agreement at {checked} degrees "
        f"[{elapsed:.1f}s]"
    )


def test_acceptance_7_reconstruction_roundtrip(reps5):
    started = time.perf_counter()

    census_count = 0
    for reps in reps5.values():
        for cx in reps:
            if not is_matroid_exchange(cx):
                continue
            table = t1_table(cx)
            if len(table) == 0:
                with pytest.raises(DiscreteAmbiguousError):
                    reconstruct(table)
                continue
            assert reconstruct(table) == cx, cx.facets
            census_count += 1

    family_count = 0
    for m_size in range(2, 8):
        for k in range(1, m_size):
            for loops in range(8 - m_size):
                for coloops in range(8 - m_size - loops):
                    m = uniform(m_size, k) * uniform(loops, 0) * uniform(coloops, coloops)
                    assert reconstruct(t1_table(m)) == m, m.facets
                    family_count += 1

    for n in (1, 3, 6):
        with pytest.raises(DiscreteAmbiguousError):
            reconstruct(T1Table(n, []))

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 7: PASS round trip for {census_count} census matroids and "
        f"{family_count} join-family matroids (ground <= 7); empty tables raise "
        f"DiscreteAmbiguous [{elapsed:.1f}s]"
    )


def test_acceptance_8_property_suites(census5):
    started = time.perf_counter()
    named = [
        "link-reduction",
        "ndelred-empty-equivalence",
        "min-element-containment",
        "deletion-basis-saturation",
        "basis-extension",
        "bijection-generators",
        "coloop-extension",
        "loop-coloop-classify",
    ]
    for name in named:
        rep = census5[name]
        assert rep.checked > 0, name
        assert rep.ok, (name, rep.failures)
    # and the rest of the battery stays green too
    for name, rep in census5.items():
        assert rep.ok, (name, rep.failures)
    assert {name: rep.checked for name, rep in census5.items()} == CENSUS5_CHECKED
    total = sum(rep.checked for rep in census5.values())
    assert total == 144556
    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 8: PASS property suites ({len(named)} named invariants, "
        f"{len(census5)} total, {total} checks on the <=5-vertex census) "
        f"[{elapsed:.1f}s]"
    )


# md5 and sha256 of the stdout of `srt1 census --max-n 5`, the same for every
# thread count; an engine change that moves any report changes them
CENSUS5_STDOUT_MD5 = "a2bf42a8f0d7e6a7bef2fa593eba5752"
CENSUS5_STDOUT_SHA256 = "1a42e498388d4a1135445353cdbf7f50d699fe88f4eb3682e522a776fbdf0359"


def test_census_cli_output_is_pinned(census5, monkeypatch, capsys):
    # the module's census run stands in for the CLI's, so no second one runs
    asked = []
    reports = list(census5.values())
    monkeypatch.setattr(
        srt1, "run_census", lambda max_n, threads: asked.append((max_n, threads)) or reports
    )
    assert cli.main(["census", "--max-n", "5", "--threads", "1"]) == 0
    out = capsys.readouterr().out.encode()
    assert asked == [(5, 1)]
    assert hashlib.md5(out).hexdigest() == CENSUS5_STDOUT_MD5
    assert hashlib.sha256(out).hexdigest() == CENSUS5_STDOUT_SHA256
