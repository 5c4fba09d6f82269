"""Paths, cycles and a star on 40 and 64 vertices, far past what a 2^n sweep
could reach.

Circuits, the T1 table and recognition cost faces x vertices here, so each
test finishes in well under a second; the 10 s bound is deliberately loose.
"""

import itertools
import json
import time

import pytest

from srt1 import cli
from srt1.complexes import MAX_NONFACE_GROUND, SimplicialComplex
from srt1.cotangent import dim_t1, t1_table
from srt1.recognition import is_matroid_via_t1

BOUND_S = 10.0


def graph_edges(n, cyclic):
    edges = [(v, v + 1) for v in range(1, n)]
    return edges + [(1, n)] if cyclic else edges


@pytest.mark.parametrize("cyclic", [False, True], ids=["path", "cycle"])
@pytest.mark.parametrize("n", [40, 64])
def test_large_sparse_graph(n, cyclic):
    start = time.perf_counter()
    edges = graph_edges(n, cyclic)
    cx = SimplicialComplex.from_facets(n, edges)

    edge_set = set(edges)
    non_edges = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in edge_set]
    assert cx.minimal_nonfaces() == non_edges
    assert not is_matroid_via_t1(cx)

    table = t1_table(cx)
    for degree, dim in table.items():
        assert dim_t1(cx, degree) == dim, degree
    # the link of an inner vertex is its two neighbours, an isolated circuit
    for v in range(2, n):
        assert table.dim((v,), (v - 1, v + 1)) == 1
    assert time.perf_counter() - start < BOUND_S


def test_large_star_plus_one_edge():
    # the centre's link is U(63, 1) and the link at either end of the extra
    # edge U(2, 1): links of rank 1, whose rows come without a face set
    start = time.perf_counter()
    n = 64
    cx = SimplicialComplex.from_facets(n, [(1, v) for v in range(2, n + 1)] + [(2, 3)])
    table = t1_table(cx)
    for degree, dim in table.items():
        assert dim_t1(cx, degree) == dim, degree
    assert all(table.dim((1,), (v,)) == n - 3 for v in range(2, n + 1))
    assert table.dim((2,), (1, 3)) == table.dim((3,), (1, 2)) == 1
    assert not is_matroid_via_t1(cx)
    assert time.perf_counter() - start < BOUND_S


def test_cli_on_64_cycle(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "cycle64.json"
    path.write_text(json.dumps({"n": 64, "facets": [list(e) for e in graph_edges(64, True)]}))

    assert cli.main(["circuits", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["minimal_nonfaces"]) == 64 * 63 // 2 - 64

    # the circuits document is minimal nonface input, past its ground limit
    circuits_path = tmp_path / "cycle64_circuits.json"
    circuits_path.write_text(json.dumps(doc))
    assert cli.main(["t1", str(circuits_path)]) == 1
    assert f"exceeds limit {MAX_NONFACE_GROUND}" in capsys.readouterr().err

    assert cli.main(["t1", str(path), "--threads", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 64 and doc["entries"]
    assert time.perf_counter() - start < BOUND_S
