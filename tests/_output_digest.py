"""One sha256 over the library's outputs on a fixed set of 8934 inputs.

Run from the repository root:

    PYTHONPATH=src python3 tests/_output_digest.py [EXPECTED]

With EXPECTED, a hex digest, it exits 1 when the digest differs, so that
one command checks that a change to the engine keeps every output.

The inputs are every nonvoid labelled complex on at most five vertices
(7774, the one on n = 0 included), the 1152 members of
`perfbench/catalogue.json` in their generators' labelling, U(10, 5),
U(11, 4) and U(12, 6), three matroids that reach each matroid rule of
the engine past the census: M(K6), the spanning trees of the complete graph
on six nodes, whose links `cotangent._matroid_up_set` writes and whose
flats repeat; U(7, 4) with each element doubled; and U(8, 4) joined with two
coloops, written from its uniform shape; and two non-matroids whose links
of rank 3 or more fail the singleton test past the census: "three facets
k = 9", with facets {1..9}, {2..14} and {1, 14}, and U(8, 4) less the
bases 1234 and 1235, which share three elements.  Each input adds one JSON line to the hash, a list
of four items dumped with `json.dumps` defaults: the `t1_table` document;
per entry of `formula_discrepancies`, the list [A, b, graph dimension,
formula dimension]; the verdict of `is_matroid_via_t1`; and what
`reconstruct` makes of the table, the document of the complex it returns or,
when it raises a ValueError, "ExceptionName: message".  Two trees print the
same digest when they give the same tables, discrepancies, verdicts and
reconstructions, errors included, in the same order, on all of them.
pytest does not collect this file; `test_output_digest.py` pins its digest
in the test suite.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def inputs():
    from srt1.census import all_antichain_masks
    from srt1.complexes import SimplicialComplex
    from srt1.matroids import uniform

    for n in range(6):
        for facets in all_antichain_masks(n):
            if facets:
                yield SimplicialComplex(n, facets)
    saved = sys.path[:]
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path[:] = saved

    for workload, slots in workloads.load_catalogue()["slots"].items():
        for slot_index, entry in enumerate(slots):
            for member in entry["members"]:
                item = workloads.candidate(workload, slot_index, member)
                yield SimplicialComplex.from_facets(item["n"], item["facets"])
    for n, k in ((10, 5), (11, 4), (12, 6)):
        yield uniform(n, k)
    yield complete_graph_matroid(6)
    doubled = [
        [2 * v - j for v, j in zip(f, picks)]
        for f in uniform(7, 4).facets
        for picks in itertools.product((0, 1), repeat=4)
    ]
    yield SimplicialComplex.from_facets(14, doubled)
    yield uniform(8, 4).join(SimplicialComplex.from_facets(2, [[1, 2]]))
    yield SimplicialComplex.from_facets(14, [range(1, 10), range(2, 15), [1, 14]])
    dropped = {(1, 2, 3, 4), (1, 2, 3, 5)}
    yield SimplicialComplex.from_facets(8, [f for f in uniform(8, 4).facets if f not in dropped])


def complete_graph_matroid(nodes: int):
    """M(K_nodes): its bases are the spanning trees, its elements the edges
    in lexicographic order."""
    from srt1.complexes import SimplicialComplex

    edges = list(itertools.combinations(range(nodes), 2))

    def spanning(subset) -> bool:
        reach = list(range(nodes))  # each node's component label
        for i in subset:
            u, w = reach[edges[i][0]], reach[edges[i][1]]
            if u == w:
                return False
            reach = [u if r == w else r for r in reach]
        return True

    trees = itertools.combinations(range(len(edges)), nodes - 1)
    return SimplicialComplex.from_facets(
        len(edges), [[i + 1 for i in s] for s in trees if spanning(s)]
    )


def digest() -> tuple[str, int]:
    from srt1.cotangent import t1_table
    from srt1.recognition import formula_discrepancies, is_matroid_via_t1
    from srt1.reconstruction import reconstruct

    h = hashlib.sha256()
    count = 0
    for cx in inputs():
        found = [
            [list(d.degree.A), list(d.degree.b), d.graph_dim, d.formula_dim]
            for d in formula_discrepancies(cx)
        ]
        table = t1_table(cx)
        try:
            back = reconstruct(table).to_json_dict()
        except ValueError as exc:
            back = f"{type(exc).__name__}: {exc}"
        line = json.dumps([table.to_json_dict(), found, is_matroid_via_t1(cx), back])
        h.update(line.encode() + b"\n")
        count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    value, count = digest()
    print(f"{value}  {count} inputs")
    if len(sys.argv) > 1 and value != sys.argv[1].lower():
        print(f"expected {sys.argv[1]}", file=sys.stderr)
        sys.exit(1)
