"""The public views list their items in the canonical order on 9 to 16
vertices, where the order key and the decoder are two-byte tables.

Seeded graphs, trees and 2-dimensional patches, relabelled at random so
that both bytes of a mask hold vertices: each view equals its own items
decoded by `unpack` and sorted by (size, vertex tuple), the table rows by
A and then by b.
"""

import random

import pytest

from srt1.complexes import SimplicialComplex, unpack
from srt1.cotangent import t1_table
from srt1.recognition import formula_discrepancies


def canonical(vs):
    return len(vs), tuple(vs)


def by_degree(rows):
    return sorted(rows, key=lambda row: (canonical(row[0]), canonical(row[1])))


def random_tree(rng, n):
    return [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]


def random_graph(rng, n):
    edges = set(map(frozenset, random_tree(rng, n)))
    while len(edges) < n + rng.randint(1, 4):
        edges.add(frozenset(rng.sample(range(1, n + 1), 2)))
    return [tuple(e) for e in edges]


def surface_patch(rng, n):
    # two or three triangles on a path of vertices, the rest a path and a
    # chord; three only when a vertex is left for the path
    tris = [(i, i + 1, i + 2) for i in range(1, n - 1, 3)][: rng.randint(2, 3 if n > 9 else 2)]
    used = {v for t in tris for v in t}
    rest = [v for v in range(1, n + 1) if v not in used]
    edges = list(zip(rest, rest[1:])) + [(rest[0], tris[0][0]), tuple(rng.sample(range(1, n + 1), 2))]
    return tris + edges


FAMILIES = {"graph": random_graph, "tree": random_tree, "2-dim": surface_patch}


def seeded_complexes(family, count, seed):
    rng = random.Random(f"{family}:{seed}")
    for _ in range(count):
        n = rng.randint(9, 16)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        facets = FAMILIES[family](rng, n)
        yield SimplicialComplex.from_facets(n, [[perm[v - 1] for v in f] for f in facets])


@pytest.mark.parametrize("family", FAMILIES)
def test_views_list_their_items_canonically_on_two_bytes(family):
    for cx in seeded_complexes(family, 100, 0):
        assert cx.minimal_nonfaces() == sorted(map(unpack, cx._circuit_masks()), key=canonical)
        assert cx.faces() == sorted(map(unpack, cx.face_masks()), key=canonical)
        assert list(cx.facets) == sorted(map(unpack, cx.facet_masks), key=canonical)
        table = t1_table(cx)
        rows = [(unpack(a), unpack(b), d) for a, g in table._groups.items() for b, d in g.items()]
        entries = [(tuple(e["A"]), tuple(e["b"]), e["dim"]) for e in table.to_json_dict()["entries"]]
        assert entries == by_degree(rows)
        lines = [line.split("\t") for line in table.to_tsv().splitlines()[1:]]
        assert [(A, b, int(d)) for A, b, d in lines] == [
            (",".join(map(str, A)), ",".join(map(str, b)), d) for A, b, d in entries
        ]
        degrees = [(d.degree.A, d.degree.b) for d in formula_discrepancies(cx)]
        assert degrees == by_degree(degrees) and len(set(degrees)) == len(degrees)
