"""Seeded inputs for the four workloads, and why each workload exists.

A workload is a fixed list of slots; a slot names a family of complexes and
its size.  The family's generator builds `CANDIDATES` candidates per slot,
each from a seed derived from the slot alone.  `make_catalogue.py` keeps the
`VARIANTS` candidates whose count of in-range T1 degrees (what the T1 scan
and formula_discrepancies cost) lies nearest the slot's median, and records
them in `catalogue.json` with the T1 table digest of each.  The run seed
picks one member per slot and a random relabeling of its vertices.  The same
seed therefore gives byte-identical inputs, while every seed keeps the same
mix of families, sizes and costs, so runs on different seeds cost about the
same.

Everything is stdlib `random`; nothing here imports `srt1`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

import reference

VARIANTS = 8
CANDIDATES = 64
CATALOGUE = Path(__file__).resolve().parent / "catalogue.json"


# ---------------------------------------------------------------------------
# complexes as (n, facets), facets sorted tuples of 1-based vertices


def canon(facets) -> tuple[tuple[int, ...], ...]:
    """Inclusion-maximal sets among `facets`, sorted by size then lexicographically."""
    sets = sorted({frozenset(f) for f in facets}, key=len, reverse=True)
    keep: list[frozenset] = []
    for s in sets:
        if not any(s <= k for k in keep):
            keep.append(s)
    return tuple(sorted((tuple(sorted(s)) for s in keep), key=lambda t: (len(t), t)))


def uniform(n: int, k: int):
    return canon(itertools.combinations(range(1, n + 1), k))


def partition_matroid(blocks: list[tuple[int, int]]):
    """Direct sum of U(m, k) over the (m, k) blocks, on consecutive vertices."""
    parts, start = [], 1
    for m, k in blocks:
        parts.append(list(itertools.combinations(range(start, start + m), k)))
        start += m
    return canon(tuple(v for p in prod for v in p) for prod in itertools.product(*parts))


def graphic_matroid(edges: list[tuple[int, int]]):
    """Spanning forests of a graph; ground element i is edge edges[i-1]."""

    def acyclic(idx) -> bool:
        parent: dict[int, int] = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        for i in idx:
            u, v = edges[i - 1]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True

    ground = range(1, len(edges) + 1)
    for r in range(len(edges), -1, -1):
        bases = [c for c in itertools.combinations(ground, r) if acyclic(c)]
        if bases:
            return canon(bases)
    raise AssertionError("unreachable: the empty set is a forest")


def truncation(facets):
    """Faces of rank at most r - 1, for a matroid of rank r >= 2."""
    r = len(facets[0])
    return canon(c for f in facets for c in itertools.combinations(f, r - 1))


def with_loops_coloops(n: int, facets, loops: int, coloops: int):
    """Join with `loops` vertices in no face and `coloops` vertices in every facet."""
    co = tuple(range(n + loops + 1, n + loops + coloops + 1))
    return n + loops + coloops, canon(f + co for f in facets)


def random_graph(rng: random.Random, n: int, m: int, cover: bool = True):
    """m distinct edges on [n]; with `cover`, every vertex gets an edge first."""
    edges: set[tuple[int, int]] = set()
    if cover:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for a, b in zip(order[::2], order[1::2]):
            edges.add((min(a, b), max(a, b)))
        if n % 2:
            u = order[-1]
            w = rng.choice([x for x in range(1, n + 1) if x != u])
            edges.add((min(u, w), max(u, w)))
    pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if p not in edges]
    rng.shuffle(pairs)
    for p in pairs:
        if len(edges) >= m:
            break
        edges.add(p)
    return sorted(edges)


def random_tree(rng: random.Random, n: int):
    """Uniform labelled tree on [n] from a random Pruefer sequence."""
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = [x for x in range(1, n + 1) if degree[x] == 1]
    edges.append((u, w))
    return sorted(edges)


# ---------------------------------------------------------------------------
# families: each returns a dict with n, facets and what the generator knows


def _item(n, facets, family, matroid=None, edges=None):
    return {"family": family, "n": n, "facets": canon(facets), "matroid": matroid, "edges": edges}


def fam_uniform(rng, n, k):
    return _item(n, uniform(n, k), f"U({n},{k})", matroid=True)


def fam_partition(rng, n):
    sizes = []
    left = n
    while left:
        m = left if left <= 3 else rng.randint(2, min(4, left - 2))
        sizes.append(m)
        left -= m
    blocks = [(m, rng.randint(1, m - 1)) if m > 1 else (1, 1) for m in sizes]
    return _item(n, partition_matroid(blocks), "partition", matroid=True)


def fam_graphic(rng, n):
    v = 5 if n <= 8 else 6
    return _item(n, graphic_matroid(random_graph(rng, v, n, cover=False)), "graphic", matroid=True)


def fam_truncation(rng, n):
    base = fam_graphic(rng, n) if rng.random() < 0.5 else fam_partition(rng, n)
    facets = base["facets"]
    if len(facets[0]) < 2:
        return base
    return _item(n, truncation(facets), "truncation", matroid=True)


def fam_loops_coloops(rng, n):
    loops, coloops = rng.choice([(1, 1), (2, 0), (0, 2), (1, 2), (2, 1)])
    core = n - loops - coloops
    k = rng.randint(1, core - 1)
    size, facets = with_loops_coloops(core, uniform(core, k), loops, coloops)
    return _item(size, facets, "loops-coloops", matroid=True)


def fam_graph(rng, n, extra):
    edges = random_graph(rng, n, n + extra)
    return _item(n, edges, "graph", edges=edges)


def fam_graph_isolated(rng, n, isolated):
    """A random graph on n - isolated vertices; the rest are loops."""
    edges = random_graph(rng, n - isolated, n - isolated + 1)
    return _item(n, edges, "graph+loops", edges=edges)


def fam_path(rng, n):
    edges = [(i, i + 1) for i in range(1, n)]
    return _item(n, edges, "path", edges=edges)


def fam_cycle(rng, n):
    edges = sorted([(i, i + 1) for i in range(1, n)] + [(1, n)])
    return _item(n, edges, "cycle", edges=edges)


def fam_tree(rng, n):
    edges = random_tree(rng, n)
    return _item(n, edges, "tree", edges=edges)


def fam_star(rng, n):
    """K(1, n-1): a tree that is also a matroid (a coloop joined with U(n-1, 1))."""
    edges = [(1, v) for v in range(2, n + 1)]
    return _item(n, edges, "star", matroid=True, edges=edges)


def fam_bipartite(rng, n):
    """K(a, n-a) with a >= 2: a sparse graph that is a rank-2 matroid, U(a, 1) + U(n-a, 1)."""
    a = rng.randint(2, 3)
    edges = [(u, v) for u in range(1, a + 1) for v in range(a + 1, n + 1)]
    return _item(n, edges, "bipartite", matroid=True, edges=edges)


def fam_surface_patch(rng, n):
    """A few triangles on a path of vertices plus random edges: sparse, 2-dimensional."""
    tris = [(i, i + 1, i + 2) for i in range(1, n - 1, 3)][: rng.randint(2, 3)]
    used = {v for t in tris for v in t}
    rest = [v for v in range(1, n + 1) if v not in used]
    edges = [(min(a, b), max(a, b)) for a, b in zip(rest, rest[1:])]
    edges.append((min(rest[0], tris[0][0]), max(rest[0], tris[0][0])))
    u, w = rng.sample(rest, 2) if len(rest) > 1 else (rest[0], rng.choice(sorted(used)))
    edges.append((min(u, w), max(u, w)))
    return _item(n, tris + edges, "2-dim")


def fam_minus_facet(rng, n):
    base = fam_partition(rng, n) if rng.random() < 0.5 else fam_uniform(rng, n, rng.randint(2, n - 2))
    facets = list(base["facets"])
    drop = facets.pop(rng.randrange(len(facets)))
    facets += [tuple(v for v in drop if v != u) for u in drop]
    return _item(n, facets, "minus-facet")


def fam_plus_facet(rng, n):
    base = fam_graphic(rng, n)
    facets = list(base["facets"])
    faces = reference.faces_of(facets)
    r = len(facets[0])
    cands = [c for c in itertools.combinations(range(1, n + 1), r) if frozenset(c) not in faces]
    if not cands:
        cands = list(itertools.combinations(range(1, n + 1), r + 1))
    facets.append(rng.choice(cands))
    return _item(n, facets, "plus-facet")


def fam_antichain(rng, n):
    sets = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(2, 4)))) for _ in range(rng.randint(3, 6))]
    covered = {v for s in sets for v in s}
    sets += [(v,) for v in range(1, n + 1) if v not in covered]
    return _item(n, sets, "antichain")


FAMILIES = {
    "uniform": fam_uniform,
    "partition": fam_partition,
    "graphic": fam_graphic,
    "truncation": fam_truncation,
    "loops-coloops": fam_loops_coloops,
    "graph": fam_graph,
    "graph+loops": fam_graph_isolated,
    "path": fam_path,
    "cycle": fam_cycle,
    "tree": fam_tree,
    "star": fam_star,
    "bipartite": fam_bipartite,
    "2-dim": fam_surface_patch,
    "minus-facet": fam_minus_facet,
    "plus-facet": fam_plus_facet,
    "antichain": fam_antichain,
}


# ---------------------------------------------------------------------------
# the workloads: slots, operations and the reason for each

WORKLOADS = {
    "dense-matroids": {
        "why": "matroids on 6-9 vertices: many faces, mid-sized links; the (A, b) scan, N_b / N~_b, "
        "component counting and reconstruction dominate",
        "ops": ("t1", "reconstruct", "recognize"),
        "slots": [("uniform", n, k) for n, k in ((6, 2), (6, 3), (7, 2), (7, 3), (7, 4), (8, 4))]
        + [("partition", n) for n in (6, 6, 7, 7, 8, 8, 9)]
        + [("graphic", n) for n in (6, 6, 6, 7, 7, 8, 8)]
        + [("truncation", n) for n in (6, 6, 7, 7, 8, 8, 9)]
        + [("loops-coloops", n) for n in (6, 6, 7, 7, 8, 8, 9)]
        + [("uniform", 9, 4)],
    },
    "sparse-complexes": {
        "why": "graphs and sparse 2-dim complexes on 10-14 vertices: few faces, big links; the "
        "2^|V(link)| subset scan and the 2^n circuit sweep dominate",
        "ops": ("circuits", "t1", "recognize"),
        "slots": [("path", n) for n in (10, 11, 12, 13)]
        + [("cycle", n) for n in (10, 10, 11, 12)]
        + [("tree", n) for n in (10, 10, 10, 11, 11, 12, 12)]
        + [("star", n) for n in (10, 12)]
        + [("bipartite", n) for n in (10, 11)]
        + [("graph", n, e) for n, e in ((10, 1), (10, 2), (10, 3), (11, 2), (11, 4), (12, 2))]
        + [("graph+loops", n, i) for n, i in ((12, 2), (13, 3), (13, 4), (14, 4), (14, 3))]
        + [("2-dim", n) for n in (10, 10, 11, 12, 13)]
        + [("path", 14)],
    },
    "recognition": {
        "why": "half matroids, half not, on 6-8 vertices: T1 recognition, formula_discrepancies and "
        "the three oracles, with verdicts both ways",
        "ops": ("recognize", "discrepancies", "exchange", "circuit_elimination", "unique_min"),
        # each family twice, so the batch's quantiles rest on 48 complexes
        "slots": 2
        * (
            [("uniform", n, k) for n, k in ((6, 2), (6, 3), (7, 2))]
            + [("partition", n) for n in (6, 7, 7)]
            + [("graphic", n) for n in (6, 7, 7)]
            + [("truncation", n) for n in (6, 7)]
            + [("loops-coloops", n) for n in (6, 7)]
            + [("graph", n, e) for n, e in ((6, 1), (7, 2), (8, 1))]
            + [("minus-facet", n) for n in (6, 7, 7)]
            + [("plus-facet", n) for n in (6, 7)]
            + [("antichain", n) for n in (6, 7, 8)]
        ),
    },
    "cli": {
        "why": "srt1 subprocesses on small complexes plus one census: interpreter start, imports, "
        "argparse, JSON I/O and the process pools",
        "ops": ("t1", "recognize", "circuits", "discrepancies", "reconstruct"),
        "slots": [("uniform", n, k) for n, k in ((5, 2), (6, 2), (6, 3), (7, 3), (8, 3))]
        + [("partition", n) for n in (6, 6, 7, 8)]
        + [("graphic", n) for n in (6, 6, 7, 8)]
        + [("truncation", n) for n in (6,)]
        + [("loops-coloops", n) for n in (6, 7)]
        + [("graph", n, e) for n, e in ((6, 1), (7, 2), (8, 2))]
        + [("path", n) for n in (6, 8)]
        + [("minus-facet", n) for n in (6, 7)]
        + [("antichain", n) for n in (6, 8)],
    },
}

CLI_DISCREPANCIES_MAX_N = 6
CLI_CENSUS_MAX_N = 5


def candidate(workload: str, slot_index: int, index: int) -> dict:
    """Candidate `index` of a slot, in its generator's own labelling."""
    family, *params = WORKLOADS[workload]["slots"][slot_index]
    rng = random.Random(f"catalogue:{workload}:{slot_index}:{index}")
    return FAMILIES[family](rng, *params)


def load_catalogue() -> dict:
    return json.loads(CATALOGUE.read_text())


def base_item(workload: str, slot_index: int, variant: int, catalogue: dict) -> dict:
    """Catalogue member `variant` of a slot."""
    entry = catalogue["slots"][workload][slot_index]
    if entry["slot"] != list(WORKLOADS[workload]["slots"][slot_index]):
        raise ValueError(f"{workload} slot {slot_index} changed; rerun make_catalogue.py")
    return candidate(workload, slot_index, entry["members"][variant])


def base_key(n: int, facets) -> str:
    """Name of a catalogue member in `catalogue.json`."""
    return hashlib.sha256(json.dumps([n, facets]).encode()).hexdigest()[:20]


def relabel(item: dict, perm: dict[int, int]) -> dict:
    out = dict(item)
    out["facets"] = canon(tuple(perm[v] for v in f) for f in item["facets"])
    if item["edges"] is not None:
        out["edges"] = sorted(tuple(sorted((perm[a], perm[b]))) for a, b in item["edges"])
    return out


def make_items(workload: str, seed: int, catalogue: dict) -> list[dict]:
    """The workload's inputs for one seed: one relabeled catalogue member per slot."""
    rng = random.Random(f"run:{workload}:{seed}")
    items = []
    for i in range(len(WORKLOADS[workload]["slots"])):
        base = base_item(workload, i, rng.randrange(VARIANTS), catalogue)
        order = list(range(1, base["n"] + 1))
        rng.shuffle(order)
        perm = dict(zip(range(1, base["n"] + 1), order))
        item = relabel(base, perm)
        item["id"] = f"{i:02d}-{base['family']}-{base['n']}"
        item["base_key"] = base_key(base["n"], base["facets"])
        item["inverse"] = {b: a for a, b in perm.items()}
        items.append(item)
    return items
