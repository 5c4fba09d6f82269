"""Answers the benchmark checks the engine against, computed without the engine.

Everything here works on frozensets of 1-based vertices and follows the
definitions directly: faces are closed downward from the facets, a matroid is
a complex satisfying the augmentation axiom, and dim T1 in degree (A, b)
counts the components of the inclusion graph on N_b(link A) that avoid
N~_b, less one for a singleton b.  None of it imports `srt1`, so a bug in the
engine cannot hide in its own reference.
"""

from __future__ import annotations

import hashlib
import itertools
import json


def faces_of(facets) -> set[frozenset]:
    """Every face of the complex spanned by `facets` (the empty face included)."""
    out: set[frozenset] = {frozenset()}
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(frozenset(c) for c in itertools.combinations(f, r))
    return out


def is_matroid(facets) -> bool:
    """Augmentation axiom: for faces |I| = |J| + 1 some x in I - J extends J."""
    faces = faces_of(facets)
    by_size: dict[int, list[frozenset]] = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)
    for k in range(max(by_size)):
        for j in by_size.get(k, []):
            for i in by_size.get(k + 1, []):
                if not any(j | {x} in faces for x in i - j):
                    return False
    return True


def circuits_by_sweep(n: int, facets) -> list[tuple[int, ...]]:
    """Minimal nonfaces, found by testing every subset of [n] in size order."""
    faces = faces_of(facets)
    found: list[frozenset] = []
    for r in range(1, n + 1):
        for c in itertools.combinations(range(1, n + 1), r):
            s = frozenset(c)
            if s not in faces and not any(m <= s for m in found):
                found.append(s)
    return sorted((tuple(sorted(m)) for m in found), key=lambda t: (len(t), t))


def graph_circuits(n: int, edges) -> list[tuple[int, ...]]:
    """Minimal nonfaces of a graph seen as a 1-dimensional complex on [n].

    They are the isolated vertices (loops), the non-edges between vertices
    that are faces, and the triangles.
    """
    es = {frozenset(e) for e in edges}
    verts = set().union(*es) if es else set()
    out = [(v,) for v in range(1, n + 1) if v not in verts]
    out += [p for p in itertools.combinations(sorted(verts), 2) if frozenset(p) not in es]
    out += [
        t
        for t in itertools.combinations(sorted(verts), 3)
        if all(frozenset(p) in es for p in itertools.combinations(t, 2))
    ]
    return sorted(out, key=lambda t: (len(t), t))


def link_vertices(faces: set[frozenset], A: frozenset) -> frozenset:
    """Vertices of link(A): the v outside A with A + v a face."""
    out = set()
    for f in faces:
        if A <= f and len(f) == len(A) + 1:
            out |= f - A
    return frozenset(out)


def dim_t1(faces: set[frozenset], A, b) -> int:
    """dim T1 in degree (A, b) straight from the definition."""
    A, b = frozenset(A), frozenset(b)
    if not b or A not in faces or A & b:
        return 0
    link = {f - A for f in faces if A <= f}
    if not b <= link_vertices(faces, A):
        return 0
    nb = [f for f in link if not f & b and (f | b) not in link]
    proper = [frozenset(s) for r in range(len(b)) for s in itertools.combinations(b, r)]
    marked = {f for f in nb if any((f | s) not in link for s in proper)}
    seen: set[frozenset] = set()
    count = 0
    for start in nb:
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            f = stack.pop()
            for g in nb:
                if g not in comp and (f < g or g < f):
                    comp.add(g)
                    stack.append(g)
        seen |= comp
        if not comp & marked:
            count += 1
    return max(count - 1, 0) if len(b) == 1 else count


def in_range_degrees(facets) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every degree (A, b) with A a face and b a nonempty set of link(A) vertices."""
    faces = faces_of(facets)
    out = []
    for A in faces:
        verts = sorted(link_vertices(faces, A))
        for r in range(1, len(verts) + 1):
            for b in itertools.combinations(verts, r):
                out.append((tuple(sorted(A)), b))
    return sorted(out, key=lambda d: (len(d[0]), d[0], len(d[1]), d[1]))


def in_range_count(facets) -> int:
    """Number of in-range degrees: the sum over faces A of 2^|V(link A)| - 1."""
    faces = faces_of(facets)
    return sum((1 << len(link_vertices(faces, A))) - 1 for A in faces)


def table_doc(n: int, entries) -> str:
    """Canonical JSON text of a table given as ((A, b), dim) pairs."""
    rows = sorted(
        ((tuple(sorted(A)), tuple(sorted(b)), d) for (A, b), d in entries),
        key=lambda r: (len(r[0]), r[0], len(r[1]), r[1]),
    )
    return json.dumps({"n": n, "entries": [[list(a), list(b), d] for a, b, d in rows]})


def table_digest(n: int, entries) -> str:
    return hashlib.sha256(table_doc(n, entries).encode()).hexdigest()[:20]


def relabel_entries(entries, perm: dict[int, int]):
    """Apply a vertex map to the supports of ((A, b), dim) pairs."""
    return [((tuple(perm[v] for v in A), tuple(perm[v] for v in b)), d) for (A, b), d in entries]
