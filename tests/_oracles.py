"""Brute-force reference implementations, independent of the package.

The `naive_*` helpers run on frozensets with explicit enumeration and the
full quantifiers from the definitions, no bitmask tricks and no pruning.  The
next section keeps the package's former exhaustive engine, on bitmasks, as a
differential oracle for the engine that skips provably zero work.  Slow on
purpose; only ever applied to small or sparse inputs.  The last,
`definition_discrepancies`, holds the package's own face engine to its
circuit formula at every degree, with no walk.
"""

from __future__ import annotations

from itertools import chain, combinations


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def close_down(facets) -> set[frozenset]:
    faces = set()
    for f in facets:
        for sub in powerset(f):
            faces.add(frozenset(sub))
    return faces


def faces_of(cx) -> set[frozenset]:
    """Face family of a package complex, rebuilt here from its facet list."""
    return close_down(cx.facets)


def naive_minimal_nonfaces(faces: set[frozenset], ground) -> set[frozenset]:
    ground = set(ground)
    non = [frozenset(s) for s in powerset(ground) if frozenset(s) not in faces]
    return {c for c in non if all(not s < c for s in non)}


def naive_link(faces: set[frozenset], A) -> set[frozenset]:
    A = frozenset(A)
    return {f - A for f in faces if A <= f and not (f - A) & A}


def naive_n_del(faces: set[frozenset], b) -> set[frozenset]:
    b = frozenset(b)
    return {f for f in faces if not f & b and (f | b) not in faces}


def naive_n_del_red(faces: set[frozenset], b) -> set[frozenset]:
    # the full quantifier over every proper subset, not just the maximal ones
    b = frozenset(b)
    out = set()
    for f in naive_n_del(faces, b):
        for sub in powerset(b):
            bp = frozenset(sub)
            if bp != b and (f | bp) not in faces:
                out.add(f)
                break
    return out


def naive_components(sets) -> list[set[frozenset]]:
    """Connected components under comparability (strict inclusion either way)."""
    sets = list(sets)
    seen = set()
    comps = []
    for start in sets:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for other in sets:
                if other not in comp and (cur < other or other < cur):
                    comp.add(other)
                    queue.append(other)
        seen |= comp
        comps.append(comp)
    return comps


def naive_dim_t1(cx, A, b) -> int:
    """T1 dimension at the support pair (A, b), straight from the definitions."""
    faces = faces_of(cx)
    A, b = frozenset(A), frozenset(b)
    if A not in faces or not b or A & b:
        return 0
    link = naive_link(faces, A)
    link_verts = {v for f in link for v in f}
    if not b <= link_verts:
        return 0
    nd = naive_n_del(link, b)
    marked = naive_n_del_red(link, b)
    count = sum(1 for comp in naive_components(nd) if not comp & marked)
    if len(b) == 1:
        count = max(count - 1, 0)
    return count


def naive_is_matroid(cx) -> bool:
    """Unrestricted exchange: every smaller face extends from every larger one."""
    faces = faces_of(cx)
    if not faces:
        return False
    for i_face in faces:
        for j_face in faces:
            if len(i_face) < len(j_face):
                if not any(i_face | {x} in faces for x in j_face - i_face):
                    return False
    return True


def naive_circuit_elimination(cx) -> bool:
    """Strong circuit elimination on the minimal nonfaces: for distinct circuits
    C1, C2, every e in C1 & C2 and every f in C1 - C2, some circuit inside
    (C1 | C2) - {e} contains f."""
    faces = faces_of(cx)
    if not faces:
        return False
    circuits = naive_minimal_nonfaces(faces, range(1, cx.n + 1))
    for c1 in circuits:
        for c2 in circuits:
            if c1 == c2:
                continue
            for e in c1 & c2:
                for f in c1 - c2:
                    if not any(f in c3 and c3 <= (c1 | c2) - {e} for c3 in circuits):
                        return False
    return True


def naive_unique_min(cx) -> bool:
    """Every member of every N_v contains exactly one inclusion-minimal member
    of N_v, minimality taken over every member."""
    faces = faces_of(cx)
    if not faces:
        return False
    for v in range(1, cx.n + 1):
        nv = naive_n_del(faces, {v})
        minimal = [f for f in nv if not any(g < f for g in nv)]
        for f in nv:
            if sum(1 for m in minimal if m <= f) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# The package's former exhaustive engine, on bitmasks (bit v-1 is vertex v).
# It computes T1 at every subset b of each link's vertices, counts components
# over every comparable pair of N_b, and sweeps all 2^n masks for minimal
# nonfaces.  The package now skips the work these scans prove redundant;
# test_differential checks that nothing changed.


def _verts(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _degree_key(degree) -> tuple:
    A, b = degree
    return (len(A), A, len(b), b)


def sweep_minimal_nonfaces(faces, n: int) -> list[int]:
    """Minimal nonfaces of a downward-closed mask family, by sweeping [n]'s subsets."""
    found: list[int] = []
    for mask in sorted(range(1 << n), key=int.bit_count):
        if mask not in faces and not any(c & ~mask == 0 for c in found):
            found.append(mask)
    return found


def _subset_scan(faces, a: int):
    """The link at the face a and every nonempty subset of its vertices."""
    link = {f ^ a for f in faces if f & a == a}
    verts = 0
    for f in link:
        verts |= f
    subsets = []
    sub = verts
    while sub:
        subsets.append(sub)
        sub = (sub - 1) & verts
    return link, subsets


def _less_one_for_singleton(count: int, b: int) -> int:
    return max(count - 1, 0) if b.bit_count() == 1 else count


def _scan_dim(link, b: int) -> int:
    """Unmarked components of the comparability graph on N_b, joining every pair."""
    nvert = [f for f in link if not f & b and (f | b) not in link]
    drops = [b & ~(1 << (v - 1)) for v in _verts(b)]
    comp = list(range(len(nvert)))
    for i, fi in enumerate(nvert):
        for j, fj in enumerate(nvert):
            if fi & ~fj == 0 and comp[i] != comp[j]:
                old = comp[j]
                comp = [comp[i] if c == old else c for c in comp]
    marked = {c for c, f in zip(comp, nvert) if any((f | d) not in link for d in drops)}
    return _less_one_for_singleton(len(set(comp) - marked), b)


def _scan_formula(circuits, b: int) -> int:
    through = 0
    for c in circuits:
        if c & b == b:
            through += 1
        elif c & b:
            return 0
    return _less_one_for_singleton(through, b)


def subset_scan_table(cx) -> dict:
    """Every nonzero T1 dimension of a package complex, as {(A, b): dim}."""
    faces = cx.face_masks()
    out = {}
    for a in faces:
        link, subsets = _subset_scan(faces, a)
        for b in subsets:
            dim = _scan_dim(link, b)
            if dim:
                out[(_verts(a), _verts(b))] = dim
    return out


def subset_scan_discrepancies(cx) -> list:
    """Every ((A, b), graph_dim, formula_dim) where the two disagree, in degree order."""
    faces = cx.face_masks()
    out = []
    for a in faces:
        link, subsets = _subset_scan(faces, a)
        circuits = sweep_minimal_nonfaces(link, cx.n)
        for b in subsets:
            graph, formula = _scan_dim(link, b), _scan_formula(circuits, b)
            if graph != formula:
                out.append(((_verts(a), _verts(b)), graph, formula))
    return sorted(out, key=lambda d: _degree_key(d[0]))


# ---------------------------------------------------------------------------
# the definition against the circuit formula, at every degree


def definition_discrepancies(cx) -> list:
    """`formula_discrepancies` without the walk: at every face a of cx, the
    face engine of `definition` against `_formula_on_link` at each face b of
    its link in a circuit (0 on both sides at any other), each link built from
    its facets.  On a matroid it checks the main theorem the walk assumes.
    Both are read through `definition` at each call, so a patch of either
    reaches them."""
    from srt1 import definition
    from srt1.complexes import _faces_of, _link_facets, _minimal_nonfaces
    from srt1.cotangent import _circuit_faces
    from srt1.recognition import _discrepancies

    cx._require_nonvoid("formula_discrepancies")
    out = []
    for a in cx.face_masks():
        link_faces = _faces_of(_link_facets(cx.facet_masks, a))
        link_circuits = _minimal_nonfaces(link_faces, cx.n)
        for b in _circuit_faces(link_circuits):
            graph_dim = definition._dim_on_faces(link_faces, b)
            formula_dim = definition._formula_on_link(link_circuits, b)
            if graph_dim != formula_dim:
                out.append(((a, b), graph_dim, formula_dim))
    return _discrepancies(cx.n, out)
