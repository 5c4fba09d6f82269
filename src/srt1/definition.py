"""T1 by its definition, and the views of it that the checks compare with.

The face engine reads a degree b off a whole face set: the dimension is the
number of components of the inclusion graph on N_b that miss N~_b, less one
(clamped) at |b| = 1 (Altmann & Christophersen, Cotangent cohomology of
Stanley-Reisner rings, Manuscripta Math. 115, 2004).  `_dim_on_faces`
counts exactly that: `_component_ids` joins the whole of N_b, `_marks`
tests N~_b, and every component with a marked member is dropped.
`_formula_on_link` is the circuit formula over a link's circuits, and
`dim_t1_nonface` states the isolated-circuit rule itself.  No engine path
runs any of it, as `cotangent` never imports this module, and it shares no
rule with the engine: of `cotangent` it binds only the degree validator
`_degree_masks`.  It is the independent count that the census and the tests,
their `definition_discrepancies` among them, hold the engine's rules to,
with the public views built on it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .complexes import SimplicialComplex, _ndel, _order_key, pack, unpack
from .cotangent import _degree_masks


def _less_one_for_singleton(count: int, b: int) -> int:
    return max(count - 1, 0) if b.bit_count() == 1 else count


def _marks(faces: frozenset[int], nvert: list[int], b: int) -> list[bool]:
    """Membership of each N_b element in N~_b, testing only b \\ {v}."""
    subs = [b ^ (1 << (v - 1)) for v in unpack(b)]
    return [any((f | s) not in faces for s in subs) for f in nvert]


def _component_ids(nvert: list[int]) -> list[int]:
    """Component ids of the strict-inclusion graph on N_b, by union-find.

    N_b is an up-set among the faces disjoint from b, so a strict inclusion
    F < G inside it is a chain of one-vertex steps that stays in N_b.
    Joining each member to its one-vertex deletions in N_b gives the same
    components as joining every comparable pair.
    """
    index = {f: i for i, f in enumerate(nvert)}
    parent = list(range(len(nvert)))
    for i, f in enumerate(nvert):
        rest = f
        while rest:
            u = rest & -rest
            rest ^= u
            rj = index.get(f ^ u)
            if rj is None:
                continue
            ri = i  # the roots of i and j, halving each path on the way
            while parent[ri] != ri:
                parent[ri] = ri = parent[parent[ri]]
            while parent[rj] != rj:
                parent[rj] = rj = parent[parent[rj]]
            parent[ri] = rj
    for i, root in enumerate(parent):
        while parent[root] != root:
            root = parent[root]
        parent[i] = root
    return parent


def _dim_on_faces(faces: frozenset[int], b: int) -> int:
    """T1 dimension in degree -b over a nonvoid face set containing b's
    vertices: the number of components of the inclusion graph on N_b with no
    member in N~_b, less one (clamped) at |b| = 1."""
    nvert = _ndel(faces, b)
    comp = _component_ids(nvert)
    marked = {c for c, m in zip(comp, _marks(faces, nvert, b)) if m}
    return _less_one_for_singleton(len(set(comp) - marked), b)


def _formula_on_link(link_circuits: list[int], b: int) -> int:
    """The closed-form circuit count, from the minimal nonfaces of a link.

    Zero when some minimal nonface meets b properly (the N~ emptiness
    equivalence), else the number of minimal nonfaces containing b, less one
    (clamped) for singleton b.
    """
    through = 0
    for c in link_circuits:
        inter = c & b
        if inter == b:
            through += 1
        elif inter:
            return 0
    return _less_one_for_singleton(through, b)


def _canonical_ndel(cx: SimplicialComplex, b: Iterable[int], op: str):
    """The face set, the mask of b and N_b(cx) in canonical order."""
    cx._require_nonvoid(op)
    bm = pack(b, cx.n)
    if bm == 0:
        raise ValueError(f"{op} needs a nonempty b")
    faces = cx.face_masks()
    return faces, bm, sorted(_ndel(faces, bm), key=_order_key(cx.n))


def n_del(cx: SimplicialComplex, b: Iterable[int]) -> list[tuple[int, ...]]:
    """N_b(cx): faces disjoint from b whose union with b is not a face."""
    return [unpack(f) for f in _canonical_ndel(cx, b, "n_del")[2]]


def n_del_red(cx: SimplicialComplex, b: Iterable[int]) -> list[tuple[int, ...]]:
    """N~_b(cx): members of N_b with F u b' a nonface for some proper b' of b."""
    faces, bm, nvert = _canonical_ndel(cx, b, "n_del_red")
    return [unpack(f) for f, m in zip(nvert, _marks(faces, nvert, bm)) if m]


def circuits_containing(cx: SimplicialComplex, b: Iterable[int]) -> list[tuple[int, ...]]:
    """Minimal nonfaces of cx that contain b."""
    cx._require_nonvoid("circuits_containing")
    bm = pack(b, cx.n)
    through = [c for c in cx._circuit_masks() if bm & ~c == 0]
    return [unpack(c) for c in sorted(through, key=_order_key(cx.n))]


class InclusionGraph(NamedTuple):
    """The component data of the graph on N_b(link(cx, A)).

    vertices are the members of N_b in canonical order; edges join strict
    inclusions (as index pairs); marked holds the indices lying in N~_b;
    components partitions the vertex indices.
    """

    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    marked: frozenset[int]
    components: tuple[tuple[int, ...], ...]

    def unmarked_component_count(self) -> int:
        return sum(1 for comp in self.components if not any(i in self.marked for i in comp))


def inclusion_graph(cx: SimplicialComplex, A: Iterable[int], b: Iterable[int]) -> InclusionGraph:
    """Inclusion graph of N_b(link(cx, A)); empty when the link is void."""
    am = pack(A, cx.n)
    bm = pack(b, cx.n)
    if bm == 0:
        raise ValueError("inclusion_graph needs a nonempty b")
    if am & bm:
        raise ValueError("A and b must be disjoint")
    link_faces = cx.link_mask(am).face_masks()
    nvert = sorted(_ndel(link_faces, bm), key=_order_key(cx.n))
    marks = _marks(link_faces, nvert, bm)
    comp = _component_ids(nvert)
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(nvert)), 2)
        if nvert[i] & ~nvert[j] == 0 or nvert[j] & ~nvert[i] == 0
    ]
    groups: dict[int, list[int]] = {}
    for idx, c in enumerate(comp):
        groups.setdefault(c, []).append(idx)
    return InclusionGraph(
        vertices=tuple(unpack(f) for f in nvert),
        edges=tuple(edges),
        marked=frozenset(i for i, m in enumerate(marks) if m),
        components=tuple(tuple(g) for g in groups.values()),
    )


def dim_t1_nonface(cx: SimplicialComplex, b: Iterable[int]) -> int:
    """dim T1 in degree -b for a nonface b.

    Equals 1 exactly when |b| > 1 and b is a minimal nonface disjoint from
    every other minimal nonface, else 0.
    """
    cx._require_nonvoid("dim_t1_nonface")
    bm = pack(b, cx.n)
    if cx.is_face_mask(bm):
        raise ValueError(f"b {unpack(bm)} is a face; dim_t1_nonface needs a nonface")
    circuits = cx._circuit_masks()
    meets = any(c & bm for c in circuits if c != bm)
    return int(bm in circuits and bm.bit_count() > 1 and not meets)


def dim_t1_matroid_formula(cx: SimplicialComplex, degree) -> int:
    """Closed-form T1 dimension for a matroid, from the circuits of the link.

    Zero when A is not a face, b is empty, or some circuit of link(cx, A)
    meets b properly; otherwise the number of circuits of the link containing
    b, with one subtracted (clamped) for singleton b.
    """
    from .matroids import require_matroid

    cx._require_nonvoid("dim_t1_matroid_formula")
    require_matroid(cx, "dim_t1_matroid_formula")
    am, bm = _degree_masks(degree, cx.n)
    if bm == 0 or not cx.is_face_mask(am):
        return 0
    return _formula_on_link(cx.link_mask(am)._circuit_masks(), bm)


def t1_upper_bound(cx: SimplicialComplex, b: Iterable[int]) -> int:
    """Upper bound for dim T1 in degree -b, for a nonempty face b.

    min(#minimal nonfaces of link(cx, b) that are faces of cx \\ b,
        #facets of cx \\ b outside link(cx, b)),
    with one subtracted (clamped) for singleton b.  Observed on the census
    and tested: with c1 the first count, dim T1 at (emptyset, {v}) is
    max(c1 - 1, 0) at every vertex v exactly when cx is a matroid.

    The graph G_b of `cotangent._wide_dim` has at most c1 nodes, so dim T1
    at (emptyset, b) is at most c1, less one at a singleton: C |-> C \\ b
    maps its nodes, the circuits C through b, one to one into those minimal
    nonfaces, as C \\ b is a face avoiding b, (C \\ b) u b = C is not, and
    S u b is a face for every S strictly inside C \\ b.
    """
    cx._require_nonvoid("t1_upper_bound")
    bm = pack(b, cx.n)
    if bm == 0:
        raise ValueError("t1_upper_bound needs a nonempty b")
    if not cx.is_face_mask(bm):
        raise ValueError(f"b {unpack(bm)} must be a face")
    link = cx.link_mask(bm)
    deletion = cx.delete(unpack(bm))
    first = sum(1 for c in link._circuit_masks() if deletion.is_face_mask(c))
    second = sum(1 for f in deletion.facet_masks if not link.is_face_mask(f))
    return _less_one_for_singleton(min(first, second), bm)


def _bijection_sets(link: SimplicialComplex, bm: int) -> tuple[set[int], set[int]]:
    """Image of C |-> C \\ b over the circuits of link through b, and the codomain."""
    domain_image = {c ^ bm for c in link._circuit_masks() if bm & ~c == 0}
    sub_link = link.link_mask(bm)._circuit_masks()
    sub_del = link.delete(unpack(bm))._circuit_masks()
    return domain_image, set(sub_link) - set(sub_del)


def bijection_check(cx: SimplicialComplex, A: Iterable[int], b: Iterable[int]) -> bool:
    """Verify C |-> C \\ b maps the link circuits through b onto the stated codomain.

    For a matroid M with face A, a face b of L = link(M, A) contained in or
    disjoint from every circuit of L, the map sends the circuits of L through
    b bijectively onto circuits(link(L, b)) minus circuits(L \\ b).
    """
    from .matroids import require_matroid

    require_matroid(cx, "bijection_check")
    am = pack(A, cx.n)
    bm = pack(b, cx.n)
    if not cx.is_face_mask(am):
        raise ValueError("A must be a face")
    if am & bm:
        raise ValueError("A and b must be disjoint")
    link = cx.link_mask(am)
    if not link.is_face_mask(bm):
        raise ValueError("b must be a face of link(cx, A)")
    for c in link._circuit_masks():
        if c & bm and bm & ~c:
            raise ValueError("b must be contained in or disjoint from every circuit of the link")
    domain_image, codomain = _bijection_sets(link, bm)
    return domain_image == codomain
