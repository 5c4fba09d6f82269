"""Multigraded dimensions of the first cotangent cohomology module T1.

For a simplicial complex D and a multidegree c = a - b with disjoint supports
A = supp(a), b in {0,1}^n, the dimension of T1 in degree c depends only on the
pair (A, b).  It vanishes unless A is a face, b is nonempty and b consists of
vertices of link(D, A); in range it is computed from the inclusion graph on

    N_b(L) = { F in L : F n b = 0, F u b not in L },   L = link(D, A),

after discarding every connected component that meets

    N~_b(L) = { F in N_b(L) : exists b' strictly inside b, F u b' not in L }.

The number of surviving components is the dimension; for |b| = 1 one is
subtracted (clamped at zero).  Membership in N~_b only needs the maximal
proper subsets b \\ {v}: monotonicity of the face property makes smaller b'
redundant, and for |b| = 1 the only subset is the empty set, so N~_b is empty.

Every link is read off the root: the facets of link(D, A) are F \\ A over
the facets F through A, S is a face of it when S u A is one of D, and its
circuits follow from D's by one contraction step, `_contract`, per vertex
of A.  T1 of D at (A, b) is T1 of link(D, A) at (emptyset, b), so each link
is decided on its own, and one walk, `_walk`, visits the links and hands
each to one of two engines.

The singleton test compares, at each vertex v in a circuit of a link L,
the graph dimension with the circuit count, and neither side needs N_v.
The graph dimension is c(G_v) - 1, clamped, where G_v has the circuits of
L through v as nodes, two of them joined when their union less v is a face
of L, and the count is the number of those circuits less one, clamped.
One rule, `_vertex_dims`, yields both sides from one listing of the
circuits through v.  The test passes at v exactly when G_v has no edge:
weak circuit elimination at v.

A link that passes the singleton test is a matroid (the recognition
corollary), so by the main theorem its whole table, its isolated circuits
included, is the circuit formula, which `_class_rows` reads off the link's
circuits.  Every link above it is a contraction of it, so no face set and
no N_b is built above the singleton degrees of a matroid link.  When its
circuits are all the r + 1-subsets of their union W (`_uniform_shape`), it
is U(|W|, r) joined with a simplex on its coloops, as is every link above
it with r lowered by each vertex of W in the face, and `_uniform_rows`
writes each one's rows from |W| and r alone (`_uniform_up_set`); a link
whose d >= 2 facets are single vertices is U(d, 1) with loops, the case
r = 1.  Above any other matroid link each link's vertex mask, which fixes
its flat, is read off the circuits of two vertices of the link one vertex
below, and its circuits and rows are computed once per flat, by one
contraction step from that link, and kept as one dict that the table shares
between the faces of the flat (`_matroid_up_set`).

Any other link takes the graph dimension, listed by `_walk`: its row at
each vertex and the rules of `_wide_dim` at each wider degree where it may
be nonzero.  A link of dimension at most 1 is a graph G on V, read off its
adjacency with no face set: its circuits are its non-edges and triangles
(`_graph_circuits`, which `complexes` holds, as a whole complex of
dimension at most 1 takes its own circuits by it too), and `_graph_dims`
gives the dimension c(G[V \\ N[v]]) + e(G[N(v)]) - 1, clamped, at a vertex
v (c counts components, e edges).

Any larger link takes the circuit rule at its vertices and the wider rule
of `_wide_dim` at its wider faces, both read off the circuits through b
and lookups in the root's one face set, with no N_b.  The wider rule reads
T1 of a link L at -b, b a face of L with two or more vertices, off T1 as
the cokernel of Der(S, k[L])_-b -> Hom_S(I_L, k[L])_-b.  A homomorphism of
degree -b sends the generator x^g of a circuit g to lambda_g x^(g - b),
which is a monomial only when b lies in g, and g - b is then a face, as g
is a circuit.  The syzygies of the monomial ideal I_L are spanned by its
Taylor syzygies, and the one of circuits g and h asks lambda_g = lambda_h
when both contain b and (g u h) - b is a face, and lambda_g = 0 when h
meets b without containing it and (g u h) - b is a face: h kills g.  A
circuit h that misses b kills nothing, as (g u h) - b holds h.  No
derivation has degree -b, since |b| >= 2.  So the dimension is the number
of components of the graph G_b on the circuits through b, g and h joined
when (g u h) - b is a face, that hold no killed node (`_unkilled_components`).
A face in no circuit has no node and dimension 0, so the walk decides only
the faces in one, the nonempty proper subsets of circuits
(`_circuit_faces`).  At a vertex b = {v} nothing can kill, and the one
derivation d/dx_v, lambda = 1 on every node, leaves c(G_v) - 1, clamped:
the circuit rule above, so one reading of the algebra gives both rules.

The face engine, which lists N_b over a whole face set, is the definition
itself, the route of Altmann and Christophersen to the same number; it
lives in `definition`, which this module never imports.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable, Iterator, NamedTuple

from .complexes import (
    SimplicialComplex,
    VertexRangeError,
    _adjacency,
    _graph_circuits,
    _ground_size,
    _link_facets,
    _order_key,
    _union,
    check_threads,
    pack,
    submasks,
    unpack,
)


class MultiDegree(NamedTuple):
    """A support pair (A, b) standing for the multidegree a - b."""

    A: tuple[int, ...]
    b: tuple[int, ...]

    @classmethod
    def make(cls, A: Iterable[int], b: Iterable[int]) -> "MultiDegree":
        """The degree with supports A and b, each sorted, after checking that
        every vertex is an integer, as `pack` does, and that A and b are
        disjoint."""
        A, b = tuple(A), tuple(b)
        for v in A + b:
            if not isinstance(v, int) or isinstance(v, bool):
                raise VertexRangeError(f"vertex {v!r} is not an integer")
        a_t = tuple(sorted(set(A)))
        b_t = tuple(sorted(set(b)))
        overlap = set(a_t) & set(b_t)
        if overlap:
            raise ValueError(f"A and b overlap at vertex {min(overlap)}")
        return cls(a_t, b_t)

    def key(self) -> tuple:
        return (len(self.A), self.A, len(self.b), self.b)


def _degree_masks(degree, n: int) -> tuple[int, int]:
    """The masks of a degree's supports (A, b) on n vertices.  `pack` checks
    every vertex before any two are compared, then A and b must be disjoint."""
    A, b = degree
    a, bm = pack(A, n), pack(b, n)
    if a & bm:
        raise ValueError(f"A and b overlap at vertex {unpack(a & bm)[0]}")
    return a, bm


# ---------------------------------------------------------------------------
# mask-level engine


def _isolated_circuits(circuits: list[int]) -> list[int]:
    """The minimal nonfaces with more than one vertex that meet no other one."""
    seen = shared = 0
    for c in circuits:
        shared |= seen & c
        seen |= c
    return [c for c in circuits if c.bit_count() > 1 and not c & shared]


def _vertex_dims(
    faces: frozenset[int], a: int, circuits: list[int], rank: int
) -> Iterator[tuple[int, int, int]]:
    """(v, graph dimension, circuit count) at each vertex v in one of
    circuits, in vertex order, lazily, for the link at a of the complex with
    these faces (S is a face of it when S u a is one), given its circuits of
    two or more vertices and its rank: both sides of the singleton test, from
    one pass over the circuits at each vertex, with no N_b and no union-find.

    The graph G_v has the circuits C through v as nodes, C and C' joined
    when (C u C') - v is a face, and the dimension is c(G_v) - 1, clamped;
    the count is the number of nodes less one, clamped.  The minimal
    members of N_v are the sets C - v: for F in N_v, F u {v} holds a
    circuit C, which holds v since F is a face, so F holds C - v, a face
    avoiding v and itself in N_v.  N_v is their up-set among the faces
    avoiding v, and members F < G share a component, so two of them share
    one exactly when a chain of them has pairwise unions that are faces.
    A circuit of rank + 1 vertices is an isolated node, as (C u C') - v
    then has more than rank vertices; it is counted and never paired.
    So the test passes at v exactly when G_v has no edge: weak circuit
    elimination at v.  `_graph_dims` is the case rank 2."""
    verts = _union(circuits)
    while verts:
        v = verts & -verts
        verts ^= v
        below = [c ^ v for c in circuits if c & v]  # the minimal members of N_v
        left = [g | a for g in below if g.bit_count() < rank]  # with a, for lookups in faces
        parts = len(below) - len(left)
        while left:  # the components of G_v, one sweep each
            parts += 1
            reach = [left.pop()]
            while reach:
                g = reach.pop()
                rest = []
                for h in left:
                    (reach if g | h in faces else rest).append(h)
                left = rest
        yield v, max(parts - 1, 0), max(len(below) - 1, 0)


def _circuit_faces(circuits: list[int]) -> set[int]:
    """The nonempty proper subsets of the circuits: the faces in a circuit,
    the only faces where rule 1 lets the graph dimension be nonzero."""
    return {b for c in circuits for b in submasks(c)} - set(circuits) - {0}


def _edges_within(adj: dict[int, int], part: int) -> int:
    """The number of edges of the graph with adjacency adj that lie in part."""
    ends = 0
    rest = part
    while rest:
        u = rest & -rest
        rest ^= u
        ends += (adj[u] & part).bit_count()
    return ends // 2


def _graph_dims(adj: dict[int, int]) -> Iterator[tuple[int, int, int]]:
    """(v, graph dimension, circuit count) at each vertex v, in vertex order,
    of a link G whose facets have at most two vertices, read off its
    adjacency `_adjacency`, lazily: both sides of the singleton test.  No
    face set, N_b or union-find is built.

    F u {v} is a face for F empty or a neighbour of v and never for an edge
    F that avoids v, so N_v holds the non-neighbours V \\ N[v] and every
    edge that avoids v.  An edge joins a member of N_v only through an
    endpoint that is a non-neighbour, so the components of N_v are those of
    G[V \\ N[v]] and one for each edge of G[N(v)]: the dimension is
    c(G[V \\ N[v]]) + e(G[N(v)]) - 1, clamped at 0.  The circuits through v
    are its non-edges and triangles, |V \\ N[v]| + e(G[N(v)]) of them, and
    the count is that less one, clamped.
    """
    verts = _union(adj)
    for v in sorted(adj):
        near = adj[v]
        far = verts & ~(near | v)
        edges = _edges_within(adj, near)
        count = far.bit_count() + edges
        parts = 0
        while far:  # the components of G[far], one breadth-first sweep each
            parts += 1
            reach = far & -far
            far ^= reach
            while reach:
                u = reach & -reach
                reach ^= u
                new = adj[u] & far
                far ^= new
                reach |= new
        yield v, max(parts + edges - 1, 0), max(count - 1, 0)


def _graph_edge_dim(adj: dict[int, int], b: int) -> int:
    """The graph dimension at an edge b = {u, w} of a link G whose facets
    have at most two vertices, read off its adjacency.  N_b is every
    nonempty face that avoids b, and each edge of it is marked, since its
    union with u has three vertices.  A vertex x is unmarked when x u {u}
    and x u {w} are both faces, so the unmarked part W is the common
    neighbours of u and w, and the component of x is unmarked just when no
    edge meets x but xu and xw: the dimension is the number of common
    neighbours whose neighbours are exactly u and w."""
    u = b & -b
    common = adj[u] & adj[b ^ u]
    only = 0
    while common:
        x = common & -common
        common ^= x
        only += adj[x] == b
    return only


def _contract(faces: frozenset[int], a: int, v: int, circuits: list[int]) -> list[int]:
    """The circuits of two or more vertices of link(cx, a), from the circuits
    C of L = link(cx, a \\ {v}) and cx's faces.  link(cx, a) is L's link at
    v, whose circuits are the minimal sets C \\ {v}, loops of L included
    (Oxley, Matroid Theory, 3.1.11).  For C through v, C \\ {v} is one, as a
    C' \\ {v} inside it would put C' inside C, and a loop {u}, left out, when
    C = {u, v}: `_matroid_up_set` reads the loops off those pairs.  C missing v is one exactly when (C \\ {x}) u a is a face for
    every x in C."""
    out = []
    for c in circuits:
        if c & v:
            c ^= v
            if c & (c - 1):
                out.append(c)
        else:
            rest = c
            while rest and (c ^ (rest & -rest) | a) in faces:  # x from the lowest vertex up
                rest &= rest - 1
            if not rest:
                out.append(c)
    return out


def _read_link(
    cx: SimplicialComplex, a: int, link_facets: list[int], rank: int
) -> tuple[dict | frozenset, list[int] | None, Iterator[tuple[int, int, int]]]:
    """What the singleton test reads at the link at a with these facets and
    this rank: at rank at most 2 its adjacency, circuits None and the
    `_graph_dims` rows; otherwise cx's face set, the link's circuits of two
    or more vertices, cx's contracted at each vertex of a by `_contract`,
    and the `_vertex_dims` rows.  The rows are lazy, so a failing test stops
    early."""
    if rank <= 2:
        adj = _adjacency(link_facets)
        return adj, None, _graph_dims(adj)
    faces = cx.face_masks()
    circuits = [c for c in cx._circuit_masks() if c & (c - 1)]
    for v in (1 << i for i in range(a.bit_length()) if a >> i & 1):
        circuits = _contract(faces, a & (2 * v - 1), v, circuits)
    return faces, circuits, _vertex_dims(faces, a, circuits, rank)


def _unkilled_components(faces: frozenset[int], nodes: list[int], killers: list[int]) -> int:
    """The number of components of the graph on nodes, g and h joined when
    g u h is in faces, that hold no node g with g u k in faces for some k in
    killers: the wider rule of the module docstring, as `_wide_dim` calls
    it, with the nodes (g - b) u a and the killers h - b.  Each pair of
    nodes costs at most one lookup, and each (node, killer) pair at most
    one more."""
    kept = 0
    left = list(nodes)
    while left:  # one sweep per component
        part = [left.pop()]
        for g in part:  # part grows as the sweep reaches nodes
            rest = []
            for h in left:
                (part if g | h in faces else rest).append(h)
            left = rest
        kept += not any(g | k in faces for g in part for k in killers)
    return kept


def _wide_dim(link: dict | frozenset, a: int, circuits: list[int] | None, rank: int, b: int) -> int:
    """The graph dimension at a degree b of two or more vertices of the link
    at a, in two or more facets, read as `_read_link` reads it: its adjacency
    at rank at most 2, else the face set in which S is a face of it when
    S u a is one, and its circuits of two or more vertices, read only at
    rank 3 or more.  The one list of the rules at such degrees, shared by
    `_walk` and `dim_t1`:

    * an edge b of a graph link: `_graph_edge_dim`; any other b of a graph
      link is a nonface, 1 on an isolated circuit (`_isolated_circuits` of
      `_graph_circuits`), else 0.  A link of rank 1, U(d, 1) with loops, is
      a graph with no edge, which only `dim_t1` reads here;
    * any b of a larger link: the wider rule of the module docstring.

    The wider rule counts the components of G_b with no killed node by
    `_unkilled_components`, over the nodes g - b of the circuits g through
    b and the killers h - b of the circuits h that meet b without
    containing it.  At a face b it is 0 with no circuit through b.  At a
    nonface b the only circuit that can hold b is b itself, so G_b is the
    one node b when b is a circuit and empty otherwise, and any circuit
    that meets b is a killer, as h - b is a face: the count is 1 exactly on
    an isolated circuit, the rule at a nonface of a graph link.  G_b has at
    most as many nodes as the first count c1 of
    `definition.t1_upper_bound`, as C |-> C - b maps them one to one into
    the sets it counts."""
    if rank <= 2:
        if b.bit_count() == 2 and b & link[b & -b]:
            return _graph_edge_dim(link, b)
        return int(b in _isolated_circuits(_graph_circuits(link)))
    nodes = [c ^ b | a for c in circuits if not b & ~c]
    killers = [c & ~b for c in circuits if c & b and b & ~c]
    return _unkilled_components(link, nodes, killers)


def _walk(cx: SimplicialComplex) -> Iterator[tuple[int, int, list[int] | None, list | None]]:
    """Walks the links of cx depth first from the empty face, stepping from a
    to a u {v} only for link vertices v above a's highest vertex, so that it
    reaches each face once.  The facets of the link at a u {v} are those of
    the link at a through v, less v.  Yields a, the link's vertex mask, its
    circuits of two or more vertices and dims, for three kinds of link:

    * a link of rank 1, U(d, 1) with loops, comes with circuits None and
      dims None, built from its vertices alone; every link above is a simplex.
    * a link with a facet of two or more vertices that passes the singleton
      test is a matroid.  It comes with dims None, and the walk goes no
      higher: every link above it is a contraction of it, which
      `_table_of` writes from the link's shape (`_uniform_up_set`) or
      flat by flat (`_matroid_up_set`).
    * any other link fails the singleton test, which compares the two sides
      of each row (v, graph dimension, circuit count) of the link as
      `_read_link` reads it.  Only then does it read its edges, and it
      comes with dims, its whole table: (c, 1) at each isolated circuit c,
      the graph dimension of each row at its vertex, and `_wide_dim` at each
      edge of a link of dimension 1 and at each wider `_circuit_faces` of a
      larger link, any other face 0.  A larger link is read off cx's face
      set and its circuits at every degree, so the walk builds no face set
      of a link.  A failing graph link has no isolated circuit of two or
      more vertices: an isolated non-edge makes it complete bipartite and
      an isolated triangle makes it K3, and both pass the test.

    A face in exactly one facet F is skipped with every face above it,
    before any lookup: its link is the simplex on F \\ a
    ({emptyset} when the face is a facet), which carries no nonzero degree.
    F u b is a face for all faces F and b of a simplex, so every N_b is
    empty and every graph dimension 0, and its circuits are the single
    vertices outside it, which contain no nonempty face b, so the formula is
    0 as well and no circuit is isolated with more than one vertex.

    The faces b are the only degrees that need the graph side.  Outside
    the vanishing range both the graph dimension and the circuit formula are
    0.  At a nonface b within the link's vertices the formula agrees with
    the rule of `_wide_dim`: if some circuit C lies strictly inside b, then
    C meets b properly and the formula is 0, as is the graph side, because b
    is not a circuit; otherwise b is itself a circuit, and both sides are 1
    when b is isolated with |b| > 1 and 0 otherwise.
    """
    stack = [(0, list(cx.facet_masks))]
    while stack:
        a, link_facets = stack.pop()
        if len(link_facets) < 2:
            continue
        verts = _union(link_facets)
        rank = max(map(int.bit_count, link_facets))
        if rank == 1:
            yield a, verts, None, None
            continue
        link, circuits, rows = _read_link(cx, a, link_facets, rank)
        rows = list(rows)
        if rank == 2:
            circuits = _graph_circuits(link)
        if all(graph == count for _, graph, count in rows):
            yield a, verts, circuits, None
            continue
        # the edges of a graph link, the wider faces in a circuit of a larger one
        wider = [b for b in (link_facets if rank == 2 else _circuit_faces(circuits)) if b & (b - 1)]
        dims = [(c, 1) for c in _isolated_circuits(circuits)] + [(b, graph) for b, graph, _ in rows]
        dims += [(b, _wide_dim(link, a, circuits, rank, b)) for b in wider]
        yield a, verts, circuits, dims
        rest = verts & -(1 << a.bit_length())
        while rest:
            v = rest & -rest
            rest ^= v
            stack.append((a | v, _link_facets(link_facets, v)))


# ---------------------------------------------------------------------------
# public operations


def dim_t1(cx: SimplicialComplex, degree) -> int:
    """dim T1 of cx at the degree with supports (A, b): 0 outside the
    vanishing range or on a link in one facet, else the graph dimension of
    link(cx, A), which `_read_link` reads off its facets at rank at most 2
    and as a complex of its own above, building nothing beyond it: its row
    at a vertex b, 0 at a vertex it lists nowhere, and `_wide_dim` at a
    wider b.  A link of rank 1, U(d, 1) with loops, is a graph with no edge:
    d - 2 at each vertex, clamped, and by the isolated-circuit rule 1 at the
    pair when d = 2.  `_walk` counts the graph side only where the singleton
    test fails; where it passes, and at every link of rank 1, the walk
    writes the circuit formula (`_class_rows`, `_uniform_rows`,
    `_uniform_up_set`), equal there by the main theorem."""
    cx._require_nonvoid("dim_t1")
    am, bm = _degree_masks(degree, cx.n)
    link_facets = _link_facets(cx.facet_masks, am)
    verts = _union(link_facets)
    if bm == 0 or bm & ~verts or len(link_facets) < 2:
        return 0
    rank = max(map(int.bit_count, link_facets))
    # only a link of rank 3 or more is read as a complex, its face set and circuits
    inner = cx.link_mask(am) if am and rank > 2 else cx
    link, circuits, rows = _read_link(inner, 0, link_facets, rank)
    if not bm & (bm - 1):
        return next((graph * (v == bm) for v, graph, _ in rows if v >= bm), 0)  # in vertex order
    return _wide_dim(link, 0, circuits, rank, bm)


def _check_row(groups: dict[int, dict[int, int]], a: int, b: int, dim) -> None:
    """Stores dim at the row (a, b) of groups, in the group of a, after the
    checks on a table entry that follow its vertices: b nonempty, dim a
    positive integer, (a, b) not yet stored.  The messages name the entry
    as a MultiDegree."""
    if not b:
        fault = "b must be nonempty"
    elif not isinstance(dim, int) or isinstance(dim, bool) or dim <= 0:
        fault = "dimension must be a positive integer"
    elif b in groups.get(a, ()):
        fault = "duplicate degree"
    else:
        groups.setdefault(a, {})[b] = dim
        return
    raise ValueError(f"entry {MultiDegree(unpack(a), unpack(b))}: {fault}")


def _least_row(
    groups: dict[int, dict[int, int]], key, avoid: int
) -> tuple[int, int, int] | None:
    """The canonically least row (a, b, dim) of groups, `T1Table._groups`
    sorted by key, with a and b both avoiding the mask avoid, or None: the
    least such A with such a b in its group, then the least such b in it."""
    a = min(
        (a for a, g in groups.items() if not a & avoid and any(not b & avoid for b in g)),
        key=key,
        default=None,
    )
    if a is None:
        return None
    b = min((b for b in groups[a] if not b & avoid), key=key)
    return a, b, groups[a][b]


class T1Table:
    """Finite map from support pairs to positive T1 dimensions.

    Only nonzero dimensions are stored; lookups outside the stored support
    classes return 0.  The rows are kept by A, as T1 of a complex at (A, b)
    is T1 of link(A) at (emptyset, b): one dict `a -> {b: dim}`, a and b the
    bitmasks of the supports A and b (vertex v is bit v - 1), with a group
    for each A that has a row and no empty group.  A table may share one
    group object between faces with one link table (`t1_table` does so
    between the faces of one flat of a matroid and between the faces of a
    uniform up-set that differ by coloops, `slice_link_table` with the
    table it slices), so nothing mutates a stored group.  The groups carry
    no order: the dicts keep the order they were built in, and equality
    and the hash read the set of rows.  Only where a caller sees them are
    they sorted, by A, then by b, each by size and then lexicographically
    (`complexes._order_key`), and decoded into vertex tuples and MultiDegrees:
    `items`, `keys`, iteration, `repr`, `to_json_dict`, `to_tsv` and the
    error messages.  `T1Table(n, entries)` and `from_json_dict` check every
    entry; the tables the library builds itself go through `_of_groups`,
    which checks none.
    """

    __slots__ = ("n", "_groups")

    def __init__(self, n: int, entries) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("table ground size must be a nonnegative integer")
        items = entries.items() if hasattr(entries, "items") else entries
        groups: dict[int, dict[int, int]] = {}
        for key, dim in items:
            _check_row(groups, *_degree_masks(key, n), dim)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_groups", groups)

    @classmethod
    def _of_groups(cls, n: int, groups: dict[int, dict[int, int]]) -> "T1Table":
        """The table whose rows are groups, `a -> {b: dim}` in any order, that
        already pass every check of `__init__`: disjoint a and b within the
        n-vertex ground, b nonempty, positive dimensions, no empty group.
        Keeps the dict it is given; checks, copies and sorts nothing."""
        t = object.__new__(cls)
        object.__setattr__(t, "n", n)
        object.__setattr__(t, "_groups", groups)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("T1Table is immutable")

    def __reduce__(self):
        # default slot-state pickling would trip the __setattr__ guard
        return (T1Table, (self.n, tuple(self.items())))

    def _mask_pair(self, degree) -> tuple[int, int] | None:
        """The masks of a degree's supports, or None when a vertex is no
        integer in 1..n and the degree is stored nowhere."""
        try:
            return _degree_masks(degree, self.n)
        except VertexRangeError:
            return None

    def dim(self, A, b=None) -> int:
        """Stored dimension at (A, b), or 0 when absent."""
        pair = self._mask_pair(A if b is None else (A, b))
        return 0 if pair is None else self._groups.get(pair[0], {}).get(pair[1], 0)

    def _vertex_rows(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """The rows as (A, b, dim) with vertex tuples, sorted by A, then by b
        within its group, each mask keyed and decoded once."""
        # one b recurs in many groups, so the key is memoised here, where
        # masks repeat: on a 2-vCPU host U(20, 3) `to_json_dict` took 4.0 ms
        # without it and 2.8-2.9 ms with it
        key = functools.lru_cache(maxsize=None)(_order_key(self.n))
        decoded = functools.lru_cache(maxsize=None)(unpack)
        out = []
        for a in sorted(self._groups, key=key):
            group = self._groups[a]
            out += [(decoded(a), decoded(b), group[b]) for b in sorted(group, key=key)]
        return out

    def items(self) -> list[tuple[MultiDegree, int]]:
        return [(MultiDegree(A, b), dim) for A, b, dim in self._vertex_rows()]

    def keys(self) -> list[MultiDegree]:
        return [MultiDegree(A, b) for A, b, _ in self._vertex_rows()]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self) -> int:
        return sum(map(len, self._groups.values()))

    def __contains__(self, key) -> bool:
        pair = self._mask_pair(key)
        return pair is not None and pair[1] in self._groups.get(pair[0], ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, T1Table):
            return NotImplemented
        return self.n == other.n and self._groups == other._groups

    def __hash__(self):
        rows = (((a, b), dim) for a, group in self._groups.items() for b, dim in group.items())
        return hash((self.n, frozenset(rows)))

    def __repr__(self) -> str:
        body = ", ".join(f"({list(A)},{list(b)})->{v}" for A, b, v in self._vertex_rows())
        return f"T1Table(n={self.n}, {{{body}}})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [{"A": list(A), "b": list(b), "dim": v} for A, b, v in self._vertex_rows()],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "T1Table":
        """The table of a document {"n": n, "entries": [{"A", "b", "dim"}, ...]}.

        One pass over the entries checks each in turn: that it is an object
        with the three fields, that A and b are lists, then its vertices, A
        before b, each an integer in 1..n, and that A and b are disjoint.  A
        plain int vertex in range is packed inline; any other goes to `pack`,
        which accepts an int subclass and names every fault.  The row checks
        of `_check_row` (b nonempty, dim a positive integer, no degree twice)
        run in the same pass, which puts each row in the group of its A, but
        the first row fault is held back until every entry's vertices have
        passed, so that a document with faults of both kinds reports its
        vertex fault.
        """
        if not isinstance(doc, dict):
            raise ValueError("table document must be a JSON object")
        n = _ground_size(doc)
        if "entries" not in doc:
            raise ValueError("missing key 'entries'")
        entries = doc["entries"]
        if not isinstance(entries, list):
            raise ValueError("key 'entries': must be a list")
        groups: dict[int, dict[int, int]] = {}
        row_fault = None
        for i, e in enumerate(entries):
            if not isinstance(e, dict):
                raise ValueError(f"key 'entries[{i}]': must be an object")
            for field in ("A", "b", "dim"):
                if field not in e:
                    raise ValueError(f"key 'entries[{i}].{field}': missing")
            A, B = e["A"], e["b"]
            if not isinstance(A, list) or not isinstance(B, list):
                raise ValueError(f"key 'entries[{i}]': A and b must be lists")
            a = b = 0
            try:
                for v in A:
                    a |= 1 << (v - 1) if type(v) is int and 0 < v <= n else pack((v,), n)
                for v in B:
                    b |= 1 << (v - 1) if type(v) is int and 0 < v <= n else pack((v,), n)
            except ValueError as exc:
                raise type(exc)(f"key 'entries[{i}]': {exc}") from exc
            overlap = a & b
            if overlap:
                first = (overlap & -overlap).bit_length()
                raise ValueError(f"key 'entries[{i}]': A and b overlap at vertex {first}")
            if row_fault is None:
                dim = e["dim"]
                group = groups.get(a)  # the first row of an A opens its group in `_check_row`
                if group is not None and b and type(dim) is int and dim > 0 and b not in group:
                    group[b] = dim
                else:
                    try:
                        _check_row(groups, a, b, dim)
                    except ValueError as exc:
                        row_fault = exc
        if row_fault is not None:
            raise ValueError(f"key 'entries': {row_fault}") from row_fault
        return cls._of_groups(n, groups)

    def to_tsv(self) -> str:
        lines = ["A\tb\tdim"]
        for A, b, v in self._vertex_rows():
            lines.append(f"{','.join(map(str, A))}\t{','.join(map(str, b))}\t{v}")
        return "\n".join(lines) + "\n"


def t1_table(cx: SimplicialComplex, threads: int = 1) -> T1Table:
    """All nonzero T1 dimensions of cx, over the vanishing-range degrees.

    The nonzero degrees of a link are among its nonempty faces and its
    isolated circuits with more than one vertex; every other degree is
    provably zero.  `_walk` supplies the dimensions link by link: at a
    uniform matroid link with coloops, a link of rank 1 among them, the rows
    of `_uniform_rows` on it and on every link above it; at any other
    matroid link the circuit formula of `_class_rows`, on it and on every
    link above it, whose circuits `_matroid_up_set` contracts once per flat
    from a parent link's; at any other link the `_read_link`
    rows and the rules of `_wide_dim`.  A link of rank 1 costs its
    vertices, a link of dimension 1 vertices x vertices for its singleton
    test and vertices x edges more only if it fails.  A larger link at a
    face a costs |a| contraction steps of at most circuits x circuit size
    lookups, then for both sides of its singleton test vertices x circuits
    once and, summed over its vertices v, (circuits through v with at most
    rank vertices)^2 face lookups, none on a uniform link; cx's face set and
    circuits are built once.  Then a uniform matroid link costs one pass
    over its circuits and the rows it writes, with no circuit or lookup
    above it; any other matroid link costs, per step, a pass over the
    parent's circuits of two vertices, and per flat one contraction step of
    parent circuits x circuit size face lookups (none below rank 3) and a
    few operations on an integer of link circuits x link vertices bits per
    link vertex; and any other link, at each face b of two or more vertices in
    a circuit, two passes over its circuits, then at most one lookup per pair
    of circuits through b and one per pair of a circuit through b and a
    circuit that meets b without containing it: no face set of a link.

    The table is computed in-process: each face's piece costs well under a
    millisecond, too little to repay a process pool.  `threads` is accepted
    for compatibility and changes nothing, once `check_threads` has checked
    it.
    """
    check_threads(threads)
    cx._require_nonvoid("t1_table")
    return _table_of(cx, _walk(cx))


def _matroid_table(cx: SimplicialComplex) -> T1Table | None:
    """t1_table(cx) if cx is a matroid, else None, from `_walk`'s first link,
    cx itself: it fails the singleton test (dims) or ends the walk."""
    root = list(itertools.islice(_walk(cx), 1))
    return None if root and root[0][3] is not None else _table_of(cx, root)


def _class_rows(link_circuits: list[int]) -> dict[int, int]:
    """The group {b: formula} at the degrees b of any link where the circuit
    formula is positive, faces and nonfaces alike, from its circuits of two
    or more vertices: on a matroid link, its whole table.

    The formula is nonzero only at a tame b, one that every circuit of the
    link L contains or misses, so all vertices of b lie in the same circuits.
    Grouping L's vertices by the circuits through them, the tame b are the
    nonempty subsets of one class K, and each lies in the count circuits
    through K.  A b within K that is a nonface contains a circuit C, which
    then contains all of K, so b = K = C.  Every nonempty proper subset of K
    is therefore a face, with formula count - [|b| = 1], and so is K unless
    it is a circuit.  A circuit K is isolated, since each of its vertices
    lies in it alone, so its count is 1 and K gets 1, the formula at K; each
    isolated circuit of L with two or more vertices is such a class.  No face
    of L is looked up.

    One integer, grid, lays the circuits side by side, `width` bytes each.
    The circuits through the vertex bit 1 << j are its bits j + 8 * width * i,
    which `ones` picks out, so a vertex costs a few operations on the whole
    integer and no Python loop runs over the circuits.
    """
    width = -(-_union(link_circuits).bit_length() // 8)
    grid = int.from_bytes(b"".join([c.to_bytes(width, "little") for c in link_circuits]), "little")
    ones = int.from_bytes(b"\x01".ljust(width, b"\0") * len(link_circuits), "little")
    classes: dict[int, int] = {}
    for j in range(8 * width):
        through = grid >> j & ones  # one bit per circuit through vertex j
        if through:
            classes[through] = classes.get(through, 0) | 1 << j
    out = {}
    for through, members in classes.items():
        larger = through.bit_count()  # the formula at a b of two or more vertices
        single = larger - 1  # and at a singleton b
        for b in submasks(members):
            if b & (b - 1):
                out[b] = larger
            elif b and single:
                out[b] = single
    return out


def _uniform_rows(part: int, rank: int) -> dict[int, int]:
    """The group {b: dim} of `_class_rows` on U(m, rank) with 1 <= rank < m,
    on the m vertices of part, from m and rank alone.  Its circuits are the
    rank + 1-subsets of part.  For m > rank + 1 each vertex lies in
    C(m - 1, rank) of them and no other vertex lies in just the same ones,
    so each vertex is a class with C(m - 1, rank) - 1; for m = rank + 1
    part is the one circuit, a class whose subsets of two or more vertices
    get 1.  Rank 1 is U(d, 1):
    d - 2 at each vertex for d >= 3, and 1 at the pair for d = 2."""
    m = part.bit_count()
    if m == 2:  # U(2, 1), most links of a graph: the pair alone, unlisted
        return {part: 1}
    if m == rank + 1:
        return {b: 1 for b in submasks(part) if b & (b - 1)}
    dim = math.comb(m - 1, rank) - 1
    return {1 << i: dim for i in range(part.bit_length()) if part >> i & 1}


def _uniform_shape(link_circuits: list[int]) -> tuple[int, int] | None:
    """(W, r) when a matroid link's circuits, each of two or more vertices,
    are all the r + 1-subsets of their union W, else None.  They are
    distinct, so one size per circuit and one count against C(|W|, r + 1)
    decide it.  Such a link is U(|W|, r) joined with a simplex on its other
    vertices, its coloops, which lie in no circuit."""
    sizes = {c.bit_count() for c in link_circuits}
    if len(sizes) != 1:
        return None
    (size,) = sizes
    part = _union(link_circuits)
    return (part, size - 1) if len(link_circuits) == math.comb(part.bit_count(), size) else None


def _uniform_up_set(
    groups: dict[int, dict[int, int]], a: int, verts: int, part: int, rank: int
) -> None:
    """Writes into groups the rows of the link at a, U(|part|, rank) joined
    with a simplex on its coloops verts - part, and of each link above it
    that `_walk` reaches: a' = a u S for S within verts above a's highest
    vertex.  Contracting a vertex of part lowers the rank by one and
    contracting a coloop leaves it, so the link at a' is
    U(|part - S|, rank - |S n part|) joined with the coloops outside S, in
    two or more facets exactly when |S n part| < rank; any other a' lies in
    one facet and has no rows.  One group is made per S n part and shared by
    the faces that add a subset of the coloops to it.  No circuit,
    contraction or face lookup is made."""
    above = -(1 << a.bit_length())
    coloops = list(submasks(verts & ~part & above))
    free = part & above
    bits = [1 << i for i in range(free.bit_length()) if free >> i & 1]
    for size in range(rank):
        for picked in itertools.combinations(bits, size):
            s = sum(picked)
            group = _uniform_rows(part ^ s, rank - size)
            for c in coloops:
                groups[a | s | c] = group


def _matroid_up_set(
    groups: dict[int, dict[int, int]], cx: SimplicialComplex, a: int, verts: int, circuits: list[int]
) -> None:
    """Writes into groups the rows of the link at a, a matroid M on the
    vertex mask verts with these circuits of two or more vertices, and of
    each link above it that `_walk` reaches: a u {v} for each link vertex v
    above a's highest vertex, so that each face is reached once, one vertex
    at a time, each step lowering the rank, the size of the link's facets,
    by one.

    For an independent S of M, the link at a u S is M/cl(S) less its loops,
    on the vertices E - cl(S) (Oxley, Matroid Theory, 3.1), so within M a
    link's vertex mask fixes its flat and the link.  One dict, memo, maps
    each vertex mask reached to the link's circuits and its group, which
    the faces of the flat share.  A step to a u {v} first reads the child's
    mask, the link's vertices less v and the new loops, those parallel to v:
    the u with {u, v} one of the link's circuits.  Only on a mask not yet in
    memo does it compute the child: from rank 2, U(d, 1) with loops, which
    takes `_uniform_rows` at rank 1 with no face set and no lookup; from
    rank 3 or more, by `_contract` and `_class_rows`.

    A link with no circuit has a single facet, as have the links above it,
    and its empty group is kept too, so that it is skipped at once: a
    matroid link with facets B != B' has the circuit in B u {e},
    e in B' \\ B, which holds e and a vertex of B.  The faces written are
    thus those of `_walk` above a.  Each matroid link of a non-matroid cx is
    a separate matroid, so memo is not shared between them."""
    if not circuits:
        return
    rank = max(map(int.bit_count, _link_facets(cx.facet_masks, a)))
    memo = {verts: (circuits, _class_rows(circuits))}
    stack = [(a, verts, rank)]
    while stack:
        a, verts, rank = stack.pop()
        circuits, groups[a] = memo[verts]
        if rank == 1:
            continue
        pairs = [c for c in circuits if c.bit_count() == 2]
        rest = verts & -(1 << a.bit_length())
        while rest:
            v = rest & -rest
            rest ^= v
            child = verts & ~_union([v] + [c for c in pairs if c & v])
            if child not in memo:
                if rank == 2:  # U(d, 1) with loops, or a single vertex
                    memo[child] = None, _uniform_rows(child, 1) if child & (child - 1) else {}
                else:
                    found = _contract(cx.face_masks(), a | v, v, circuits)
                    memo[child] = found, _class_rows(found)
            if memo[child][1]:
                stack.append((a | v, child, rank - 1))


def _table_of(
    cx: SimplicialComplex, links: Iterable[tuple[int, int, list[int] | None, list | None]]
) -> T1Table:
    """The table of cx from links as `_walk` yields them: the nonzero
    (b, dim) pairs of each link, and no other rows.  A matroid link (dims
    None) stands for itself and every link above it.  A link of rank 1 is
    U(d, 1) with loops, with only simplices above it, and takes
    `_uniform_rows` at rank 1.  When a link is uniform with coloops
    (`_uniform_shape`), so is every link above it, and `_uniform_up_set`
    writes them all from the shape.  `_matroid_up_set` writes any other
    matroid link and the links above it, one group per flat.

    The rows are written as `T1Table` keeps them, one group `{b: dim}` per
    face a, in the order the links come, and sorted nowhere: the faces of
    one flat share its group, and the faces of a uniform up-set one group
    per contracted shape."""
    groups: dict[int, dict[int, int]] = {}
    for a, verts, circuits, dims in links:
        if dims is not None:
            group = {b: dim for b, dim in dims if dim}
            if group:
                groups[a] = group
            continue
        if circuits is None:  # U(d, 1) with loops, and nothing above it
            groups[a] = _uniform_rows(verts, 1)
            continue
        shape = _uniform_shape(circuits)
        if shape is not None:
            _uniform_up_set(groups, a, verts, *shape)
        else:
            _matroid_up_set(groups, cx, a, verts, circuits)
    return T1Table._of_groups(cx.n, groups)
