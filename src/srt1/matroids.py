"""Matroid oracles over simplicial complexes, plus uniform matroids.

A complex is (the independence complex of) a matroid when it is nonempty and
satisfies the exchange axiom.  Three independent recognizers are provided,
one per classical axiom: independence exchange, strong circuit elimination
and the unique-minimal-element criterion on N_v.  They run on bitmasks over
the complex's cached face set and circuits, share no code with the T1 engine
(`srt1.cotangent`, `srt1.recognition`), and all reject the void complex.

Exchange is read in one pass over the faces, with no face-pair loop.  The
pass builds e(J) = {v : J u {v} a face} for every face J, and the complex
passes exactly when the graph of each link on e(J), x and y joined when
J u {x, y} is a face, is complete multipartite.  Exchange at J + z against
J + x + y gives that; conversely, an induction on |J \\ I| reduces each
pair of faces J, I with |I| = |J| + 1 to that local case at a face of
|J| - 1 vertices.  `is_matroid_exchange` carries the proof.
"""

from __future__ import annotations

import itertools

from .complexes import MAX_GROUND, SimplicialComplex, _check_ground, _ndel


class NotAMatroidError(ValueError):
    """A matroid-only operation was applied to a non-matroid complex."""


def uniform(n: int, k: int) -> SimplicialComplex:
    """The uniform matroid U(n, k): faces are the subsets of [n] of size <= k."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (n, k)):
        raise ValueError(f"uniform matroid needs integers n and k, got n={n!r}, k={k!r}")
    if not 0 <= k <= n:
        raise ValueError(f"uniform matroid needs 0 <= k <= n, got n={n}, k={k}")
    _check_ground(n, MAX_GROUND)
    facets = itertools.combinations(range(1, n + 1), k)
    return SimplicialComplex.from_facets(n, facets)


def is_matroid_exchange(cx: SimplicialComplex) -> bool:
    """Independence-exchange test, read off the link graphs.

    Exchange asks, for every pair of faces J, I with |I| = |J| + 1, for
    some v in I \\ J with J u {v} a face; the general unequal-size axiom
    reduces to this case.  One pass over the faces builds the extension
    mask e(J) = {v : J u {v} a face} of every face J: each face I puts each
    u in I into e(I - u).  The graph of link(J) on e(J) joins x and y when
    J u {x, y} is a face, and the test asks that each such graph be
    complete multipartite.  That is the verdict of exchange.

    (=>) Take z, x, y in e(J) with J + x + y a face.  Exchange at J + z
    against J + x + y gives J + z + x or J + z + y, so no vertex of a link
    graph misses both ends of an edge: non-adjacency, read reflexively, is
    transitive, and the graph is complete multipartite.

    (<=) Induct on m = |J \\ I|; m = 0 is J inside I.  Pick z in J \\ I.
    The case m - 1 at J - z against a |J|-subset of I holding J n I gives
    J - z + x with x in I \\ J; the case m - 1 at J - z + x against I gives
    J - z + x + y with y in I \\ J.  At K = J - z, x, y and z lie in e(K)
    and K + x + y is a face, so z is joined to x or to y: J + x or J + y is
    a face.

    The check.  At a face J and x in e(J), part(x) = e(J) - e(J + x) is x
    with the vertices of e(J) not joined to it.  Non-adjacency, read
    reflexively, is an equivalence exactly when each part(x) equals
    part(y), y the least vertex of part(x).  Only if: part(x) is then the
    class of x, and y is in it.  If: take w in part(x) = part(y) and y' the
    least vertex of part(w).  Then y is in part(w), so y' <= y; and
    part(y') = part(w) holds y, so y' is in part(y) = part(x), and
    y <= y'.  Thus part(w) = part(y) = part(x) for every w in part(x),
    which is transitivity.  The verdict is cached on cx, so the
    matroid-only operations that call `require_matroid` on every call run
    the test once per complex.
    """
    cx._require_nonvoid("matroid test")
    if cx._matroid is None:
        object.__setattr__(cx, "_matroid", _exchange_holds(cx))
    return cx._matroid


def _exchange_holds(cx: SimplicialComplex) -> bool:
    extensions = dict.fromkeys(cx.face_masks(), 0)  # e(J) for every face J
    for i in extensions:
        rest = i
        while rest:
            u = rest & -rest
            extensions[i ^ u] |= u
            rest ^= u
    for j, e in extensions.items():
        rest = e
        while rest:
            x = rest & -rest
            rest ^= x
            part = e & ~extensions[j | x]
            if part != e & ~extensions[j | (part & -part)]:
                return False
    return True


def is_matroid_circuit_elimination(cx: SimplicialComplex) -> bool:
    """Strong circuit elimination on the minimal nonfaces.

    Ranges over the meeting pairs of distinct circuits C, C' named below,
    every i in C n C' and every f in C ^ C' (both orders of the pair at
    once): some circuit inside C u C' must contain f and avoid i.  The
    circuits are indexed, and through[v] is the mask of the indices of the
    circuits that contain v.  The circuits inside C u C' are the AND of
    ~through[x] over the vertices x outside C u C', so the pair passes at
    (i, f) exactly when inside & ~through[i] & through[f] is nonzero: a set
    bit is such a circuit.

    Only the pairs whose union has at most r + 1 vertices are tested, r the
    size of the largest facet, so a circuit of r + 1 vertices is in none.
    If C and C' meet at e and |C u C'| >= r + 2, then (C u C') - e has more
    than r vertices, so it is a nonface and holds a circuit: weak
    elimination (Oxley, Matroid Theory, axiom (C3)) holds there with no
    test.  Strong elimination at a pair implies weak elimination at it, so
    if every tested pair passes, weak elimination holds at every pair; the
    circuits are then a matroid's, and strong elimination holds at every
    pair (Oxley, ch. 1).  The verdict is that of the full test.
    """
    cx._require_nonvoid("matroid test")
    circuits = cx._circuit_masks()
    r = cx.rank
    ground = (1 << cx.n) - 1
    through = dict.fromkeys((1 << v for v in range(cx.n)), 0)
    for index, c in enumerate(circuits):
        rest = c
        while rest:
            v = rest & -rest
            through[v] |= 1 << index
            rest ^= v
    every = (1 << len(circuits)) - 1
    for c1, c2 in itertools.combinations([c for c in circuits if c.bit_count() <= r], 2):
        meet = c1 & c2
        if not meet or (c1 | c2).bit_count() > r + 1:
            continue
        inside = every
        rest = ground & ~(c1 | c2)
        while rest:
            x = rest & -rest
            inside &= ~through[x]
            rest ^= x
        need = c1 ^ c2
        while meet:
            i = meet & -meet
            meet ^= i
            avoiding = inside & ~through[i]
            rest = need
            while rest:
                f = rest & -rest
                if not avoiding & through[f]:
                    return False
                rest ^= f
    return True


def is_matroid_unique_min(cx: SimplicialComplex) -> bool:
    """Unique-minimal-element criterion on the families N_v.

    Ranges over every vertex v and every member of N_v(cx), the faces F
    avoiding v with F u {v} not a face: each must contain exactly one
    inclusion-minimal member of N_v(cx).  N_v is an up-set among the faces
    that avoid v, so a one-vertex deletion F - u of a member is a member
    exactly when (F - u) u {v} is not a face.  One pass over the members
    by size gives each member F its one minimal member: F itself when no
    deletion of it is a member, else the one that its member deletions
    carry, and two deletions that carry different ones fail the test.  A
    minimal member M inside F other than F lies in some deletion F - u, a
    member as N_v is an up-set, so M is the one F - u carries: F holds no
    other minimal member.
    """
    cx._require_nonvoid("matroid test")
    faces = cx.face_masks()
    for v in range(cx.n):
        bit = 1 << v
        least: dict[int, int] = {}  # each member of N_v -> the one minimal member inside it
        for f in sorted(_ndel(faces, bit), key=int.bit_count):
            m = f  # f itself until a member deletion carries one
            rest = f
            while rest:
                u = rest & -rest
                rest ^= u
                g = least.get(f ^ u, m)  # f ^ u is a member exactly when it is already keyed
                if g != m:
                    if m != f:
                        return False
                    m = g
            least[f] = m
    return True


def require_matroid(cx: SimplicialComplex, op: str) -> None:
    if not is_matroid_exchange(cx):
        raise NotAMatroidError(f"{op} requires a matroid complex")


def is_discrete(cx: SimplicialComplex) -> bool:
    """Whether a matroid is loops and coloops only, U(l,0) * U(c,c): one facet."""
    require_matroid(cx, "is_discrete")
    return len(cx.facet_masks) == 1
