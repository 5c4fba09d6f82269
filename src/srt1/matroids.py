"""Matroid oracles over simplicial complexes, plus uniform matroids.

A complex is (the independence complex of) a matroid when it is nonempty and
satisfies the exchange axiom.  Three independent recognizers are provided; all
reject the void complex.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

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
    """Independence-exchange test.

    Checks that for faces J, I with |I| = |J| + 1 there is v in I \\ J with
    J u {v} a face; the general unequal-size axiom reduces to this case.  The
    verdict is cached on cx, so the matroid-only operations that call
    `require_matroid` on every call run the test once per complex.
    """
    cx._require_nonvoid("matroid test")
    if cx._matroid is None:
        object.__setattr__(cx, "_matroid", _exchange_holds(cx))
    return cx._matroid


def _exchange_holds(cx: SimplicialComplex) -> bool:
    by_size: dict[int, list[int]] = defaultdict(list)
    for f in cx.face_masks():
        by_size[f.bit_count()].append(f)
    faces = cx.face_masks()
    for k in range(cx.rank):
        uppers = by_size.get(k + 1, [])
        for j in by_size.get(k, []):
            for i in uppers:
                cand = i & ~j
                ok = False
                while cand:
                    low = cand & -cand
                    if (j | low) in faces:
                        ok = True
                        break
                    cand ^= low
                if not ok:
                    return False
    return True


def is_matroid_circuit_elimination(cx: SimplicialComplex) -> bool:
    """Strong circuit elimination on the minimal nonfaces.

    For distinct circuits C, C' meeting at i, and any v in C \\ C', some
    circuit through v must avoid i inside C u C'.  Taken over both orders of
    the pair, that is: the union of the circuits inside C u C' that avoid i
    covers the symmetric difference of C and C'.  Each unordered pair
    collects the circuits inside C u C' once.
    """
    cx._require_nonvoid("matroid test")
    circuits = cx._circuit_masks()
    for c1, c2 in itertools.combinations(circuits, 2):
        inter = c1 & c2
        if not inter:
            continue
        union = c1 | c2
        inside = [c for c in circuits if c & ~union == 0]
        need = c1 ^ c2
        rest = inter
        while rest:
            i = rest & -rest
            rest ^= i
            cover = 0
            for c in inside:
                if not c & i:
                    cover |= c
            if need & ~cover:
                return False
    return True


def is_matroid_unique_min(cx: SimplicialComplex) -> bool:
    """Unique-minimal-element criterion on the families N_v.

    For every vertex v, each member of N_v(cx) must contain exactly one
    inclusion-minimal member of N_v(cx).
    """
    cx._require_nonvoid("matroid test")
    faces = cx.face_masks()
    for v in range(cx.n):
        nv = _ndel(faces, 1 << v)
        minimal = [f for f in nv if not any(g != f and g & ~f == 0 for g in nv)]
        for f in nv:
            if sum(1 for m in minimal if m & ~f == 0) != 1:
                return False
    return True


def require_matroid(cx: SimplicialComplex, op: str) -> None:
    if not is_matroid_exchange(cx):
        raise NotAMatroidError(f"{op} requires a matroid complex")


def is_discrete(cx: SimplicialComplex) -> bool:
    """Whether a matroid is loops and coloops only, U(l,0) * U(c,c): one facet."""
    require_matroid(cx, "is_discrete")
    return len(cx.facet_masks) == 1
