"""Rebuilding a matroid from its table of T1 dimensions.

A nondiscrete matroid M on [n] splits as M' * U(l, 0) * U(c, c) with M' free
of loops and coloops, and the table of M consists of the entries of M' with
every subset of the coloops adjoined to the A-support.  The table determines
the split, the rank r of M', its independent non-basis sets (those with a
nonrigid link, i.e. a nonempty sliced table) and the bases themselves.  The
largest A-support in the table of M' has r - 1 vertices, so the entries with
A = F for an (r-1)-set F are exactly the table of the rank-one link at F,
whose shape names the vertices that complete F to a basis.

Discrete matroids all share the empty table, so reconstructing from an empty
table raises DiscreteAmbiguousError.  Tables consistent with no matroid at
all raise NotAMatroidTableError; every returned complex is verified by
recomputing its table.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import SimplicialComplex, pack, unpack
from .cotangent import MultiDegree, T1Table, _matroid_table
from .recognition import is_matroid_via_t1


class DiscreteAmbiguousError(ValueError):
    """The empty table is shared by every discrete matroid on [n]."""


class NotAMatroidTableError(ValueError):
    """The table is not the T1 table of any matroid."""


def slice_link_table(t: T1Table, F: Iterable[int]) -> T1Table:
    """The table of the link at F, read off from the table of the complex.

    Keeps the entries whose A-support contains F, with F removed from the
    A-side.  Raises VertexRangeError unless each vertex of F is an integer
    in 1..n.
    """
    f_set = frozenset(unpack(pack(F, t.n)))
    out = [
        (MultiDegree(tuple(v for v in key.A if v not in f_set), key.b), dim)
        for key, dim in t.items()
        if f_set.issubset(key.A)
    ]
    return T1Table._from_valid(t.n, out)


def classify_loops_coloops(t: T1Table) -> dict[int, str]:
    """Split the ground set into 'loop', 'coloop' and 'ordinary' vertices.

    A vertex v is loop-or-coloop exactly when every entry with v in b and
    |A u b| <= 2 is absent.  Such a v is then probed against the canonically
    first entry (A0, b0) avoiding v: a coloop keeps the entry, with equal
    dimension, after adjoining v to A0; a loop does not.
    """
    if len(t) == 0:
        raise DiscreteAmbiguousError("the empty table does not separate loops from coloops")
    small_b: set[int] = set()
    for key in t.keys():
        if len(key.A) + len(key.b) <= 2:
            small_b.update(key.b)
    out: dict[int, str] = {}
    for v in range(1, t.n + 1):
        if v in small_b:
            out[v] = "ordinary"
            continue
        probe = None
        for key, dim in t.items():
            if v not in key.A and v not in key.b:
                probe = (key, dim)
                break
        if probe is None:
            raise NotAMatroidTableError(f"no entry avoids vertex {v}")
        key, dim = probe
        if t.dim(key.A + (v,), key.b) == dim:
            out[v] = "coloop"
        else:
            out[v] = "loop"
    return out


def rank_from_table(t: T1Table) -> int:
    """Rank of the underlying matroid: one more than the largest A-support
    with a nonempty sliced link table."""
    if len(t) == 0:
        raise DiscreteAmbiguousError("the empty table does not determine a rank")
    return 1 + max(len(key.A) for key in t.keys())


def reconstruct_rank_one(t: T1Table, ground: Iterable[int]) -> tuple[int, ...]:
    """Non-loop vertices of a rank-one coloop-free matroid, from its table.

    Shape U(m, 1) * U(l, 0): for m = 2 the table is a single pair entry
    (0, {u, v}) -> 1 and the answer is {u, v}; for m > 2 it consists of the
    singleton entries (0, {i}) -> m - 2 over the non-loops i.
    """
    ground_set = frozenset(ground)
    items = list(t.items())
    if any(key.A for key, _ in items):
        raise NotAMatroidTableError("rank-one table has an entry with nonempty A")
    if len(items) == 1 and len(items[0][0].b) == 2 and items[0][1] == 1:
        members = items[0][0].b
        if not set(members) <= ground_set:
            raise NotAMatroidTableError(f"pair entry {members} leaves the ground set")
        return members
    if (
        items
        and all(len(key.b) == 1 for key, _ in items)
        and len({dim for _, dim in items}) == 1
        and items[0][1] == len(items) - 2
    ):
        members = tuple(sorted(key.b[0] for key, _ in items))
        if not set(members) <= ground_set:
            raise NotAMatroidTableError(f"singleton entries {members} leave the ground set")
        return members
    raise NotAMatroidTableError("table shape matches no rank-one matroid")


def reconstruct(t: T1Table) -> SimplicialComplex:
    """The unique nondiscrete matroid with T1 table t.

    Classifies loops and coloops, peels the coloops off the A-supports, finds
    the core rank r, groups the core's entries with |A| = r - 1 by A in one
    pass, reads from each group the vertices that complete A to a basis and
    reattaches the coloops.  The result is verified as a matroid by its
    singleton degrees (`is_matroid_via_t1`) and then by recomputing its
    table; any mismatch, including tables of non-matroid origin, raises
    NotAMatroidTableError.
    """
    if len(t) == 0:
        raise DiscreteAmbiguousError(
            "empty table: every discrete matroid on this ground set is rigid"
        )
    roles = classify_loops_coloops(t)
    ordinary = tuple(v for v in range(1, t.n + 1) if roles[v] == "ordinary")
    coloops = tuple(v for v in range(1, t.n + 1) if roles[v] == "coloop")
    coloop_set = set(coloops)
    core = T1Table._from_valid(
        t.n, [(key, dim) for key, dim in t.items() if coloop_set.isdisjoint(key.A)]
    )
    if len(core) == 0:
        raise NotAMatroidTableError("no entry survives removing coloop support")
    rank = rank_from_table(core)
    links: dict[tuple[int, ...], list[tuple[MultiDegree, int]]] = {}
    for key, dim in core.items():
        if len(key.A) == rank - 1:
            links.setdefault(key.A, []).append((MultiDegree((), key.b), dim))
    bases: set[frozenset[int]] = set()
    for F, entries in links.items():
        rest = tuple(v for v in ordinary if v not in F)
        for v in reconstruct_rank_one(T1Table._from_valid(t.n, entries), rest):
            bases.add(frozenset(F) | {v})
    candidate = SimplicialComplex.from_facets(t.n, [b | coloop_set for b in bases])
    if not is_matroid_via_t1(candidate):
        raise NotAMatroidTableError("recovered facets do not satisfy the exchange axiom")
    # the singleton test has just proved candidate a matroid (the recognition
    # corollary), so its table is the matroid branch of t1_table
    if _matroid_table(candidate) != t:
        raise NotAMatroidTableError("recovered matroid does not reproduce the table")
    return candidate
