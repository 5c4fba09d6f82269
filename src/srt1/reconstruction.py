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
all raise NotAMatroidTableError.  The steps reuse the rules that write tables:
a rank-one group must be the rows of `cotangent._uniform_rows` at rank 1, and
the walk's root verifies every returned complex (`cotangent._matroid_table`).

Every step reads the table's mask rows ((a, b), dim), which carry no order,
and decodes no vertex tuple.  Where an order could show, in the entry the
loop/coloop probe reads and in the rank-one group whose error is raised
first, the steps take the canonical order of `T1Table`'s public views, so the
result and every error message depend on the table alone.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import SimplicialComplex, pack, unpack
from .cotangent import T1Table, _canonical, _mask_order, _matroid_table, _uniform_rows


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
    f = pack(F, t.n)
    return T1Table._of_rows(
        t.n, [((a ^ f, b), dim) for (a, b), dim in t._rows.items() if a & f == f]
    )


def classify_loops_coloops(t: T1Table) -> dict[int, str]:
    """Split the ground set into 'loop', 'coloop' and 'ordinary' vertices.

    A vertex v is loop-or-coloop exactly when every entry with v in b and
    |A u b| <= 2 is absent.  Such a v is then probed against the canonically
    first entry (A0, b0) avoiding v: a coloop keeps the entry, with equal
    dimension, after adjoining v to A0; a loop does not.
    """
    if len(t) == 0:
        raise DiscreteAmbiguousError("the empty table does not separate loops from coloops")
    rows = t._rows
    small_b = 0
    for a, b in rows:
        if a.bit_count() + b.bit_count() <= 2:
            small_b |= b
    out: dict[int, str] = {}
    for v in range(1, t.n + 1):
        bit = 1 << (v - 1)
        if small_b & bit:
            out[v] = "ordinary"
            continue
        avoiding = [row for row in rows.items() if not (row[0][0] | row[0][1]) & bit]
        if not avoiding:
            raise NotAMatroidTableError(f"no entry avoids vertex {v}")
        (a, b), dim = min(avoiding, key=_canonical(t.n))
        if rows.get((a | bit, b), 0) == dim:
            out[v] = "coloop"
        else:
            out[v] = "loop"
    return out


def rank_from_table(t: T1Table) -> int:
    """Rank of the underlying matroid: one more than the largest A-support
    with a nonempty sliced link table."""
    if len(t) == 0:
        raise DiscreteAmbiguousError("the empty table does not determine a rank")
    return 1 + max(a.bit_count() for a, _ in t._rows)


def reconstruct_rank_one(t: T1Table, ground: Iterable[int]) -> tuple[int, ...]:
    """Non-loop vertices of a rank-one coloop-free matroid, from its table.

    Shape U(m, 1) * U(l, 0), m >= 2: A = 0 throughout, and the rows are
    those `cotangent._uniform_rows` writes at rank 1 for the union of the
    b's, the m non-loops: (0, {u, v}) -> 1 for m = 2, (0, {i}) -> m - 2 for
    m > 2.
    """
    ground_set = frozenset(ground)
    rows = t._rows
    members = 0
    for a, b in rows:
        if a:
            raise NotAMatroidTableError("rank-one table has an entry with nonempty A")
        members |= b
    shape = _uniform_rows(members, 1) if members & (members - 1) else []
    bad = not shape or len(shape) != len(rows)
    for b, d in shape:  # a plain loop: a generator or a dict per group is slower
        bad = bad or rows.get((0, b)) != d
    if bad:
        raise NotAMatroidTableError("table shape matches no rank-one matroid")
    out = unpack(members)
    if not ground_set.issuperset(out):
        entries = f"pair entry {out} leaves" if len(rows) == 1 else f"singleton entries {out} leave"
        raise NotAMatroidTableError(f"{entries} the ground set")
    return out


def reconstruct(t: T1Table) -> SimplicialComplex:
    """The unique nondiscrete matroid with T1 table t.

    Classifies loops and coloops, peels the coloops off the A-supports, finds
    the core rank r, groups the core's entries with |A| = r - 1 by A in one
    pass, reads from each group the vertices that complete A to a basis and
    reattaches the coloops.  The result must pass the walk's singleton test
    and give back t (`_matroid_table`), or NotAMatroidTableError is raised,
    as for any table of non-matroid origin.
    """
    if len(t) == 0:
        raise DiscreteAmbiguousError(
            "empty table: every discrete matroid on this ground set is rigid"
        )
    roles = classify_loops_coloops(t)
    ordinary = tuple(v for v in range(1, t.n + 1) if roles[v] == "ordinary")
    coloops = pack((v for v in range(1, t.n + 1) if roles[v] == "coloop"), t.n)
    core = T1Table._of_rows(t.n, [((a, b), d) for (a, b), d in t._rows.items() if not a & coloops])
    if len(core) == 0:
        raise NotAMatroidTableError("no entry survives removing coloop support")
    rank = rank_from_table(core)
    links: dict[int, list[tuple[tuple[int, int], int]]] = {}
    for (a, b), dim in core._rows.items():
        if a.bit_count() == rank - 1:
            links.setdefault(a, []).append(((0, b), dim))
    bases: set[int] = set()
    # in canonical order of A, so that a bad table reports its first bad group
    for a in sorted(links, key=_mask_order(t.n)):
        rest = tuple(v for v in ordinary if not a >> (v - 1) & 1)
        for v in reconstruct_rank_one(T1Table._of_rows(t.n, links[a]), rest):
            bases.add(a | 1 << (v - 1))
    candidate = SimplicialComplex(t.n, [b | coloops for b in bases])
    back = _matroid_table(candidate)
    if back is None:
        raise NotAMatroidTableError("recovered facets do not satisfy the exchange axiom")
    if back != t:
        raise NotAMatroidTableError("recovered matroid does not reproduce the table")
    return candidate
