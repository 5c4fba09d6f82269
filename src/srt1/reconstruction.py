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
a rank-one group must equal the group `cotangent._uniform_rows` writes at
rank 1, and the walk's root verifies every returned complex
(`cotangent._matroid_table`).

Every step reads the table's groups, one dict b -> dim per A mask, which
carry no order, and decodes no vertex tuple.  Where an order could show, in
the entry the loop/coloop probe reads and in the rank-one group whose error
is raised first, the steps take the canonical order of `T1Table`'s public
views, so the result and every error message depend on the table alone.

`reconstruct` builds no table of its own before the verification: it keeps
the table's groups whose A avoids the coloops, reads the rank off their A
masks and sends each group of the largest A through the rank-one rule
`_rank_one_members`, on a dict and a ground mask.  The public steps
`rank_from_table` and `reconstruct_rank_one` apply the same rules to a
table, so each quantity keeps one path.
"""

from __future__ import annotations

from typing import Iterable

from .complexes import MAX_GROUND, SimplicialComplex, pack, unpack
from .complexes import _check_ground, _order_key, _union
from .cotangent import T1Table, _least_row, _matroid_table, _uniform_rows


class DiscreteAmbiguousError(ValueError):
    """The empty table is shared by every discrete matroid on [n]."""


class NotAMatroidTableError(ValueError):
    """The table is not the T1 table of any matroid."""


def slice_link_table(t: T1Table, F: Iterable[int]) -> T1Table:
    """The table of the link at F, read off from the table of the complex.

    Keeps the entries whose A-support contains F, with F removed from the
    A-side: the groups of the A that contain F, shared with t.  Raises
    VertexRangeError unless each vertex of F is an integer in 1..n.
    """
    f = pack(F, t.n)
    return T1Table._of_groups(t.n, {a ^ f: g for a, g in t._groups.items() if a & f == f})


def _roles(t: T1Table) -> tuple[int, int]:
    """The masks (ordinary, coloops) of `classify_loops_coloops`, by its
    rules, errors and vertex order; every other vertex of 1..n is a loop."""
    if len(t) == 0:
        raise DiscreteAmbiguousError("the empty table does not separate loops from coloops")
    groups = t._groups
    ordinary = coloops = 0
    for a, group in groups.items():
        size = a.bit_count()
        if size <= 1:
            for b in group:
                if size + b.bit_count() <= 2:
                    ordinary |= b
    key = least = None
    for v in range(1, t.n + 1):
        bit = 1 << (v - 1)
        if ordinary & bit:
            continue
        if key is None:
            key = _order_key(t.n)
            least = _least_row(groups, key, 0)
        first = _least_row(groups, key, bit) if (least[0] | least[1]) & bit else least
        if first is None:
            raise NotAMatroidTableError(f"no entry avoids vertex {v}")
        a, b, dim = first
        if groups.get(a | bit, {}).get(b, 0) == dim:
            coloops |= bit
    return ordinary, coloops


def classify_loops_coloops(t: T1Table) -> dict[int, str]:
    """Split the ground set into 'loop', 'coloop' and 'ordinary' vertices.

    A vertex v is loop-or-coloop exactly when every entry with v in b and
    |A u b| <= 2 is absent, which the groups with |A| <= 1 decide.  Such a v
    is then probed against the canonically first entry (A0, b0) avoiding v:
    a coloop keeps the entry, with equal dimension, after adjoining v to A0;
    a loop does not.  At the first probe the canonically least row is found
    once (`cotangent._least_row`, the least A and the least b in its group);
    a vertex outside it reads it, and only a vertex inside it looks for the
    least row that avoids it.  The vertices are checked in order, so the
    first that fails names the error; `_roles` finds the roles as masks and
    this dict is their view.
    """
    ordinary, coloops = _roles(t)
    return {
        v: "ordinary" if ordinary >> (v - 1) & 1 else "coloop" if coloops >> (v - 1) & 1 else "loop"
        for v in range(1, t.n + 1)
    }


def rank_from_table(t: T1Table) -> int:
    """Rank of the underlying matroid: one more than the largest A-support
    with a nonempty sliced link table."""
    if len(t) == 0:
        raise DiscreteAmbiguousError("the empty table does not determine a rank")
    return 1 + max(a.bit_count() for a in t._groups)


def _rank_one_members(group: dict[int, int], ground: int) -> int:
    """The mask of the non-loop vertices of the rank-one coloop-free matroid
    whose table has the rows (0, b) -> group[b], which must lie in ground.

    Shape U(m, 1) * U(l, 0), m >= 2: the group equals the one `_uniform_rows`
    writes at rank 1 for the union of the b's, the m non-loops: (0, {u, v})
    -> 1 for m = 2, (0, {i}) -> m - 2 for m > 2.
    """
    members = _union(group)
    if not members & (members - 1) or _uniform_rows(members, 1) != group:
        raise NotAMatroidTableError("table shape matches no rank-one matroid")
    if members & ~ground:
        out = unpack(members)
        entries = f"pair entry {out} leaves" if len(group) == 1 else f"singleton entries {out} leave"
        raise NotAMatroidTableError(f"{entries} the ground set")
    return members


def reconstruct_rank_one(t: T1Table, ground: Iterable[int]) -> tuple[int, ...]:
    """Non-loop vertices of a rank-one coloop-free matroid, from its table.

    Every entry must have A = 0, and the b's must be the rows of
    `_rank_one_members`, whose vertices must lie in ground.
    """
    ground_set = frozenset(ground)
    if t._groups.keys() - {0}:
        raise NotAMatroidTableError("rank-one table has an entry with nonempty A")
    inside = pack((v for v in range(1, t.n + 1) if v in ground_set), t.n)
    return unpack(_rank_one_members(t._groups.get(0, {}), inside))


def reconstruct(t: T1Table) -> SimplicialComplex:
    """The unique nondiscrete matroid with T1 table t.

    Raises DiscreteAmbiguousError on the empty table, then VertexRangeError
    on a ground of more than MAX_GROUND vertices, before any step walks
    1..n.  Finds the masks of the ordinary vertices and the coloops
    (`_roles`, the rules of `classify_loops_coloops`), then keeps the groups,
    one dict b -> dim per A, whose A avoids the coloops, with no pass over
    the rows.  The core rank r is one more than the largest A among them;
    each group with |A| = r - 1, in canonical order of A, goes through the
    rank-one rule (`_rank_one_members`) with the ordinary vertices outside
    A as ground, and names the vertices that complete A to a basis.  The
    coloops are then reattached.  The result must pass the walk's singleton
    test and give back t (`_matroid_table`), or NotAMatroidTableError is
    raised, as for any table of non-matroid origin.
    """
    if len(t) == 0:
        raise DiscreteAmbiguousError(
            "empty table: every discrete matroid on this ground set is rigid"
        )
    _check_ground(t.n, MAX_GROUND)  # a table's ground is not capped, a complex's is
    ordinary, coloops = _roles(t)
    groups = {a: group for a, group in t._groups.items() if not a & coloops}
    if not groups:
        raise NotAMatroidTableError("no entry survives removing coloop support")
    top = max(a.bit_count() for a in groups)
    bases: set[int] = set()
    # in canonical order of A, so that a bad table reports its first bad group
    for a in sorted((a for a in groups if a.bit_count() == top), key=_order_key(t.n)):
        members = _rank_one_members(groups[a], ordinary & ~a)
        while members:
            low = members & -members
            bases.add(a | low)
            members ^= low
    candidate = SimplicialComplex._of_masks(t.n, [b | coloops for b in bases])
    back = _matroid_table(candidate)
    if back is None:
        raise NotAMatroidTableError("recovered facets do not satisfy the exchange axiom")
    if back != t:
        raise NotAMatroidTableError("recovered matroid does not reproduce the table")
    return candidate
