"""Abstract simplicial complexes on the ground set {1, ..., n}.

Faces are stored as fixed-width bitmasks (bit v-1 stands for vertex v), so the
ground set is capped at MAX_GROUND vertices.  A complex is represented by its
facets, the inclusion-maximal faces, kept as a canonically sorted antichain.

Two degenerate complexes need care.  The complex {0} (written here as "{emptyset}")
has the empty set as its only face; it arises from an empty facet list and makes
every vertex a loop.  The void complex has no faces at all.  It is never built
by `from_facets` but shows up as the link of a nonface, so it is representable
and flagged by `is_void`; most operations reject it.
"""

from __future__ import annotations

import functools
import os
from typing import Iterable, Iterator

MAX_GROUND = 64
MAX_NONFACE_GROUND = 20
# grounds up to this many vertices read their circuits off the face cube
_CUBE_GROUND = 12
# the census runs over every complex on up to this many vertices
MAX_CENSUS_GROUND = 5


class VertexRangeError(ValueError):
    """A vertex lies outside 1..n, or n exceeds a ground-size limit."""


class VoidComplexError(ValueError):
    """The requested operation is undefined on the void complex."""


def check_threads(threads: int) -> int:
    """Return a worker count after checking it is an integer from 1 to the
    CPU count, which is read only for a count above 1."""
    if isinstance(threads, int) and not isinstance(threads, bool):
        if threads == 1 or 1 < threads <= (os.cpu_count() or 1):
            return threads
    cap = os.cpu_count() or 1
    raise ValueError(f"threads must be an integer in 1..{cap} (the CPU count), got {threads!r}")


def pack(vertices: Iterable[int], n: int) -> int:
    """Encode an iterable of 1-based vertices as a bitmask, validating range."""
    mask = 0
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool):
            raise VertexRangeError(f"vertex {v!r} is not an integer")
        if not 1 <= v <= n:
            raise VertexRangeError(f"vertex {v} out of range 1..{n}")
        mask |= 1 << (v - 1)
    return mask


def unpack(mask: int) -> tuple[int, ...]:
    """Decode a bitmask into the sorted tuple of its 1-based vertices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


# each byte with its bits in reverse order, for `_order_key`
_REVERSED_BITS = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))
# `_order_key` at one byte, for each mask below 256
_BYTE_KEYS = tuple((m.bit_count() << 8) - _REVERSED_BITS[m] for m in range(256))


@functools.cache
def _width_rules(width: int) -> tuple:
    """The order key and the decoder of masks of `width` bytes, made on
    first use; the cache holds one pair per byte width.

    At two bytes (9 to 16 vertices) each is two lookups in 256-entry tables,
    one per byte; at one byte the key is one lookup in `_BYTE_KEYS`; wider
    masks pack their bytes for the key and decode with `unpack`.
    """
    if width <= 1:
        return _BYTE_KEYS.__getitem__, unpack
    if width == 2:
        rev = _REVERSED_BITS
        lo_key = tuple((x.bit_count() << 16) - (rev[x] << 8) for x in range(256))
        hi_key = tuple((x.bit_count() << 16) - rev[x] for x in range(256))
        lo = tuple(unpack(x) for x in range(256))
        hi = tuple(tuple(v + 8 for v in vs) for vs in lo)
        return (lambda m: lo_key[m & 255] + hi_key[m >> 8]), (lambda m: lo[m & 255] + hi[m >> 8])
    shift = 8 * width

    def key(mask: int) -> int:
        reversed_bytes = mask.to_bytes(width, "little").translate(_REVERSED_BITS)
        return (mask.bit_count() << shift) - int.from_bytes(reversed_bytes, "big")

    return key, unpack


def _order_key(n: int):
    """The canonical order key of masks on an n-vertex ground, by size and
    then lexicographically: the one order of every sorted view, table row
    and census listing.  One object for every n of one byte width, which
    memoises nothing per mask.

    Of two masks of one size, the one holding the lowest vertex where they
    differ comes first.  With the bits reversed over ceil(n / 8) bytes that
    vertex is the highest differing bit, so the key subtracts the reversed
    mask.
    """
    return _width_rules(-(-n // 8))[0]


def _decoder(n: int):
    """`unpack` for masks on an n-vertex ground, by byte tables at 9 to 16
    vertices; one object for every n of one byte width."""
    return _width_rules(-(-n // 8))[1]


def submasks(mask: int) -> Iterator[int]:
    """All subsets of a bitmask, the full mask first and 0 last."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _union(masks: Iterable[int]) -> int:
    """Bitwise OR of a family of masks, i.e. the vertices they cover."""
    out = 0
    for m in masks:
        out |= m
    return out


def _ground_size(doc: dict) -> int:
    """The key 'n' of a JSON document, checked to be a nonnegative integer."""
    if "n" not in doc:
        raise ValueError("missing key 'n'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("key 'n': must be a nonnegative integer")
    return n


def _check_ground(n, limit: int) -> None:
    """Raises VertexRangeError unless the ground size n is an integer in 0..limit."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise VertexRangeError(f"ground size {n!r} must be a nonnegative integer")
    if n > limit:
        raise VertexRangeError(f"ground size {n} exceeds limit {limit}")


def _faces_of(facets: Iterable[int]) -> frozenset[int]:
    """Every face of the complex with these facets: all their submasks,
    walked inline into one set, so no facets (the void complex) give no
    faces.  The facets are trusted to be masks; `SimplicialComplex` checks
    them where they come from outside."""
    faces: set[int] = set()
    add = faces.add
    for f in facets:
        sub = f
        while sub:
            add(sub)
            sub = (sub - 1) & f
        add(0)
    return frozenset(faces)


def _link_facets(facets: Iterable[int], a: int) -> list[int]:
    """The facets of the link at a: F minus a over the facets F through a."""
    return [f ^ a for f in facets if f & a == a]


def _ndel(faces: frozenset[int], b: int) -> list[int]:
    """N_b over a face set, in no particular order: faces disjoint from b whose
    union with b is not a face."""
    return [f for f in faces if not f & b and (f | b) not in faces]


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal elements of a family of nonnegative int masks,
    canonically sorted.  It checks nothing: `SimplicialComplex` checks the
    masks that come from outside before they get here.

    One sort, by `_order_key` of the masks' own width, puts them largest
    first.  Two distinct masks of one size never contain each other, so the
    masks of the largest size are kept untested, and each smaller one is
    tested against the masks kept so far, all of them larger.
    """
    family = set(masks)
    if len(family) <= 1:
        return list(family)
    order = sorted(family, key=_order_key(max(family).bit_length()), reverse=True)
    top = order[0].bit_count()
    out = []
    for m in order:
        if m.bit_count() < top:
            for k in out:
                if m & ~k == 0:
                    break
            else:
                out.append(m)
        else:
            out.append(m)
    out.reverse()
    return out


def _minimal_nonfaces(face_set: frozenset[int] | set[int], n: int) -> list[int]:
    """Minimal nonfaces of a downward-closed face family, in no particular order.

    A minimal nonface C of size > 1 minus its highest vertex v is a face F
    with v above every vertex of F, so each C is generated exactly once as
    such an F u {v} and kept when every one-vertex deletion is a face.  The
    vertices of [n] that no face covers are the singleton nonfaces, and a
    void family has the empty set as its only minimal nonface.  The cost is
    faces x covered vertices, not 2^n.
    """
    if not face_set:
        return [0]
    verts = _union(face_set)
    found = [1 << i for i in range(n) if not verts >> i & 1]
    for f in face_set:
        above = verts & ~((1 << f.bit_length()) - 1)
        while above:
            v = above & -above
            above ^= v
            c = f | v
            if c in face_set:
                continue
            rest = f
            while rest:
                u = rest & -rest
                rest ^= u
                if c ^ u not in face_set:
                    break
            else:
                found.append(c)
    return found


def _selectors(n: int) -> tuple[int, ...]:
    """The n selectors of the 2^n-bit cube of masks on n vertices: bit m of
    the i-th is set exactly when the mask m holds the vertex i + 1."""
    out = []
    for i in range(n):
        # the masks of one period of 2^(i+1) that hold i, doubled to fill the cube
        sel, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < 1 << n:
            sel |= sel << width
            width <<= 1
        out.append(sel)
    return tuple(out)


# cached for n up to _CUBE_GROUND alone, at most _CUBE_GROUND + 1 entries:
# the selectors at n = 20 hold 2.5 MiB, so a larger cube builds its own
_cube_selectors = functools.cache(_selectors)


def _set_bits(x: int) -> list[int]:
    """The positions of the set bits of x, ascending."""
    digits = bin(x)[:1:-1]  # lowest bit first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def _cube_circuits(facets: Iterable[int], n: int) -> list[int]:
    """Minimal nonfaces of the complex with these facets on n vertices,
    ascending, off its face cube: the 2^n-bit integer whose bit m is set
    exactly when m is a face, with no face set and no sweep.

    The facets' bits are closed downward, one vertex at a time, by moving
    each mask that holds i to the mask without it.  A nonface is minimal
    exactly when each of its one-vertex deletions is a face, one AND per
    vertex.  No facets (the void complex) give the empty set alone.  Each
    step costs 2^n bits, so it pays on small grounds (`_CUBE_GROUND`);
    `from_minimal_nonfaces` reads larger cubes, up to MAX_NONFACE_GROUND.
    """
    sel = _cube_selectors(n) if n <= _CUBE_GROUND else _selectors(n)
    faces = 0
    for f in facets:
        faces |= 1 << f
    for i, s in enumerate(sel):
        faces |= (faces & s) >> (1 << i)
    out = ((1 << (1 << n)) - 1) ^ faces
    for i, s in enumerate(sel):
        out &= ~s | faces << (1 << i)
    return _set_bits(out)


def _adjacency(facets: Iterable[int]) -> dict[int, int]:
    """Each vertex bit of the complex with these facets of at most two
    vertices, mapped to the mask of its neighbours."""
    adj: dict[int, int] = {}
    for f in facets:
        rest = f
        while rest:
            u = rest & -rest
            rest ^= u
            adj[u] = adj.get(u, 0) | f ^ u
    return adj


def _graph_circuits(adj: dict[int, int]) -> list[int]:
    """The minimal nonfaces of two or more vertices of a complex of
    dimension at most 1, from its adjacency: its non-edges, and the sets of
    three vertices whose pairs are all edges, its triangles."""
    verts = _union(adj)
    out = []
    for u, near in adj.items():
        above = -(u << 1)  # the vertices above u, each set listed once
        rest = verts & ~near & above
        while rest:
            w = rest & -rest
            rest ^= w
            out.append(u | w)
        rest = near & above
        while rest:
            w = rest & -rest
            rest ^= w
            common = near & adj[w] & -(w << 1)
            while common:
                x = common & -common
                common ^= x
                out.append(u | w | x)
    return out


class SimplicialComplex:
    """A simplicial complex, held as the antichain of its facet bitmasks.

    `facet_masks == ()` encodes the void complex; `facet_masks == (0,)`
    encodes {emptyset}.  Instances are immutable by convention and hashable.
    """

    __slots__ = ("n", "facet_masks", "_faces", "_mnf", "_matroid")

    def __init__(self, n: int, facet_masks: Iterable[int]):
        _check_ground(n, MAX_GROUND)
        masks = list(facet_masks)
        full = (1 << n) - 1
        for m in masks:
            if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m <= full:
                raise VertexRangeError(f"facet mask {m!r} is not an integer in 0..{full}")
        self._set(n, masks)

    def _set(self, n: int, masks: Iterable[int]) -> None:
        # the one body of `__init__` and `_of_masks`
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "facet_masks", tuple(maximal_masks(masks)))
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_mnf", None)
        object.__setattr__(self, "_matroid", None)  # exchange-test verdict, set by matroids

    @classmethod
    def _of_masks(cls, n: int, masks: Iterable[int]) -> "SimplicialComplex":
        """The complex on n vertices whose facets are the maximal masks of
        this family, with n and every mask trusted: n an integer in
        0..MAX_GROUND and each mask an int in 0..2^n - 1.  Checks nothing.

        Input from outside is checked where it enters, by `__init__` (masks)
        and `from_facets` (vertices), which both reach this body; the
        builders whose masks the library makes itself call it directly:
        `link_mask`, `restrict`, `delete`, `join`, `boundary_simplex`,
        `from_minimal_nonfaces`, `census.representatives` and the candidate
        of `reconstruct`.
        """
        cx = object.__new__(cls)
        cx._set(n, masks)
        return cx

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    def __reduce__(self):
        # default slot-state pickling would trip the __setattr__ guard
        return (SimplicialComplex, (self.n, self.facet_masks))

    # -- construction -------------------------------------------------

    @classmethod
    def from_facets(cls, n: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build a complex from candidate facets; non-maximal entries are absorbed.

        An empty facet list yields the complex {emptyset}, never the void complex.

        This is where vertices from outside are checked: the ground size n
        first, by `_check_ground`, then each facet in one pass, a plain int
        in 1..n packed inline and any other vertex sent to `pack`, which
        names the fault (or packs an int subclass), so the first bad vertex
        in facet order is the one reported.  The masks then go to the
        trusted `_of_masks`.
        """
        _check_ground(n, MAX_GROUND)
        masks = []
        for f in facets:
            m = 0
            for v in f:
                m |= 1 << (v - 1) if type(v) is int and 0 < v <= n else pack((v,), n)
            masks.append(m)
        return cls._of_masks(n, masks or [0])

    @classmethod
    def from_minimal_nonfaces(cls, n: int, nonfaces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build the complex whose faces are the sets containing no listed nonface.

        The facets of this complex D are read off the face cube of its
        Alexander dual D*, the complex whose facets are the sets [n] - C over
        the listed nonfaces C.  A set G is a nonface of D exactly when it
        holds some C, that is, when [n] - G lies inside some [n] - C, so the
        faces of D* are the complements of the nonfaces of D.  Hence H is a
        nonface of D* exactly when [n] - H is a face of D, and a minimal one
        exactly when [n] - H is a facet: the circuits of D*, by
        `_cube_circuits`, are the complements of the facets of D, each once.
        With no nonfaces D* is void, its one circuit is the empty set, and D
        is the full simplex; at n = 0 that is {emptyset}.  A listed nonface
        that holds another gives a facet of D* inside another, which the
        cube's downward closure absorbs.  The cube doubles with each vertex,
        so an n that is no nonnegative integer, or lies above
        MAX_NONFACE_GROUND, raises VertexRangeError before it is built.
        """
        _check_ground(n, MAX_NONFACE_GROUND)
        forb = [pack(f, n) for f in nonfaces]
        if any(m == 0 for m in forb):
            raise ValueError("the empty set cannot be a nonface")
        full = (1 << n) - 1
        return cls._of_masks(n, [full ^ m for m in _cube_circuits([full ^ c for c in forb], n)])

    @classmethod
    def void(cls, n: int) -> "SimplicialComplex":
        """The void complex on ground size n (no faces at all)."""
        return cls(n, ())

    # -- basic structure ----------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facet_masks

    def _require_nonvoid(self, op: str) -> None:
        if self.is_void:
            raise VoidComplexError(f"{op} is undefined on the void complex")

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Facets as sorted vertex tuples, in canonical order."""
        return tuple(map(_decoder(self.n), self.facet_masks))

    @property
    def vertex_mask(self) -> int:
        return _union(self.facet_masks)

    def vertices(self) -> tuple[int, ...]:
        """The vertices of the complex, i.e. v with {v} a face."""
        return unpack(self.vertex_mask)

    def face_masks(self) -> frozenset[int]:
        """The set of all faces as bitmasks (cached)."""
        if self._faces is None:
            object.__setattr__(self, "_faces", _faces_of(self.facet_masks))
        return self._faces

    def faces(self) -> list[tuple[int, ...]]:
        """All faces as vertex tuples, canonically ordered."""
        return list(map(_decoder(self.n), sorted(self.face_masks(), key=_order_key(self.n))))

    def is_face_mask(self, mask: int) -> bool:
        if self._faces is not None:
            return mask in self._faces
        return any(mask & ~b == 0 for b in self.facet_masks)

    def is_face(self, F: Iterable[int]) -> bool:
        """Whether F is a face."""
        return self.is_face_mask(pack(F, self.n))

    # -- derived data --------------------------------------------------

    def _circuit_masks(self) -> list[int]:
        """The minimal nonfaces as bitmasks, in no particular order (cached):
        the engine only iterates them, so only the public views sort.

        A complex of dimension at most 1 is a graph, and its circuits are
        its loops, read off its vertex mask, and its non-edges and triangles,
        read off its adjacency (`_graph_circuits`, the rule of every graph
        link too), with no face set and no sweep.  A larger complex on at
        most `_CUBE_GROUND` vertices reads them off its face cube
        (`_cube_circuits`), with no face set either; on a larger ground it
        sweeps its cached face set (`_minimal_nonfaces`), whose cost follows
        the faces, not 2^n.  The facets are trusted, as every constructor
        has checked them.
        """
        if self._mnf is None:
            self._require_nonvoid("minimal_nonfaces")
            if self.rank <= 2:
                loops = ((1 << self.n) - 1) & ~self.vertex_mask
                mnf = [1 << i for i in range(self.n) if loops >> i & 1]
                mnf += _graph_circuits(_adjacency(self.facet_masks))
            elif self.n <= _CUBE_GROUND:
                mnf = _cube_circuits(self.facet_masks, self.n)
            else:
                mnf = _minimal_nonfaces(self.face_masks(), self.n)
            object.__setattr__(self, "_mnf", mnf)
        return self._mnf

    def minimal_nonface_masks(self) -> list[int]:
        """The minimal nonfaces as bitmasks, canonically sorted."""
        return sorted(self._circuit_masks(), key=_order_key(self.n))

    def minimal_nonfaces(self) -> list[tuple[int, ...]]:
        """Minimal nonfaces (circuits, when the complex is a matroid)."""
        return list(map(_decoder(self.n), self.minimal_nonface_masks()))

    def rank_of(self, A: Iterable[int]) -> int:
        """Cardinality of the largest face contained in A: max |F n A| over
        the facets F, as every face inside A lies in some F n A, with no
        face set built."""
        self._require_nonvoid("rank_of")
        a = pack(A, self.n)
        return max((f & a).bit_count() for f in self.facet_masks)

    @property
    def rank(self) -> int:
        """rank_of the full ground set, i.e. the largest face cardinality."""
        self._require_nonvoid("rank")
        return max(m.bit_count() for m in self.facet_masks)

    def loops_and_coloops(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Vertices in no face, and vertices in every facet."""
        self._require_nonvoid("loops_and_coloops")
        full = (1 << self.n) - 1
        loops = full & ~self.vertex_mask
        co = full
        for m in self.facet_masks:
            co &= m
        return unpack(loops), unpack(co)

    # -- constructions -------------------------------------------------

    def link_mask(self, A: int) -> "SimplicialComplex":
        return SimplicialComplex._of_masks(self.n, _link_facets(self.facet_masks, A))

    def link(self, F: Iterable[int]) -> "SimplicialComplex":
        """Link of F: all faces G disjoint from F with G u F a face.

        The link of a nonface is the void complex.
        """
        return self.link_mask(pack(F, self.n))

    def restrict(self, W: Iterable[int]) -> "SimplicialComplex":
        """Full subcomplex on the vertex subset W, on the same ground set."""
        w = pack(W, self.n)
        return SimplicialComplex._of_masks(self.n, [b & w for b in self.facet_masks])

    def delete(self, W: Iterable[int]) -> "SimplicialComplex":
        """Deletion of W, i.e. the restriction to the complement of W."""
        w = pack(W, self.n)
        return SimplicialComplex._of_masks(self.n, [b & ~w for b in self.facet_masks])

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """Simplicial join, with the other ground set relabeled to follow this one.

        A void operand propagates voidness.
        """
        n = self.n + other.n
        if n > MAX_GROUND:
            raise VertexRangeError(f"joined ground size {n} exceeds limit {MAX_GROUND}")
        shift = self.n
        masks = [f | (g << shift) for f in self.facet_masks for g in other.facet_masks]
        return SimplicialComplex._of_masks(n, masks)

    def __mul__(self, other: "SimplicialComplex") -> "SimplicialComplex":
        return self.join(other)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SimplicialComplex":
        """Parse {"n": ..., "facets": [...]} or {"n": ..., "minimal_nonfaces": [...]}."""
        if not isinstance(doc, dict):
            raise ValueError("complex document must be a JSON object")
        n = _ground_size(doc)
        has_f = "facets" in doc
        has_m = "minimal_nonfaces" in doc
        if has_f and has_m:
            raise ValueError("keys 'facets' and 'minimal_nonfaces' are mutually exclusive")
        if not has_f and not has_m:
            raise ValueError("missing key 'facets' (or 'minimal_nonfaces')")
        key = "facets" if has_f else "minimal_nonfaces"
        sets = doc[key]
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise ValueError(f"key '{key}': must be a list of vertex lists")
        try:
            if has_f:
                return cls.from_facets(n, sets)
            return cls.from_minimal_nonfaces(n, sets)
        except ValueError as exc:
            raise type(exc)(f"key '{key}': {exc}") from exc

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.n == other.n and self.facet_masks == other.facet_masks

    def __hash__(self) -> int:
        return hash((self.n, self.facet_masks))

    def __repr__(self) -> str:
        if self.is_void:
            return f"SimplicialComplex.void({self.n})"
        return f"SimplicialComplex(n={self.n}, facets={[list(f) for f in self.facets]})"


def boundary_simplex(F: Iterable[int], n: int | None = None) -> SimplicialComplex:
    """Boundary of the simplex on F: all proper subsets of F.

    The ground size defaults to max(F).  boundary_simplex([v]) is {emptyset}
    with v a loop.  Each vertex is checked to be an integer, as `pack` does,
    before any two are compared, then n by `_check_ground`, before any mask
    is built, and last each vertex to lie in 1..n.
    """
    F = list(F)
    for v in F:
        if not isinstance(v, int) or isinstance(v, bool):
            raise VertexRangeError(f"vertex {v!r} is not an integer")
    verts = sorted(set(F))
    if not verts:
        raise ValueError("boundary_simplex needs a nonempty vertex set")
    if n is None:
        n = max(verts)
    _check_ground(n, MAX_GROUND)
    mask = pack(verts, n)
    facets = [mask & ~(1 << (v - 1)) for v in verts]
    return SimplicialComplex._of_masks(n, facets)
