"""Exhaustive cross-validation over all small simplicial complexes.

Complexes on [n] correspond to antichains of subsets of 2^[n]; the census
enumerates them, quotients by vertex relabeling (every checked property is
label-equivariant) and runs the full invariant battery on each canonical
representative.  Ground sizes up to 5 are supported.

`check_complex` builds what the battery reads once per complex: the link and
the restriction at every vertex set, each caching its faces and circuits (the
deletion of b is the restriction to the complement of b), the rank of every
vertex set, dim T1 of each link at each degree (emptyset, b) and, in one
pass over the degrees b, N_b and N~_b.  An invariant that relates two of
them compares what each caches, so no complex is built per pair or degree.
`link-reduction` counts T1 by the face engine of `definition` over each
link's faces, which no rule of `t1_table` or `dim_t1` runs, once per degree
(A, b), and holds each count to the circuit formula over the link's circuits
as it goes: `main-theorem-iff` is read in that pass, from those counts.
It returns the reports and whether the complex is a matroid; `run_census`
keeps the matroids for the cross-complex checks.
"""

from __future__ import annotations

import itertools

from .complexes import (
    MAX_CENSUS_GROUND,
    SimplicialComplex,
    _ndel,
    _order_key,
    check_threads,
    maximal_masks,
    submasks,
    unpack,
)
from .cotangent import T1Table, t1_table
from .definition import _bijection_sets, _dim_on_faces, _formula_on_link, _marks
from .definition import dim_t1_nonface, t1_upper_bound
from .matroids import (
    is_matroid_circuit_elimination,
    is_matroid_exchange,
    is_matroid_unique_min,
    uniform,
)
from .recognition import _discrepancies, is_matroid_via_t1
from .reconstruction import classify_loops_coloops, reconstruct, slice_link_table


def all_antichain_masks(n: int) -> list[tuple[int, ...]]:
    """Every antichain of subsets of [n], as a sorted tuple of facet masks,
    in lexicographic order of those tuples.

    () is the void complex and (0,) is {emptyset}; the count over all n
    matches the Dedekind numbers.
    """
    out: list[tuple[int, ...]] = [(), (0,)]
    masks = list(range(1, 1 << n))
    chosen: list[int] = []

    def rec(start: int) -> None:
        for i in range(start, len(masks)):
            m = masks[i]
            if any(m & ~c == 0 or c & ~m == 0 for c in chosen):
                continue
            chosen.append(m)
            out.append(tuple(chosen))
            rec(i + 1)
            chosen.pop()

    rec(0)
    return out


def _perm_tables(n: int) -> list[list[int]]:
    tables = []
    for perm in itertools.permutations(range(n)):
        table = [0] * (1 << n)
        for mask in range(1 << n):
            img = 0
            for v in unpack(mask):
                img |= 1 << perm[v - 1]
            table[mask] = img
        tables.append(table)
    return tables


def _images(facet_masks: tuple[int, ...], perm_tables: list[list[int]]) -> set[tuple[int, ...]]:
    """The sorted facet tuples of every relabeling of an antichain."""
    return {tuple(sorted(t[f] for f in facet_masks)) for t in perm_tables}


def canonical_form(facet_masks: tuple[int, ...], perm_tables: list[list[int]]) -> tuple[int, ...]:
    """Least relabeled facet tuple over all vertex permutations."""
    return min(_images(facet_masks, perm_tables))


def representatives(n: int) -> list[SimplicialComplex]:
    """One nonvoid complex per relabeling class on ground size n, keyed by its
    canonical form, in the order the classes first appear among the antichains.

    The antichains come in lexicographic order, so the first one of a class
    is its least relabeling, the canonical form.  The class's relabelings are
    then set aside, so an antichain is only relabeled when it opens a class.
    """
    tables = _perm_tables(n)
    seen: set[tuple[int, ...]] = set()
    out = []
    for facets in all_antichain_masks(n):
        if facets and facets not in seen:
            seen |= _images(facets, tables)
            out.append(SimplicialComplex._of_masks(n, facets))
    return out


def orbit_size(cx: SimplicialComplex) -> int:
    return len(_images(cx.facet_masks, _perm_tables(cx.n)))


# ---------------------------------------------------------------------------
# invariant battery


class CensusReport:
    """One invariant's name, check count and failure messages."""

    def __init__(self, name: str, checked: int = 0, failures: list[str] | None = None) -> None:
        self.name, self.checked = name, checked
        self.failures = [] if failures is None else failures  # one list per report

    @property
    def ok(self) -> bool:
        return not self.failures

    def __eq__(self, other) -> bool:
        return vars(self) == vars(other) if isinstance(other, CensusReport) else NotImplemented

    def __repr__(self) -> str:
        return "CensusReport(" + ", ".join(f"{k}={v!r}" for k, v in vars(self).items()) + ")"


_FAIL_CAP = 5


class _Recorder:
    def __init__(self) -> None:
        self.data: dict[str, CensusReport] = {}

    def add(self, name: str, checked: int, failures: list[str]) -> None:
        rep = self.data.setdefault(name, CensusReport(name))
        rep.checked += checked
        for f in failures:
            if len(rep.failures) < _FAIL_CAP:
                rep.failures.append(f)


def _tag(cx: SimplicialComplex) -> str:
    return f"n={cx.n} facets={[list(f) for f in cx.facets]}"


class _Shared:
    """The derived objects of one complex, each built once.

    `links` and `restrictions` hold `cx.link_mask(F)` and `cx.restrict(W)`
    for every vertex set, indexed by its mask, so the deletion of b is
    `restrictions[full ^ b]`.  Each is built from the facets of cx and caches
    its own faces and circuits, so the battery reads those off the link or
    the deletion.  `a_masks` lists the faces of cx in canonical order,
    `table` is the T1 table of cx, and `dims[a, b]` is dim T1 of `links[a]`
    at (emptyset, b), kept by `link-reduction`; `links[0]` is cx.
    """

    def __init__(self, cx: SimplicialComplex) -> None:
        n = cx.n
        self.cx = cx
        self.tag = _tag(cx)
        self.a_masks = sorted(cx.face_masks(), key=_order_key(n))
        self.links = [cx.link_mask(m) for m in range(1 << n)]
        self.restrictions = [cx.restrict(unpack(m)) for m in range(1 << n)]
        self.table = t1_table(cx)
        self.dims: dict[tuple[int, int], int] = {}


def check_complex(cx: SimplicialComplex) -> tuple[dict[str, CensusReport], bool]:
    """Run the per-complex battery; return the reports by name and whether cx is a matroid."""
    rec = _Recorder()
    n = cx.n
    full = (1 << n) - 1
    s = _Shared(cx)
    tag = s.tag

    # facets form an antichain
    anti = all(
        not (f1 & ~f2 == 0 or f2 & ~f1 == 0)
        for f1, f2 in itertools.combinations(cx.facet_masks, 2)
    )
    rec.add("antichain", 1, [] if anti else [tag])

    # the two descriptions determine each other
    rebuilt = SimplicialComplex.from_minimal_nonfaces(n, cx.minimal_nonfaces())
    rec.add("nonface-duality", 1, [] if rebuilt == cx else [tag])

    # link and restriction commute, at each of the 3^n pairs F <= W: the sets
    # G - F over the faces G >= F of the restriction to W are the faces of
    # lk(F) inside W (none at a nonface F, whose link is void)
    fails = []
    for w in range(1 << n):
        restricted = s.restrictions[w].face_masks()
        for sub in submasks(w):
            lhs = {g ^ sub for g in restricted if g & sub == sub}
            if lhs != {g for g in s.links[sub].face_masks() if not g & ~w}:
                fails.append(f"{tag}: W={unpack(w)} F={unpack(sub)}")
    rec.add("link-restrict-commute", 3**n, fails)

    # rank is monotone and bounded by cardinality
    ranks = [cx.rank_of(unpack(a)) for a in range(1 << n)]
    fails = []
    for a, ra in enumerate(ranks):
        if ra > a.bit_count():
            fails.append(f"{tag}: rank({unpack(a)}) > |A|")
        for v in unpack(full & ~a):
            if ranks[a | 1 << (v - 1)] < ra:
                fails.append(f"{tag}: rank drops adding {v} to {unpack(a)}")
    rec.add("rank-monotone", 1 << n, fails)

    # the three matroid oracles agree
    ex = is_matroid_exchange(cx)
    ce = is_matroid_circuit_elimination(cx)
    um = is_matroid_unique_min(cx)
    rec.add(
        "oracle-agreement",
        1,
        [] if ex == ce == um else [f"{tag}: exchange={ex} circuits={ce} unique-min={um}"],
    )

    # T1 of the complex, from t1_table, equals T1 of its link, by definition,
    # in the shifted degree; each count by the definition is also held to the
    # circuit formula over the link's circuits, and the rows where the two
    # differ are the discrepancies that the main theorem reads below
    fails, rows = [], []
    checked = 0
    for a in s.a_masks:
        link = s.links[a]
        link_faces, verts, circuits = link.face_masks(), link.vertex_mask, link._circuit_masks()
        group = s.table._groups.get(a, {})
        for sub in filter(None, submasks(full & ~a)):
            checked += 1
            lhs = group.get(sub, 0)
            rhs = s.dims[a, sub] = 0 if sub & ~verts else _dim_on_faces(link_faces, sub)
            if lhs != rhs:
                fails.append(f"{tag}: degree ({unpack(a)},{unpack(sub)}) {lhs} != {rhs}")
            formula = _formula_on_link(circuits, sub)
            if rhs != formula:
                rows.append(((a, sub), rhs, formula))
    rec.add("link-reduction", checked, fails)

    _check_degrees(rec, s, ex)

    # main theorem, both directions, plus the singleton corollary, read off
    # the counts of `link-reduction` at every degree (A, b): the full
    # comparison, since formula_discrepancies assumes the theorem on matroid links
    disc = _discrepancies(n, rows)
    rec.add(
        "main-theorem-iff",
        1,
        [] if (not disc) == ex else [f"{tag}: discrepancies={len(disc)} matroid={ex}"],
    )
    rec.add("recognition-corollary", 1, [] if is_matroid_via_t1(cx) == ex else [tag])
    fails = [
        f"{tag}: degree {d.degree} graph {d.graph_dim} >= formula {d.formula_dim}"
        for d in disc
        if len(d.degree.b) == 1 and d.graph_dim >= d.formula_dim
    ]
    rec.add("singleton-discrepancy-direction", len(disc), fails)

    if ex:
        _check_matroid_parts(rec, s)
    return rec.data, ex


def _check_degrees(rec: _Recorder, s: _Shared, matroid: bool) -> None:
    """The invariants stated per degree b: one pass builds N_b and N~_b for
    all of them, and reads dim T1 at (0, b) off `s.dims` and the deletion of
    b and its facets off `s.restrictions`."""
    cx, tag = s.cx, s.tag
    n = cx.n
    full = (1 << n) - 1
    faces = cx.face_masks()
    circuits = cx._circuit_masks()
    shape, minima, equiv, nonface, saturation, extension = [], [], [], [], [], []
    bound = []  # (b, failure), reported in canonical face order
    extension_checked = 0
    for b in range(1, 1 << n):
        vb = unpack(b)
        nvert = _ndel(faces, b)
        nset = set(nvert)
        red = {f for f, m in zip(nvert, _marks(faces, nvert, b)) if m}
        deletion = s.restrictions[full ^ b]
        del_faces = deletion.face_masks()
        del_facets = deletion.facet_masks
        dim = s.dims[0, b]

        # N_b shape, minimal elements, and the N~ emptiness equivalence
        if b in faces:
            expect = {f for f in del_faces if (f | b) not in faces}
        else:
            expect = del_faces
        if nset != expect:
            shape.append(f"{tag}: b={vb}")
        cuts = {c & ~b for c in circuits if c & b}
        minima_n = {f for f in nset if not any(g != f and g & ~f == 0 for g in nset)}
        if not minima_n <= cuts:
            minima.append(f"{tag}: b={vb} minima of N_b")
        cuts_cross = {c & ~b for c in circuits if c & b and b & ~c}
        minima_r = {f for f in red if not any(g != f and g & ~f == 0 for g in red)}
        if not minima_r <= cuts_cross:
            minima.append(f"{tag}: b={vb} minima of N~_b")
        tame = all(not (c & b) or b & ~c == 0 for c in circuits)
        if (not red) != tame:
            equiv.append(f"{tag}: b={vb} emptiness")
        elif tame and minima_n != {c & ~b for c in circuits if b & ~c == 0}:
            equiv.append(f"{tag}: b={vb} minima formula")

        if b in faces:
            # upper bound, with equality for matroids at nonzero degrees; each
            # side of the bound also equals its restatement as a difference of
            # circuit or basis families
            ub = t1_upper_bound(cx, vb)
            if dim > ub:
                bound.append((b, f"{tag}: b={vb} dim {dim} > bound {ub}"))
            if matroid and dim > 0 and dim != ub:
                bound.append((b, f"{tag}: b={vb} matroid dim {dim} != bound {ub}"))
            link = s.links[b]
            link_circuits = link._circuit_masks()
            del_circuits = set(deletion._circuit_masks())
            first = sum(1 for c in link_circuits if c in del_faces)
            second = sum(1 for f in del_facets if not link.is_face_mask(f))
            if first != sum(1 for c in link_circuits if c not in del_circuits):
                bound.append((b, f"{tag}: b={vb} circuit side of the bound restated differs"))
            if second != sum(1 for f in del_facets if f not in link.facet_masks):
                bound.append((b, f"{tag}: b={vb} facet side of the bound restated differs"))
        elif dim_t1_nonface(cx, vb) != dim:
            nonface.append(f"{tag}: b={vb}")

        if matroid:
            # deletion facets saturate N_b and N~_b
            if nvert and not nset.issuperset(del_facets):
                saturation.append(f"{tag}: b={vb} facets of deletion escape N_b")
            if red:
                if not red.issuperset(del_facets):
                    saturation.append(f"{tag}: b={vb} facets of deletion escape N~_b")
                if maximal_masks(nvert) != maximal_masks(red):
                    saturation.append(f"{tag}: b={vb} maxima differ")
            # one basis of the deletion extends by b' exactly when all do
            for b1, b2 in itertools.combinations(del_facets, 2):
                extension_checked += 1 << b.bit_count()
                for sub in submasks(b):
                    if ((b1 | sub) in faces) != ((b2 | sub) in faces):
                        extension.append(f"{tag}: b={vb} bases {unpack(b1)},{unpack(b2)}")

    degrees = (1 << n) - 1
    rec.add("ndel-star-shape", degrees, shape)
    rec.add("min-element-containment", 2 * degrees, minima)
    rec.add("ndelred-empty-equivalence", degrees, equiv)
    key = _order_key(n)
    bound.sort(key=lambda item: key(item[0]))
    rec.add("upper-bound", len(faces) - 1, [f for _, f in bound])
    rec.add("nonface-dimension", degrees + 1 - len(faces), nonface)
    if matroid:
        rec.add("deletion-basis-saturation", degrees, saturation)
        rec.add("basis-extension", extension_checked, extension)


def _check_matroid_parts(rec: _Recorder, s: _Shared) -> None:
    cx, tag, a_masks = s.cx, s.tag, s.a_masks
    n = cx.n
    loops, coloops = cx.loops_and_coloops()

    # links and restrictions stay matroids
    fails = [f"{tag}: link at {unpack(a)}" for a in a_masks if not is_matroid_exchange(s.links[a])]
    fails += [
        f"{tag}: restriction to {unpack(w)}"
        for w, r in enumerate(s.restrictions)
        if not is_matroid_exchange(r)
    ]
    rec.add("matroid-minor-closure", len(a_masks) + (1 << n), fails)

    # coloop-free heredity
    if not coloops:
        fails = [
            f"{tag}: link at {unpack(a)} gained a coloop"
            for a in a_masks
            if s.links[a].loops_and_coloops()[1]
        ]
        rec.add("coloop-free-link-heredity", len(a_masks), fails)

    # facets all have rank cardinality
    rank = cx.rank
    fails = [] if all(f.bit_count() == rank for f in cx.facet_masks) else [tag]
    rec.add("matroid-equicardinal-facets", 1, fails)

    # generator bijection at every admissible (A, b)
    fails = []
    checked = 0
    for a in a_masks:
        link = s.links[a]
        link_circuits = link._circuit_masks()
        for b in filter(None, sorted(link.face_masks(), key=_order_key(n))):
            if any(c & b and b & ~c for c in link_circuits):
                continue
            checked += 1
            dom, cod = _bijection_sets(link, b)
            if dom != cod:
                fails.append(f"{tag}: A={unpack(a)} b={unpack(b)}")
    rec.add("bijection-generators", checked, fails)

    # table-level properties
    table = s.table
    discrete = len(loops) + len(coloops) == n
    rec.add(
        "rigidity-discrete",
        1,
        [] if (len(table) == 0) == discrete else [f"{tag}: table size {len(table)}"],
    )

    if not discrete:
        try:
            back = reconstruct(table)
            ok = back == cx
        except ValueError:
            back, ok = None, False
        rec.add("round-trip", 1, [] if ok else [f"{tag}: got {back!r}"])

        try:
            roles = classify_loops_coloops(table)
        except ValueError as exc:  # reported, as round-trip reports reconstruct's
            roles = str(exc)
        want = {v: "ordinary" for v in range(1, n + 1)}
        for v in loops:
            want[v] = "loop"
        for v in coloops:
            want[v] = "coloop"
        rec.add("loop-coloop-classify", 1, [] if roles == want else [f"{tag}: {roles}"])

    if not coloops:
        fails = [
            f"{tag}: A={unpack(a)}"
            for a in a_masks
            if (len(slice_link_table(table, unpack(a))) == 0) != (a in cx.facet_masks)
        ]
        rec.add("link-rigidity-basis", len(a_masks), fails)


# ---------------------------------------------------------------------------
# cross-complex checks


def _check_families(rec: _Recorder, matroid_reps: dict[int, list[SimplicialComplex]]) -> None:
    # joins of matroids are matroids
    fails = []
    checked = 0
    pairs = [
        (m1, m2)
        for n1, lst1 in matroid_reps.items()
        for n2, lst2 in matroid_reps.items()
        if n1 + n2 <= 7
        for m1 in lst1
        for m2 in lst2
    ]
    for m1, m2 in pairs:
        checked += 1
        if not is_matroid_exchange(m1.join(m2)):
            fails.append(f"join of {_tag(m1)} and {_tag(m2)}")
    rec.add("join-matroid-closure", checked, fails)

    # join is associative with {emptyset} on an empty ground as identity
    ident = SimplicialComplex.from_facets(0, [])
    fails = []
    checked = 0
    small = [lst[0] for _, lst in sorted(matroid_reps.items()) if lst][:4]
    some = [m for lst in matroid_reps.values() for m in lst if m.n <= 2][:6]
    for m1, m2, m3 in itertools.product(some, repeat=3):
        checked += 1
        if m1.join(m2).join(m3) != m1.join(m2.join(m3)):
            fails.append(f"{_tag(m1)} * {_tag(m2)} * {_tag(m3)}")
    for m in small:
        checked += 2
        if m.join(ident) != m or ident.join(m) != m:
            fails.append(f"identity on {_tag(m)}")
    rec.add("join-associativity", checked, fails)

    # adjoining coloops copies every entry across all coloop subsets
    fails = []
    checked = 0
    for n1, lst in matroid_reps.items():
        if n1 > 4:
            continue
        for m in lst:
            loops, coloops = m.loops_and_coloops()
            if coloops or len(loops) == m.n:
                continue
            base = t1_table(m)
            for c in (1, 2):
                checked += 1
                joined = m.join(uniform(c, c))
                new = tuple(range(m.n + 1, m.n + c + 1))
                expected = []
                for key, dim in base.items():
                    for r in range(c + 1):
                        for extra in itertools.combinations(new, r):
                            expected.append(((key.A + extra, key.b), dim))
                if t1_table(joined) != T1Table(joined.n, expected):
                    fails.append(f"{_tag(m)} with {c} coloops")
    rec.add("coloop-extension", checked, fails)


BATTERY_ORDER = [
    "antichain",
    "nonface-duality",
    "link-restrict-commute",
    "rank-monotone",
    "oracle-agreement",
    "matroid-minor-closure",
    "coloop-free-link-heredity",
    "matroid-equicardinal-facets",
    "link-reduction",
    "ndel-star-shape",
    "min-element-containment",
    "ndelred-empty-equivalence",
    "upper-bound",
    "deletion-basis-saturation",
    "basis-extension",
    "main-theorem-iff",
    "recognition-corollary",
    "singleton-discrepancy-direction",
    "nonface-dimension",
    "bijection-generators",
    "rigidity-discrete",
    "round-trip",
    "loop-coloop-classify",
    "link-rigidity-basis",
    "join-matroid-closure",
    "join-associativity",
    "coloop-extension",
]


def run_census(max_n: int, threads: int = 1) -> list[CensusReport]:
    """Run the full battery over all complexes on up to max_n vertices.

    `max_n` must be an integer in 1..MAX_CENSUS_GROUND and `threads` one in
    1..os.cpu_count(), neither a bool; `threads` above 1, with at least 16
    complexes, one process pool runs the per-complex battery for the whole run.

    Returns one report per invariant, in a fixed order; an invariant passed
    when its failure list is empty.
    """
    if not isinstance(max_n, int) or isinstance(max_n, bool) or not 1 <= max_n <= MAX_CENSUS_GROUND:
        raise ValueError(f"census supports 1 <= max_n <= {MAX_CENSUS_GROUND}")
    check_threads(threads)
    reps = [cx for n in range(1, max_n + 1) for cx in representatives(n)]
    if threads > 1 and len(reps) >= 16:
        import multiprocessing

        with multiprocessing.Pool(threads) as pool:
            results = pool.map(check_complex, reps, chunksize=max(1, len(reps) // (4 * threads)))
    else:
        results = [check_complex(cx) for cx in reps]
    rec = _Recorder()
    matroid_reps: dict[int, list[SimplicialComplex]] = {n: [] for n in range(1, max_n + 1)}
    for cx, (data, matroid) in zip(reps, results):
        for name, part in data.items():
            rec.add(name, part.checked, part.failures)
        if matroid:
            matroid_reps[cx.n].append(cx)
    _check_families(rec, matroid_reps)
    return [rec.data.get(name, CensusReport(name)) for name in BATTERY_ORDER]
