"""Seeded matroids for the tests, past what the census enumerates.

A sparse paving matroid of rank r on [n] is fixed by a family of r-subsets,
any two meeting in at most r - 2 elements: its circuit-hyperplanes.  Its
bases are every other r-subset, and every such family gives a matroid
(Oxley, Matroid Theory, 2.1.24).  Sparse paving matroids are conjectured to
be almost all matroids (Mayhew, Newman, Welsh & Whittle, European J.
Combin. 32, 2011), so they reach structure that the uniform, graphic and
partition families miss.
"""

import itertools
import random

from srt1.complexes import SimplicialComplex


def sparse_paving(n, r, seed):
    """The facets of a sparse paving matroid of rank r on [n] and its
    circuit-hyperplanes: seeded random r-sets, each kept when it meets every
    one kept before in at most r - 2 elements, tested on bitmasks."""
    rng = random.Random(f"sparse-paving:{n}:{r}:{seed}")
    subsets = list(itertools.combinations(range(1, n + 1), r))
    rng.shuffle(subsets)
    hyperplanes, masks = [], []
    for s in subsets:
        m = sum(1 << (v - 1) for v in s)
        if all((m & h).bit_count() <= r - 2 for h in masks):
            hyperplanes.append(s)
            masks.append(m)
    kept = set(hyperplanes)
    return [s for s in itertools.combinations(range(1, n + 1), r) if s not in kept], hyperplanes


def sparse_paving_matroid(n, r, seed):
    """The sparse paving matroid of `sparse_paving` as a complex."""
    return SimplicialComplex.from_facets(n, sparse_paving(n, r, seed)[0])


def less_two_bases(n, r, seed):
    """The sparse paving matroid of `sparse_paving` less two of its bases
    that share r - 1 elements, each replaced by its (r - 1)-subsets: no
    matroid, as the exchange between them fails."""
    bases, _ = sparse_paving(n, r, seed)
    rng = random.Random(f"less-two-bases:{n}:{r}:{seed}")
    first = rng.choice(bases)
    found = set(bases)
    pairs = [
        b
        for v in first
        for u in range(1, n + 1)
        if u not in first and (b := tuple(sorted(set(first) - {v} | {u}))) in found
    ]
    second = rng.choice(pairs)
    drops = {first, second}
    kept = [b for b in bases if b not in drops]
    below = {tuple(x for x in d if x != u) for d in drops for u in d}
    return SimplicialComplex.from_facets(n, kept + sorted(below))
