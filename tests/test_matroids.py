import itertools
import random

import pytest

from srt1 import cotangent, matroids, recognition
from srt1.complexes import SimplicialComplex, VertexRangeError, VoidComplexError, unpack
from srt1.matroids import (
    NotAMatroidError,
    is_discrete,
    is_matroid_circuit_elimination,
    is_matroid_exchange,
    is_matroid_unique_min,
    uniform,
)

from _census_reps import representatives
from _oracles import naive_circuit_elimination, naive_is_matroid, naive_unique_min

ORACLES = (is_matroid_exchange, is_matroid_circuit_elimination, is_matroid_unique_min)

REMARK = SimplicialComplex.from_minimal_nonfaces(
    5, [[1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5]]
)


def all_complexes(n):
    """Every complex on [n], one per facet antichain (brute force, small n)."""
    masks = list(range(1, 1 << n))
    for bits in range(1 << len(masks)):
        chosen = [unpack(masks[i]) for i in range(len(masks)) if bits >> i & 1]
        yield SimplicialComplex.from_facets(n, chosen)


def test_uniform_shape():
    u = uniform(4, 2)
    assert u.facets == tuple(itertools.combinations(range(1, 5), 2))
    assert u.minimal_nonfaces() == list(itertools.combinations(range(1, 5), 3))
    assert uniform(3, 0).faces() == [()]
    assert uniform(3, 3).rank == 3
    with pytest.raises(ValueError):
        uniform(2, 3)
    with pytest.raises(ValueError):
        uniform(2, -1)


@pytest.mark.parametrize("n, k", [(2.0, 1), (3, True), (True, 0), (3, 1.0), ("3", 1), (3, None)])
def test_uniform_needs_integers(n, k):
    with pytest.raises(ValueError, match="needs integers n and k"):
        uniform(n, k)


@pytest.mark.parametrize("n, k", [(65, 2), (80, 40)])
def test_uniform_checks_the_ground_size_before_enumerating(monkeypatch, n, k):
    def enumerate_nothing(*args):
        raise AssertionError(f"combinations{args} was called")

    monkeypatch.setattr(matroids.itertools, "combinations", enumerate_nothing)
    with pytest.raises(VertexRangeError, match=f"^ground size {n} exceeds limit 64$"):
        uniform(n, k)


def test_known_matroids():
    for m in [uniform(4, 2), uniform(5, 1), uniform(3, 3), uniform(2, 0),
              uniform(2, 1) * uniform(2, 1),
              SimplicialComplex.from_facets(3, [[1, 3], [2, 3]])]:
        for oracle in ORACLES:
            assert oracle(m), oracle.__name__


def test_known_nonmatroids():
    # {1,2} and {3} cannot exchange
    bad = SimplicialComplex.from_facets(3, [[1, 2], [3]])
    for oracle in ORACLES:
        assert not oracle(bad), oracle.__name__
        assert not oracle(REMARK), oracle.__name__


def test_remark_unique_min_witness():
    # the face {2,4,5} in N_1 contains two minimal members, {2} and {4,5}
    from srt1.definition import n_del

    nv = n_del(REMARK, [1])
    assert (2, 4, 5) in nv
    minimal = [f for f in nv if not any(set(g) < set(f) for g in nv)]
    inside = [m for m in minimal if set(m) <= {2, 4, 5}]
    assert sorted(inside) == [(2,), (4, 5)]


def test_oracles_agree_with_naive_exchange_n3():
    for cx in all_complexes(3):
        want = naive_is_matroid(cx)
        for oracle in ORACLES:
            assert oracle(cx) == want, (oracle.__name__, cx.facets)


def test_oracles_agree_on_4_vertex_sample():
    # spot sample of the 4-vertex complexes; the census covers them all
    sample = [
        SimplicialComplex.from_facets(4, [[1, 2, 3], [2, 3, 4]]),
        SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]]),
        SimplicialComplex.from_facets(4, [[1], [2], [3], [4]]),
        SimplicialComplex.from_facets(4, [[1, 2, 3, 4]]),
        SimplicialComplex.from_facets(4, [[1, 2], [3]]),
        uniform(4, 3),
    ]
    for cx in sample:
        want = naive_is_matroid(cx)
        for oracle in ORACLES:
            assert oracle(cx) == want, (oracle.__name__, cx.facets)


def test_void_rejected():
    for oracle in ORACLES:
        with pytest.raises(VoidComplexError):
            oracle(SimplicialComplex.void(2))


def test_irrelevant_complex_is_matroid():
    # {emptyset} is U(n, 0)
    cx = SimplicialComplex.from_facets(2, [])
    for oracle in ORACLES:
        assert oracle(cx)
    assert is_discrete(cx)


def test_is_discrete():
    assert is_discrete(uniform(3, 3))
    assert is_discrete(uniform(3, 0))
    assert is_discrete(uniform(2, 2) * uniform(2, 0))
    assert not is_discrete(uniform(2, 1))
    assert not is_discrete(uniform(4, 2))
    with pytest.raises(NotAMatroidError):
        is_discrete(REMARK)


def random_complexes(count, seed):
    """Seeded complexes on 6 to 8 vertices: some of the k-subsets of [n], and
    half the time a few facets of other sizes beside them."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(6, 8)
        k = rng.randint(1, n - 1)
        subsets = list(itertools.combinations(range(1, n + 1), k))
        facets = rng.sample(subsets, rng.randint(1, len(subsets)))
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                facets.append(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
        out.append(SimplicialComplex.from_facets(n, facets))
    return out


def uniform_less_bases(max_n):
    """U(n, k) for n <= max_n less the basis [k], and, when n > k, less [k]
    and the basis [k - 1] + {k + 1} that shares k - 1 of its elements."""
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            one = [tuple(range(1, k + 1))]
            two = one + [tuple(range(1, k)) + (k + 1,)]
            for drop in (one, two) if n > k else (one,):
                bases = [b for b in itertools.combinations(range(1, n + 1), k) if b not in drop]
                # the (k - 1)-faces of a dropped basis stay faces
                ridges = [r for b in drop for r in itertools.combinations(b, k - 1)]
                yield SimplicialComplex.from_facets(n, bases + ridges)


DIFFERENTIAL_CASES = {
    "census": [cx for n in range(1, 6) for cx in representatives(n)],
    "random": random_complexes(160, seed=29),
    "uniform-less-bases": list(uniform_less_bases(8)),
}


@pytest.mark.parametrize(
    "oracle, axiom",
    [
        (is_matroid_exchange, naive_is_matroid),
        (is_matroid_circuit_elimination, naive_circuit_elimination),
        (is_matroid_unique_min, naive_unique_min),
    ],
    ids=["exchange", "circuit-elimination", "unique-min"],
)
@pytest.mark.parametrize("family", DIFFERENTIAL_CASES)
def test_each_oracle_agrees_with_its_axiom(oracle, axiom, family):
    # each oracle against its own axiom, written over frozensets with the
    # full quantifiers, not against the other oracles
    cases = DIFFERENTIAL_CASES[family]
    verdicts = [axiom(cx) for cx in cases]
    for cx, want in zip(cases, verdicts):
        fresh = SimplicialComplex(cx.n, cx.facet_masks)
        assert oracle(fresh) == want, (oracle.__name__, cx.n, cx.facets)
    # both verdicts occur in every family
    assert len(set(verdicts)) == 2


def test_the_differential_families_have_their_sizes():
    assert len(DIFFERENTIAL_CASES["census"]) == 253
    assert {cx.n for cx in DIFFERENTIAL_CASES["random"]} == {6, 7, 8}
    assert len(DIFFERENTIAL_CASES["random"]) >= 150


def test_the_oracles_bind_nothing_from_the_engine():
    # the oracles are checks on the T1 engine, so they import none of it
    engine = {cotangent.__name__, recognition.__name__}
    bound = {
        name
        for name, obj in vars(matroids).items()
        if getattr(obj, "__name__", None) in engine or getattr(obj, "__module__", None) in engine
    }
    assert bound == set()


@pytest.mark.parametrize("oracle", ORACLES, ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "cx", [uniform(6, 3), SimplicialComplex.from_facets(4, [[1, 2], [3, 4]])],
    ids=["U(6,3)", "two-disjoint-edges"],
)
def test_the_oracles_read_no_link(monkeypatch, oracle, cx):
    calls = []
    for name in ("_read_link", "_vertex_dims", "_graph_dims"):
        real = getattr(cotangent, name)
        monkeypatch.setattr(
            cotangent, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    oracle(SimplicialComplex(cx.n, cx.facet_masks))
    assert calls == []
