"""Reading a table document: each fault keeps its exception type and its
message wherever it stands in the document, and a well-formed document is
read with no call to `pack`."""

import enum
import random

import pytest

from _output_digest import complete_graph_matroid
from srt1 import cotangent, reconstruction
from srt1.complexes import VertexRangeError
from srt1.cotangent import T1Table, t1_table
from srt1.matroids import uniform
from srt1.reconstruction import classify_loops_coloops

# U(5, 2) on 5 vertices, 25 rows, and M(K4) on 6, 84 rows; both hold (0, {1})
MATROIDS = {"U(5,2)": uniform(5, 2), "M(K4)": complete_graph_matroid(4)}

DIM = "dimension must be a positive integer"

# (malformed entry, exception type, message with the entry's index i and the ground size n)
FAULTS = [
    # vertex faults, in A or in b
    ({"A": [], "b": [True], "dim": 1}, VertexRangeError, "key 'entries[{i}]': vertex True is not an integer"),
    ({"A": [1.0], "b": [2], "dim": 1}, VertexRangeError, "key 'entries[{i}]': vertex 1.0 is not an integer"),
    ({"A": [], "b": ["1"], "dim": 1}, VertexRangeError, "key 'entries[{i}]': vertex '1' is not an integer"),
    ({"A": [2, None], "b": [1], "dim": 1}, VertexRangeError, "key 'entries[{i}]': vertex None is not an integer"),
    ({"A": [], "b": [[1]], "dim": 1}, VertexRangeError, "key 'entries[{i}]': vertex [1] is not an integer"),
    ({"A": [1], "b": [7], "dim": 1}, VertexRangeError, "key 'entries[{i}]': vertex 7 out of range 1..{n}"),
    ({"A": [0], "b": [2], "dim": 1}, VertexRangeError, "key 'entries[{i}]': vertex 0 out of range 1..{n}"),
    ({"A": [], "b": [-1], "dim": 0}, VertexRangeError, "key 'entries[{i}]': vertex -1 out of range 1..{n}"),
    ({"A": [2, 3], "b": [3, 1], "dim": 1}, ValueError, "key 'entries[{i}]': A and b overlap at vertex 3"),
    # entry faults
    ({"A": [], "b": [1]}, ValueError, "key 'entries[{i}].dim': missing"),
    ({"b": [1], "dim": 1}, ValueError, "key 'entries[{i}].A': missing"),
    ({"A": [], "dim": 1}, ValueError, "key 'entries[{i}].b': missing"),
    ({"A": (1,), "b": [2], "dim": 1}, ValueError, "key 'entries[{i}]': A and b must be lists"),
    ({"A": [], "b": "1", "dim": 1}, ValueError, "key 'entries[{i}]': A and b must be lists"),
    ([[], [1], 1], ValueError, "key 'entries[{i}]': must be an object"),
    (None, ValueError, "key 'entries[{i}]': must be an object"),
    # row faults, named by their degree and not by their index
    ({"A": [], "b": [1], "dim": 0}, ValueError, f"key 'entries': entry MultiDegree(A=(), b=(1,)): {DIM}"),
    ({"A": [2], "b": [1], "dim": True}, ValueError, f"key 'entries': entry MultiDegree(A=(2,), b=(1,)): {DIM}"),
    ({"A": [], "b": [1, 4], "dim": 1.5}, ValueError, f"key 'entries': entry MultiDegree(A=(), b=(1, 4)): {DIM}"),
    ({"A": [1], "b": [], "dim": 1}, ValueError, "key 'entries': entry MultiDegree(A=(1,), b=()): b must be nonempty"),
    ({"A": [], "b": [1, 1], "dim": 2}, ValueError, "key 'entries': entry MultiDegree(A=(), b=(1,)): duplicate degree"),
]


def shuffled_entries(m, rng):
    entries = t1_table(m).to_json_dict()["entries"]
    return rng.sample(entries, len(entries))


def raised(doc):
    with pytest.raises(ValueError) as info:
        T1Table.from_json_dict(doc)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(MATROIDS))
@pytest.mark.parametrize("entry, kind, message", FAULTS)
def test_each_fault_keeps_its_message_at_every_position(name, entry, kind, message):
    m = MATROIDS[name]
    entries = shuffled_entries(m, random.Random(27))
    for i in range(len(entries) + 1):
        doc = {"n": m.n, "entries": entries[:i] + [entry] + entries[i:]}
        assert raised(doc) == (kind, message.format(i=i, n=m.n)), i


@pytest.mark.parametrize("name", sorted(MATROIDS))
def test_a_vertex_fault_wins_over_an_earlier_row_fault(name):
    m = MATROIDS[name]
    rng = random.Random(28)
    entries = shuffled_entries(m, rng)
    row_faults = [f for f in FAULTS if f[2].startswith("key 'entries':")]
    vertex_faults = [f for f in FAULTS if f[1] is VertexRangeError or "overlap" in f[2]]
    entry_faults = [f for f in FAULTS if f not in row_faults and f not in vertex_faults]
    for _ in range(60):
        i, j = sorted(rng.sample(range(len(entries) + 2), 2))
        row, _, _ = rng.choice(row_faults)
        later, kind, message = rng.choice(vertex_faults + entry_faults)
        doc = {"n": m.n, "entries": entries[:i] + [row] + entries[i : j - 1] + [later] + entries[j - 1 :]}
        assert raised(doc) == (kind, message.format(i=j, n=m.n)), (i, j)
        # of two row faults, the first in the document is the one reported
        other, _, first = rng.choice([f for f in row_faults if "duplicate" not in f[2]])
        doc = {"n": m.n, "entries": entries[:i] + [other] + entries[i : j - 1] + [row] + entries[j - 1 :]}
        assert raised(doc) == (ValueError, first), (i, j)


class V(enum.IntEnum):
    ONE, TWO, THREE, FOUR, FIVE, SIX, SEVEN = range(1, 8)


def enum_doc(m):
    # every vertex and every dim an IntEnum member, as `pack` and `_check_row` accept
    entries = [
        {"A": [V(v) for v in e["A"]], "b": [V(v) for v in e["b"]], "dim": V(e["dim"]) if e["dim"] < 8 else e["dim"]}
        for e in t1_table(m).to_json_dict()["entries"]
    ]
    return {"n": m.n, "entries": entries}


@pytest.mark.parametrize("name", sorted(MATROIDS))
def test_int_enum_vertices_and_dims_are_accepted(name):
    m = MATROIDS[name]
    assert T1Table.from_json_dict(enum_doc(m)) == t1_table(m)
    doc = {"n": m.n, "entries": [{"A": [], "b": [V.ONE, V.SEVEN], "dim": 1}]}
    assert raised(doc) == (VertexRangeError, f"key 'entries[0]': vertex 7 out of range 1..{m.n}")


@pytest.fixture
def pack_calls(monkeypatch):
    calls = []
    real = cotangent.pack

    def counting(vertices, n):
        calls.append(vertices)
        return real(vertices, n)

    monkeypatch.setattr(cotangent, "pack", counting)
    return calls


def test_a_well_formed_document_is_read_without_pack(pack_calls):
    rng = random.Random(29)
    for m in list(MATROIDS.values()) + [uniform(6, 3) * uniform(2, 0) * uniform(1, 1)]:
        t = t1_table(m)
        assert T1Table.from_json_dict({"n": m.n, "entries": shuffled_entries(m, rng)}) == t
        assert pack_calls == []
    # the count sees `pack` when a vertex is no plain int
    m = MATROIDS["U(5,2)"]
    assert T1Table.from_json_dict(enum_doc(m)) == t1_table(m)
    assert len(pack_calls) == sum(len(e["A"]) + len(e["b"]) for e in enum_doc(m)["entries"])


def test_classify_sorts_the_rows_at_most_once(monkeypatch):
    # U(4, 2) with three loops (5, 6, 7) and three coloops (8, 9, 10): each of the
    # six is probed against the first row avoiding it, in one canonical order
    keys = []
    real = reconstruction._order_key

    def counting(n):
        keys.append(n)
        return real(n)

    monkeypatch.setattr(reconstruction, "_order_key", counting)
    m = uniform(4, 2) * uniform(3, 0) * uniform(3, 3)
    roles = classify_loops_coloops(t1_table(m))
    assert [roles[v] for v in range(1, 11)] == ["ordinary"] * 4 + ["loop"] * 3 + ["coloop"] * 3
    assert len(keys) <= 1
