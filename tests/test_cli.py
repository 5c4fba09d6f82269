import itertools
import json
import os
import random
import re
import runpy
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import srt1
from srt1 import census, cli
from srt1.complexes import SimplicialComplex
from srt1.cotangent import MultiDegree, t1_table
from srt1.matroids import uniform
from srt1.recognition import formula_discrepancies

from test_dim_t1_rules import random_complex

REMARK_DOC = {"n": 5, "minimal_nonfaces": [[1, 2], [1, 3], [2, 3, 4], [2, 3, 5], [1, 4, 5]]}
U32_DOC = {"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}
# the non-matroid of the README: a triangle boundary beside a disjoint edge
README_DOC = {"n": 5, "facets": [[1, 2], [1, 3], [2, 3], [4, 5]]}


@pytest.fixture
def u32(tmp_path):
    p = tmp_path / "u32.json"
    p.write_text(json.dumps(U32_DOC))
    return str(p)


@pytest.fixture
def remark(tmp_path):
    p = tmp_path / "remark.json"
    p.write_text(json.dumps(REMARK_DOC))
    return str(p)


def run_ok(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every `srt1` process imports srt1.cli first; with no bytecode cache
    # each module it loads is compiled again, so the set stays small
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import srt1.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_cli_import_loads_no_census():
    # only the census subcommand imports the census; its limits, which
    # argparse checks for every subcommand, live in srt1.complexes
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import srt1.cli, sys; print('srt1.census' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    assert out == "False\n"


# the srt1 modules in sys.modules after each subcommand: each module loads on
# first use of a name it owns, so a subcommand loads only what it runs;
# `reconstruct` verifies through the walk of `cotangent`, and `rigidity`
# decides an empty table by its facet count, with no matroid oracle
_BASE = ["srt1", "srt1.cli", "srt1.complexes"]
_T1 = _BASE + ["srt1.cotangent"]
_RECOGNITION = _T1 + ["srt1.recognition"]
LOADED = {
    "help": (["--help"], _BASE),
    "circuits": (["circuits", "{cx}"], _BASE),
    "exchange": (["is-matroid", "{cx}", "--method", "exchange"], _BASE + ["srt1.matroids"]),
    "t1": (["t1", "{cx}"], _T1),
    "rigidity": (["rigidity", "{cx}"], _T1),
    "rigidity-discrete": (["rigidity", "{discrete}"], _T1),
    "rigidity-rigid": (["rigidity", "{rigid}"], _T1),
    "is-matroid-t1": (["is-matroid", "{cx}", "--method", "t1"], _RECOGNITION),
    "discrepancies": (["discrepancies", "{cx}"], _RECOGNITION),
    "reconstruct": (["reconstruct", "{table}"], _T1 + ["srt1.reconstruction"]),
    "census": (
        ["census", "--max-n", "1", "--threads", "1"],
        _RECOGNITION + ["srt1.census", "srt1.definition", "srt1.matroids", "srt1.reconstruction"],
    ),
}
# the complexes of the two rigidity rows: a simplex with loops, and a
# non-matroid with an empty table
DISCRETE_DOC = {"n": 3, "facets": [[3]]}
RIGID_DOC = {"n": 3, "facets": [[1], [2, 3]]}


@pytest.mark.parametrize("argv, loaded", LOADED.values(), ids=LOADED)
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, loaded):
    paths = {}
    for name, doc in (("cx", U32_DOC), ("discrete", DISCRETE_DOC), ("rigid", RIGID_DOC)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["table"] = tmp_path / "table.json"
    paths["table"].write_text(
        json.dumps(t1_table(SimplicialComplex.from_json_dict(U32_DOC)).to_json_dict())
    )
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from srt1 import cli\n"
        "try:\n"
        "    cli.main(sys.argv[1:])\n"
        "finally:\n"
        "    print(*sorted(m for m in sys.modules if m.split('.')[0] == 'srt1'), file=sys.stderr)\n"
    )
    err = subprocess.run(
        [sys.executable, "-S", "-c", code, *(a.format(**paths) for a in argv)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stderr
    assert err.split() == sorted(loaded)


def test_subcommands_on_eight_vertices_build_no_two_byte_table(tmp_path):
    # the order key and the decoder of 9 to 16 vertices are tables made on
    # first use; a process that sees only one-byte masks makes none of them
    matroid, graph = tmp_path / "u83.json", tmp_path / "path8.json"
    matroid.write_text(json.dumps(uniform(8, 3).to_json_dict()))
    graph.write_text(json.dumps({"n": 8, "facets": [[v, v + 1] for v in range(1, 8)]}))
    table = tmp_path / "table.json"
    table.write_text(json.dumps(t1_table(uniform(8, 3)).to_json_dict()))
    runs = [["reconstruct", str(table)]]
    for cx in (matroid, graph):
        runs += [["t1", str(cx)], ["circuits", str(cx)], ["is-matroid", str(cx), "--method", "t1"]]
        runs += [["discrepancies", str(cx)]]
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import json, sys\n"
        "from srt1 import cli, complexes\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    cli.main(argv)\n"
        "made = complexes._width_rules.cache_info().currsize\n"
        "complexes._width_rules(1)\n"
        "print(made, complexes._width_rules.cache_info().currsize, file=sys.stderr)\n"
    )
    err = subprocess.run(
        [sys.executable, "-S", "-c", code, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stderr
    # one pair of rules is made, width 1's, for the complexes: asking for
    # width 1 afterwards makes no second one
    assert err.split() == ["1", "1"]


# -- parse_degree ---------------------------------------------------------------


def test_parse_degree():
    assert cli.parse_degree("1;2") == MultiDegree((1,), (2,))
    assert cli.parse_degree(";4,5") == MultiDegree((), (4, 5))
    assert cli.parse_degree("2,1;") == MultiDegree((1, 2), ())
    assert cli.parse_degree(" 1 , 3 ; 2 ") == MultiDegree((1, 3), (2,))
    assert cli.parse_degree("010;2") == MultiDegree((10,), (2,))


def test_parse_degree_errors():
    with pytest.raises(ValueError, match="exactly one"):
        cli.parse_degree("1,2")
    with pytest.raises(ValueError, match="exactly one"):
        cli.parse_degree("1;2;3")
    with pytest.raises(ValueError, match="overlap"):
        cli.parse_degree("1;1")
    with pytest.raises(ValueError, match="non-integer"):
        cli.parse_degree("a;2")
    with pytest.raises(ValueError, match="positive"):
        cli.parse_degree("0;2")


@pytest.mark.parametrize(
    "text, side, token",
    [
        ("1_0;2", "A", "1_0"),
        ("\u0663;2", "A", "\u0663"),  # ARABIC-INDIC DIGIT THREE
        ("1;\uff12", "b", "\uff12"),  # FULLWIDTH DIGIT TWO
        ("\u00b2;1", "A", "\u00b2"),  # SUPERSCRIPT TWO
        ("+3;1", "A", "+3"),
        ("1,,2;3", "A", ""),
        ("1;2 3", "b", "2 3"),
    ],
)
def test_parse_degree_reads_only_ascii_decimal_vertices(text, side, token):
    # int() reads "1_0" as 10 and "\u0663" as 3; a vertex is [0-9]+ alone
    message = f"degree side {side}: non-integer token {token!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cli.parse_degree(text)


# -- t1 ------------------------------------------------------------------------


def test_t1_full_table_json(capsys, u32):
    doc = json.loads(run_ok(capsys, ["t1", u32]))
    assert doc["n"] == 3
    assert {"A": [], "b": [1, 2, 3], "dim": 1} in doc["entries"]
    assert len(doc["entries"]) == 7


def test_t1_single_degree(capsys, u32):
    out = run_ok(capsys, ["t1", u32, "--degree", ";1,2,3"])
    assert json.loads(out) == {"A": [], "b": [1, 2, 3], "dim": 1}
    out = run_ok(capsys, ["t1", u32, "--degree", "1;2"])
    assert json.loads(out) == {"A": [1], "b": [2], "dim": 0}


def test_t1_tsv(capsys, tmp_path):
    p = tmp_path / "cx.json"
    p.write_text(json.dumps({"n": 3, "facets": [[1, 3], [2, 3]]}))
    out = run_ok(capsys, ["t1", str(p), "--format", "tsv"])
    assert out == "A\tb\tdim\n\t1,2\t1\n3\t1,2\t1\n"
    out = run_ok(capsys, ["t1", str(p), "--format", "tsv", "--degree", "3;1,2"])
    assert out == "3\t1,2\t1\n"


def test_t1_threads_deterministic(capsys, remark):
    one = run_ok(capsys, ["t1", remark, "--threads", "1"])
    every_core = run_ok(capsys, ["t1", remark, "--threads", str(os.cpu_count() or 1)])
    assert one == every_core


# in one process per hash seed, so that no output may follow the order of a
# dict or set that the seed changes
HASH_SEED_RUNS = """
import json, sys
from srt1 import cli
for argv in json.loads(sys.argv[1]):
    print("$", *argv, flush=True)
    print("exit", cli.main(argv), flush=True)
"""


def test_output_is_the_same_under_every_hash_seed(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    # the README examples, and from the digest corpus a matroid with a loop and
    # a coloop and the 12-vertex path
    docs = [U32_DOC, REMARK_DOC, README_DOC]
    docs.append({"n": 6, "facets": [[a, b, 5] for a in (1, 2) for b in (3, 4)]})
    docs.append({"n": 12, "facets": [[v, v + 1] for v in range(1, 12)]})
    threads = sorted({1, min(2, os.cpu_count() or 1)})
    runs = []
    for i, doc in enumerate(docs):
        cx_path, table_path = tmp_path / f"cx{i}.json", tmp_path / f"table{i}.json"
        cx_path.write_text(json.dumps(doc))
        table = t1_table(SimplicialComplex.from_json_dict(doc)).to_json_dict()
        table_path.write_text(json.dumps(table))
        for fmt in ("json", "tsv"):
            runs += [["t1", str(cx_path), "--format", fmt, "--threads", str(t)] for t in threads]
        runs += [["discrepancies", str(cx_path)], ["reconstruct", str(table_path)]]
    outs = [
        subprocess.run(
            [sys.executable, "-c", HASH_SEED_RUNS, json.dumps(runs)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=120,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0] == outs[1]
    # reconstruct fails on the tables of the three non-matroids, the remark's,
    # the README's and the path's
    assert outs[0].count(b"exit 0") == len(runs) - 3


@pytest.mark.parametrize("threads", [0, (os.cpu_count() or 1) + 1])
@pytest.mark.parametrize("argv", [["t1", "/nonexistent/x.json"], ["census", "--max-n", "1"]])
def test_threads_out_of_range_exit_2(capsys, argv, threads):
    # rejected while parsing: the missing file is never opened, no pool starts
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--threads", str(threads)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


# -- is-matroid -------------------------------------------------------------------


def test_is_matroid_methods(capsys, u32, remark):
    for method in ("exchange", "circuits", "unique-min", "t1"):
        assert run_ok(capsys, ["is-matroid", u32, "--method", method]) == "true\n"
    for method in ("exchange", "circuits", "unique-min"):
        assert run_ok(capsys, ["is-matroid", remark, "--method", method]) == "false\n"


def test_is_matroid_t1_witness(capsys, remark):
    out = run_ok(capsys, ["is-matroid", remark, "--method", "t1"])
    lines = out.splitlines()
    assert lines[0] == "false"
    assert lines[1].startswith("witness: vertex 1")


def test_is_matroid_t1_witness_is_first_singleton_discrepancy(capsys, tmp_path):
    p = tmp_path / "readme.json"
    p.write_text(json.dumps(README_DOC))
    out = run_ok(capsys, ["is-matroid", str(p), "--method", "t1"])
    cx = SimplicialComplex.from_json_dict(README_DOC)
    first = next(d for d in formula_discrepancies(cx) if not d.degree.A and len(d.degree.b) == 1)
    assert out == (
        f"false\nwitness: vertex {first.degree.b[0]} "
        f"(graph {first.graph_dim}, formula {first.formula_dim})\n"
    )
    assert out == "false\nwitness: vertex 1 (graph 1, formula 2)\n"


# -- discrepancies ------------------------------------------------------------------


def test_discrepancies(capsys, remark, u32):
    doc = json.loads(run_ok(capsys, ["discrepancies", remark]))
    assert {"A": [], "b": [1], "graph_dim": 0, "formula_dim": 2} in doc["discrepancies"]
    doc = json.loads(run_ok(capsys, ["discrepancies", u32]))
    assert doc == {"n": 3, "discrepancies": []}


# -- reconstruct --------------------------------------------------------------------


def test_reconstruct_roundtrip(capsys, u32, tmp_path):
    table_out = run_ok(capsys, ["t1", u32])
    table_path = tmp_path / "table.json"
    table_path.write_text(table_out)
    doc = json.loads(run_ok(capsys, ["reconstruct", str(table_path)]))
    assert doc == {"n": 3, "facets": [[1, 2], [1, 3], [2, 3]]}


def test_reconstruct_discrete_is_error(capsys, tmp_path):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"n": 3, "entries": []}))
    assert cli.main(["reconstruct", str(p)]) == 1
    err = capsys.readouterr().err
    assert "DiscreteAmbiguous" in err


def test_reconstruct_reads_shuffled_rows_alike(capsys, tmp_path):
    # a table document's rows may come in any order: the same complex, or
    # the same error, as from the canonical document
    rng = random.Random(16)
    tables = [
        t1_table(SimplicialComplex.from_json_dict(doc)).to_json_dict()
        for doc in (U32_DOC, REMARK_DOC, README_DOC)
    ]
    m = uniform(3, 2) * uniform(1, 1) * uniform(1, 0)
    tables.append(t1_table(m).to_json_dict())
    tables.append(t1_table(uniform(5, 2)).to_json_dict())
    for i in range(len(tables[-1]["entries"])):
        broken = [dict(e, dim=e["dim"] + (j == i)) for j, e in enumerate(tables[-1]["entries"])]
        tables.append({"n": 5, "entries": broken})
    # U(4, 2) with the loop 5, whose rank-one groups at A = {1} and {2} each
    # name the loop: the first group in canonical order is reported
    entries = t1_table(uniform(4, 2) * uniform(1, 0)).to_json_dict()["entries"]
    entries = [e for e in entries if e["A"] not in ([1], [2])]
    entries += [{"A": [1], "b": [2, 5], "dim": 1}, {"A": [2], "b": [1, 5], "dim": 1}]
    tables.append({"n": 5, "entries": entries})
    p = tmp_path / "table.json"
    errors = []
    for doc in tables:
        p.write_text(json.dumps(doc))
        code = cli.main(["reconstruct", str(p)])
        want = (code, capsys.readouterr())
        errors.append(want[1].err)
        entries = doc["entries"]
        for _ in range(5):
            p.write_text(json.dumps(dict(doc, entries=rng.sample(entries, len(entries)))))
            assert (cli.main(["reconstruct", str(p)]), capsys.readouterr()) == want, doc
    assert [e == "" for e in errors[:5]] == [True, False, False, True, True]
    assert errors[-1] == "error [NotAMatroidTable]: pair entry (2, 5) leaves the ground set\n"


# -- rigidity -----------------------------------------------------------------------


def test_rigidity_discrete(capsys, tmp_path):
    p = tmp_path / "d.json"
    p.write_text(json.dumps(DISCRETE_DOC))
    assert run_ok(capsys, ["rigidity", str(p)]) == "DISCRETE\n"


def test_rigidity_rigid_nonmatroid(capsys, tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps(RIGID_DOC))
    assert run_ok(capsys, ["rigidity", str(p)]) == "RIGID\n"


def test_rigidity_nonrigid(capsys, u32):
    out = run_ok(capsys, ["rigidity", u32])
    assert out == "NONRIGID ;1,2 dim=1\n"


def test_rigidity_names_the_first_row_of_the_table(capsys, tmp_path, reps5):
    # a nonempty table prints its first row in the order of `items`, over
    # the census classes and seeded random complexes
    rng = random.Random(36)
    cases = [cx for n in reps5 for cx in reps5[n]] + [random_complex(rng) for _ in range(100)]
    p = tmp_path / "cx.json"
    nonrigid = 0
    for cx in cases:
        rows = t1_table(cx).items()
        if not rows:
            continue
        (degree, dim) = rows[0]
        p.write_text(json.dumps(cx.to_json_dict()))
        out = run_ok(capsys, ["rigidity", str(p)])
        assert out == f"NONRIGID {cli.format_degree(degree)} dim={dim}\n", cx
        nonrigid += 1
    assert nonrigid == 262


def test_rigidity_decodes_only_the_degree_it_prints(capsys, tmp_path, monkeypatch):
    p = tmp_path / "u84.json"
    p.write_text(json.dumps(uniform(8, 4).to_json_dict()))
    made = []
    new = MultiDegree.__new__
    monkeypatch.setattr(
        MultiDegree, "__new__", lambda cls, *args: made.append(args) or new(cls, *args)
    )
    assert run_ok(capsys, ["rigidity", str(p)]) == "NONRIGID ;1 dim=34\n"
    assert len(made) <= 1


# -- circuits -----------------------------------------------------------------------


def test_circuits_output_loads_back(capsys, remark):
    doc = json.loads(run_ok(capsys, ["circuits", remark]))
    assert doc == {
        "n": 5,
        "minimal_nonfaces": [[1, 2], [1, 3], [1, 4, 5], [2, 3, 4], [2, 3, 5]],
    }
    assert SimplicialComplex.from_json_dict(doc) == SimplicialComplex.from_json_dict(REMARK_DOC)


# -- census -------------------------------------------------------------------------


def test_census_small(capsys):
    assert cli.main(["census", "--max-n", "2", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS antichain" in out
    assert out.strip().endswith("max_n=2")


def test_census_reports_a_failing_invariant(capsys, monkeypatch):
    # a nonface dimension one too high fails that invariant alone: its line
    # lists at most five failures, indented, every other invariant passes,
    # and the summary and the exit code say the census failed
    nonface = census.dim_t1_nonface
    monkeypatch.setattr(census, "dim_t1_nonface", lambda cx, b: nonface(cx, b) + 1)
    assert cli.main(["census", "--max-n", "3", "--threads", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("FAIL"))
    assert re.fullmatch(r"FAIL nonface-dimension \(checked=\d+\)", lines[at])
    failures = list(itertools.takewhile(lambda line: line.startswith("  "), lines[at + 1 :]))
    assert 1 <= len(failures) <= 5
    rest = lines[:at] + lines[at + 1 + len(failures) : -1]
    assert rest and all(line.startswith("PASS ") for line in rest)
    assert lines[-1].startswith("census FAILED:")


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs two CPUs")
def test_census_threads_same_bytes(capsys):
    one = run_ok(capsys, ["census", "--max-n", "4", "--threads", "1"])
    assert run_ok(capsys, ["census", "--max-n", "4", "--threads", "2"]) == one


# -- error handling -----------------------------------------------------------------


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["t1"])  # missing file argument
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--max-n", "9"])
    assert exc.value.code == 2


def test_missing_file_exit_1(capsys):
    assert cli.main(["t1", "/nonexistent/x.json"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_names_key(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 3}))
    assert cli.main(["t1", str(p)]) == 1
    assert "'facets'" in capsys.readouterr().err

    p.write_text("{not json")
    assert cli.main(["t1", str(p)]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    p.write_text(json.dumps({"n": 2, "entries": [{"A": [], "b": []}]}))
    assert cli.main(["reconstruct", str(p)]) == 1
    assert "entries[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"n": 21, "minimal_nonfaces": [[1, 2]]},
            "key 'minimal_nonfaces': ground size 21 exceeds limit 20",
        ),
        ({"n": 3, "facets": [[1, 4]]}, "key 'facets': vertex 4 out of range 1..3"),
    ],
    ids=["minimal_nonfaces", "facets"],
)
def test_complex_parse_error_keeps_its_kind(capsys, tmp_path, doc, message):
    p = tmp_path / "cx.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["t1", str(p)]) == 1
    assert capsys.readouterr().err == f"error [VertexRange]: {message}\n"


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"A": ["x"], "b": [1], "dim": 1}, "key 'entries[0]': vertex 'x' is not an integer"),
        ({"A": [], "b": [[1], 2], "dim": 1}, "key 'entries[0]': vertex [1] is not an integer"),
        ({"A": [], "b": [4], "dim": 1}, "key 'entries[0]': vertex 4 out of range 1..3"),
    ],
    ids=["string", "list", "range"],
)
def test_table_vertex_error_keeps_its_kind(capsys, tmp_path, entry, message):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"n": 3, "entries": [entry]}))
    assert cli.main(["reconstruct", str(p)]) == 1
    assert capsys.readouterr().err == f"error [VertexRange]: {message}\n"


def test_reconstruct_checks_the_ground_before_reading_entries(capsys, tmp_path, monkeypatch):
    # a document on 2^40 vertices stops at its ground size: no entry is
    # packed, so no mask of 2^40 bits is asked for
    def spy(doc):
        raise AssertionError("the entries were read before the ground check")

    monkeypatch.setattr(srt1.T1Table, "from_json_dict", spy)
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"n": 2**40, "entries": [{"A": [], "b": [1, 2**40], "dim": 1}]}))
    start = time.perf_counter()
    assert cli.main(["reconstruct", str(p)]) == 1
    assert time.perf_counter() - start < 1
    want = f"error [VertexRange]: ground size {2**40} exceeds limit 64\n"
    assert capsys.readouterr().err == want


def test_table_bad_n_names_key_n(capsys, tmp_path):
    p = tmp_path / "table.json"
    p.write_text(json.dumps({"n": -1, "entries": []}))
    assert cli.main(["reconstruct", str(p)]) == 1
    assert capsys.readouterr().err == "error: key 'n': must be a nonnegative integer\n"


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["reconstruct"], [1, 2], "error: table document must be a JSON object"),
        (["reconstruct"], {"n": 2, "entries": {}}, "error: key 'entries': must be a list"),
        (["reconstruct"], {"n": 2, "entries": [3]}, "error: key 'entries[0]': must be an object"),
        (
            ["reconstruct"],
            {"n": 2, "entries": [{"A": 1, "b": [2], "dim": 1}]},
            "error: key 'entries[0]': A and b must be lists",
        ),
        (
            ["reconstruct"],
            {
                "n": 3,
                "entries": [
                    {"A": [1], "b": [3], "dim": 1},
                    {"A": [2], "b": [3], "dim": 1},
                    {"A": [1, 2], "b": [3], "dim": 1},
                ],
            },
            "error [NotAMatroidTable]: no entry survives removing coloop support",
        ),
        (["t1"], [1, 2], "error: complex document must be a JSON object"),
    ],
    ids=["table-array", "entries-object", "entry-number", "A-number", "coloops", "complex-array"],
)
def test_input_check_messages(capsys, tmp_path, argv, doc, message):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    assert cli.main(argv + [str(p)]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_threads_not_an_integer_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["t1", "/nonexistent/x.json", "--threads", "abc"])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_degree_error_exit_1(capsys, u32):
    assert cli.main(["t1", u32, "--degree", "1;1"]) == 1
    assert "overlap" in capsys.readouterr().err


def test_degree_with_a_non_decimal_vertex_exit_1(capsys, u32):
    for degree, token in [("1_0;2", "'1_0'"), ("\u0663;2", "'\u0663'")]:
        assert cli.main(["t1", u32, "--degree", degree]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: degree side A: non-integer token {token}\n")


@pytest.mark.parametrize("module", ["srt1", "srt1.cli"])
def test_run_as_main_module(capsys, monkeypatch, remark, module):
    # `python -m srt1` and `python -m srt1.cli`, in this process: each exits
    # by `console_entry`, 0 on a readable file and 1 on a missing one
    want = run_ok(capsys, ["circuits", remark])
    for path, code in [(remark, 0), (remark + ".missing", 1)]:
        monkeypatch.setattr(sys, "argv", [module, "circuits", path])
        with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
            # srt1.cli is imported with the package before it runs as __main__
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        assert exc.value.code == code
        out, err = capsys.readouterr()
        assert (out, bool(err)) == ((want, False) if code == 0 else ("", True))
