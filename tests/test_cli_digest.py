"""Byte-for-byte output of the CLI over a fixed corpus, as one sha256.

Every subcommand that reads a complex runs in-process on the census classes
on at most 4 vertices and on a few larger complexes, and `reconstruct` reads
back the table `t1` printed.  The digest covers stdout, stderr and the exit
code of each run, so a refactor of the engine that changes any printed byte,
error message or verdict fails here.  When the output changes on purpose,
recompute DIGEST with `corpus_digest` and say why in the change.
"""

import contextlib
import hashlib
import io
import json

from srt1 import cli
from srt1.complexes import SimplicialComplex
from srt1.matroids import uniform

from _census_reps import representatives

DIGEST = "6d52840eb32f7024de9369422bb1c1c0a84075808372e52316a35237844db42c"

COMMANDS = [
    ["t1"],
    ["t1", "--format", "tsv"],
    ["discrepancies"],
    ["is-matroid", "--method", "t1"],
    ["rigidity"],
    ["circuits"],
]


def corpus():
    cxs = [cx for n in range(1, 5) for cx in representatives(n)]
    cxs.append(uniform(7, 3))
    cxs.append(SimplicialComplex.from_facets(12, [[v, v + 1] for v in range(1, 12)]))
    # blocks {1, 2} and {3, 4} of capacity one, 5 a coloop and 6 a loop
    cxs.append(SimplicialComplex.from_facets(6, [[a, b, 5] for a in (1, 2) for b in (3, 4)]))
    # the non-matroid of the README: a triangle boundary beside a disjoint edge
    cxs.append(SimplicialComplex.from_facets(5, [[1, 2], [1, 3], [2, 3], [4, 5]]))
    return cxs


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def corpus_digest(tmp_path):
    h = hashlib.sha256()
    cx_path, table_path = str(tmp_path / "cx.json"), str(tmp_path / "table.json")
    for cx in corpus():
        with open(cx_path, "w", encoding="utf-8") as fh:
            json.dump(cx.to_json_dict(), fh)
        runs = [run(cmd[:1] + [cx_path] + cmd[1:]) for cmd in COMMANDS]
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(runs[0][0])
        runs.append(run(["reconstruct", table_path]))
        for out, err, code in runs:
            h.update(json.dumps([out, err, code]).encode())
    return h.hexdigest()


def test_cli_corpus_digest(tmp_path):
    assert corpus_digest(tmp_path) == DIGEST
