"""Command line interface.

Exit codes: 0 on success, 1 on a domain error (bad input file, operation
undefined on the given complex, reconstruction failures), 2 on usage errors.
Output is deterministic for identical invocations regardless of --threads.
Library names are read through the package (`srt1.t1_table`, ...), so a
subcommand loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import srt1
from .complexes import MAX_CENSUS_GROUND, MAX_GROUND, SimplicialComplex, check_threads, unpack
from .complexes import _check_ground, _ground_size, _order_key


def parse_degree(text: str) -> srt1.MultiDegree:
    """Parse "a1,a2,...;b1,b2,..." into a support pair; either side may be empty."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError(f"degree {text!r} must contain exactly one ';'")

    def side(chunk: str, name: str) -> list[int]:
        chunk = chunk.strip()
        if not chunk:
            return []
        out = []
        for tok in chunk.split(","):
            tok = tok.strip()
            # ASCII digits alone: int() would also read "1_0" as 10 and "٣" as 3
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"degree side {name}: non-integer token {tok!r}")
            v = int(tok)
            if v < 1:
                raise ValueError(f"degree side {name}: vertex {v} must be positive")
            out.append(v)
        return out

    return srt1.MultiDegree.make(side(parts[0], "A"), side(parts[1], "b"))


def format_degree(d: srt1.MultiDegree) -> str:
    return ",".join(map(str, d.A)) + ";" + ",".join(map(str, d.b))


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def read_complex(path: str) -> SimplicialComplex:
    return SimplicialComplex.from_json_dict(_read_json(path))


def read_table(path: str) -> srt1.T1Table:
    doc = _read_json(path)
    if isinstance(doc, dict):  # the ground size first: no entry is packed past the limit
        _check_ground(_ground_size(doc), MAX_GROUND)
    return srt1.T1Table.from_json_dict(doc)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _cmd_t1(args) -> int:
    cx = read_complex(args.complex)
    if args.degree is not None:
        d = parse_degree(args.degree)
        dim = srt1.dim_t1(cx, d)
        if args.format == "tsv":
            a = ",".join(map(str, d.A))
            b = ",".join(map(str, d.b))
            sys.stdout.write(f"{a}\t{b}\t{dim}\n")
        else:
            _emit({"A": list(d.A), "b": list(d.b), "dim": dim})
        return 0
    table = srt1.t1_table(cx, threads=args.threads)
    if args.format == "tsv":
        sys.stdout.write(table.to_tsv())
    else:
        _emit(table.to_json_dict())
    return 0


# each --method with the public name of its test
_METHODS = {
    "exchange": "is_matroid_exchange",
    "circuits": "is_matroid_circuit_elimination",
    "unique-min": "is_matroid_unique_min",
    "t1": "is_matroid_via_t1",
}


def _cmd_is_matroid(args) -> int:
    cx = read_complex(args.complex)
    if args.method != "t1":
        sys.stdout.write("true\n" if getattr(srt1, _METHODS[args.method])(cx) else "false\n")
        return 0
    from .recognition import _first_singleton_discrepancy

    witness = _first_singleton_discrepancy(cx)
    if witness is None:
        sys.stdout.write("true\n")
    else:
        sys.stdout.write(
            f"false\nwitness: vertex {witness.degree.b[0]} "
            f"(graph {witness.graph_dim}, formula {witness.formula_dim})\n"
        )
    return 0


def _cmd_discrepancies(args) -> int:
    cx = read_complex(args.complex)
    rows = [
        {
            "A": list(d.degree.A),
            "b": list(d.degree.b),
            "graph_dim": d.graph_dim,
            "formula_dim": d.formula_dim,
        }
        for d in srt1.formula_discrepancies(cx)
    ]
    _emit({"n": cx.n, "discrepancies": rows})
    return 0


def _cmd_reconstruct(args) -> int:
    table = read_table(args.table)
    cx = srt1.reconstruct(table)
    _emit(cx.to_json_dict())
    return 0


def _cmd_rigidity(args) -> int:
    cx = read_complex(args.complex)
    table = srt1.t1_table(cx)
    if len(table) == 0:
        # a discrete matroid has one facet, any other matroid a nonzero degree
        sys.stdout.write("DISCRETE\n" if len(cx.facet_masks) == 1 else "RIGID\n")
        return 0
    from .cotangent import _least_row

    a, b, dim = _least_row(table._groups, _order_key(table.n), 0)  # the only row decoded
    first = srt1.MultiDegree(unpack(a), unpack(b))
    sys.stdout.write(f"NONRIGID {format_degree(first)} dim={dim}\n")
    return 0


def _cmd_circuits(args) -> int:
    cx = read_complex(args.complex)
    _emit({"n": cx.n, "minimal_nonfaces": [list(c) for c in cx.minimal_nonfaces()]})
    return 0


def _cmd_census(args) -> int:
    reports = srt1.run_census(args.max_n, threads=args.threads)
    ok = True
    for rep in reports:
        if rep.ok:
            sys.stdout.write(f"PASS {rep.name} (checked={rep.checked})\n")
        else:
            ok = False
            sys.stdout.write(f"FAIL {rep.name} (checked={rep.checked})\n")
            for f in rep.failures:
                sys.stdout.write(f"  {f}\n")
    total = sum(r.checked for r in reports)
    sys.stdout.write(
        f"census {'OK' if ok else 'FAILED'}: {len(reports)} invariants, "
        f"{total} checks, max_n={args.max_n}\n"
    )
    return 0 if ok else 1


def _thread_count(text: str) -> int:
    """--threads value: an integer from 1 to the CPU count (`check_threads`)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    try:
        return check_threads(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srt1",
        description="T1 cohomology dimensions of Stanley-Reisner rings, "
        "matroid recognition and reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_threads = os.cpu_count() or 1

    p = sub.add_parser("t1", help="print the T1 table, or one degree of it")
    p.add_argument("complex", help="complex JSON file")
    p.add_argument("--degree", help='single degree "a1,a2,...;b1,b2,..."')
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--threads", type=_thread_count, default=default_threads)
    p.set_defaults(func=_cmd_t1)

    p = sub.add_parser("is-matroid", help="test whether the complex is a matroid")
    p.add_argument("complex", help="complex JSON file")
    p.add_argument("--method", choices=tuple(_METHODS), required=True)
    p.set_defaults(func=_cmd_is_matroid)

    p = sub.add_parser("discrepancies", help="degrees where graph and formula differ")
    p.add_argument("complex", help="complex JSON file")
    p.set_defaults(func=_cmd_discrepancies)

    p = sub.add_parser("reconstruct", help="rebuild a matroid from its T1 table")
    p.add_argument("table", help="table JSON file")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("rigidity", help="report DISCRETE, RIGID or the first nonzero degree")
    p.add_argument("complex", help="complex JSON file")
    p.set_defaults(func=_cmd_rigidity)

    p = sub.add_parser("circuits", help="print the minimal nonfaces")
    p.add_argument("complex", help="complex JSON file")
    p.set_defaults(func=_cmd_circuits)

    p = sub.add_parser("census", help="validate all invariants over small complexes")
    p.add_argument("--max-n", type=int, required=True, choices=range(1, MAX_CENSUS_GROUND + 1))
    p.add_argument("--threads", type=_thread_count, default=default_threads)
    p.set_defaults(func=_cmd_census)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        kind = type(exc).__name__.removesuffix("Error")
        if kind and kind != "Value":
            sys.stderr.write(f"error [{kind}]: {exc}\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
