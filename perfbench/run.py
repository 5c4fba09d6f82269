"""Closed-loop benchmark of srt1: T1 tables, recognition, reconstruction and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one operation at a time from this process and sends the next
only when the previous one has returned.  A run sets up (several times, for a
median set-up time), then repeats the workload's fixed batch of operations
until `--seconds` have passed, finishing the pass it is in.  Every operation
starts from what a user holds, a facet list or a table JSON, and builds a fresh
`SimplicialComplex` or `T1Table`, so no per-instance cache carries over.  Every
output is checked against an answer the benchmark computed without the engine.
Gated times are scaled to a nominal host speed with `speed_probe()`, timed
between operations; the unscaled figures are printed as `raw.<metric>`.

With `--trace 0` the last line of standard output is the JSON result with the
end-to-end metrics of `BENCHMARK.json`; with `--trace 1` it holds the per-layer
metrics from probe spans (see `tracing.py`).  The lines before it repeat every
metric by name and unit, including those that exist only on some workloads.
Inputs, results and traces go under `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# host-speed normalisation: see speed_probe() and README.md
PROBE_ROUNDS = 1200
NOMINAL_PROBE_S = 0.001
PROBE_EVERY_S = 0.03
PROBE_WINDOW = 8

# metrics that exist only where the workload runs the matching operation
OP_METRICS = {
    "t1": "t1_ms",
    "reconstruct": "reconstruct_ms",
    "recognize": "recognize_ms",
    "discrepancies": "discrepancies_ms",
    "circuits": "circuits_ms",
}


# the end-to-end metrics every workload reports, as listed in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "cpu_s": "s",
    "recognize_ms": "ms",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Op:
    kind: str
    item: dict
    argv: list[str] | None = None  # set for subprocess operations


@dataclass
class Setup:
    workload: str
    seed: int
    lib: object
    cli: object
    census: object
    items: list[dict]
    ops: list[Op]
    digests: dict[str, str]
    inproc: dict[str, dict] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# set-up


def load_engine():
    """Import srt1 afresh from the checkout's src/, dropping any earlier import."""
    if not (SRC / "srt1" / "__init__.py").is_file():
        raise BenchError(f"no srt1 package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "srt1" or m.startswith("srt1.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("srt1")
    return lib, importlib.import_module("srt1.cli"), importlib.import_module("srt1.census")


def cli_argv(kind: str, item: dict) -> list[str]:
    if kind == "t1":
        return ["t1", item["file"]]
    if kind == "recognize":
        return ["is-matroid", item["file"], "--method", "t1"]
    if kind == "circuits":
        return ["circuits", item["file"]]
    if kind == "discrepancies":
        return ["discrepancies", item["file"]]
    if kind == "reconstruct":
        return ["reconstruct", item["table_file"]]
    raise ValueError(kind)


def setup(workload: str, seed: int) -> Setup:
    """Generate the inputs, write their files, import srt1 and compute the reference answers."""
    lib, cli, census = load_engine()
    spec = workloads.WORKLOADS[workload]
    catalogue = workloads.load_catalogue()
    try:
        items = workloads.make_items(workload, seed, catalogue)
    except ValueError as exc:
        raise BenchError(str(exc)) from None
    run_dir = WORK / f"{workload}-seed{seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    for stale in run_dir.glob("*.table.json"):
        stale.unlink()
    digests = catalogue["digests"]
    for item in items:
        item["file"] = str(run_dir / f"{item['id']}.json")
        item["table_file"] = str(run_dir / f"{item['id']}.table.json")
        doc = {"n": item["n"], "facets": [list(f) for f in item["facets"]]}
        Path(item["file"]).write_text(json.dumps(doc) + "\n")
        item["verdict"] = reference.is_matroid(item["facets"])
        if item["matroid"] is not None and item["matroid"] != item["verdict"]:
            raise BenchError(f"{item['id']}: generator and reference disagree on matroidness")
        if item["edges"] is not None and all(len(f) <= 2 for f in item["facets"]):
            item["circuits"] = reference.graph_circuits(item["n"], item["edges"])
        else:
            item["circuits"] = reference.circuits_by_sweep(item["n"], item["facets"])
        if "t1" in spec["ops"] and item["base_key"] not in digests:
            raise BenchError(f"{item['id']}: no reference digest; rerun make_catalogue.py")
    s = Setup(workload, seed, lib, cli, census, items, [], digests)
    if workload == "cli":
        for item in items:
            s.inproc[item["id"]] = inprocess_answers(s, item)
    s.ops = build_ops(s)
    return s


def inprocess_answers(s: Setup, item: dict) -> dict:
    """What the library says in this process, for comparing CLI output against."""
    lib = s.lib

    def fresh():
        return lib.SimplicialComplex.from_facets(item["n"], item["facets"])

    out = {
        "table": lib.t1_table(fresh()).to_json_dict(),
        "verdict": lib.is_matroid_via_t1(fresh()),
        "circuits": [list(c) for c in fresh().minimal_nonfaces()],
    }
    if item["n"] <= workloads.CLI_DISCREPANCIES_MAX_N:
        out["discrepancies"] = [
            {"A": list(d.degree.A), "b": list(d.degree.b), "graph_dim": d.graph_dim, "formula_dim": d.formula_dim}
            for d in lib.formula_discrepancies(fresh())
        ]
    return out


def build_ops(s: Setup) -> list[Op]:
    """The fixed batch: each item through the workload's operations, in order."""
    kinds = workloads.WORKLOADS[s.workload]["ops"]
    ops = []
    for item in s.items:
        for kind in kinds:
            if kind == "reconstruct" and not item["verdict"]:
                continue
            if s.workload == "cli":
                if kind == "discrepancies" and item["n"] > workloads.CLI_DISCREPANCIES_MAX_N:
                    continue
                if kind == "reconstruct" and not s.inproc[item["id"]]["table"]["entries"]:
                    continue
                ops.append(Op(kind, item, cli_argv(kind, item)))
            else:
                ops.append(Op(kind, item))
    if s.workload == "cli":
        ops.append(Op("census", {"id": "census"}, ["census", "--max-n", str(workloads.CLI_CENSUS_MAX_N)]))
    return ops


# ---------------------------------------------------------------------------
# operations and their checks


def call_library(s: Setup, op: Op, state: dict):
    """The timed call: build from the user's input, then the public function."""
    lib, item = s.lib, op.item
    if op.kind == "reconstruct":
        return lib.reconstruct(lib.T1Table.from_json_dict(state[item["id"]]))
    cx = lib.SimplicialComplex.from_facets(item["n"], item["facets"])
    if op.kind == "t1":
        return lib.t1_table(cx)
    if op.kind == "recognize":
        return lib.is_matroid_via_t1(cx)
    if op.kind == "discrepancies":
        return lib.formula_discrepancies(cx)
    if op.kind == "circuits":
        return cx.minimal_nonfaces()
    if op.kind == "exchange":
        return lib.is_matroid_exchange(cx)
    if op.kind == "circuit_elimination":
        return lib.is_matroid_circuit_elimination(cx)
    if op.kind == "unique_min":
        return lib.is_matroid_unique_min(cx)
    raise ValueError(op.kind)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call_cli(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "srt1", *argv], env=env, capture_output=True, timeout=120
    )


def table_matches_digest(s: Setup, item: dict, entries) -> bool:
    """Map the table back to the catalogue labelling and compare with the committed digest."""
    back = reference.relabel_entries(entries, item["inverse"])
    return reference.table_digest(item["n"], back) == s.digests[item["base_key"]]


def library_entries(table):
    return [((k.A, k.b), d) for k, d in table.items()]


def json_entries(doc):
    return [((e["A"], e["b"]), e["dim"]) for e in doc["entries"]]


def check_library(s: Setup, op: Op, result, state: dict) -> bool:
    item = op.item
    if op.kind == "t1":
        state[item["id"]] = result.to_json_dict()
        return table_matches_digest(s, item, library_entries(result))
    if op.kind == "reconstruct":
        return result.n == item["n"] and result.facets == item["facets"]
    if op.kind == "circuits":
        return result == item["circuits"]
    if op.kind == "discrepancies":
        return (not result) == item["verdict"]
    return result is item["verdict"]


def check_cli(s: Setup, op: Op, proc: subprocess.CompletedProcess, state: dict) -> bool:
    if proc.returncode != 0:
        return False
    out = proc.stdout.decode()
    if op.kind == "census":
        lines = out.splitlines()
        return bool(lines) and lines[-1].startswith("census OK") and all(
            line.startswith("PASS ") for line in lines[:-1]
        )
    item = op.item
    ref = s.inproc[item["id"]]
    if op.kind == "recognize":
        lines = out.splitlines()
        verdict = lines[0] == "true"
        witnessed = verdict or (len(lines) == 2 and lines[1].startswith("witness: vertex "))
        return lines[0] in ("true", "false") and verdict == ref["verdict"] == item["verdict"] and witnessed
    doc = json.loads(out)
    if op.kind == "t1":
        state[item["id"]] = proc.stdout
        Path(item["table_file"]).write_bytes(proc.stdout)
        return doc == ref["table"] and table_matches_digest(s, item, json_entries(doc))
    if op.kind == "circuits":
        return doc == {"n": item["n"], "minimal_nonfaces": [list(c) for c in item["circuits"]]}
    if op.kind == "discrepancies":
        return doc == {"n": item["n"], "discrepancies": ref["discrepancies"]} and (
            not ref["discrepancies"]
        ) == item["verdict"]
    if op.kind == "reconstruct":
        return doc == {"n": item["n"], "facets": [list(f) for f in item["facets"]]}
    raise ValueError(op.kind)


def run_op(s: Setup, op: Op, state: dict, env: dict, span=contextlib.nullcontext):
    """Time one operation, then check its output; an exception counts as a failure.

    Returns (wall seconds, CPU seconds of this process and its children, ok).
    `span` wraps only the call, so a tracer sees the same interval that is timed.
    """
    with span():
        c0 = cpu_now()
        t0 = time.perf_counter()
        try:
            result = call_cli(op.argv, env) if op.argv else call_library(s, op, state)
        except Exception:  # a raising operation is a failed operation
            return time.perf_counter() - t0, cpu_now() - c0, False
        elapsed = time.perf_counter() - t0
        cpu = cpu_now() - c0
    try:
        ok = check_cli(s, op, result, state) if op.argv else check_library(s, op, result, state)
    except Exception:  # unparsable output is a wrong answer
        ok = False
    return elapsed, cpu, bool(ok)


def cpu_now() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python set and bit work that never touches srt1."""
    t0 = time.perf_counter()
    seen: set[frozenset] = set()
    acc = 0
    for i in range(PROBE_ROUNDS):
        m = (i * 2654435761) & 1023
        f = frozenset((m & 7, m >> 3 & 7, m >> 6))
        if f in seen:
            acc += m & -m
        else:
            seen.add(f)
        acc ^= m.bit_count()
    return time.perf_counter() - t0


def speed_probe_all_cpus() -> float:
    """Mean of speed_probe() pinned to each CPU this process may use.

    The vCPUs change speed independently, and child processes run on any of
    them, so subprocess operations are scaled by the speed of all of them.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(speed_probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def host_scale() -> float:
    """Factor that puts a time measured now at the nominal host speed."""
    return NOMINAL_PROBE_S / statistics.median(speed_probe() for _ in range(3))


@dataclass
class PassResult:
    latencies: list[tuple[str, float, bool]]
    cpu: list[float]
    scales: list[float]  # per operation: NOMINAL_PROBE_S / the speed probes around it


def run_pass(s: Setup, env: dict) -> PassResult:
    """One pass over the batch, with the speed probe between operations.

    The probe runs after every PROBE_EVERY_S of operation time; an operation's
    scale comes from the median of the probes within PROBE_WINDOW of it.
    """
    gc.collect()
    probe = speed_probe_all_cpus if any(op.argv for op in s.ops) else speed_probe
    state: dict = {}
    lat, cpu, probes, at = [], [], [probe()], []
    since = 0.0
    for op in s.ops:
        if since >= PROBE_EVERY_S:
            probes.append(probe())
            since = 0.0
        elapsed, used, ok = run_op(s, op, state, env)
        lat.append((op.kind, elapsed, ok))
        cpu.append(used)
        at.append(len(probes))
        since += elapsed
    probes.append(probe())
    scales = [
        NOMINAL_PROBE_S / statistics.median(probes[max(0, j - PROBE_WINDOW) : j + PROBE_WINDOW])
        for j in at
    ]
    return PassResult(lat, cpu, scales)


def measure(s: Setup, seconds: float) -> list[PassResult]:
    """Whole passes over the batch until `seconds` have gone by (at least one)."""
    env = cli_env()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(s, env))
    return passes


def cli_thread_check(s: Setup, env: dict) -> tuple[int, int]:
    """`srt1 t1` must print the same bytes with --threads 1 as with the default."""
    attempted = failed = 0
    for item in s.items:
        default = Path(item["table_file"])
        if not default.exists():
            continue
        attempted += 1
        proc = call_cli(["t1", item["file"], "--threads", "1"], env)
        if proc.returncode != 0 or proc.stdout != default.read_bytes():
            failed += 1
    return attempted, failed


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def op_latencies(passes: list[PassResult], scaled: bool) -> list[tuple[str, float, float, bool]]:
    """Per operation: kind, median latency and CPU over the passes, and whether always right."""
    out = []
    for reps in zip(*(zip(p.latencies, p.cpu, p.scales) for p in passes)):
        k = [scale if scaled else 1.0 for _, _, scale in reps]
        out.append((
            reps[0][0][0],
            statistics.median(t * f for ((_, t, _), _, _), f in zip(reps, k)),
            statistics.median(c * f for (_, c, _), f in zip(reps, k)),
            all(ok for (_, _, ok), _, _ in reps),
        ))
    return out


def end_to_end(setup_times: list[tuple[float, float]], passes: list[PassResult], scaled: bool) -> dict:
    """The end-to-end metrics; `scaled` puts every time at the nominal host speed."""
    lat = op_latencies(passes, scaled)
    times = [t for _, t, _, _ in lat]
    m = {
        "setup_s": (statistics.median(t * (k if scaled else 1.0) for t, k in setup_times), "s"),
        "ops_per_s": (sum(1 for *_, ok in lat if ok) / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "cpu_s": (sum(c for _, _, c, _ in lat), "s"),
    }
    for kind, name in OP_METRICS.items():
        xs = [t for k, t, _, _ in lat if k == kind]
        if xs:
            m[name] = (statistics.median(xs) * 1e3, "ms")
    census = [t for k, t, _, _ in lat if k == "census"]
    if census:
        m["census_s"] = (census[0], "s")
    return m


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int, samples: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": seed,
        "samples": samples,
    }


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            before = host_scale()
            t0 = time.perf_counter()
            s = setup(args.workload, args.seed)
            elapsed = time.perf_counter() - t0
            setup_times.append((elapsed, (before + host_scale()) / 2))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    passes = measure(s, args.seconds)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(1 for p in passes for _, _, ok in p.latencies if not ok)
    extra_checks = (0, 0)
    if args.workload == "cli":
        extra_checks = cli_thread_check(s, cli_env())
    attempted += extra_checks[0]
    failed += extra_checks[1]

    if args.trace:
        metrics, trace_doc = tracing.traced_run(s, passes, run_op, host_scale, cli_env())
        failed += trace_doc["spot_check_failures"]
        attempted += trace_doc["spot_checks"]
    else:
        metrics = end_to_end(setup_times, passes, scaled=True)
        raw = end_to_end(setup_times, passes, scaled=False)
        metrics.update({f"raw.{k}": v for k, v in raw.items() if k != "peak_rss_mb"})
        trace_doc = None
    samples = {
        "passes": len(passes),
        "op_samples": len(s.ops),
        "beyond_p90": len(s.ops) - 1 - int(0.9 * (len(s.ops) - 1)),
        "setup_repeats": SETUP_REPEATS,
        "cli_thread_checks": extra_checks[0],
    }
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, samples),
        "why": workloads.WORKLOADS[args.workload]["why"],
        "fail_frac": [failed / attempted, "ratio"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: list(vu) for k, vu in metrics.items()},
    }
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace_doc is not None:
        (out / f"{stem}.spans.json").write_text(json.dumps(trace_doc) + "\n")

    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload]['why']}")
    print("provenance " + json.dumps(result["provenance"]))
    print_metrics(metrics)
    print(f"{'fail_frac':<40} {failed / attempted:>14.6g} ratio (failed={failed} attempted={attempted})")
    keys = [name for name, _, _ in tracing.PER_LAYER] if args.trace else list(END_TO_END)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
