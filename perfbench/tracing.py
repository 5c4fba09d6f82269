"""Per-layer metrics: spans around calls into srt1's public API, from outside.

A traced run first repeats the batch untraced (for `trace.overhead_frac`),
then makes one traced pass.  For each item the operations run as spans, and
after them, outside them, probe spans call the public functions that make up
those operations on the same input, each on a freshly built object so no
cache carries over.  Spans (name, start, end, parent, operation id) and
counters stay in memory and are written out when the run ends.  A span's self
time is its duration minus the part of it that its children cover.

Counts are properties of the input and repeat exactly for a seed.  Layers are
the package modules; every workload reports every metric in `PER_LAYER`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import statistics
import subprocess
import sys
import time

import reference

# (name, unit, better), in BENCHMARK.json order
PER_LAYER = [
    ("complexes.build_ms", "ms", "lower"),
    ("complexes.faces_ms", "ms", "lower"),
    ("complexes.faces", "count", "lower"),
    ("complexes.links_ms", "ms", "lower"),
    ("complexes.links", "count", "lower"),
    ("complexes.circuits_ms", "ms", "lower"),
    ("complexes.circuits", "count", "lower"),
    ("complexes.masks_swept", "count", "lower"),
    ("cotangent.t1_table_ms", "ms", "lower"),
    ("cotangent.degrees_in_range", "count", "lower"),
    ("cotangent.degrees_nonzero", "count", "higher"),
    ("cotangent.nonzero_frac", "ratio", "higher"),
    ("cotangent.us_per_degree", "us", "lower"),
    ("cotangent.sampled_degrees", "count", "higher"),
    ("cotangent.dim_t1_us", "us", "lower"),
    ("cotangent.n_del_us", "us", "lower"),
    ("cotangent.n_del_size", "count", "lower"),
    ("cotangent.n_del_red_us", "us", "lower"),
    ("cotangent.marked", "count", "lower"),
    ("cotangent.inclusion_graph_us", "us", "lower"),
    ("cotangent.edges", "count", "lower"),
    ("cotangent.components", "count", "lower"),
    ("recognition.is_matroid_via_t1_ms", "ms", "lower"),
    ("recognition.formula_discrepancies_ms", "ms", "lower"),
    ("recognition.discrepancies", "count", "higher"),
    ("recognition.link_circuits_ms", "ms", "lower"),
    ("matroids.exchange_ms", "ms", "lower"),
    ("matroids.circuit_elimination_ms", "ms", "lower"),
    ("matroids.unique_min_ms", "ms", "lower"),
    ("reconstruction.reconstruct_ms", "ms", "lower"),
    ("reconstruction.classify_ms", "ms", "lower"),
    ("reconstruction.rank_ms", "ms", "lower"),
    ("reconstruction.slice_ms", "ms", "lower"),
    ("reconstruction.slices", "count", "lower"),
    ("reconstruction.rank_one_ms", "ms", "lower"),
    ("reconstruction.verify_exchange_ms", "ms", "lower"),
    ("reconstruction.verify_table_ms", "ms", "lower"),
    ("reconstruction.verify_frac", "ratio", "lower"),
    ("reconstruction.unexplained_frac", "ratio", "lower"),
    ("census.representatives_ms", "ms", "lower"),
    ("census.check_complex_us", "us", "lower"),
    ("census.check_complex_p90_us", "us", "lower"),
    ("census.complexes", "count", "higher"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("cli.pool_calls", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# nonzero degrees probed per item, each paired with a zero in-range degree
SAMPLE_CAP = 24
# formula_discrepancies is probed on this many items, the cheapest by degrees x 2^n
DISCREPANCY_ITEMS = 3
CENSUS_MAX_N = 5
STARTUP_RUNS = 5
POOL_MIN_FACES = 64
RECONSTRUCT_STEPS = ("classify", "rank", "slice", "rank_one", "verify_exchange", "verify_table")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent, op]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        rec = [len(self.spans), name, 0.0, 0.0, self.stack[-1] if self.stack else None, op]
        self.spans.append(rec)
        self.stack.append(rec[0])
        rec[2] = time.perf_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, k: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def durations(self, name: str) -> list[float]:
        return [r[3] - r[2] for r in self.spans if r[1] == name]

    def per_op(self, name: str) -> dict[str, float]:
        """Total duration of the spans called `name`, per operation id."""
        out: dict[str, float] = {}
        for r in self.spans:
            if r[1] == name:
                out[r[5]] = out.get(r[5], 0.0) + r[3] - r[2]
        return out

    def self_times(self) -> list[float]:
        kids: dict[int, list[tuple[float, float]]] = {}
        for r in self.spans:
            if r[4] is not None:
                kids.setdefault(r[4], []).append((r[2], r[3]))
        out = []
        for r in self.spans:
            covered, reach = 0.0, r[2]
            for a, b in sorted(kids.get(r[0], [])):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(r[3] - r[2] - covered)
        return out

    def document(self) -> dict:
        selfs = self.self_times()
        layers: dict[str, float] = {}
        for r, st in zip(self.spans, selfs):
            layer = r[1].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + st
        return {
            "spans": [
                {"id": r[0], "name": r[1], "start": r[2], "end": r[3], "parent": r[4], "op": r[5], "self": st}
                for r, st in zip(self.spans, selfs)
            ],
            "counters": self.counters,
            "self_s_by_layer": layers,
        }


def median_ms(xs) -> float:
    return statistics.median(xs) * 1e3


def probe_item(tr: Tracer, s, item: dict, rng: random.Random, spot: list[int]) -> None:
    """Probe spans for one item: every public step its operations are made of."""
    lib, n, facets, op = s.lib, item["n"], item["facets"], item["id"]

    def fresh():
        return lib.SimplicialComplex.from_facets(n, facets)

    with tr.span("complexes.build", op):
        fresh()
    cx = fresh()
    with tr.span("complexes.faces", op):
        face_masks = cx.face_masks()
    tr.count("complexes.faces", len(face_masks))
    faces = fresh().faces()
    cx = fresh()
    links = {}
    with tr.span("complexes.links", op):
        for F in faces:
            links[F] = cx.link(F)
    tr.count("complexes.links", len(faces))
    cx = fresh()
    with tr.span("complexes.circuits", op):
        circuits = cx.minimal_nonfaces()
    tr.count("complexes.circuits", len(circuits))
    tr.count("complexes.masks_swept", 1 << n)

    cx = fresh()
    with tr.span("cotangent.t1_table", op):
        table = lib.t1_table(cx)
    link_verts = {A: L.vertices() for A, L in links.items()}
    in_range = sum((1 << len(v)) - 1 for v in link_verts.values())
    tr.count("cotangent.degrees_in_range", in_range)
    tr.count("cotangent.degrees_nonzero", len(table))
    item["probe_degrees"] = in_range
    item["probe_table"] = table.to_json_dict()

    nonzero = [(k.A, k.b) for k in table.keys()]
    nonzero = rng.sample(nonzero, min(SAMPLE_CAP, len(nonzero)))
    stored = set((k.A, k.b) for k in table.keys())
    zeros = [d for d in reference.in_range_degrees(facets) if d not in stored]
    zeros = rng.sample(zeros, min(len(nonzero) or 1, len(zeros)))
    ref_faces = reference.faces_of(facets)
    cx = fresh()
    cx.face_masks()
    for A, b in nonzero + zeros:
        L = cx.link(A)
        L.face_masks()
        with tr.span("cotangent.dim_t1", op):
            dim = lib.dim_t1(cx, (A, b))
        with tr.span("cotangent.n_del", op):
            nb = lib.n_del(L, b)
        with tr.span("cotangent.n_del_red", op):
            nbr = lib.n_del_red(L, b)
        with tr.span("cotangent.inclusion_graph", op):
            graph = lib.inclusion_graph(cx, A, b)
        tr.count("cotangent.sampled_degrees", 1)
        tr.count("cotangent.n_del_size", len(nb))
        tr.count("cotangent.marked", len(nbr))
        tr.count("cotangent.edges", len(graph.edges))
        tr.count("cotangent.components", len(graph.components))
        spot[0] += 1
        if not dim == table.dim(A, b) == reference.dim_t1(ref_faces, A, b):
            spot[1] += 1

    cx = fresh()
    with tr.span("recognition.is_matroid_via_t1", op):
        lib.is_matroid_via_t1(cx)
    cx = fresh()
    faces = cx.faces()
    with tr.span("recognition.link_circuits", op):
        for A in faces:
            cx.link(A).minimal_nonfaces()
    for name, fn in (
        ("matroids.exchange", lib.is_matroid_exchange),
        ("matroids.circuit_elimination", lib.is_matroid_circuit_elimination),
        ("matroids.unique_min", lib.is_matroid_unique_min),
    ):
        cx = fresh()
        with tr.span(name, op):
            fn(cx)

    if item["verdict"] and len(table):
        probe_reconstruct(tr, lib, item, item["probe_table"], spot)

    out = io.StringIO()
    with contextlib.redirect_stdout(out), tr.span("cli.main", op):
        s.cli.main(["is-matroid", item["file"], "--method", "t1"])
    spot[0] += 1
    if out.getvalue().splitlines()[0] != ("true" if item["verdict"] else "false"):
        spot[1] += 1


def probe_reconstruct(tr: Tracer, lib, item: dict, doc: dict, spot: list[int]) -> None:
    """`reconstruct`, then its public steps replayed on the same table."""
    op = item["id"]
    t = lib.T1Table.from_json_dict(doc)
    with tr.span("reconstruction.reconstruct", op):
        got = lib.reconstruct(t)
    spot[0] += 1
    if got.facets != item["facets"]:
        spot[1] += 1
    t = lib.T1Table.from_json_dict(doc)
    with tr.span("reconstruction.classify", op):
        roles = lib.classify_loops_coloops(t)
    ordinary = tuple(v for v in range(1, t.n + 1) if roles[v] == "ordinary")
    coloops = {v for v in range(1, t.n + 1) if roles[v] == "coloop"}
    core = lib.T1Table(t.n, [(k, d) for k, d in t.items() if not set(k.A) & coloops])
    with tr.span("reconstruction.rank", op):
        rank = lib.rank_from_table(core)
    bases = set()
    if rank == 1:
        with tr.span("reconstruction.rank_one", op):
            bases = {frozenset((v,)) for v in lib.reconstruct_rank_one(core, ordinary)}
    else:
        for F in itertools.combinations(ordinary, rank - 1):
            with tr.span("reconstruction.slice", op):
                sliced = lib.slice_link_table(core, F)
            tr.count("reconstruction.slices", 1)
            if len(sliced):
                rest = tuple(v for v in ordinary if v not in F)
                with tr.span("reconstruction.rank_one", op):
                    bases.update(frozenset(F) | {v} for v in lib.reconstruct_rank_one(sliced, rest))
    candidate = lib.SimplicialComplex.from_facets(t.n, [sorted(b | coloops) for b in bases])
    with tr.span("reconstruction.verify_exchange", op):
        lib.is_matroid_exchange(candidate)
    with tr.span("reconstruction.verify_table", op):
        lib.t1_table(candidate)


def probe_census(tr: Tracer, census) -> None:
    reps = []
    for n in range(1, CENSUS_MAX_N + 1):
        with tr.span("census.representatives", "census"):
            reps.extend(census.representatives(n))
    tr.count("census.complexes", len(reps))
    for cx in reps:
        with tr.span("census.check_complex", "census"):
            census.check_complex(cx)


def probe_startup(tr: Tracer, env: dict) -> None:
    for _ in range(STARTUP_RUNS):
        with tr.span("cli.startup", "startup"):
            subprocess.run([sys.executable, "-c", "import srt1.cli"], env=env, check=True, timeout=60)


def pool_calls(s) -> int:
    """Operations whose input takes a process pool, from input sizes and thread counts."""
    if s.workload != "cli" or (os.cpu_count() or 1) < 2:
        return 0  # library operations run with threads=1
    big = sum(
        1 for op in s.ops if op.kind == "t1" and len(reference.faces_of(op.item["facets"])) >= POOL_MIN_FACES
    )
    return big + sum(1 for op in s.ops if op.kind == "census")


def traced_run(s, passes, run_op, host_scale, env: dict) -> tuple[dict, dict]:
    """One traced pass with probes; returns (metrics, trace document).

    `passes` are the untraced passes of the same batch, `run_op` times and
    checks one operation, `host_scale()` gives the factor that puts a time
    taken now at the nominal host speed; the overhead compares scaled times.
    """
    tr = Tracer()
    rng = random.Random(f"degrees:{s.workload}:{s.seed}")
    spot = [0, 0]
    state: dict = {}
    untraced: dict[int, list[float]] = {}
    for p in passes:
        for i, ((_, t, _), k) in enumerate(zip(p.latencies, p.scales)):
            untraced.setdefault(i, []).append(t * k)
    traced_ops: list[float] = []
    by_item: dict[str, list] = {}
    for op in s.ops:
        by_item.setdefault(op.item["id"], []).append(op)
    for item_id, ops in by_item.items():
        scale = host_scale()
        with tr.span("item", item_id):
            for op in ops:
                name = "op." + op.kind
                elapsed, _, ok = run_op(s, op, state, env, span=lambda: tr.span(name, item_id))
                traced_ops.append(elapsed * scale)
                spot[0] += 1
                spot[1] += not ok
            if item_id != "census":
                item = next(it for it in s.items if it["id"] == item_id)
                probe_item(tr, s, item, rng, spot)
    cheapest = sorted(s.items, key=lambda it: (it["probe_degrees"] << it["n"], it["id"]))
    for item in cheapest[:DISCREPANCY_ITEMS]:
        cx = s.lib.SimplicialComplex.from_facets(item["n"], item["facets"])
        with tr.span("recognition.formula_discrepancies", item["id"]):
            disc = s.lib.formula_discrepancies(cx)
        tr.count("recognition.discrepancies", len(disc))
        spot[0] += 1
        spot[1] += (not disc) != item["verdict"]
    probe_census(tr, s.census)
    probe_startup(tr, env)

    m = layer_metrics(tr, s)
    untraced_sum = sum(statistics.median(untraced[i]) for i in range(len(traced_ops)))
    m["trace.overhead_frac"] = (sum(traced_ops) / untraced_sum - 1.0, "ratio")
    m.update(remainders(tr))
    doc = tr.document()
    doc["spot_checks"], doc["spot_check_failures"] = spot
    return m, doc


def layer_metrics(tr: Tracer, s) -> dict:
    c = tr.counters
    m: dict[str, tuple[float, str]] = {}
    for name in ("complexes.build", "complexes.faces", "complexes.links", "complexes.circuits",
                 "cotangent.t1_table", "recognition.is_matroid_via_t1", "recognition.link_circuits",
                 "recognition.formula_discrepancies", "matroids.exchange",
                 "matroids.circuit_elimination", "matroids.unique_min", "cli.main", "cli.startup"):
        m[name + "_ms"] = (median_ms(tr.durations(name)), "ms")
    for name in ("complexes.faces", "complexes.links", "complexes.circuits", "complexes.masks_swept",
                 "cotangent.degrees_in_range", "cotangent.degrees_nonzero", "cotangent.sampled_degrees",
                 "cotangent.n_del_size", "cotangent.marked", "cotangent.edges", "cotangent.components",
                 "recognition.discrepancies", "reconstruction.slices", "census.complexes"):
        m[name] = (c.get(name, 0), "count")
    m["cotangent.nonzero_frac"] = (c["cotangent.degrees_nonzero"] / c["cotangent.degrees_in_range"], "ratio")
    m["cotangent.us_per_degree"] = (
        sum(tr.durations("cotangent.t1_table")) / c["cotangent.degrees_in_range"] * 1e6, "us")
    for name in ("dim_t1", "n_del", "n_del_red", "inclusion_graph"):
        m[f"cotangent.{name}_us"] = (statistics.median(tr.durations("cotangent." + name)) * 1e6, "us")

    steps = RECONSTRUCT_STEPS
    totals = {k: tr.per_op("reconstruction." + k) for k in ("reconstruct",) + steps}
    items = sorted(totals["reconstruct"])
    for k, per in totals.items():
        m[f"reconstruction.{k}_ms"] = (median_ms([per.get(i, 0.0) for i in items]), "ms")
    replay = sum(sum(totals[k].values()) for k in steps)
    verify = sum(totals["verify_exchange"].values()) + sum(totals["verify_table"].values())
    m["reconstruction.verify_frac"] = (verify / replay, "ratio")
    m["reconstruction.unexplained_frac"] = (1.0 - replay / sum(totals["reconstruct"].values()), "ratio")

    checks = tr.durations("census.check_complex")
    m["census.representatives_ms"] = (sum(tr.durations("census.representatives")) * 1e3, "ms")
    m["census.check_complex_us"] = (statistics.median(checks) * 1e6, "us")
    m["census.check_complex_p90_us"] = (statistics.quantiles(checks, n=10, method="inclusive")[8] * 1e6, "us")
    m["cli.pool_calls"] = (pool_calls(s), "count")
    return {name: m[name] for name, _, _ in PER_LAYER if name in m}


def remainders(tr: Tracer) -> dict:
    """Share of the operation spans that the probes of the same items leave unexplained.

    A t1 operation is explained by the build and t1_table probes, a reconstruct
    operation by the replayed steps; for CLI operations the remainder includes
    interpreter start, imports and JSON I/O.
    """
    out = {}
    t1_ops, build, table = tr.per_op("op.t1"), tr.per_op("complexes.build"), tr.per_op("cotangent.t1_table")
    if t1_ops:
        explained = sum(build[i] + table[i] for i in t1_ops)
        out["cotangent.t1_unexplained_frac"] = (1.0 - explained / sum(t1_ops.values()), "ratio")
    rec_ops = tr.per_op("op.reconstruct")
    if rec_ops:
        replay = sum(tr.per_op("reconstruction." + k).get(i, 0.0) for k in RECONSTRUCT_STEPS for i in rec_ops)
        out["reconstruction.op_unexplained_frac"] = (1.0 - replay / sum(rec_ops.values()), "ratio")
    return out
