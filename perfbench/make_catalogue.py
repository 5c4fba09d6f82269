"""Write catalogue.json: the members of every slot and the T1 digest of each.

    python3 perfbench/make_catalogue.py

For each slot it builds `workloads.CANDIDATES` candidates and keeps the
`workloads.VARIANTS` whose in-range degree count lies nearest the median,
so that every seed draws inputs of about the same cost.  For the workloads
that compute T1 tables, each member's table is computed twice, by srt1's
`t1_table` and degree by degree from the definition in `reference.dim_t1`;
the digest is written only when the two agree, so the committed reference
never rests on the engine alone.  Rerun this when a generator or a slot
list changes.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import reference
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import srt1  # noqa: E402


def choose_members(name: str, slot: int) -> list[int]:
    costs = [
        reference.in_range_count(workloads.candidate(name, slot, c)["facets"])
        for c in range(workloads.CANDIDATES)
    ]
    mid = statistics.median(costs)
    ranked = sorted(range(workloads.CANDIDATES), key=lambda c: (abs(costs[c] - mid), c))
    return sorted(ranked[: workloads.VARIANTS])


def checked_digest(item: dict) -> str | None:
    """The table digest, or None when the engine and the definition disagree."""
    cx = srt1.SimplicialComplex.from_facets(item["n"], item["facets"])
    engine = [((k.A, k.b), d) for k, d in srt1.t1_table(cx).items()]
    faces = reference.faces_of(item["facets"])
    by_definition = [
        (deg, d)
        for deg in reference.in_range_degrees(item["facets"])
        if (d := reference.dim_t1(faces, *deg))
    ]
    digest = reference.table_digest(item["n"], engine)
    return digest if digest == reference.table_digest(item["n"], by_definition) else None


def main() -> int:
    catalogue: dict = {"slots": {}, "digests": {}}
    disagreements = 0
    t0 = time.perf_counter()
    for name, spec in workloads.WORKLOADS.items():
        entries = catalogue["slots"][name] = []
        for slot, params in enumerate(spec["slots"]):
            members = choose_members(name, slot)
            entries.append({"slot": list(params), "members": members})
            if "t1" not in spec["ops"]:
                continue
            for c in members:
                item = workloads.candidate(name, slot, c)
                key = workloads.base_key(item["n"], item["facets"])
                if key in catalogue["digests"]:
                    continue
                digest = checked_digest(item)
                if digest is None:
                    disagreements += 1
                    print(f"DISAGREE {name} slot {slot} candidate {c}: {item['facets']}", file=sys.stderr)
                    continue
                catalogue["digests"][key] = digest
        print(f"{name}: {len(catalogue['digests'])} digests, {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    workloads.CATALOGUE.write_text(json.dumps(catalogue, sort_keys=True) + "\n")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
