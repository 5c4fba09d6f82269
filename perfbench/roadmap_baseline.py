"""Print the ROADMAP baseline operations as the traced probes measured them.

    python3 perfbench/run.py --workload dense-matroids --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload sparse-complexes --seed 1 --seconds 10 --trace 1
    python3 perfbench/roadmap_baseline.py 1

Reads the span dumps of those two traced runs and prints, next to the
numbers ROADMAP.md quotes, the `t1_table` probe on U(9,4), the `t1_table`
probe on the path on 14 vertices and the `representatives(5)` probe.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_work" / "results"

ROWS = [
    # (operation, workload, span name, operation id suffix or span index, ROADMAP figure)
    ("`t1_table` U(9,4)", "dense-matroids", "cotangent.t1_table", "-U(9,4)-9", "0.5-0.7 s"),
    ("`t1_table`, path on 14 vertices", "sparse-complexes", "cotangent.t1_table", "-path-14", "0.7-0.9 s"),
    ("`representatives(5)`", "dense-matroids", "census.representatives", 4, "1.7 s"),
]


def main(seed: str) -> int:
    print("| operation | ROADMAP | traced probe | workload, seed |")
    print("|---|---|---|---|")
    for label, workload, span, which, roadmap in ROWS:
        doc = json.loads((RESULTS / f"{workload}-seed{seed}-trace1.spans.json").read_text())
        spans = [s for s in doc["spans"] if s["name"] == span]
        if isinstance(which, int):
            chosen = [spans[which]]
        else:
            chosen = [s for s in spans if s["op"].endswith(which)]
        secs = sum(s["end"] - s["start"] for s in chosen)
        print(f"| {label} | {roadmap} | {secs:.2f} s | {workload}, {seed} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "1"))
