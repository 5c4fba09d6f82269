"""The executable lines of `src/srt1` that no tier-1 test runs.

Run from the repository root:

    python3 tests/_line_coverage.py [PYTEST-ARGS]

The tier-1 suite (PYTEST-ARGS, by default `tests`) runs in this process
under a `sys.settrace` tracer that records the lines of `src/srt1` frames
alone; then each executable line of `src/srt1` (one its compiled module
attributes code to) that no test ran is printed as `module.py:line  source`,
with their count last.  Code that runs in a subprocess or a process-pool
worker is not seen, so a line only such code runs is listed.  The tracer
slows the suite several times over, and the two wall-clock bounds
`test_large_sparse_paving_matroids_are_decided_at_once` and
`test_the_wider_rule_is_quick_on_a_near_uniform_non_matroid` fail under it;
the lines they run are recorded all the same.  A full run takes some
minutes.  Standard library and pytest only; pytest does not collect this
file.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srt1"


def executable_lines(path: Path) -> set[int]:
    """The lines that the compiled module or any code object in it runs."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", *(argv[1:] or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - ran[str(path)]):
            missed += 1
            print(f"{path.name}:{line}  {source[line - 1].strip()}")
    print(f"{missed} executable lines not run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
