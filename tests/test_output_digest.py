"""The library's outputs on the 8934 inputs of `_output_digest.py`, as one sha256.

A change to the engine that keeps every table, discrepancy, verdict and
reconstruction, errors included, keeps this digest.  When an output changes
on purpose, rerun `PYTHONPATH=src python3 tests/_output_digest.py` and say
why in the change.
"""

import sys

from _output_digest import digest, inputs

DIGEST = "bd9be883195bbc444d9d37087bf8883cfe46b7f23bc3bbe42055f2d40b452fd8"


def test_outputs_keep_their_digest():
    assert digest() == (DIGEST, 8934)


def test_inputs_leave_sys_path_as_they_found_it():
    # perfbench/ is on sys.path only while `inputs` imports its workloads
    before = list(sys.path)
    for _ in range(2):
        assert sum(1 for _ in inputs()) == 8934
        assert sys.path == before
