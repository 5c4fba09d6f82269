"""The library's outputs on the 8932 inputs of `_output_digest.py`, as one sha256.

A change to the engine that keeps every table, discrepancy, verdict and
reconstruction, errors included, keeps this digest.  When an output changes
on purpose, rerun `PYTHONPATH=src python3 tests/_output_digest.py` and say
why in the change.
"""

import sys

from _output_digest import digest, inputs

DIGEST = "f500d60bcbac8ef3ba3c6f1e6c955b20b748e2e376b0dacb642ad6390a02cced"


def test_outputs_keep_their_digest():
    assert digest() == (DIGEST, 8932)


def test_inputs_leave_sys_path_as_they_found_it():
    # perfbench/ is on sys.path only while `inputs` imports its workloads
    before = list(sys.path)
    for _ in range(2):
        assert sum(1 for _ in inputs()) == 8932
        assert sys.path == before
