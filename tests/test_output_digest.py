"""The library's outputs on the 8932 inputs of `_output_digest.py`, as one sha256.

A change to the engine that keeps every table, discrepancy, verdict and
reconstruction, errors included, keeps this digest.  When an output changes
on purpose, rerun `PYTHONPATH=src python3 tests/_output_digest.py` and say
why in the change.
"""

from _output_digest import digest

DIGEST = "f500d60bcbac8ef3ba3c6f1e6c955b20b748e2e376b0dacb642ad6390a02cced"


def test_outputs_keep_their_digest():
    assert digest() == (DIGEST, 8932)
