"""The census classes, computed once per test run.

`srt1.census.representatives(5)` takes over a second, and several test
modules iterate over the same classes.  The tuples returned here keep the
order of `representatives`, and no test can change another's list.
"""

import functools

from srt1 import census


@functools.cache
def representatives(n: int) -> tuple:
    """`census.representatives(n)` as a tuple, cached for the whole run."""
    return tuple(census.representatives(n))
