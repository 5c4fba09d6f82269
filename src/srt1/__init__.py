"""Multigraded first cotangent cohomology of Stanley-Reisner rings.

The central object is a finite simplicial complex on ground set {1, ..., n}.
This package computes the dimensions of the multigraded pieces of the first
cotangent cohomology module of its Stanley-Reisner ring, decides whether the
complex is a matroid (by several independent criteria, one of them reading
only those dimensions), and reconstructs a matroid from its table of nonzero
dimensions.
"""

from .complexes import (
    MAX_GROUND,
    SimplicialComplex,
    VertexRangeError,
    VoidComplexError,
    boundary_simplex,
)
from .cotangent import (
    InclusionGraph,
    MultiDegree,
    T1Table,
    bijection_check,
    circuits_containing,
    dim_t1,
    dim_t1_matroid_formula,
    dim_t1_nonface,
    inclusion_graph,
    n_del,
    n_del_red,
    t1_table,
    t1_upper_bound,
)
from .matroids import (
    NotAMatroidError,
    is_discrete,
    is_matroid_circuit_elimination,
    is_matroid_exchange,
    is_matroid_unique_min,
    uniform,
)
from .recognition import Discrepancy, formula_discrepancies, is_matroid_via_t1
from .reconstruction import (
    DiscreteAmbiguousError,
    NotAMatroidTableError,
    classify_loops_coloops,
    rank_from_table,
    reconstruct,
    reconstruct_rank_one,
    slice_link_table,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_GROUND",
    "SimplicialComplex",
    "VertexRangeError",
    "VoidComplexError",
    "boundary_simplex",
    "InclusionGraph",
    "MultiDegree",
    "T1Table",
    "bijection_check",
    "circuits_containing",
    "dim_t1",
    "dim_t1_matroid_formula",
    "dim_t1_nonface",
    "inclusion_graph",
    "n_del",
    "n_del_red",
    "t1_table",
    "t1_upper_bound",
    "NotAMatroidError",
    "is_discrete",
    "is_matroid_circuit_elimination",
    "is_matroid_exchange",
    "is_matroid_unique_min",
    "uniform",
    "Discrepancy",
    "formula_discrepancies",
    "is_matroid_via_t1",
    "DiscreteAmbiguousError",
    "NotAMatroidTableError",
    "classify_loops_coloops",
    "rank_from_table",
    "reconstruct",
    "reconstruct_rank_one",
    "slice_link_table",
    "CensusReport",
    "run_census",
]


def __getattr__(name: str):
    # the census loads on first use, so that `import srt1` and every srt1
    # process that runs no census skip it
    if name in ("CensusReport", "run_census"):
        from . import census

        return getattr(census, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
