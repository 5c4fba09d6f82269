"""Multigraded first cotangent cohomology of Stanley-Reisner rings.

The central object is a finite simplicial complex on ground set {1, ..., n}.
This package computes the dimensions of the multigraded pieces of the first
cotangent cohomology module of its Stanley-Reisner ring, decides whether the
complex is a matroid (by several independent criteria, one of them reading
only those dimensions), and reconstructs a matroid from its table of nonzero
dimensions.

Each public name loads its defining module on first use, so that a process
loads only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "complexes": (
        "MAX_GROUND", "SimplicialComplex", "VertexRangeError", "VoidComplexError",
        "boundary_simplex",
    ),
    "cotangent": ("MultiDegree", "T1Table", "dim_t1", "t1_table"),
    "definition": (
        "InclusionGraph", "bijection_check", "circuits_containing", "dim_t1_matroid_formula",
        "dim_t1_nonface", "inclusion_graph", "n_del", "n_del_red", "t1_upper_bound",
    ),
    "matroids": (
        "NotAMatroidError", "is_discrete", "is_matroid_circuit_elimination",
        "is_matroid_exchange", "is_matroid_unique_min", "uniform",
    ),
    "recognition": ("Discrepancy", "formula_discrepancies", "is_matroid_via_t1"),
    "reconstruction": (
        "DiscreteAmbiguousError", "NotAMatroidTableError", "classify_loops_coloops",
        "rank_from_table", "reconstruct", "reconstruct_rank_one", "slice_link_table",
    ),
    "census": ("CensusReport", "run_census"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# sorted by name within each module, the T1 names of the engine and of its
# definition as one run
_RUN = {module: i for i, module in enumerate(_EXPORTS)}
_RUN["definition"] = _RUN["cotangent"]
__all__ = sorted(_OWNER, key=lambda name: (_RUN[_OWNER[name]], name))


def __getattr__(name: str):
    # the first lookup of a public name imports its module and binds the
    # name here, so later lookups never reach this function
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value
