"""Pins the public surface: the package's exported names, the CLI's options
and the census calls the benchmark harness makes.  Pins six internal
boundaries too: only `cotangent` reads a link for the singleton test,
`cotangent` runs no circuit sweep of its own, the graph circuit rule lives
in `complexes` alone, `dim_t1` decides a degree of two or more vertices
through `cotangent._wide_dim` alone, the canonical mask order is
`complexes._order_key` alone, and the definition lives in `definition`,
apart from the engine and from `recognition`.

A refactor that drops or renames any of them fails here first.
"""

import argparse
import importlib
import pkgutil

import pytest

import srt1
from srt1 import census, cli, complexes, cotangent, definition, matroids, recognition
from srt1 import reconstruction
from srt1.cli import build_parser

EXPORTS = [
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

# each subcommand with its arguments in declaration order: option strings,
# or the destination name of a positional
SUBCOMMANDS = {
    "t1": [("-h", "--help"), ("complex",), ("--degree",), ("--format",), ("--threads",)],
    "is-matroid": [("-h", "--help"), ("complex",), ("--method",)],
    "discrepancies": [("-h", "--help"), ("complex",)],
    "reconstruct": [("-h", "--help"), ("table",)],
    "rigidity": [("-h", "--help"), ("complex",)],
    "circuits": [("-h", "--help"), ("complex",)],
    "census": [("-h", "--help"), ("--max-n",), ("--threads",)],
}


def test_all_is_pinned():
    assert srt1.__all__ == EXPORTS
    assert all(hasattr(srt1, name) for name in EXPORTS)


def test_star_import_binds_every_export():
    # the census names load on first use, through the package's __getattr__
    namespace = {}
    exec("from srt1 import *", namespace)
    assert [name for name in EXPORTS if name not in namespace] == []
    assert namespace["run_census"] is census.run_census
    assert namespace["CensusReport"] is census.CensusReport


def test_subcommands_and_options_are_pinned():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: [tuple(a.option_strings) or (a.dest,) for a in p._actions]
        for name, p in sub.choices.items()
    }
    assert got == SUBCOMMANDS
    assert list(got) == list(SUBCOMMANDS)


def test_census_calls_are_pinned():
    # perfbench's traced run times these two calls on every census class
    reps = census.representatives(2)
    assert [cx.facets for cx in reps] == [((),), ((1,),), ((1,), (2,)), ((1, 2),)]
    reports = census.check_complex(reps[-1])[0]
    assert all(
        isinstance(rep, census.CensusReport) and rep.name == name for name, rep in reports.items()
    )
    assert reports["antichain"].checked == 1


@pytest.mark.parametrize("module", [recognition, reconstruction, census, cli])
def test_only_cotangent_reads_a_link_for_the_singleton_test(module):
    # the adjacency and the two vertex rules are read through
    # `cotangent._read_link` alone, so a test that patches them patches
    # `cotangent` and nothing else
    bound = {"_adjacency", "_graph_dims", "_vertex_dims"} & set(vars(module))
    assert bound == set(), module.__name__


def test_cotangent_binds_no_circuit_sweep():
    # every link takes its circuits from the complex's cached ones, by
    # contraction (`cotangent._contract`), so `complexes._minimal_nonfaces`
    # and the face cube `complexes._cube_circuits` run behind
    # `SimplicialComplex._circuit_masks` alone, once per complex
    assert {"_cube_circuits", "_minimal_nonfaces"} & set(vars(cotangent)) == set()


def test_one_graph_rule_lives_in_complexes():
    # a complex of dimension <= 1 takes its own circuits off its adjacency,
    # by the rule every graph link uses, so the rule is defined once, in
    # `complexes`, and `cotangent` binds it from there
    for name in ("_adjacency", "_graph_circuits"):
        assert getattr(cotangent, name) is getattr(complexes, name)
        assert getattr(cotangent, name).__module__ == "srt1.complexes"


@pytest.mark.parametrize(
    "module", [complexes, cotangent, definition, matroids, recognition, reconstruction, census, cli]
)
def test_one_owner_of_the_mask_order(module):
    # every sorted view, table row and census listing sorts by
    # `complexes._order_key(n)`: no module binds a key or a memo of its own
    gone = {"sort_key", "_canonical", "_BY_WIDTH", "_rules"}
    assert gone & set(vars(module)) == set(), module.__name__
    assert vars(module).get("_order_key", complexes._order_key) is complexes._order_key


def test_dim_t1_names_no_wide_rule_of_its_own():
    # the rules at a degree of two or more vertices are listed once, in
    # `cotangent._wide_dim`, which `dim_t1` and `_walk` both call; nor has it
    # a rule of its own at a link of rank 1, which `_read_link` reads as a
    # graph with no edge
    own = {
        "_graph_edge_dim", "_unkilled_components", "_isolated_circuits", "_graph_circuits",
        "_uniform_rows",
    }
    assert own & set(cotangent.dim_t1.__code__.co_names) == set()
    assert "_wide_dim" in cotangent.dim_t1.__code__.co_names
    assert "_graph_edge_dims" not in vars(cotangent)


# what `definition` holds: the face engine, its helpers and the public views
DEFINITION = {
    "_dim_on_faces", "_marks", "_component_ids", "_less_one_for_singleton", "_formula_on_link",
    "_canonical_ndel", "_bijection_sets", "InclusionGraph", "bijection_check",
    "circuits_containing", "dim_t1_matroid_formula", "dim_t1_nonface", "inclusion_graph",
    "n_del", "n_del_red", "t1_upper_bound",
}


def test_the_definition_stays_apart_from_the_engine():
    # the engine binds no part of the definition, nor `_faces_of` and
    # `_ndel`, which only the face engine needs; the definition binds no
    # part of the engine's walk or link reader, so each checks the other
    assert DEFINITION <= set(vars(definition))
    assert (DEFINITION | {"_faces_of", "_ndel"}) & set(vars(cotangent)) == set()
    assert {"_walk", "_read_link"} & set(vars(definition)) == set()
    assert {name for name, module in srt1._OWNER.items() if module == "definition"} == {
        name for name in DEFINITION if not name.startswith("_")
    }


def test_the_definition_binds_only_the_degree_validator_from_the_engine():
    # the definition is what the engine's rules are checked against, so of
    # `cotangent` it binds only `_degree_masks`, which validates a degree and
    # decides no dimension
    bound = {
        name
        for name, obj in vars(definition).items()
        if cotangent.__name__ in (getattr(obj, "__name__", None), getattr(obj, "__module__", None))
    }
    assert bound == {"_degree_masks"}


def test_recognition_holds_no_reference_count():
    # `recognition` decides through the engine's walk alone: it binds no part
    # of the face engine nor the face and circuit helpers a count by the
    # definition needs.  The census reads the main theorem off the counts of
    # `link-reduction`, and the full comparison lives in the tests
    # (`_oracles.definition_discrepancies`), so no module, the census
    # among them, defines or binds it
    reference = {
        "_dim_on_faces", "_formula_on_link", "_faces_of", "_minimal_nonfaces", "_link_facets",
        "_circuit_faces",
    }
    assert reference & set(vars(recognition)) == set()
    for info in pkgutil.iter_modules(srt1.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"srt1.{info.name}")
            assert "_all_discrepancies" not in vars(module), info.name
