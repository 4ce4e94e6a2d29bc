"""The package's public names are pinned, so additions and removals are deliberate."""

import ast
import inspect
import types
from pathlib import Path

import krfactor

PUBLIC_API = [
    "AuxiliaryGraph",
    "BalanceError",
    "BalanceTuplesError",
    "BpiTrialReport",
    "BudgetExceededError",
    "CliqueFamily",
    "CoverError",
    "CoverResult",
    "Factor",
    "FileFormatError",
    "GraphFamily",
    "PartiteGraph",
    "PartitionedInstance",
    "PermutationBundle",
    "PipelineReport",
    "PipelineStageError",
    "RandomSeed",
    "RegPairReport",
    "RegularityParams",
    "SpreadEstimate",
    "ThresholdParams",
    "ThresholdResult",
    "Tiling",
    "TransversalFactor",
    "WeightAssignment",
    "WitnessInstance",
    "as_seed",
    "balance_tuples",
    "balance_weights",
    "bpi_min_degree_trial",
    "build_b_pi",
    "build_reduced_graph",
    "check_regular_pair",
    "chernoff_bound",
    "count_factors",
    "cover_exceptional",
    "enumerate_kr",
    "estimate_spread",
    "find_factor",
    "gen_min_degree_instance",
    "gen_no_factor_witness",
    "gen_super_regular_instance",
    "governing_index",
    "janson_lambda_delta",
    "janson_lower_bound",
    "lift_factor",
    "min_star_degree",
    "read_factor_certificate",
    "read_family",
    "read_graph_file",
    "read_instance",
    "read_transversal_certificate",
    "run_pipeline",
    "sample_bundle",
    "sample_factor_uniform",
    "solve_restricted",
    "sparsify",
    "split_rounds",
    "threshold_p",
    "transversal_oracle",
    "verify_factor",
    "verify_transversal",
    "write_factor_certificate",
    "write_family",
    "write_graph_file",
    "write_instance",
    "write_transversal_certificate",
]


def test_public_names_are_pinned():
    names = sorted(
        name
        for name in krfactor.__all__
        if not isinstance(getattr(krfactor, name), types.ModuleType)
    )
    assert names == PUBLIC_API


def test_budget_keywords_are_pinned():
    # search budgets are module constants (solver.DEFAULT_ROW_BUDGET,
    # solver.SPREAD_FACTOR_BUDGET); a caller sets its own only where a caller
    # outside the tests needs another value
    found = set()
    for name in PUBLIC_API:
        obj = getattr(krfactor, name)
        if inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        found.update((name, p) for p in inspect.signature(obj).parameters if p.startswith("max_"))
    assert found == {
        ("balance_weights", "max_rows"),  # the bench and criterion 05 pass 2,000,000
        ("enumerate_kr", "max_cliques"),  # janson-report's --max-cliques
        ("estimate_spread", "max_subset"),  # the profile's depth, not a budget
    }


def test_bench_tracing_finds_every_timed_function(monkeypatch):
    # a traced benchmark run reports a metric as absent when the function or
    # method it times has gone from the package
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import tracing

    uninstall, absent = tracing.install(tracing.Recorder())
    try:
        assert absent == []
    finally:
        uninstall()



def test_every_module_uses_its_imports():
    # a deletion that leaves its imports behind fails here
    unused = {}
    for path in sorted(Path(krfactor.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}
