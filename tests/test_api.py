"""The package's public names, pinned.

Adding or removing a name in mjsreduce.__all__ is an API change; this
list makes it show up in review.  The submodules appear because
__all__ takes every public name of the package namespace.
"""

import ast
import graphlib
import importlib
from pathlib import Path

import pytest

import mjsreduce

PUBLIC = [
    "BadWeights",
    "BoundInputs",
    "ComputationError",
    "CostReport",
    "DegenerateInput",
    "DiffStats",
    "DimensionMismatch",
    "Diverged",
    "EXPERIMENT_NAMES",
    "ExperimentSpec",
    "FeatureMatrix",
    "InputError",
    "JsrBounds",
    "KernelDistribution",
    "LqrSolution",
    "MjsError",
    "MjsModel",
    "MomentOperator",
    "MrBoundReport",
    "NotConverged",
    "NotErgodic",
    "NotMss",
    "NotNormalized",
    "Partition",
    "PartitionMismatch",
    "PerturbationTriple",
    "RankDeficient",
    "ReductionResult",
    "RhoTooSmall",
    "SingularInnerMatrix",
    "StabilityComparison",
    "StabilityReport",
    "SuboptimalityResult",
    "SynthConfig",
    "TooLarge",
    "TooManySequences",
    "TransientEstimate",
    "XiTooSmall",
    "augmented_matrix",
    "average_model",
    "bounds",
    "build_features_aggregatable",
    "build_features_lumpable",
    "closed_loop_average_cost",
    "clustering",
    "construct_T0",
    "default_weights",
    "empirical_traj_diff",
    "errors",
    "expand_reduced",
    "experiments",
    "fig4_model",
    "generate",
    "jsr_bounds",
    "kappa_estimate",
    "kmeans_partition",
    "lift_gains",
    "load_model",
    "lqr",
    "misclustering_rate",
    "model",
    "model_to_dict",
    "monte_carlo_cost",
    "mr_bound",
    "mss_premises",
    "mss_traj_bound",
    "perturbation",
    "perturbations",
    "reduce_model",
    "reduced_lqr_suboptimality",
    "riccati_solve",
    "run_experiment",
    "save_model",
    "simulate_coupled_batch",
    "spectral_radius",
    "stability",
    "stability_comparison",
    "stability_report",
    "synth",
    "tau_estimate",
    "transition_kernel_enum",
    "us_premises",
    "us_traj_bound",
    "w2_moment_lower_bound",
    "wasserstein_exact",
    "wasserstein_kernel_bound",
]


def test_public_names_are_pinned():
    assert sorted(mjsreduce.__all__) == PUBLIC


# Names deleted because no entry point (the CLI, run_experiment, the
# benchmark workloads) reached them, or because a type now enforces
# what they checked (MjsModel for validate_model, PartitionMismatch for
# SizeMismatch); none may come back as public.
REMOVED = [
    "SizeMismatch",
    "averaged_feature_matrix",
    "bound_from_constants",
    "combine_perturbations",
    "corollary_sum_bound",
    "is_ergodic",
    "kernel_mean_cov",
    "model_from_dict",
    "riccati_operators",
    "stationary_distribution",
    "validate_model",
]
SUBMODULES = [
    "bounds", "cli", "clustering", "errors", "experiments", "lqr", "model",
    "perturbation", "stability", "synth",
]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_are_package_names(name):
    module = importlib.import_module(f"mjsreduce.{name}")
    assert set(getattr(module, "__all__", ())) <= set(mjsreduce.__all__)
    assert not [r for r in REMOVED if hasattr(module, r) or hasattr(mjsreduce, r)]


def test_submodules_are_listed():
    assert set(SUBMODULES) - {"cli"} == {
        name for name in mjsreduce.__all__ if type(getattr(mjsreduce, name)) is type(mjsreduce)
    }


def _package_imports(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(every module imported, modules imported inside a function) of
    one parsed module, by package-relative imports."""
    found, deferred = set(), set()

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                names = [child.module] if child.module else [a.name for a in child.names]
                names = {n.split(".")[0] for n in names}
                found.update(names)
                if in_function:
                    deferred.update(names)
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found, deferred


def test_package_imports_run_one_way():
    # model -> clustering -> perturbation -> bounds and
    # model -> stability -> {bounds, lqr}: the operator math imports no
    # reduction code, and no module defers an import to call time.
    src = Path(mjsreduce.__file__).parent
    graph, deferred = {}, {}
    for path in sorted(src.glob("*.py")):
        graph[path.stem], deferred[path.stem] = _package_imports(ast.parse(path.read_text()))
    assert not {name: found for name, found in deferred.items() if found}
    graphlib.TopologicalSorter(graph).prepare()  # CycleError on a cycle
    assert graph["stability"] == {"errors", "model"}
    assert "perturbation" not in graph["clustering"]
