"""Mode reduction for Markov jump linear systems.

Cluster similar modes of a switched linear system, average them into a
smaller system, and quantify what the reduction costs: misclustering
guarantees, trajectory and distribution error bounds, stability
certificates, and regulator suboptimality.
"""

from .bounds import (
    BoundInputs,
    DiffStats,
    KernelDistribution,
    corollary_sum_bound,
    empirical_traj_diff,
    kernel_mean_cov,
    mss_premises,
    mss_traj_bound,
    transition_kernel_enum,
    us_premises,
    us_traj_bound,
    w2_moment_lower_bound,
    wasserstein_exact,
    wasserstein_kernel_bound,
)
from .clustering import (
    FeatureMatrix,
    ReductionResult,
    average_model,
    build_features_aggregatable,
    build_features_lumpable,
    default_weights,
    kmeans_partition,
    misclustering_rate,
    reduce_model,
)
from .errors import (
    BadWeights,
    ComputationError,
    DegenerateInput,
    DimensionMismatch,
    Diverged,
    InfeasibleBlock,
    InputError,
    MjsError,
    NotConverged,
    NotErgodic,
    NotMss,
    NotNormalized,
    PartitionMismatch,
    RankDeficient,
    RhoTooSmall,
    SingularInnerMatrix,
    SizeMismatch,
    TooLarge,
    TooManySequences,
    XiTooSmall,
)
from .experiments import EXPERIMENT_NAMES, ExperimentSpec, run_experiment
from .lqr import (
    CostReport,
    LqrSolution,
    SuboptimalityResult,
    closed_loop_average_cost,
    cumulative_cost_noisefree,
    lift_gains,
    monte_carlo_cost,
    reduced_lqr_suboptimality,
    riccati_operators,
    riccati_solve,
)
from .model import (
    MjsModel,
    Partition,
    Trajectory,
    expand_reduced,
    is_ergodic,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    simulate,
    simulate_batch,
    simulate_coupled,
    simulate_coupled_batch,
    stationary_distribution,
    validate_model,
)
from .perturbation import (
    MrBoundReport,
    PerturbationTriple,
    averaged_feature_matrix,
    bound_from_constants,
    combine_perturbations,
    construct_T0,
    mr_bound,
    perturbations,
)
from .stability import (
    JsrBounds,
    KappaEstimate,
    MomentOperator,
    StabilityComparison,
    StabilityReport,
    TauEstimate,
    augmented_matrix,
    jsr_bounds,
    kappa_estimate,
    second_moment_evolution,
    spectral_radius,
    stability_comparison,
    stability_report,
    tau_estimate,
)
from .synth import SynthConfig, fig4_model, generate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
