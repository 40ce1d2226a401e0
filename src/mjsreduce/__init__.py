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
    StabilityComparison,
    empirical_traj_diff,
    mss_premises,
    mss_traj_bound,
    stability_comparison,
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
    lift_gains,
    monte_carlo_cost,
    reduced_lqr_suboptimality,
    riccati_solve,
)
from .model import (
    MjsModel,
    Partition,
    expand_reduced,
    load_model,
    model_to_dict,
    save_model,
    simulate_coupled_batch,
)
from .perturbation import (
    MrBoundReport,
    PerturbationTriple,
    construct_T0,
    mr_bound,
    perturbations,
)
from .stability import (
    JsrBounds,
    MomentOperator,
    StabilityReport,
    TransientEstimate,
    augmented_matrix,
    jsr_bounds,
    kappa_estimate,
    spectral_radius,
    stability_report,
    tau_estimate,
)
from .synth import SynthConfig, fig4_model, generate

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
