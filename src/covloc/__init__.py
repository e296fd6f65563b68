"""covloc: coupled lattice SDE simulation, covariance decay bounds, and localization."""

__version__ = "0.1.0"

from .lattice import (
    BlockCovariance,
    ContractViolationError,
    LatticeModelSpec,
    LipschitzConstants,
    cyclic_distance,
    lipschitz_constants,
)
from .models import (
    FhnParams,
    LinearParams,
    RegimePreset,
    REGIMES,
    PresetNotFoundError,
    fhn_model,
    linear_model,
    regime,
    stiffest_rate,
)
from .integrator import (
    EnsembleState,
    IntegratorConfig,
    NumericalBlowupError,
    PathResult,
    euler_step,
    simulate_ensemble,
    simulate_path,
)
from .analytic import (
    analytic_covariance,
    analytic_mean,
    build_system_matrix,
    circulant_covariance_row,
)
from .estimators import (
    EstimatorReport,
    SteinCheck,
    monte_carlo_pair_covariance,
    sample_covariance,
    shifted_pair_covariance,
    spatial_average,
    stein_identity_residual,
)
from .bounds import (
    BoundEvaluation,
    BoundInputs,
    bound_inputs_from_model,
    covariance_bound,
    diffusion_only_bound,
    estimator_variance_bound,
    growth_rates,
    kernel_entry_bound,
    local_coefficient,
    longtime_bound,
    meanfield_only_bound,
    optimize_beta,
    surrogate_kernel,
)
from .localization import (
    LocalizationPlan,
    choose_bandwidth,
    localization_error_bound,
    localize,
    plan_localization,
    recommended_sample_size,
)
