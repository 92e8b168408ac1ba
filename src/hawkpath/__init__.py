"""Coupled simulation of marked self-exciting risk processes and their
discrete-time approximation, with exact path metrics and Monte Carlo
convergence tooling."""

from .bounds import (
    BoundSet,
    bound_sets,
    modulus_poisson_bound,
    rho_continuous,
    rho_discrete,
)
from .errors import (
    ConfigError,
    DivergingKernelError,
    HawkpathError,
    InfiniteVariationError,
    InstabilityError,
    InstabilityWarning,
    ParameterError,
    RunawayIntensityError,
)
from .kernels import (
    GridCoefficients,
    Kernel,
    c_r,
    compact_kernel,
    constant_kernel,
    cosine_decay_kernel,
    custom_kernel,
    erlang_kernel,
    exponential_kernel,
    grid_coefficients,
    inverse_sqrt_kernel,
    l1_norm,
    p_variation,
    tabulated_kernel,
    zero_kernel,
)
from .metrics import (
    PowerLawFit,
    feasible_eps,
    fit_powerlaw,
    modulus_sparse,
    skorokhod_distance,
    skorokhod_upper_bound,
    sobolev_distance,
    sobolev_norm,
    step_sub,
    uniform_distance,
)
from .randomness import (
    MarkModel,
    MarkMoments,
    PoissonAtoms,
    Strip,
    extend_ceiling,
    mark_moments,
    sample_atoms,
)
from .simulate import (
    ContinuousPath,
    DiscreteTrace,
    JumpRate,
    StepPath,
    clipped_affine,
    constant_rate,
    couple,
    default_ceiling,
    eval_intensity,
    integrate_intensity,
    make_step_path,
    path_to_step,
    relu_affine,
    sigmoid_rate,
    simulate_continuous,
    simulate_ladder,
    step_from_jumps,
)

__version__ = "0.1.0"
