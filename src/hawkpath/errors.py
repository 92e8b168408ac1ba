"""Exception types shared across the package."""


class HawkpathError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(HawkpathError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(HawkpathError):
    """An experiment configuration document is malformed or inconsistent."""


class DivergingKernelError(HawkpathError):
    """Quadrature failed to converge: the kernel has a non-integrable singularity."""


class InfiniteVariationError(HawkpathError):
    """p-variation requested for a kernel family that is unbounded on (0, T]."""


class InstabilityError(HawkpathError):
    """The stability ratio is >= 1 and no override was given."""


class RunawayIntensityError(HawkpathError):
    """The intensity needs a dominating-measure ceiling past the atom budget."""


class InstabilityWarning(UserWarning):
    """The discrete stability ratio is >= 1; results may be explosive."""
