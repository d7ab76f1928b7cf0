"""Exception types shared across the package."""


class SoftmaxOptError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteInput(SoftmaxOptError, ValueError):
    """An input array contains NaN or Inf."""


class DomainError(SoftmaxOptError, ValueError):
    """A value lies outside the mathematical domain of an operation."""


class DimensionMismatch(SoftmaxOptError, ValueError):
    """Operand shapes are incompatible."""


class SingularHessian(SoftmaxOptError):
    """The (approximate) Hessian is numerically singular, so no Newton step exists."""


class NonFiniteIterate(SoftmaxOptError, ArithmeticError):
    """An optimizer update produced NaN or Inf."""


class SamplingDegenerate(SoftmaxOptError):
    """Row sampling produced a rank-deficient Hessian estimate."""


class KernelNotPSD(SoftmaxOptError):
    """The curvature kernel cannot be factored for row sampling.

    Raised when the kernel has a meaningfully negative eigenvalue, or when
    its diagonal part c has an entry c_i <= 0 on a row that is not
    identically zero.
    """


class MidNotPD(SoftmaxOptError, ValueError):
    """The reference matrix of a two-sided spectral bound is not positive definite."""


class AsymmetricMatrix(SoftmaxOptError, ValueError):
    """A matrix that must be symmetric is not."""


class MissingPlantedOptimum(SoftmaxOptError, ValueError):
    """A convergence audit needs error-to-optimum data that the trace does not carry."""


class NonFiniteEvaluation(SoftmaxOptError, ArithmeticError):
    """A callback returned NaN or Inf during finite differencing."""


class SamplingFailure(SoftmaxOptError, RuntimeError):
    """Could not sample points satisfying the probe preconditions."""


class GenerationFailure(SoftmaxOptError, RuntimeError):
    """The instance generator could not meet its targets within the retry budget."""
