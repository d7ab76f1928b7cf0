"""Exp-space weights ``u = exp(A x)``, their sum and their normalization, as test oracles.

The package evaluates ``log f`` and ``f`` from one max-shift of the logits
(``softmaxopt.model.make_state``) and never forms ``exp(A x)``.  The helpers
here take the textbook path, ``u = exp(A x)``, ``alpha = <u, 1>`` and
``f = u / alpha``, so the tests can check the log-space state against an
independent evaluation wherever the logits stay inside the float64 exponent
range.
"""

from __future__ import annotations

import numpy as np

from softmaxopt.exceptions import DomainError
from softmaxopt.model import ProblemInstance, _require_finite, _vector, logits

# Largest z with exp(z) finite in float64.
MAX_EXP_ARG = float(np.log(np.finfo(np.float64).max))


def evaluate_u(inst: ProblemInstance, x) -> np.ndarray:
    """Entrywise exponential of A @ x.

    Raises OverflowError when any entry of A @ x escapes the float64
    exponent range in either direction (exp would return Inf or exactly 0,
    both of which break the positivity of the weights).
    """
    z = logits(inst, x)
    if np.any(z > MAX_EXP_ARG):
        raise OverflowError(
            f"exp(A @ x) overflows float64 (max logit {z.max():.3g})"
        )
    u = np.exp(z)
    if np.any(u == 0.0):
        raise OverflowError(
            f"exp(A @ x) underflows to zero (min logit {z.min():.3g})"
        )
    return u


def evaluate_alpha(u) -> float:
    """Sum of the positive weights u."""
    u = _vector(u, "u")
    _require_finite(u, "u")
    if np.any(u <= 0.0):
        raise DomainError("all entries of u must be strictly positive")
    alpha = float(np.sum(u))
    if not np.isfinite(alpha):
        raise OverflowError("sum of u overflows float64")
    return alpha


def evaluate_f(u) -> np.ndarray:
    """Normalize positive weights to a probability vector u / sum(u)."""
    u = _vector(u, "u")
    alpha = evaluate_alpha(u)
    return u / alpha
