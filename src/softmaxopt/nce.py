"""Noise-contrastive mutual-information lower bounds on plain vectors.

A batch scores one anchor against K candidate partners (the true partner
first, then K-1 negatives) through a learnable bilinear form.  The
contrastive loss is the log-softmax of the positive's score, which is never
positive; ``log(K) + loss`` lower-bounds the mutual information between
anchor and partner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, DomainError, NonFiniteInput
from .model import _log_p_and_p, _require_ints


@dataclass(frozen=True, eq=False)
class NceBatch:
    """One anchor, K candidate partners and the bilinear weight.

    The partners are held as one K x q array ``candidates`` with the positive
    in row 0; ``positive`` and ``negatives`` (given as vectors or as a 2-D
    array) are views of its rows."""

    anchor: np.ndarray
    positive: np.ndarray
    negatives: np.ndarray
    weight: np.ndarray
    candidates: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        anchor = np.asarray(self.anchor, dtype=np.float64)
        positive = np.asarray(self.positive, dtype=np.float64)
        weight = np.asarray(self.weight, dtype=np.float64)
        if anchor.ndim != 1 or positive.ndim != 1 or weight.ndim != 2:
            raise DimensionMismatch("anchor/positive must be vectors, weight a matrix")
        if weight.shape != (anchor.size, positive.size):
            raise DimensionMismatch(
                f"weight must be {anchor.size}x{positive.size}, got {weight.shape}"
            )
        try:
            candidates = np.array([positive, *self.negatives], dtype=np.float64)
        except ValueError as exc:
            raise DimensionMismatch("all candidates must share the positive's length") from exc
        if not all(np.isfinite(arr).all() for arr in (anchor, candidates, weight)):
            raise NonFiniteInput("batch contains NaN or Inf")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "positive", candidates[0])
        object.__setattr__(self, "negatives", candidates[1:])
        object.__setattr__(self, "weight", weight)

    @property
    def k(self) -> int:
        return len(self.candidates)


def nce_loss(batch: NceBatch) -> float:
    """Log-softmax of the positive's score over all K candidate scores.

    Always <= 0; computed with max-subtraction so large scores do not
    overflow.
    """
    return _positive_log_p(batch.anchor, batch.candidates, batch.weight)


def mi_lower_bound(batch: NceBatch) -> float:
    """Mutual-information lower bound from one batch: log(K) plus the contrastive loss."""
    return nce_loss(batch) + float(np.log(batch.k))


def nce_gradients(batch: NceBatch) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of nce_loss w.r.t. the weight matrix and the anchor.

    With softmax weights sigma over candidate scores and candidate rows q_k:
    grad_W = anchor (q_1 - sum_k sigma_k q_k)^T and
    grad_anchor = W (q_1 - sum_k sigma_k q_k).
    """
    diff = _positive_minus_mean(batch.anchor, batch.candidates, batch.weight)
    return np.outer(batch.anchor, diff), batch.weight @ diff


def _positive_log_p(anchor, candidates, weight) -> float:
    # log-softmax at row 0 of the scores candidates @ (W^T anchor)
    log_p, _ = _log_p_and_p(candidates @ (weight.T @ anchor))
    return float(log_p[0])


def _positive_minus_mean(anchor, candidates, weight) -> np.ndarray:
    # q_1 - sigma @ Q, the factor both gradients share
    _, sigma = _log_p_and_p(candidates @ (weight.T @ anchor))
    return candidates[0] - sigma @ candidates


# Mixing matrix of the synthetic correlated-pair experiment is fixed across
# seeds so that per-seed randomness covers only data, shuffling and sampling.
_MIX_SEED = 20240613
# Standard deviation of the Gaussian noise on each partner.
_NOISE = 0.1


def paired_vs_shuffled_bounds(
    seed: int,
    dim_anchor: int = 8,
    dim_partner: int = 8,
    pool_size: int = 96,
    k: int = 8,
    epochs: int = 12,
    learning_rate: float = 0.2,
) -> tuple[float, float]:
    """Train the bilinear weight by ascent on correlated and shuffled pairs.

    Partners are a fixed linear image of their anchors plus Gaussian noise of
    standard deviation ``_NOISE``; the shuffled control permutes partners to
    break the pairing.  Returns the mean bound of each variant after
    training.  A working estimator separates the two: correlated > shuffled.

    Each pass over the pool draws every anchor's negatives first and gathers
    the pass's candidates in one index; a learning rate that overflows the
    weight raises NonFiniteInput naming ``learning_rate``.
    """
    _require_ints(
        dim_anchor=dim_anchor, dim_partner=dim_partner, pool_size=pool_size, k=k, epochs=epochs
    )
    if k < 1 or k > pool_size:
        raise DomainError("need 1 <= k <= pool_size")
    if dim_anchor < 1 or dim_partner < 1:
        raise DomainError("dim_anchor and dim_partner must be >= 1")
    if epochs < 0:
        raise DomainError("epochs must be >= 0")
    if not np.isfinite(learning_rate) or learning_rate <= 0:
        raise DomainError("learning_rate must be finite and > 0")
    mix = np.random.default_rng(_MIX_SEED).standard_normal((dim_partner, dim_anchor))
    mix /= np.sqrt(dim_anchor)
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((pool_size, dim_anchor))
    partners = anchors @ mix.T + _NOISE * rng.standard_normal((pool_size, dim_partner))
    shuffled = partners[rng.permutation(pool_size)]

    log_k = float(np.log(k))
    bounds = []
    try:
        # an overflow anywhere in training or scoring raises here instead of
        # warning and leaving a NaN or Inf weight behind
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            for part in (partners, shuffled):
                weight = np.zeros((dim_anchor, dim_partner))
                for _ in range(epochs):
                    batches = part[_draw_pass(rng, pool_size, k)]
                    for anchor, candidates in zip(anchors, batches):
                        diff = _positive_minus_mean(anchor, candidates, weight)
                        weight += learning_rate * np.outer(anchor, diff)
                # summed one anchor at a time, in order: np.sum would round differently
                batches = part[_draw_pass(rng, pool_size, k)]
                total = 0.0
                for anchor, candidates in zip(anchors, batches):
                    total += _positive_log_p(anchor, candidates, weight) + log_k
                bounds.append(total / pool_size)
    except FloatingPointError as exc:
        raise NonFiniteInput(
            f"training overflowed float64 ({exc}); lower learning_rate, got {learning_rate!r}"
        ) from exc
    return bounds[0], bounds[1]


def _draw_pass(rng, pool_size: int, k: int) -> np.ndarray:
    """Candidate rows for one pass over the pool: row i is [i, k - 1 others].

    One ``rng.choice`` per anchor, in anchor order: a draw of positions among
    the other pool_size - 1 rows takes the same random stream as a draw from
    the array of their indices; positions at or after i skip it.
    """
    rows = np.empty((pool_size, k), dtype=np.intp)
    rows[:, 0] = np.arange(pool_size)
    for i in range(pool_size):
        idx = rng.choice(pool_size - 1, size=k - 1, replace=False)
        rows[i, 1:] = idx + (idx >= i)
    return rows
