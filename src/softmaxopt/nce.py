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

from .exceptions import DimensionMismatch, DomainError, NonFiniteInput, PoolTooSmall
from .model import _log_p_and_p, _require_ints

MI_KINDS = ("head", "representation")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Nonnegative weights of the two bound terms in the overall objective."""

    beta: float = 0.1
    gamma: float = 0.05

    def __post_init__(self):
        for name in ("beta", "gamma"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise DomainError(f"{name} must be finite and >= 0")


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


def bilinear_score(anchor, partner, weight) -> float:
    """anchor^T W partner."""
    anchor = np.asarray(anchor, dtype=np.float64)
    partner = np.asarray(partner, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if weight.shape != (anchor.size, partner.size):
        raise DimensionMismatch(
            f"weight must be {anchor.size}x{partner.size}, got {weight.shape}"
        )
    return float(anchor @ weight @ partner)


def nce_loss(batch: NceBatch) -> float:
    """Log-softmax of the positive's score over all K candidate scores.

    Always <= 0; computed with max-subtraction so large scores do not
    overflow.
    """
    log_p, _ = _log_p_and_p(batch.candidates @ (batch.weight.T @ batch.anchor))
    return float(log_p[0])


def mi_lower_bound(batch: NceBatch, kind: str) -> float:
    """Mutual-information lower bound from one batch.

    ``representation`` adds log(K) to the contrastive loss.  ``head``
    returns the contrastive loss alone: its bound holds only up to an
    unknown additive constant, so head values are comparable only between
    batches of the same shape.
    """
    if kind not in MI_KINDS:
        raise DomainError(f"kind must be one of {MI_KINDS}")
    value = nce_loss(batch)
    if kind == "representation":
        value += float(np.log(batch.k))
    return value


def nce_gradients(batch: NceBatch) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of nce_loss w.r.t. the weight matrix and the anchor.

    With softmax weights sigma over candidate scores and candidate rows q_k:
    grad_W = anchor (q_1 - sum_k sigma_k q_k)^T and
    grad_anchor = W (q_1 - sum_k sigma_k q_k).
    """
    _, sigma = _log_p_and_p(batch.candidates @ (batch.weight.T @ batch.anchor))
    diff = batch.positive - sigma @ batch.candidates
    return np.outer(batch.anchor, diff), batch.weight @ diff


def overall_objective(
    task_loss: float, rep_bound: float, head_bound: float, wts: ObjectiveWeights
) -> float:
    """task_loss - beta * rep_bound - gamma * head_bound."""
    vals = (task_loss, rep_bound, head_bound)
    if not all(np.isfinite(v) for v in vals):
        raise NonFiniteInput("objective inputs must be finite")
    return task_loss - wts.beta * rep_bound - wts.gamma * head_bound


def sample_negatives(pool, k_minus_1: int, seed) -> list:
    """Uniform sample of k_minus_1 pool vectors without replacement."""
    if k_minus_1 < 0:
        raise DomainError("k_minus_1 must be >= 0")
    if k_minus_1 > len(pool):
        raise PoolTooSmall(f"pool has {len(pool)} entries, need {k_minus_1}")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(pool), size=k_minus_1, replace=False)
    return [pool[i] for i in idx]


# Mixing matrix of the synthetic correlated-pair experiment is fixed across
# seeds so that per-seed randomness covers only data, shuffling and sampling.
_MIX_SEED = 20240613


def paired_vs_shuffled_bounds(
    seed: int,
    dim_anchor: int = 8,
    dim_partner: int = 8,
    pool_size: int = 96,
    k: int = 8,
    epochs: int = 12,
    learning_rate: float = 0.2,
    noise: float = 0.1,
) -> tuple[float, float]:
    """Train the bilinear weight by ascent on correlated and shuffled pairs.

    Partners are a fixed linear image of their anchors plus noise; the
    shuffled control permutes partners to break the pairing.  Returns the
    mean representation bound of each variant after training.  A working
    estimator separates the two: correlated > shuffled.
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
    if not np.isfinite(noise) or noise < 0:
        raise DomainError("noise must be finite and >= 0")
    mix = np.random.default_rng(_MIX_SEED).standard_normal((dim_partner, dim_anchor))
    mix /= np.sqrt(dim_anchor)
    rng = np.random.default_rng(seed)
    anchors = rng.standard_normal((pool_size, dim_anchor))
    partners = anchors @ mix.T + noise * rng.standard_normal((pool_size, dim_partner))
    shuffled = partners[rng.permutation(pool_size)]

    bounds = []
    for part in (partners, shuffled):
        weight = np.zeros((dim_anchor, dim_partner))
        for _ in range(epochs):
            for i in range(pool_size):
                negs = _draw_negatives(rng, part, i, k - 1)
                batch = NceBatch(anchors[i], part[i], negs, weight)
                grad_w, _ = nce_gradients(batch)
                weight = weight + learning_rate * grad_w
        total = 0.0
        for i in range(pool_size):
            negs = _draw_negatives(rng, part, i, k - 1)
            batch = NceBatch(anchors[i], part[i], negs, weight)
            total += mi_lower_bound(batch, "representation")
        bounds.append(total / pool_size)
    return bounds[0], bounds[1]


def _draw_negatives(rng, partners, positive_index: int, count: int) -> np.ndarray:
    # a draw of positions among the other len - 1 rows takes the same random
    # stream as a draw from the array of their indices; skip the positive
    idx = rng.choice(len(partners) - 1, size=count, replace=False)
    return partners[idx + (idx >= positive_index)]
