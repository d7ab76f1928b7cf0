"""The paired-vs-shuffled NCE experiment as a per-batch loop, as a test oracle.

The package runs the experiment as an array loop
(``softmaxopt.nce._bounds``): many seeds on one weight stack, negatives
drawn in blocks of anchors, one gather per pass over the pool, and one
shared kernel for the gradient step.
The loop here builds and validates one ``NceBatch`` per sample, draws its
negatives alone and trains and scores it through the public
``nce_gradients`` and ``nce_loss`` (the bound is ``nce_loss + log K``), so
the tests can check that the array loop gives bitwise the same bounds.
"""

from __future__ import annotations

import numpy as np

from softmaxopt.exceptions import DomainError
from softmaxopt.model import _require_ints
from softmaxopt.nce import _MIX_SEED, _NOISE, NceBatch, nce_gradients, nce_loss


def paired_vs_shuffled_bounds(
    seed: int,
    dim_anchor: int = 8,
    dim_partner: int = 8,
    pool_size: int = 96,
    k: int = 8,
    epochs: int = 12,
    learning_rate: float = 0.2,
) -> tuple[float, float]:
    """Mean bound of the correlated and of the shuffled pairs after training."""
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
            total += nce_loss(batch) + float(np.log(batch.k))
        bounds.append(total / pool_size)
    return bounds[0], bounds[1]


def _draw_negatives(rng, partners, positive_index: int, count: int) -> np.ndarray:
    # a draw of positions among the other len - 1 rows takes the same random
    # stream as a draw from the array of their indices; skip the positive
    idx = rng.choice(len(partners) - 1, size=count, replace=False)
    return partners[idx + (idx >= positive_index)]
