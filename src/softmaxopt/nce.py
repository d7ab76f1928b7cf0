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
from .model import _log_p_and_p, _require_ints, _require_seed


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
    return float(_positive_log_p(batch.anchor, batch.candidates, batch.weight))


def nce_gradients(batch: NceBatch) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of nce_loss w.r.t. the weight matrix and the anchor.

    With softmax weights sigma over candidate scores and candidate rows q_k:
    grad_W = anchor (q_1 - sum_k sigma_k q_k)^T and
    grad_anchor = W (q_1 - sum_k sigma_k q_k).
    """
    diff = _positive_minus_mean(batch.anchor, batch.candidates, batch.weight)
    return np.outer(batch.anchor, diff), batch.weight @ diff


def _positive_log_p(anchor, candidates, weight):
    # log-softmax at candidate 0 of the scores; one value per batch of a stack
    log_p, _ = _log_p_and_p(_scores(anchor, candidates, weight))
    return log_p[..., 0]


def _positive_minus_mean(anchor, candidates, weight) -> np.ndarray:
    # q_1 - sigma @ Q, the factor both gradients share; one row per batch of a
    # stack.  sigma is the p of _log_p_and_p, without the log p training never reads
    z = _scores(anchor, candidates, weight)
    sigma = np.exp(z - z.max(axis=-1, keepdims=True))
    sigma /= sigma.sum(axis=-1, keepdims=True)
    return candidates[..., 0, :] - (sigma[..., None, :] @ candidates)[..., 0, :]


def _scores(anchor, candidates, weight) -> np.ndarray:
    """candidates @ (W^T anchor) for one batch, or for a stack of batches.

    ``anchor`` (..., p), ``candidates`` (..., k, q) and ``weight`` (..., p, q)
    broadcast over their leading axes.  Every product is a matmul of one
    batch's blocks, as ``model._matvec`` takes them, so each row of a stack is
    bitwise that batch alone.
    """
    w_t_anchor = weight.swapaxes(-1, -2) @ anchor[..., None]
    return (candidates @ w_t_anchor)[..., 0]


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

    Both chains train in lockstep on one ``(2, dim_anchor, dim_partner)``
    weight stack: each step takes one anchor's candidates of both chains
    through the stack-aware helpers ``nce_gradients`` and ``nce_loss`` use,
    and each row of the stack is bitwise that chain trained alone.  All
    negatives are drawn first, the correlated chain's ``epochs + 1`` passes
    and then the shuffled chain's, so the random stream is that of training
    one chain after the other.  Each pass is one batched Floyd draw plus
    shuffle (``_draw_passes``), the stream of one ``rng.choice`` per anchor:
    the bounds rest on numpy's streams of ``Generator.integers`` with int64
    array bounds and of ``Generator.choice``'s Floyd branch, and change only
    where ``choice`` would shuffle a tail instead (``pool_size > 10001`` and
    ``k - 1 > (pool_size - 1) // 50``).  The draws are kept as
    ``2 (epochs + 1) pool_size k`` int32 indices (about 80 KB at the
    defaults), and one pass's candidates of both chains are gathered at a
    time, every pass into the same ``(pool_size, 2, k, dim_partner)``
    buffer (98 KB at the defaults).  The bounds are summed anchor by anchor
    as Python floats.  A learning rate that overflows either chain's weight
    raises NonFiniteInput naming ``learning_rate``.
    """
    _require_seed(seed)
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

    passes = epochs + 1
    # pool rows pool_size + i hold the shuffled partners; the draws are the
    # correlated chain's passes, then the shuffled chain's, so rows[e, i] holds
    # both chains' candidates of anchor i in pass e
    rows = _draw_passes(rng, 2 * passes, pool_size, k).reshape(2, passes, pool_size, k)
    rows[1] += pool_size
    rows = rows.transpose(1, 2, 0, 3)
    pool = np.concatenate([partners, shuffled])

    log_k = float(np.log(k))
    weight = np.zeros((2, dim_anchor, dim_partner))
    # every pass, the scoring one too, gathers its candidates into this one
    # buffer; the indices are in range, so "clip" only spares take its copy
    gathered = np.empty((pool_size, 2, k, dim_partner))

    def gather(e):
        return np.take(pool, rows[e], axis=0, out=gathered, mode="clip")

    try:
        # an overflow anywhere in training or scoring raises here instead of
        # warning and leaving a NaN or Inf weight behind
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            for epoch in range(epochs):
                for anchor, candidates in zip(anchors, gather(epoch)):
                    diff = _positive_minus_mean(anchor, candidates, weight)
                    # np.outer(anchor, diff[c]) for each chain c, the same products
                    weight += learning_rate * (anchor[:, None] * diff[:, None, :])
            log_p = _positive_log_p(anchors[:, None], gather(-1), weight)
    except FloatingPointError as exc:
        raise NonFiniteInput(
            f"training overflowed float64 ({exc}); lower learning_rate, got {learning_rate!r}"
        ) from exc
    bounds = []
    for chain in log_p.T.tolist():
        # summed one anchor at a time, in order: np.sum would round differently
        total = 0.0
        for value in chain:
            total += value + log_k
        bounds.append(total / pool_size)
    return bounds[0], bounds[1]


# Anchors drawn in one block are at most this many flags of their
# (anchors, pool_size - 1) table of taken positions (1 MB of bools).
_DRAW_FLAGS = 2**20


def _draw_passes(rng, passes: int, pool_size: int, k: int) -> np.ndarray:
    """Candidate rows for ``passes`` passes over the pool: row [e, i] is [i, k - 1 others].

    Pass by pass and in anchor order, row [e, i] takes the positions of
    ``rng.choice(pool_size - 1, size=k - 1, replace=False)`` among the other
    rows; positions at or after i skip it, in one array operation per pass.
    Each pass is drawn by ``_floyd_samples``, one batched Floyd draw plus
    shuffle per block of anchors.  Wherever numpy's ``choice`` takes its
    Floyd branch (``pool_size - 1 <= 10000`` or
    ``k - 1 <= (pool_size - 1) // 50``) the rows and the generator's state
    afterwards are bitwise those of the per-anchor ``choice`` loop.  Above
    that, ``choice`` shuffles a tail of the whole population instead, and
    the rows here, though distinct, in range and free of the anchor, differ
    from its.  The rows are int32 while ``2 pool_size`` fits in it, half the
    memory of ``intp`` for the same gather.
    """
    # the caller shifts the shuffled chain's rows by pool_size
    dtype = np.int32 if 2 * pool_size <= np.iinfo(np.int32).max else np.intp
    rows = np.empty((passes, pool_size, k), dtype=dtype)
    rows[..., 0] = np.arange(pool_size)
    block = max(1, _DRAW_FLAGS // pool_size)
    for pass_rows in rows:
        others = pass_rows[:, 1:]
        for start in range(0, pool_size, block):
            chunk = others[start:start + block]
            chunk[...] = _floyd_samples(rng, len(chunk), pool_size - 1, k - 1).T
        others += others >= pass_rows[:, :1]
    return rows


def _floyd_samples(rng, count: int, population: int, size: int) -> np.ndarray:
    """``count`` samples of ``size`` distinct values in ``range(population)``, one per column.

    Column c is ``rng.choice(population, size=size, replace=False)`` of the
    c-th of ``count`` calls in a row, on its Floyd branch: Floyd's sampling
    (Bentley & Floyd, *A sample of brilliance*, CACM 1987) draws on [0, j]
    for j = population - size ... population - 1 and keeps j when the draw
    is already taken; a Fisher-Yates shuffle then swaps entry i with a draw
    on [0, i] for i = size - 1 ... 1.  ``Generator.integers`` with int64
    array bounds makes each of those draws by the same routine and in C
    order (8- and 16-bit dtypes buffer their draws and read the stream
    differently), so one call draws all ``count`` samples.  The
    duplicate test runs on a table of taken flags and the swaps on flat
    positions, each step a few array operations across the samples.
    """
    tops = np.arange(population - size, population)
    highs = np.concatenate([tops, np.arange(size - 1, 0, -1)]) + 1
    # row t holds every sample's t-th draw
    draws = rng.integers(0, highs, size=(count, highs.size), dtype=np.int64).T.copy()
    picks, swaps = draws[:size], draws[size:]
    # picks hold flat positions in the (count, population) table until Floyd ends
    base = np.arange(count) * population
    picks += base
    taken = np.zeros(count * population, dtype=bool)
    for top, pick in zip(tops, picks):
        np.copyto(pick, base + top, where=np.take(taken, pick))
        np.put(taken, pick, True)
    picks -= base
    # swaps hold flat positions in picks
    swaps *= count
    swaps += np.arange(count)
    flat = picks.reshape(-1)
    for i, swap in zip(range(size - 1, 0, -1), swaps):
        held = flat[swap]
        flat[swap] = picks[i]
        picks[i] = held
    return picks
