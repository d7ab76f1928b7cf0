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
from .model import _require_ints, _require_seed, _softmax_into


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
    return float(_nce_stack(batch.anchor, batch.candidates, batch.weight)[0])


def nce_gradients(batch: NceBatch) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients of nce_loss w.r.t. the weight matrix and the anchor.

    With softmax weights sigma over candidate scores and candidate rows q_k:
    grad_W = anchor (q_1 - sum_k sigma_k q_k)^T and
    grad_anchor = W (q_1 - sum_k sigma_k q_k).
    """
    diff = _nce_stack(batch.anchor, batch.candidates, batch.weight)[1]
    return np.outer(batch.anchor, diff), batch.weight @ diff


def _nce_stack(anchor, candidates, weight) -> tuple[np.ndarray, np.ndarray]:
    """The log-softmax at the positive and ``q_1 - sigma Q``, for one batch or a stack.

    ``anchor`` (..., p), ``candidates`` (..., k, q) and ``weight`` (..., p, q)
    broadcast over their leading axes; each row of a stack is bitwise that
    batch alone.  Each call runs the kernel in a fresh workspace of its own.
    """
    batch = np.broadcast_shapes(anchor.shape[:-1], candidates.shape[:-2], weight.shape[:-2])
    work = _workspace(batch, *candidates.shape[-2:])
    diff = _positive_minus_mean_into(weight.swapaxes(-1, -2), anchor[..., None], candidates, work)
    z, col = work[2], work[3]
    return z[..., 0] - np.log(col[..., 0]), diff


def _workspace(batch: tuple, k: int, q: int) -> tuple:
    """Buffers of ``_positive_minus_mean_into`` for a stack of shape ``batch``.

    In order: ``W^T a`` (q, 1); the scores (k, 1) and their (k,) view,
    which the kernel leaves shifted by their max; the (1,) column of
    ``model._softmax_into``, left holding the sum; sigma (1, k) and its
    (k,) view; ``sigma @ Q`` (1, q) and its (q,) view; the result (q,).
    """
    scores = np.empty((*batch, k, 1))
    sigma = np.empty((*batch, 1, k))
    mean = np.empty((*batch, 1, q))
    return (np.empty((*batch, q, 1)), scores, scores[..., 0], np.empty((*batch, 1)),
            sigma, sigma[..., 0, :], mean, mean[..., 0, :], np.empty((*batch, q)))


def _positive_minus_mean_into(weight_t, anchor_col, candidates, work) -> np.ndarray:
    """q_1 - sigma @ Q, written into the last buffer of ``work`` and returned.

    ``weight_t`` is W^T, ``anchor_col`` the anchor as a ``(..., p, 1)``
    column and ``candidates`` is Q; ``work`` comes from ``_workspace``.  The
    scores are ``Q (W^T a)``, each product a matmul of one batch's blocks as
    ``model._matvec`` takes them, and sigma is their ``model._softmax_into``.
    Every call writes into ``work``, so a caller that keeps the buffers and
    views makes no new array per call.
    """
    w_t_anchor, scores, z, col, sigma, p, mean, mean_row, diff = work
    np.matmul(weight_t, anchor_col, out=w_t_anchor)
    np.matmul(candidates, w_t_anchor, out=scores)
    _softmax_into(z, col, p)
    np.matmul(sigma, candidates, out=mean)
    return np.subtract(candidates[..., 0, :], mean_row, out=diff)


# Mixing matrix of the synthetic correlated-pair experiment is fixed across
# seeds so that per-seed randomness covers only data, shuffling and sampling.
_MIX_SEED = 20240613
# Standard deviation of the Gaussian noise on each partner.
_NOISE = 0.1
# Seeds trained in one stack hold at most this many bytes of draw indices and
# gathered candidates, counting 2 (epochs + 1) pool_size k indices of 4 bytes
# and 2 pool_size k dim_partner floats a seed: 178 KB at the defaults, so 23
# seeds to a stack, the CLI's default 20 among them.
_STACK_BYTES = 2**22


def paired_vs_shuffled_bounds(seed: int, **options) -> tuple[float, float]:
    """Train the bilinear weight by ascent on correlated and shuffled pairs.

    Partners are a fixed linear image of their anchors plus Gaussian noise of
    standard deviation ``_NOISE``; the shuffled control permutes partners to
    break the pairing.  Returns the mean bound of each variant after
    training.  A working estimator separates the two: correlated > shuffled.

    The keyword ``options`` are ``dim_anchor`` (default 8), ``dim_partner``
    (8), ``pool_size`` (96), ``k`` (8), ``epochs`` (12) and ``learning_rate``
    (0.2).  This is the one-seed case of ``_bounds``, which trains many
    seeds in one stack and gives each seed's bounds bitwise as this call
    does; its docstring says how.
    """
    return _bounds([seed], **options)[0]


def _bounds(
    seeds,
    dim_anchor: int = 8,
    dim_partner: int = 8,
    pool_size: int = 96,
    k: int = 8,
    epochs: int = 12,
    learning_rate: float = 0.2,
) -> list[tuple[float, float]]:
    """``paired_vs_shuffled_bounds`` of every seed in ``seeds``, in order, trained in lockstep.

    Each seed draws from its own ``default_rng(seed)`` in the order of
    training it alone: its anchors, partners and permutation, then all of
    its negatives, the correlated chain's ``epochs + 1`` passes and then the
    shuffled chain's (``_draw_passes``).  The draws are bitwise those of one
    ``rng.choice`` per anchor, so the bounds rest on numpy's streams of
    ``Generator.integers`` with int64 array bounds and of
    ``Generator.choice``'s Floyd branch, and change only where ``choice``
    would shuffle a tail instead (``pool_size > 10001`` and
    ``k - 1 > (pool_size - 1) // 50``).

    The seeds are stacked in chunks of at most ``_STACK_BYTES`` of draw
    indices and gathered candidates, so memory grows with one chunk, not
    with the number of seeds.  A chunk of S seeds trains its 2 S chains in
    lockstep on one flat ``(2 S, dim_anchor, dim_partner)`` weight stack,
    seed j's correlated chain in row 2 j and its shuffled chain in row
    2 j + 1: each step takes one anchor's candidates of every chain through
    the kernel ``nce_gradients`` and ``nce_loss`` use, with each seed's
    anchor repeated for its two chains, and each row of the stack is
    bitwise that chain trained alone.  The chunk keeps its
    ``2 S (epochs + 1) pool_size k`` draw indices in the narrowest of
    int16, int32 and ``intp`` that holds ``2 S pool_size`` (39,936 bytes a
    seed at the defaults), and gathers one pass's candidates of all its
    chains at a time, every pass into the same ``(pool_size, 2 S, k,
    dim_partner)`` buffer (98 KB a seed at the defaults).  Training
    allocates its buffers once per chunk: the workspace of
    ``_positive_minus_mean_into``, views of W^T and of each anchor as a
    column, and one ``step`` the size of the weight.  Each step is that
    kernel run in the workspace, then ``step = a (x) diff``,
    ``step *= learning_rate`` and ``weight += step``, the rounding of
    ``weight + learning_rate * np.outer(a, diff)``, with no new array.
    Each bound is summed anchor by anchor as Python floats.  A learning
    rate that overflows any chain's weight raises NonFiniteInput naming
    ``learning_rate``.
    """
    seeds = list(seeds)
    for seed in seeds:
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
    seed_bytes = 2 * pool_size * k * ((epochs + 1) * 4 + dim_partner * 8)
    chunk = max(1, _STACK_BYTES // seed_bytes)
    bounds = []
    for start in range(0, len(seeds), chunk):
        bounds += _train_stack(seeds[start:start + chunk], mix, pool_size, k, epochs, learning_rate)
    return bounds


def _train_stack(seeds, mix, pool_size, k, epochs, learning_rate) -> list[tuple[float, float]]:
    """The bounds of each seed in ``seeds``, all trained on one weight stack, as ``_bounds`` says."""
    dim_partner, dim_anchor = mix.shape
    chains = 2 * len(seeds)
    passes = epochs + 1
    # chain c of the stack is seed c // 2's correlated (c even) or shuffled
    # chain: anchors[i, c] holds the seed's anchor i, pool rows c pool_size + i
    # the chain's partners, and rows[e, i, c] its candidates of anchor i in pass e
    anchors = np.empty((pool_size, chains, dim_anchor))
    pool = np.empty((chains, pool_size, dim_partner))
    rows = np.empty((passes, pool_size, chains, k), dtype=_index_dtype(chains * pool_size))
    for j, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        drawn = rng.standard_normal((pool_size, dim_anchor))
        anchors[:, 2 * j:2 * j + 2] = drawn[:, None]
        pool[2 * j] = drawn @ mix.T + _NOISE * rng.standard_normal((pool_size, dim_partner))
        np.take(pool[2 * j], rng.permutation(pool_size), axis=0, out=pool[2 * j + 1])
        rows[:, :, 2 * j:2 * j + 2] = _draw_passes(rng, 2 * passes, pool_size, k).reshape(
            2, passes, pool_size, k).transpose(1, 2, 0, 3)
    rows += np.arange(0, chains * pool_size, pool_size, dtype=rows.dtype)[:, None]
    pool = pool.reshape(-1, dim_partner)

    log_k = float(np.log(k))
    weight = np.zeros((chains, dim_anchor, dim_partner))
    # every training step works in these buffers and views, made once; the
    # weight is only ever updated in place, so weight_t stays its transpose
    weight_t = weight.swapaxes(-1, -2)
    anchor_cols = anchors[..., None]
    work = _workspace((chains,), k, dim_partner)
    diff_rows = work[-1][:, None, :]
    step = np.empty_like(weight)
    # every pass, the scoring one too, gathers its candidates into this one
    # buffer; the indices are in range, so "clip" only spares take its copy
    gathered = np.empty((pool_size, chains, k, dim_partner))

    def gather(e):
        return np.take(pool, rows[e], axis=0, out=gathered, mode="clip")

    try:
        # an overflow anywhere in training or scoring raises here instead of
        # warning and leaving a NaN or Inf weight behind
        with np.errstate(over="raise", invalid="raise", under="ignore"):
            for epoch in range(epochs):
                for anchor_col, candidates in zip(anchor_cols, gather(epoch)):
                    _positive_minus_mean_into(weight_t, anchor_col, candidates, work)
                    # np.outer(anchor, diff[c]) for each chain c, then times
                    # learning_rate: the roundings of learning_rate * (a * d)
                    np.multiply(anchor_col, diff_rows, out=step)
                    step *= learning_rate
                    weight += step
            log_p = _nce_stack(anchors, gather(-1), weight)[0]
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
    return list(zip(bounds[::2], bounds[1::2]))


def _index_dtype(top: int):
    """The narrowest of int16, int32 and ``intp`` whose maximum is at least ``top``."""
    return next(t for t in (np.int16, np.int32, np.intp) if top <= np.iinfo(t).max)


# A draw block takes this many anchors, whichever passes they belong to (4
# passes of the default 96 anchors): each step of the Floyd draw is a few
# numpy calls across the block, and from a few hundred anchors on their cost
# per call is small beside the work per anchor.
_DRAW_ANCHORS = 384
# A block takes fewer anchors where their taken flags and int64 draws, under
# pool_size + 32 k bytes an anchor, would pass this many bytes.
_DRAW_BYTES = 2**25


def _draw_passes(rng, passes: int, pool_size: int, k: int) -> np.ndarray:
    """Candidate rows for ``passes`` passes over the pool: row [e, i] is [i, k - 1 others].

    Pass by pass and in anchor order, row [e, i] takes the positions of
    ``rng.choice(pool_size - 1, size=k - 1, replace=False)`` among the other
    rows; positions at or after i skip it, in one array operation over all
    passes.  The anchors of all passes, in that order, are drawn by
    ``_floyd_samples`` in blocks of ``_DRAW_ANCHORS`` (fewer where a block
    would pass ``_DRAW_BYTES``), a block ending wherever it ends, mid-pass
    or not.  Wherever numpy's ``choice`` takes its Floyd branch
    (``pool_size - 1 <= 10000`` or ``k - 1 <= (pool_size - 1) // 50``) the
    rows and the generator's state afterwards are bitwise those of the
    per-anchor ``choice`` loop.  Above that, ``choice`` shuffles a tail of
    the whole population instead, and the rows here, though distinct, in
    range and free of the anchor, differ from its.  The rows take the
    narrowest of int16, int32 and ``intp`` that holds ``2 pool_size``: a
    quarter of the memory of ``intp`` for the same gather while
    ``pool_size <= 16383`` (39,936 bytes for the default experiment's 26
    passes of 96 anchors and 8 candidates), half of it while
    ``pool_size <= 2**30 - 1``.
    """
    # narrow enough that the rows, shifted to the second of two pools, still fit
    rows = np.empty((passes, pool_size, k), dtype=_index_dtype(2 * pool_size))
    rows[..., 0] = np.arange(pool_size)
    flat = rows.reshape(-1, k)
    others = flat[:, 1:]
    block = max(1, min(_DRAW_ANCHORS, _DRAW_BYTES // (pool_size + 32 * k)))
    for start in range(0, len(others), block):
        chunk = others[start:start + block]
        chunk[...] = _floyd_samples(rng, len(chunk), pool_size - 1, k - 1).T
    others += others >= flat[:, :1]
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
