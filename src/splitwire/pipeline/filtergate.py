"""Neural prefilter gate model.

The gate drops an image when its prediction score falls strictly below the
threshold. Scores are modeled as logistic-squashed Gaussian latents, one
distribution per class; the defaults (latent means 0 and 1.977, unit sigma)
are calibrated so the two-class separation gives a 0.919 ROC-AUC. All of it
is configuration, not behaviour baked into the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import RangeError, check_number

__all__ = ["FilterModel", "GateMetrics", "draw_labels", "gate_metrics"]

# elements per block: a block of float64 scores or uint64 sort keys is 128 KiB
_BLOCK = 1 << 14


@dataclass(frozen=True)
class FilterModel:
    threshold: float = 0.1
    p_empty: float = 0.46
    mu_empty: float = 0.0
    sigma_empty: float = 1.0
    mu_nonempty: float = 1.977
    sigma_nonempty: float = 1.0

    def __post_init__(self):
        for name in ("threshold", "p_empty"):
            check_number(name, getattr(self, name), at_least=0.0, at_most=1.0)
        for name in ("mu_empty", "mu_nonempty"):
            check_number(name, getattr(self, name))
        for name in ("sigma_empty", "sigma_nonempty"):
            check_number(name, getattr(self, name), above=0.0)

    def sample_scores(self, is_empty: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One score in [0, 1] per image, drawn from the class-conditional model.

        The scores have the shape of ``is_empty``. Each is ``1 / (1 + exp(-l))``
        for the latent ``l = mu + sigma * z``, with ``z`` the generator's next
        standard normal: the same draws and IEEE operations per element as
        ``1 / (1 + exp(-rng.normal(mu, sigma)))`` on whole arrays. The work
        runs in place on the normals, in blocks of ``_BLOCK`` elements, so the
        only temporaries are a block's ``mu`` and ``sigma``. No score is NaN
        or -0.0: an exp that overflows gives the score +0.0, its limit.
        """
        is_empty = np.asarray(is_empty, dtype=bool)
        scores = rng.standard_normal(is_empty.shape)
        flat, labels = scores.reshape(-1), is_empty.reshape(-1)
        # an extreme sigma or mu overflows the latent to +-inf, never to NaN;
        # below a latent of about -709 exp overflows to inf and the score is 0, its limit
        with np.errstate(over="ignore"):
            for start in range(0, flat.size, _BLOCK):
                s, e = flat[start:start + _BLOCK], labels[start:start + _BLOCK]
                s *= np.where(e, self.sigma_empty, self.sigma_nonempty)
                s += np.where(e, self.mu_empty, self.mu_nonempty)
                np.negative(s, out=s)
                np.exp(s, out=s)
                s += 1.0
                np.divide(1.0, s, out=s)
        return scores

    def drops(self, scores: np.ndarray) -> np.ndarray:
        """True where an image is dropped: its score strictly below the threshold."""
        return scores < self.threshold

    def drop_probability(self, is_empty: bool) -> float:
        """P(score < threshold | class), in closed form."""
        if self.threshold <= 0.0:
            return 0.0
        if self.threshold >= 1.0:
            return 1.0
        cut = math.log(self.threshold / (1.0 - self.threshold))
        mu = self.mu_empty if is_empty else self.mu_nonempty
        sigma = self.sigma_empty if is_empty else self.sigma_nonempty
        return _norm_cdf((cut - mu) / sigma)

    def analytic_drop_rate(self) -> float:
        """Marginal drop probability under the empty-image prior."""
        return (self.p_empty * self.drop_probability(True)
                + (1.0 - self.p_empty) * self.drop_probability(False))


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class GateMetrics:
    drop_rate: float
    recall_nonempty: float
    false_negative_rate: float
    empirical_auc: float
    n: int


def draw_labels(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """``rng.random(n) < p`` as ``n`` bools, drawn ``_BLOCK`` uniforms at a time.

    A generator yields the same uniforms in blocks as in one call, so the
    labels are those of the one call; only a block of uniforms is held.
    """
    labels = np.empty(n, dtype=bool)
    uniforms = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        u = uniforms[:min(_BLOCK, n - start)]
        rng.random(out=u)
        np.less(u, p, out=labels[start:start + u.size])
    return labels


def _rank_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC with midrank tie handling; nan if one class absent.

    The scores must lie in [0, 1] and not be -0.0, as every score of
    ``sample_scores`` does. Then their float64 bit patterns, read as uint64,
    order like their values, and equal values have equal bits. Each sample
    becomes one key, its bits shifted left by one with its label (1 for a
    positive) in the low bit, and one in-place sort of the keys ranks every
    sample. In a run of tied scores the negatives' keys come first.

    An untied positive at sorted position i has rank i + 1. A tied run
    [s, e) with p positives and q negatives gives each positive the midrank
    (s + e + 1) / 2: q / 2 less than the mean of the ranks e - p + 1 .. e
    they hold behind the negatives. So twice the positives' rank sum is
    2 * (i + 1) summed over the positives, less p * q over each run with
    both classes, the one place where a negative's key is followed by a key
    one greater. That integer is summed exactly as a Python int and halved
    once, so the AUC is the same float for any summation order. The sums run
    on integers, off BLAS, whose float kernels on a long vector wake worker
    threads that then busy-wait on the other cores.

    The keys are built in the buffer of ``scores`` when that is a
    contiguous float64 array, so the caller's scores are lost.
    """
    positive = np.asarray(positive, dtype=bool).reshape(-1)
    n = positive.size
    n_pos = int(np.count_nonzero(positive))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    keys = np.ascontiguousarray(scores, dtype=np.float64).reshape(-1).view(np.uint64)
    for start in range(0, n, _BLOCK):
        k = keys[start:start + _BLOCK]
        k <<= 1
        k |= positive[start:start + _BLOCK]
    keys.sort()

    twice_rank_sum = 0
    for start in range(0, n, _BLOCK):
        k = keys[start:start + _BLOCK]
        at = np.flatnonzero(k & 1)
        twice_rank_sum += 2 * (int(at.sum()) + at.size * (start + 1))
        # a run with both classes: its last negative's key, then one greater
        after = keys[start + 1:start + 1 + _BLOCK]
        last_neg = start + np.flatnonzero((k[:after.size] ^ after) == 1)
        if last_neg.size:
            run_start = np.searchsorted(keys, keys[last_neg])
            run_end = np.searchsorted(keys, keys[last_neg + 1], side="right")
            q, p = last_neg + 1 - run_start, run_end - last_neg - 1
            twice_rank_sum -= int((p * q).sum())
    rank_sum = twice_rank_sum / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def gate_metrics(fm: FilterModel, n: int, seed: int) -> GateMetrics:
    """Monte Carlo gate statistics over ``n`` sampled (class, score) pairs.

    It holds n labels (1 byte each) and n scores (8 bytes each), plus a drop
    mask (1 byte each) while the drops are counted; the AUC then sorts keys
    built in the scores' own buffer. Every other temporary is one block of
    ``_BLOCK`` elements, so a run takes about 10 bytes per sample.
    """
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    is_empty = draw_labels(rng, n, fm.p_empty)
    scores = fm.sample_scores(is_empty, rng)
    dropped = fm.drops(scores)
    n_dropped = int(np.count_nonzero(dropped))
    # a nonempty image is recalled unless dropped; the mask is reused in place
    n_recalled = n - int(np.count_nonzero(np.logical_or(dropped, is_empty, out=dropped)))
    del dropped
    n_nonempty = n - int(np.count_nonzero(is_empty))
    recall = n_recalled / n_nonempty if n_nonempty else float("nan")
    # the labels become the AUC's positives, nonempty, in place
    nonempty = np.logical_not(is_empty, out=is_empty)
    return GateMetrics(
        drop_rate=n_dropped / n,
        recall_nonempty=recall,
        false_negative_rate=(1.0 - recall) if n_nonempty else float("nan"),
        empirical_auc=_rank_auc(scores, nonempty),
        n=n,
    )
