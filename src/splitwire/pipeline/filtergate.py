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

from ..errors import RangeError
from ..latency import FilterOutcomeModel

__all__ = ["FilterModel", "GateMetrics", "filter_decide", "gate_metrics"]


@dataclass(frozen=True)
class FilterModel:
    threshold: float = 0.1
    p_empty: float = 0.46
    mu_empty: float = 0.0
    sigma_empty: float = 1.0
    mu_nonempty: float = 1.977
    sigma_nonempty: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise RangeError(f"threshold must be in [0, 1], got {self.threshold}")
        if not 0.0 <= self.p_empty <= 1.0:
            raise RangeError(f"p_empty must be in [0, 1], got {self.p_empty}")
        if self.sigma_empty <= 0 or self.sigma_nonempty <= 0:
            raise RangeError("score sigmas must be > 0")

    def sample_scores(self, is_empty: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One score per image, drawn from the class-conditional model."""
        is_empty = np.asarray(is_empty, dtype=bool)
        mu = np.where(is_empty, self.mu_empty, self.mu_nonempty)
        sigma = np.where(is_empty, self.sigma_empty, self.sigma_nonempty)
        latent = rng.normal(mu, sigma)
        return 1.0 / (1.0 + np.exp(-latent))

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

    def outcome_model(self) -> FilterOutcomeModel:
        return FilterOutcomeModel(self.analytic_drop_rate())


def _norm_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def filter_decide(score: float, threshold: float) -> bool:
    """True when the image should be dropped (score strictly below threshold)."""
    if not 0.0 <= score <= 1.0:
        raise RangeError(f"score must be in [0, 1], got {score}")
    if not 0.0 <= threshold <= 1.0:
        raise RangeError(f"threshold must be in [0, 1], got {threshold}")
    return score < threshold


@dataclass(frozen=True)
class GateMetrics:
    drop_rate: float
    recall_nonempty: float
    false_negative_rate: float
    empirical_auc: float
    n: int


def _rank_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC with midrank tie handling; nan if one class absent."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # each run of tied scores [start, end) shares the midrank (start + end + 1) / 2
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size]
    pos_per_run = np.add.reduceat(positive[order].astype(np.float64), starts)
    rank_sum = float(np.dot(0.5 * (starts + ends + 1), pos_per_run))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def gate_metrics(fm: FilterModel, n: int, seed: int) -> GateMetrics:
    """Monte Carlo gate statistics over ``n`` sampled (class, score) pairs."""
    if n < 1:
        raise RangeError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    is_empty = rng.random(n) < fm.p_empty
    scores = fm.sample_scores(is_empty, rng)
    dropped = scores < fm.threshold

    nonempty = ~is_empty
    n_nonempty = int(nonempty.sum())
    if n_nonempty:
        recall = float((nonempty & ~dropped).sum() / n_nonempty)
    else:
        recall = float("nan")
    return GateMetrics(
        drop_rate=float(dropped.mean()),
        recall_nonempty=recall,
        false_negative_rate=(1.0 - recall) if n_nonempty else float("nan"),
        empirical_auc=_rank_auc(scores, nonempty),
        n=n,
    )
