import math

import numpy as np
import pytest

from splitwire.errors import RangeError
from splitwire.pipeline.filtergate import (
    FilterModel,
    _rank_auc,
    filter_decide,
    gate_metrics,
)


def test_score_below_threshold_drops():
    assert filter_decide(0.05, 0.1) is True


def test_boundary_score_is_kept():
    # the rule is strictly less-than
    assert filter_decide(0.1, 0.1) is False


def test_zero_threshold_keeps_everything():
    for score in (0.0, 0.01, 0.5, 1.0):
        assert filter_decide(score, 0.0) is False


def test_score_range_checked():
    with pytest.raises(RangeError):
        filter_decide(1.2, 0.1)
    with pytest.raises(RangeError):
        filter_decide(-0.1, 0.1)
    with pytest.raises(RangeError):
        filter_decide(0.5, 1.5)


def test_default_model_hits_calibrated_auc():
    gm = gate_metrics(FilterModel(), n=100_000, seed=1)
    assert gm.empirical_auc == pytest.approx(0.919, abs=0.01)


def test_zero_threshold_metrics():
    gm = gate_metrics(FilterModel(threshold=0.0), n=20_000, seed=2)
    assert gm.recall_nonempty == 1.0
    assert gm.drop_rate == 0.0
    assert gm.false_negative_rate == 0.0


def test_rank_auc_counts_tied_pairs_as_half():
    rng = np.random.default_rng(7)
    scores = np.round(rng.random(40), 1)
    positive = rng.random(40) < 0.4
    pos, neg = scores[positive], scores[~positive]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    assert _rank_auc(scores, positive) == wins / (pos.size * neg.size)


def test_identical_distributions_give_half_auc():
    fm = FilterModel(mu_empty=1.0, mu_nonempty=1.0)
    gm = gate_metrics(fm, n=100_000, seed=3)
    assert gm.empirical_auc == pytest.approx(0.5, abs=0.01)


def test_single_sample_runs():
    gm = gate_metrics(FilterModel(), n=1, seed=4)
    assert gm.n == 1
    assert 0.0 <= gm.drop_rate <= 1.0
    # one class is necessarily absent, so rank AUC is undefined
    assert math.isnan(gm.empirical_auc)


def test_gate_metrics_deterministic_per_seed():
    a = gate_metrics(FilterModel(), n=5000, seed=7)
    b = gate_metrics(FilterModel(), n=5000, seed=7)
    c = gate_metrics(FilterModel(), n=5000, seed=8)
    assert a == b
    assert a != c


def test_gate_metrics_rejects_nonpositive_n():
    with pytest.raises(RangeError):
        gate_metrics(FilterModel(), n=0, seed=0)


def test_drop_rate_converges_to_analytic_mixture():
    fm = FilterModel()
    n = 100_000
    gm = gate_metrics(fm, n=n, seed=11)
    p = fm.analytic_drop_rate()
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(gm.drop_rate - p) <= 3 * sigma


def test_analytic_drop_rate_mixture_formula():
    fm = FilterModel(threshold=0.3, p_empty=0.25, mu_empty=-1.0, mu_nonempty=2.0)
    expected = (0.25 * fm.drop_probability(True)
                + 0.75 * fm.drop_probability(False))
    assert fm.analytic_drop_rate() == expected
    assert fm.outcome_model().p_drop == expected


def test_drop_probability_closed_form():
    fm = FilterModel(threshold=0.5, mu_empty=0.0, sigma_empty=1.0)
    # logit(0.5) = 0, so P(latent < 0) for a standard normal is one half
    assert fm.drop_probability(True) == pytest.approx(0.5, abs=1e-12)
    assert FilterModel(threshold=0.0).drop_probability(True) == 0.0
    assert FilterModel(threshold=1.0).drop_probability(False) == 1.0


def test_scores_live_in_unit_interval():
    fm = FilterModel(mu_empty=-30.0, mu_nonempty=30.0, sigma_empty=5.0,
                     sigma_nonempty=5.0)
    rng = np.random.default_rng(5)
    scores = fm.sample_scores(np.array([True, False] * 500), rng)
    assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


def test_model_validation():
    with pytest.raises(RangeError):
        FilterModel(threshold=1.2)
    with pytest.raises(RangeError):
        FilterModel(p_empty=-0.1)
    with pytest.raises(RangeError):
        FilterModel(sigma_empty=0.0)


def test_mean_separation_matches_auc_calibration():
    # Phi(d / sqrt(2)) with d = 1.977 is the intended 0.919 design point
    d = FilterModel().mu_nonempty - FilterModel().mu_empty
    auc = 0.5 * (1.0 + math.erf(d / math.sqrt(2.0) / math.sqrt(2.0)))
    assert auc == pytest.approx(0.919, abs=5e-4)
