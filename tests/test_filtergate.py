import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitwire.errors import RangeError
from splitwire.pipeline.filtergate import (_BLOCK, FilterModel, GateMetrics, _rank_auc,
                                           draw_labels, gate_metrics)

# the whole-array kernels the blocked ones replaced, kept as oracles


def whole_array_scores(fm, is_empty, rng):
    mu = np.where(is_empty, fm.mu_empty, fm.mu_nonempty)
    sigma = np.where(is_empty, fm.sigma_empty, fm.sigma_nonempty)
    latent = rng.normal(mu, sigma)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-latent))


def argsort_auc(scores, positive):
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores)
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size]
    pos_per_run = np.add.reduceat(positive[order].astype(np.int64), starts)
    rank_sum = int(((starts + ends + 1) * pos_per_run).sum()) / 2
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def whole_array_gate_metrics(fm, n, seed):
    rng = np.random.default_rng(seed)
    is_empty = rng.random(n) < fm.p_empty
    scores = whole_array_scores(fm, is_empty, rng)
    dropped = fm.drops(scores)
    nonempty = ~is_empty
    n_nonempty = int(nonempty.sum())
    recall = float((nonempty & ~dropped).sum() / n_nonempty) if n_nonempty else float("nan")
    return GateMetrics(
        drop_rate=float(dropped.mean()),
        recall_nonempty=recall,
        false_negative_rate=(1.0 - recall) if n_nonempty else float("nan"),
        empirical_auc=argsort_auc(scores, nonempty),
        n=n,
    )


# the four extreme models of test_scores_live_in_unit_interval
EXTREME_MODELS = [
    dict(mu_empty=-30.0, mu_nonempty=30.0, sigma_empty=5.0, sigma_nonempty=5.0),
    dict(mu_empty=-1e308, mu_nonempty=1e308),
    dict(mu_empty=1e308, mu_nonempty=-1e308, sigma_empty=1e308, sigma_nonempty=1e308),
    dict(sigma_empty=1e308, sigma_nonempty=1e-300),
]
BLOCK_EDGES = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7]


def test_score_below_threshold_drops():
    drops = FilterModel(threshold=0.1).drops(np.array([0.05, 0.1, 0.2]))
    assert drops.tolist() == [True, False, False]


def test_boundary_score_is_kept():
    # the rule is strictly less-than
    assert FilterModel(threshold=0.1).drops(np.array([0.1])).tolist() == [False]


def test_zero_threshold_keeps_everything():
    drops = FilterModel(threshold=0.0).drops(np.array([0.0, 0.01, 0.5, 1.0]))
    assert drops.tolist() == [False] * 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wide_latent_scores_without_an_overflow_warning():
    # a latent below about -709 overflows exp; its score is 0, the limit
    fm = FilterModel(mu_empty=-1000.0)
    scores = fm.sample_scores(np.array([True, False]), np.random.default_rng(0))
    assert scores[0] == 0.0 and 0.0 < scores[1] < 1.0


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


@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=80))
@example([(1, True), (1, True)])
def test_rank_auc_equals_the_pairwise_count(rows):
    # few distinct scores, so most pairs tie; a tie counts as half a win
    scores = np.array([s / 3 for s, _ in rows])
    positive = np.array([p for _, p in rows])
    pos, neg = scores[positive], scores[~positive]
    if pos.size == 0 or neg.size == 0:
        assert math.isnan(_rank_auc(scores, positive))
        return
    twice_wins = sum(2 * int(p > q) + int(p == q) for p in pos for q in neg)
    assert _rank_auc(scores, positive) == twice_wins / 2 / (pos.size * neg.size)


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


def test_drop_probability_closed_form():
    fm = FilterModel(threshold=0.5, mu_empty=0.0, sigma_empty=1.0)
    # logit(0.5) = 0, so P(latent < 0) for a standard normal is one half
    assert fm.drop_probability(True) == pytest.approx(0.5, abs=1e-12)
    assert FilterModel(threshold=0.0).drop_probability(True) == 0.0
    assert FilterModel(threshold=1.0).drop_probability(False) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scores_live_in_unit_interval():
    # the gate compares raw scores, so no NaN or out-of-range score may reach
    # it: with finite means and sigmas a latent is finite or +-inf, never NaN
    for kwargs in EXTREME_MODELS:
        rng = np.random.default_rng(5)
        scores = FilterModel(**kwargs).sample_scores(np.array([True, False] * 500), rng)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0), kwargs


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


# --- blocked kernels against the whole-array oracles ----------------------------

_means = st.floats(-1e308, 1e308)
_sigmas = st.floats(1e-300, 1e308)
_models = st.one_of(
    st.sampled_from(EXTREME_MODELS).map(lambda kw: FilterModel(**kw)),
    st.builds(FilterModel, mu_empty=_means, mu_nonempty=_means,
              sigma_empty=_sigmas, sigma_nonempty=_sigmas))
_shapes = st.one_of(st.sampled_from(BLOCK_EDGES).map(lambda n: (n,)),
                    st.just((2, _BLOCK + 3)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30)
@given(_models, _shapes, st.integers(0, 2**32), st.floats(0.0, 1.0))
def test_sample_scores_equal_the_whole_array_formula(fm, shape, seed, p_empty):
    is_empty = np.random.default_rng(seed).random(shape) < p_empty
    scores = fm.sample_scores(is_empty, np.random.default_rng([1, seed]))
    want = whole_array_scores(fm, is_empty, np.random.default_rng([1, seed]))
    assert scores.shape == shape
    assert scores.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("p", [0.0, 0.46, 1.0])
def test_labels_drawn_in_blocks_equal_one_draw(n, p):
    rng, one = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(draw_labels(rng, n, p), one.random(n) < p)
    # and the generator is left where one draw leaves it
    assert rng.random() == one.random()


@pytest.mark.parametrize("n", [3, 999] + BLOCK_EDGES[1:])
@pytest.mark.parametrize("model", [{}, dict(threshold=0.0), dict(p_empty=0.0)]
                         + EXTREME_MODELS, ids=str)
def test_gate_metrics_equal_the_whole_array_gate(model, n):
    fm = FilterModel(**model)
    for seed in (0, 1):
        got, want = gate_metrics(fm, n, seed), whole_array_gate_metrics(fm, n, seed)
        assert repr(got) == repr(want)


@pytest.mark.parametrize("n", BLOCK_EDGES)
@pytest.mark.parametrize("levels", [1, 3, 1000, None])
def test_rank_auc_equals_the_argsort_oracle_across_blocks(n, levels):
    # few levels tie most pairs, and the tied runs straddle block edges;
    # None is continuous scores; level 0 and the top level are exact 0.0 and 1.0
    rng = np.random.default_rng(n)
    scores = rng.random(n) if levels is None else rng.integers(0, levels + 1, n) / levels
    for p in (0.1, 0.5, 0.9):
        positive = rng.random(n) < p
        want = argsort_auc(scores, positive)
        assert repr(_rank_auc(scores.copy(), positive)) == repr(want)


@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0).map(abs)),
                          st.booleans()), min_size=1, max_size=60))
def test_rank_auc_equals_the_argsort_oracle_with_exact_zeros_and_ones(rows):
    scores = np.array([s for s, _ in rows])
    positive = np.array([p for _, p in rows])
    want = argsort_auc(scores, positive)
    assert repr(_rank_auc(scores, positive)) == repr(want)


@pytest.mark.parametrize("scores, positive, auc", [
    ([0.0, 1.0], [False, True], 1.0),
    ([0.0, 1.0], [True, False], 0.0),
    ([0.0, 0.0, 0.0], [True, False, True], 0.5),
    ([1.0, 1.0, 0.0], [True, False, True], 0.25),
    ([0.0, 0.0, 1.0, 1.0], [False, True, False, True], 0.5),
    ([0.0, 0.5, 1.0, 1.0, 0.0], [False, False, True, True, True], 0.75),
])
def test_rank_auc_with_exact_zero_and_one_scores(scores, positive, auc):
    assert _rank_auc(np.array(scores), np.array(positive)) == auc


@pytest.mark.parametrize("n_neg", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_rank_auc_counts_a_tied_run_across_a_block_edge(n_neg):
    # every score ties; sorted, the last negative sits at a block edge
    positive = np.arange(2 * _BLOCK + 7) >= n_neg
    assert _rank_auc(np.ones(positive.size), positive) == 0.5


def test_rank_auc_sorts_the_keys_in_the_scores_buffer():
    # a key is the score's bits shifted left by one, the label in the low bit
    scores = np.array([1.0, 0.5, 0.0])
    auc = _rank_auc(scores, np.array([True, False, True]))
    assert auc == 0.5
    assert scores.view(np.uint64).tolist() == [1, 0x3FE0000000000000 << 1,
                                               0x3FF0000000000000 << 1 | 1]


def test_gate_metrics_memory_is_about_ten_bytes_per_sample():
    # labels, scores that become the sort keys, and a drop mask; the
    # argsort/reduceat gate peaked at 59 bytes per sample
    n = 1_000_000
    gate_metrics(FilterModel(), n=_BLOCK + 1, seed=1)
    tracemalloc.start()
    try:
        gate_metrics(FilterModel(), n=n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * n
