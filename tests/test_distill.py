import hashlib

import numpy as np
import pytest

from splitwire.distill import (
    AffineLayer,
    ToyHead,
    TrainConfig,
    _BatchPlan,
    eckart_young_bound,
    evaluate_loss,
    get_fixture,
    train_toy,
    write_history_csv,
)
from splitwire.errors import ArgumentError, ShapeError


# --- evaluate_loss ----------------------------------------------------------------

def two_tap_stack(seed):
    """Teacher and student 6 -> 5 -> 4 stacks tapped at both layers."""
    teacher = ToyHead.random([6, 5, 4], tap_indices=(0, 1), bottleneck_index=None,
                             seed=seed, scale=1.0)
    student = ToyHead.random([6, 5, 4], tap_indices=(0, 1), bottleneck_index=None,
                             seed=seed + 1000)
    data = np.random.default_rng(seed).normal(size=(7, 6))
    return teacher, student, data


def constant_head(first, second):
    """A 1 -> 2 -> 3 stack, tapped at both layers, whose outputs are its biases."""
    return ToyHead([AffineLayer(np.zeros((2, 1)), first),
                    AffineLayer(np.zeros((3, 2)), second)], tap_indices=(0, 1))


def single_tap_stack(seed, width=13):
    """Teacher and student 4 -> width stacks with one tap."""
    teacher = ToyHead.random([4, width], tap_indices=(0,), bottleneck_index=None,
                             seed=seed, scale=1.0)
    student = ToyHead.random([4, width], tap_indices=(0,), bottleneck_index=None,
                             seed=seed + 100)
    data = np.random.default_rng(seed).normal(size=(3, 4))
    return teacher, student, data


def bias_head(bias):
    """A 1 -> len(bias) stack, tapped once, whose output is its bias."""
    return ToyHead([AffineLayer(np.zeros((len(bias), 1)), np.asarray(bias, float))],
                   tap_indices=(0,))


def plan_gradients(teacher, student, data, lambdas):
    """Each student layer's (weight, bias) gradient of ``evaluate_loss``, from
    the trainer's batch plan over the whole dataset."""
    grads = [(np.zeros_like(layer.weight), np.zeros_like(layer.bias))
             for layer in student.layers]
    _BatchPlan([(layer.weight, layer.bias) for layer in student.layers], grads,
               student.tap_indices, data, teacher.tap_outputs(data),
               lambdas).loss_and_grads()
    return grads


def test_sse_zero_when_equal():
    teacher, _, data = single_tap_stack(1, width=7)
    assert evaluate_loss(teacher, teacher, data) == 0.0


def test_sse_arithmetic():
    assert evaluate_loss(bias_head([0, 0]), bias_head([1, 2]), np.ones((1, 1))) == 5.0


def test_sse_symmetry():
    teacher, student, data = single_tap_stack(2, width=9)
    assert evaluate_loss(teacher, student, data) == evaluate_loss(student, teacher, data)


def test_sse_shape_mismatch():
    with pytest.raises(ShapeError):
        evaluate_loss(bias_head([0, 0]), bias_head([0, 0, 0]), np.ones((1, 1)))


def test_single_tap_reduces_to_sse_exactly():
    for seed in range(25):
        teacher, student, data = single_tap_stack(seed)
        d = student.tap_outputs(data)[0] - teacher.tap_outputs(data)[0]
        assert evaluate_loss(teacher, student, data) == float(np.sum(d * d))


def test_tap_point_validation():
    with pytest.raises(ShapeError):
        evaluate_loss(bias_head([0, 0, 0]), bias_head([0, 0, 0, 0]), np.ones((1, 1)))
    teacher, student, data = single_tap_stack(5, width=3)
    for lam in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ArgumentError):
            evaluate_loss(teacher, student, data, lambdas=[lam])


def test_grad_zero_when_matched():
    teacher, _, data = single_tap_stack(20, width=5)
    for gw, gb in plan_gradients(teacher, teacher, data, [1.0]):
        assert np.all(gw == 0.0) and np.all(gb == 0.0)


def test_grad_simple_value():
    # residual 3 - 1 = 2 at input 1: both gradients are 2 * 2 * 1
    [(gw, gb)] = plan_gradients(bias_head([1.0]), bias_head([3.0]),
                                np.ones((1, 1)), [1.0])
    assert gw.tolist() == [[4.0]] and gb.tolist() == [4.0]


def test_grad_matches_finite_differences_100_seeds():
    # the loss is quadratic in any one parameter, so a wide step is exact up
    # to rounding
    h = 1e-3
    worst = 0.0
    for seed in range(100):
        teacher, student, data = two_tap_stack(seed)
        lambdas = [0.5 + (seed % 3), 1.0]
        grads = plan_gradients(teacher, student, data, lambdas)
        for layer, layer_grads in zip(student.layers, grads):
            for param, grad in zip((layer.weight, layer.bias), layer_grads):
                for idx in {(0,) * param.ndim, tuple(d - 1 for d in param.shape)}:
                    orig = param[idx]
                    param[idx] = orig + h
                    up = evaluate_loss(teacher, student, data, lambdas)
                    param[idx] = orig - h
                    down = evaluate_loss(teacher, student, data, lambdas)
                    param[idx] = orig
                    numeric = (up - down) / (2 * h)
                    analytic = float(grad[idx])
                    denom = max(abs(analytic), abs(numeric), 1e-8)
                    worst = max(worst, abs(analytic - numeric) / denom)
    assert worst < 1e-4, worst


def test_generalized_zero_when_all_match():
    for seed in range(10):
        teacher, _, data = two_tap_stack(seed)
        assert evaluate_loss(teacher, teacher, data, lambdas=[1.0, 2.0]) == 0.0


def test_generalized_weighted_sum():
    # integer-exact residuals: sse values 5 and 3, weights 1 and 2 -> 11
    teacher = constant_head([0.0, 0.0], [0.0, 0.0, 0.0])
    student = constant_head([1.0, 2.0], [1.0, 1.0, 1.0])
    assert evaluate_loss(teacher, student, np.ones((1, 1)), lambdas=[1.0, 2.0]) == 11.0


def test_lambda_linearity():
    teacher, student, data = two_tap_stack(7)
    base = [0.7, 1.3]
    c = 3.5
    assert (evaluate_loss(teacher, student, data, lambdas=[c * lam for lam in base])
            == pytest.approx(c * evaluate_loss(teacher, student, data, lambdas=base),
                             rel=1e-12))


def test_loss_nonnegative_and_zero_only_at_match():
    for seed in range(30):
        teacher, student, data = two_tap_stack(seed)
        loss = evaluate_loss(teacher, student, data, lambdas=[1.5, 0.5])
        assert loss > 0.0
        assert loss == evaluate_loss(student, teacher, data, lambdas=[1.5, 0.5])


# --- ToyHead ----------------------------------------------------------------------

def test_toyhead_dimension_compose_check():
    with pytest.raises(ShapeError):
        ToyHead([AffineLayer(np.zeros((3, 4)), np.zeros(3)),
                 AffineLayer(np.zeros((2, 5)), np.zeros(2))], tap_indices=(1,))


def test_toyhead_bottleneck_must_be_narrow():
    with pytest.raises(ShapeError):
        ToyHead([AffineLayer(np.zeros((4, 4)), np.zeros(4)),
                 AffineLayer(np.zeros((4, 4)), np.zeros(4))],
                tap_indices=(1,), bottleneck_index=0)


@pytest.mark.parametrize("taps", [(), (0, 0), (1, 0, 1)],
                         ids=["none", "repeated", "repeated-apart"])
def test_toyhead_rejects_empty_or_repeated_tap_indices(taps):
    # a repeated tap would count once in the loss, with its last scale factor
    with pytest.raises(ArgumentError):
        ToyHead.random([6, 3, 5], tap_indices=taps, bottleneck_index=None, seed=1)


def test_toyhead_forward_is_affine():
    head = ToyHead([AffineLayer(np.array([[2.0, 0.0], [0.0, 3.0]]),
                                np.array([1.0, -1.0]))], tap_indices=(0,))
    out = head.forward(np.array([[1.0, 1.0]]))[0]
    np.testing.assert_allclose(out, [[3.0, 2.0]])


def test_backprop_weight_gradients_match_finite_differences():
    from splitwire.distill import _BatchPlan

    rng = np.random.default_rng(99)
    teacher = ToyHead.random([4, 6, 3, 5], tap_indices=(1, 2),
                             bottleneck_index=None, seed=1, scale=1.0)
    student = ToyHead.random([4, 6, 3, 5], tap_indices=(1, 2),
                             bottleneck_index=None, seed=2)
    xb = rng.normal(size=(5, 4))
    targets = teacher.tap_outputs(xb)
    lambdas = [0.7, 1.3]

    grads = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in student.layers]
    plan = _BatchPlan([(l.weight, l.bias) for l in student.layers], grads,
                      student.tap_indices, xb, targets, lambdas)
    plan.loss_and_grads()
    gw = [w.copy() for w, _ in grads]
    gb = [b.copy() for _, b in grads]
    loss_now = plan.loss_and_grads

    h = 1e-6
    for l, layer in enumerate(student.layers):
        for arr, grad in ((layer.weight, gw[l]), (layer.bias, gb[l])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up = loss_now()
                arr[idx] = orig - h
                down = loss_now()
                arr[idx] = orig
                fd = (up - down) / (2 * h)
                assert fd == pytest.approx(float(grad[idx]), rel=1e-5, abs=1e-7)


# --- training ---------------------------------------------------------------------

def test_train_rejects_zero_epochs():
    with pytest.raises(ArgumentError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("lr0", [0.0, -1e-3, float("nan"), float("inf")])
def test_train_config_rejects_bad_learning_rate(lr0):
    with pytest.raises(ArgumentError):
        TrainConfig(lr0=lr0)


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("-inf"), float("inf")])
def test_bad_scale_factor_is_rejected(lam):
    fx = get_fixture("rank3_bneck1", epochs=3)
    with pytest.raises(ArgumentError):
        train_toy(fx.teacher, fx.student, fx.data, fx.cfg, lambdas=[lam])
    with pytest.raises(ArgumentError):
        evaluate_loss(fx.teacher, fx.student, fx.data, lambdas=[lam])


# SHA-256 of every final weight and bias, then of repr((epoch, mean_loss, lr))
# for each epoch, from the per-array Adam trainer this flat one replaced
TRAINED_DIGESTS = {
    "rank2_full": "d5c0302dfcb9953710f7d9e987d4aba5816434e469c1fed659819a008e61b295",
    "rank3_bneck1": "816b87a381188cdd8b33380d5865ed736c75a26f55cb3f613ac83358eded5d8b",
    "rank4_bneck2": "53a8ee7a81b7e087a4a6f997ea81beaf7d2bb715822f58d5992c15bab833b8c4",
}


def trained_digest(student, history):
    h = hashlib.sha256()
    for layer in student.layers:
        h.update(layer.weight.tobytes())
        h.update(layer.bias.tobytes())
    for e in history:
        h.update(repr((e.epoch, e.mean_loss, e.lr)).encode())
    return h.hexdigest()


# evaluate_loss of each trained fixture, from the per-tap loop that summed the
# residuals before the loss ran through the trainer's batch plan
FINAL_LOSSES = {
    "rank2_full": 1.8938150625645787e-29,
    "rank3_bneck1": 320.77735660752217,
    "rank4_bneck2": 438.4782813497002,
}


@pytest.mark.parametrize("name", sorted(TRAINED_DIGESTS))
def test_trained_fixture_is_bit_identical(name):
    fx = get_fixture(name)
    student, history = train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
    assert trained_digest(student, history) == TRAINED_DIGESTS[name]
    assert evaluate_loss(fx.teacher, student, fx.data) == FINAL_LOSSES[name]


def multi_tap_stack():
    teacher = ToyHead.random([6, 5, 4], tap_indices=(0, 1), bottleneck_index=None,
                             seed=3, scale=1.0)
    student = ToyHead.random([6, 5, 4], tap_indices=(0, 1), bottleneck_index=None,
                             seed=4)
    data = np.random.default_rng(5).normal(size=(24, 6))
    cfg = TrainConfig(epochs=800, batch_size=8, lr0=0.05,
                      lr_decay_factor=0.2, decay_epochs=(480, 640, 744), seed=0)
    return teacher, student, data, cfg


def branch_case(name):
    """(teacher, student, data, cfg, lambdas) for a training branch that the
    three fixtures do not reach."""
    if name == "multi-tap":
        return (*multi_tap_stack(), [0.5, 1.0])
    if name == "ragged-batch":
        # 30 samples at batch size 8: the last batch holds 6
        fx = get_fixture("rank3_bneck1")
        return fx.teacher, fx.student, fx.data[:30], fx.cfg, None
    # tap and bottleneck on the middle layer; the last layer is never compared
    teacher = ToyHead.random([6, 5, 3, 4], tap_indices=(1,), bottleneck_index=None,
                             seed=7, scale=1.0)
    student = ToyHead.random([6, 5, 3, 4], tap_indices=(1,), bottleneck_index=1, seed=8)
    data = np.random.default_rng(9).normal(size=(24, 6))
    cfg = TrainConfig(epochs=200, batch_size=8, lr0=0.02,
                      lr_decay_factor=0.2, decay_epochs=(100, 150), seed=0)
    return teacher, student, data, cfg, [2.0]


# computed with the per-batch backprop that allocated its arrays on every step
BRANCH_DIGESTS = {
    "multi-tap": "8f8f7b287911792244f56e2c0cf11ecd8432b9b3954ab33b396767602e8917b1",
    "ragged-batch": "ac7109e972535c7093ec3bd164cdb15af81ab62b41a6a182ec6a08c204ce1236",
    "middle-tap": "ece4538d18359727261c1027fe442b87f816e12fd87c99cf8b99260395b6de83",
}


@pytest.mark.parametrize("name", sorted(BRANCH_DIGESTS))
def test_trained_branch_is_bit_identical(name):
    teacher, student, data, cfg, lambdas = branch_case(name)
    trained, history = train_toy(teacher, student, data, cfg, lambdas=lambdas)
    assert trained_digest(trained, history) == BRANCH_DIGESTS[name]


@pytest.mark.parametrize("data, error", [([], ArgumentError),
                                         (np.zeros((0, 5)), ArgumentError),
                                         (np.ones(5), ShapeError),
                                         (np.ones((2, 4, 5)), ShapeError)],
                         ids=["empty-list", "zero-rows", "1-D", "3-D"])
def test_train_rejects_malformed_dataset(data, error):
    fx = get_fixture("rank2_full")
    with pytest.raises(error):
        train_toy(fx.teacher, fx.student, data, fx.cfg)


def test_train_rejects_tap_misalignment():
    fx = get_fixture("rank2_full")
    bad_student = ToyHead.random([5, 3, 7], tap_indices=(1,),
                                 bottleneck_index=0, seed=1)
    with pytest.raises(ShapeError):
        train_toy(fx.teacher, bad_student, fx.data, fx.cfg)
    with pytest.raises(ShapeError):
        evaluate_loss(fx.teacher, bad_student, fx.data)


def test_full_width_fixture_reaches_zero_loss():
    fx = get_fixture("rank2_full")
    trained, history = train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
    assert evaluate_loss(fx.teacher, trained, fx.data) < 1e-6
    assert len(history) == fx.cfg.epochs


def test_bottleneck_fixture_hits_eckart_young_floor():
    fx = get_fixture("rank3_bneck1")
    trained, _ = train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
    final = evaluate_loss(fx.teacher, trained, fx.data)
    bound = eckart_young_bound(fx.teacher_matrix, fx.data,
                               fx.student.bottleneck_width)
    assert final >= bound * (1 - 1e-9)
    assert final <= bound * 1.05


def test_training_is_deterministic():
    fx = get_fixture("rank4_bneck2")
    _, h1 = train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
    _, h2 = train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
    assert h1 == h2


def test_training_loss_statistically_monotone():
    # "non-increasing" is judged at the optimization scale: once the loss
    # sits at its floor, sub-1e-6-relative jitter does not count as a rise.
    transitions = 0
    nonincreasing = 0
    for name in ("rank2_full", "rank3_bneck1", "rank4_bneck2"):
        fx = get_fixture(name)
        _, history = train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
        losses = [h.mean_loss for h in history]
        slack = 1e-9 * losses[0]
        for a, b in zip(losses, losses[1:]):
            transitions += 1
            nonincreasing += b <= a + max(a * 1e-6, slack)
    assert nonincreasing / transitions >= 0.95


def test_lr_schedule_applies_decay():
    fx = get_fixture("rank2_full", epochs=10)
    cfg = TrainConfig(epochs=10, batch_size=8, lr0=0.01,
                      lr_decay_factor=0.1, decay_epochs=(5,), seed=0)
    _, history = train_toy(fx.teacher, fx.student, fx.data, cfg)
    assert history[3].lr == pytest.approx(0.01)
    assert history[5].lr == pytest.approx(0.001)


def test_multi_tap_training_converges():
    teacher, student, data, cfg = multi_tap_stack()
    trained, history = train_toy(teacher, student, data, cfg, lambdas=[0.5, 1.0])
    # same-architecture student can copy the teacher, so the floor is zero
    assert history[-1].mean_loss < history[0].mean_loss * 1e-4
    assert evaluate_loss(teacher, trained, data, lambdas=[0.5, 1.0]) < 1e-3


def test_history_csv_round_trip(tmp_path):
    fx = get_fixture("rank2_full", epochs=3)
    _, history = train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
    path = tmp_path / "hist.csv"
    write_history_csv(history, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss,lr"
    assert len(lines) == 4


# --- Eckart-Young oracle -----------------------------------------------------------

def test_bound_zero_when_rank_retained():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    x = np.eye(2)
    assert eckart_young_bound(a, x, 1) == pytest.approx(0.0, abs=1e-18)
    assert eckart_young_bound(a, x, 5) == 0.0


def test_bound_diagonal_case():
    a = np.diag([3.0, 2.0, 1.0])
    x = np.eye(3)
    assert eckart_young_bound(a, x, 1) == pytest.approx(5.0, rel=1e-12)
    assert eckart_young_bound(a, x, 2) == pytest.approx(1.0, rel=1e-12)
    assert eckart_young_bound(a, x, 0) == pytest.approx(14.0, rel=1e-12)


def brute_force_rank_b(m_target, b, restarts=8, iters=400, seed=0):
    """Alternating least squares over rank-b factorizations, many restarts."""
    rng = np.random.default_rng(seed)
    best = np.inf
    rows, cols = m_target.shape
    for _ in range(restarts):
        u = rng.normal(size=(rows, b))
        for _ in range(iters):
            v, *_ = np.linalg.lstsq(u, m_target, rcond=None)
            u_t, *_ = np.linalg.lstsq(v.T, m_target.T, rcond=None)
            u = u_t.T
        best = min(best, float(np.sum((m_target - u @ v) ** 2)))
    return best


@pytest.mark.parametrize("a_shape, x_shape", [((5, 5), (12, 5)),
                                              ((8, 4), (3, 4)),
                                              ((3, 6), (9, 6))],
                         ids=["5x12", "tall-8x3", "wide-3x9"])
def test_bound_matches_brute_force_minimization(a_shape, x_shape):
    rng = np.random.default_rng(42)
    a = rng.normal(size=a_shape)
    x = rng.normal(size=x_shape)
    bound = eckart_young_bound(a, x, 2)
    brute = brute_force_rank_b(a @ x.T, 2)
    assert brute == pytest.approx(bound, rel=0.01)


def test_bound_rejects_negative_rank():
    with pytest.raises(ArgumentError):
        eckart_young_bound(np.eye(2), np.eye(2), -1)


def test_bound_rejects_non_matrix_product():
    with pytest.raises(ShapeError):
        eckart_young_bound(np.ones(3), np.ones((4, 3)), 1)
