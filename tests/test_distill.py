import hashlib

import numpy as np
import pytest

from splitwire.distill import (
    AffineLayer,
    TapPoint,
    ToyHead,
    TrainConfig,
    eckart_young_bound,
    evaluate_loss,
    generalized_loss,
    get_fixture,
    loss_grad,
    sse_loss,
    train_toy,
    write_history_csv,
)
from splitwire.errors import ArgumentError, ShapeError
from splitwire.tensor import Shape, Tensor, make_tensor, random_fill


def rand_t(shape, seed, lo=-2.0, hi=2.0):
    return random_fill(Shape(shape), seed, lo, hi)


# --- sse_loss -------------------------------------------------------------------

def test_sse_zero_when_equal():
    t = rand_t([7], 1)
    assert sse_loss(t, t) == 0.0


def test_sse_arithmetic():
    assert sse_loss(make_tensor([2], [1, 2]), make_tensor([2], [0, 0])) == 5.0


def test_sse_symmetry():
    a, b = rand_t([9], 2), rand_t([9], 3)
    assert sse_loss(a, b) == sse_loss(b, a)


def test_sse_shape_mismatch():
    with pytest.raises(ShapeError):
        sse_loss(rand_t([2], 1), rand_t([3], 1))


# --- generalized_loss -------------------------------------------------------------

def test_generalized_zero_when_all_match():
    t = rand_t([5], 4)
    taps = [TapPoint(0, 1.0, t, t), TapPoint(1, 2.0, t, t)]
    assert generalized_loss(taps) == 0.0


def test_generalized_weighted_sum():
    # integer-exact residuals: sse values 5 and 3, weights 1 and 2 -> 11
    taps = [
        TapPoint(0, 1.0, make_tensor([2], [0, 0]), make_tensor([2], [1, 2])),
        TapPoint(1, 2.0, make_tensor([3], [0, 0, 0]), make_tensor([3], [1, 1, 1])),
    ]
    assert generalized_loss(taps) == 11.0


def test_single_tap_reduces_to_sse_exactly():
    for seed in range(25):
        t, s = rand_t([13], seed), rand_t([13], seed + 100)
        assert generalized_loss([TapPoint(0, 1.0, t, s)]) == sse_loss(t, s)


def test_generalized_rejects_empty_taps():
    with pytest.raises(ArgumentError):
        generalized_loss([])
    with pytest.raises(ArgumentError):
        loss_grad([])


def test_tap_point_validation():
    t = rand_t([3], 5)
    with pytest.raises(ShapeError):
        TapPoint(0, 1.0, t, rand_t([4], 6))
    with pytest.raises(ArgumentError):
        TapPoint(0, -0.5, t, t)


def test_lambda_linearity():
    base = [TapPoint(0, 0.7, rand_t([6], 7), rand_t([6], 8)),
            TapPoint(1, 1.3, rand_t([4], 9), rand_t([4], 10))]
    c = 3.5
    scaled = [TapPoint(p.index, c * p.lam, p.teacher_out, p.student_out)
              for p in base]
    assert generalized_loss(scaled) == pytest.approx(c * generalized_loss(base),
                                                     rel=1e-12)
    for g_scaled, g_base in zip(loss_grad(scaled), loss_grad(base)):
        np.testing.assert_allclose(g_scaled.data, c * g_base.data.astype(np.float64),
                                   rtol=1e-5)


def test_loss_nonnegative_and_zero_only_at_match():
    for seed in range(30):
        t = rand_t([9], seed)
        s = rand_t([9], seed + 400)
        loss = generalized_loss([TapPoint(0, 1.5, t, s)])
        if t == s:
            assert loss == 0.0
        else:
            assert loss > 0.0


def test_normalized_loss_divides_by_numel():
    t, s = rand_t([8], 11), rand_t([8], 12)
    taps = [TapPoint(0, 1.0, t, s)]
    assert generalized_loss(taps, normalize=True) == pytest.approx(
        generalized_loss(taps) / 8, rel=1e-12)


# --- loss_grad against central finite differences ---------------------------------

def fd_grad(taps, tap_idx, elem_idx, h=1e-4):
    """Central finite differences with the actual float32 step applied."""
    tap = taps[tap_idx]
    base = tap.student_out.data.copy()
    plus, minus = base.copy(), base.copy()
    plus[elem_idx] = np.float32(float(base[elem_idx]) + h)
    minus[elem_idx] = np.float32(float(base[elem_idx]) - h)
    step = float(plus[elem_idx]) - float(minus[elem_idx])

    def at(values):
        replaced = TapPoint(tap.index, tap.lam, tap.teacher_out,
                            Tensor(tap.student_out.shape, values))
        probe = list(taps)
        probe[tap_idx] = replaced
        return generalized_loss(probe)

    return (at(plus) - at(minus)) / step


def test_grad_zero_when_matched():
    t = rand_t([5], 20)
    g = loss_grad([TapPoint(0, 1.0, t, t)])[0]
    assert np.all(g.data == 0.0)


def test_grad_simple_value():
    taps = [TapPoint(0, 1.0, make_tensor([1], [1.0]), make_tensor([1], [3.0]))]
    assert loss_grad(taps)[0].tolist() == [4.0]


def test_grad_matches_finite_differences_100_seeds():
    worst = 0.0
    for seed in range(100):
        taps = [
            TapPoint(0, 0.5 + (seed % 3), rand_t([6], seed), rand_t([6], seed + 1000)),
            TapPoint(1, 1.0, rand_t([4], seed + 2000), rand_t([4], seed + 3000)),
        ]
        grads = loss_grad(taps)
        for tap_idx in (0, 1):
            for elem_idx in (0, taps[tap_idx].student_out.numel - 1):
                analytic = float(grads[tap_idx].data[elem_idx])
                numeric = fd_grad(taps, tap_idx, elem_idx)
                denom = max(abs(analytic), abs(numeric), 1e-8)
                worst = max(worst, abs(analytic - numeric) / denom)
    assert worst < 1e-4


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


def test_toyhead_forward_is_affine():
    head = ToyHead([AffineLayer(np.array([[2.0, 0.0], [0.0, 3.0]]),
                                np.array([1.0, -1.0]))], tap_indices=(0,))
    out = head.forward(np.array([[1.0, 1.0]]))[0]
    np.testing.assert_allclose(out, [[3.0, 2.0]])


def test_backprop_weight_gradients_match_finite_differences():
    from splitwire.distill import _stack_loss_and_grads

    rng = np.random.default_rng(99)
    teacher = ToyHead.random([4, 6, 3, 5], tap_indices=(1, 2),
                             bottleneck_index=None, seed=1, scale=1.0)
    student = ToyHead.random([4, 6, 3, 5], tap_indices=(1, 2),
                             bottleneck_index=None, seed=2)
    xb = rng.normal(size=(5, 4))
    targets = teacher.tap_outputs(xb)
    lambdas = [0.7, 1.3]

    grads = [(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in student.layers]
    _stack_loss_and_grads(student, xb, targets, lambdas, False, grads)
    gw = [w.copy() for w, _ in grads]
    gb = [b.copy() for _, b in grads]

    def loss_now():
        return _stack_loss_and_grads(student, xb, targets, lambdas, False, grads)

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


# SHA-256 of every final weight and bias, then of repr((epoch, mean_loss, lr))
# for each epoch, from the per-array Adam trainer this flat one replaced
TRAINED_DIGESTS = {
    "rank2_full": "d5c0302dfcb9953710f7d9e987d4aba5816434e469c1fed659819a008e61b295",
    "rank3_bneck1": "816b87a381188cdd8b33380d5865ed736c75a26f55cb3f613ac83358eded5d8b",
    "rank4_bneck2": "53a8ee7a81b7e087a4a6f997ea81beaf7d2bb715822f58d5992c15bab833b8c4",
}


@pytest.mark.parametrize("name", sorted(TRAINED_DIGESTS))
def test_trained_fixture_is_bit_identical(name):
    fx = get_fixture(name)
    student, history = train_toy(fx.teacher, fx.student, fx.data, fx.cfg)
    h = hashlib.sha256()
    for layer in student.layers:
        h.update(layer.weight.tobytes())
        h.update(layer.bias.tobytes())
    for e in history:
        h.update(repr((e.epoch, e.mean_loss, e.lr)).encode())
    assert h.hexdigest() == TRAINED_DIGESTS[name]


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
    teacher = ToyHead.random([6, 5, 4], tap_indices=(0, 1), bottleneck_index=None,
                             seed=3, scale=1.0)
    student = ToyHead.random([6, 5, 4], tap_indices=(0, 1), bottleneck_index=None,
                             seed=4)
    rng = np.random.default_rng(5)
    data = rng.normal(size=(24, 6))
    cfg = TrainConfig(epochs=800, batch_size=8, lr0=0.05,
                      lr_decay_factor=0.2, decay_epochs=(480, 640, 744), seed=0)
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
