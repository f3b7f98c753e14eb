"""Feature-mimic distillation of toy affine stacks, with an SVD oracle.

The loss over a batch is the weighted sum, across tap points j, of the sum of
squared errors between teacher and student outputs at that tap:

    loss = sum_j  lam_j * sum_i (t_j[i] - s_j[i])^2

With a single tap and lam = 1 this reduces exactly to the plain SSE mimic
loss. The gradient with respect to a student tap output is
2 * lam_j * (s_j - t_j). ``_BatchPlan`` owns both: the Adam trainer runs one
plan per batch, and ``evaluate_loss`` one plan over the whole dataset.

Toy models are stacks of affine maps. That scale is enough to exercise the
loss math and the rank-limited compression behaviour of a narrow bottleneck
layer, and it admits a closed-form verification oracle: the best rank-b
linear approximation error (sum of squared trailing singular values),
computed by LAPACK's SVD, which shares no code with the Adam trainer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, ShapeError, check_argument

__all__ = [
    "AffineLayer",
    "ToyHead",
    "TrainConfig",
    "EpochStats",
    "train_toy",
    "evaluate_loss",
    "eckart_young_bound",
    "write_history_csv",
    "fixture_names",
    "get_fixture",
]


# --- toy affine stacks ------------------------------------------------------

@dataclass
class AffineLayer:
    """y = weight @ x + bias, with weight (out, in) and bias (out,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ShapeError("affine layer needs weight (out,in) and bias (out,)")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


@dataclass
class ToyHead:
    """Stack of affine layers with tap points and an optional bottleneck.

    ``tap_indices`` are distinct 0-based layer indices whose outputs are
    exposed for the mimic loss. The bottleneck layer, when set, must be
    strictly narrower than both neighbours.
    """

    layers: list[AffineLayer]
    tap_indices: tuple[int, ...]
    bottleneck_index: int | None = None

    def __post_init__(self):
        if not self.layers:
            raise ArgumentError("need at least one layer")
        self.tap_indices = tuple(self.tap_indices)
        for i in range(1, len(self.layers)):
            if self.layers[i].in_dim != self.layers[i - 1].out_dim:
                raise ShapeError(
                    f"layer {i} input dim {self.layers[i].in_dim} does not "
                    f"compose with layer {i - 1} output dim "
                    f"{self.layers[i - 1].out_dim}"
                )
        if not self.tap_indices:
            raise ArgumentError("need at least one tap index")
        if len(set(self.tap_indices)) != len(self.tap_indices):
            raise ArgumentError(f"tap indices {self.tap_indices} repeat a layer")
        for j in self.tap_indices:
            if not 0 <= j < len(self.layers):
                raise ArgumentError(f"tap index {j} out of range")
        b = self.bottleneck_index
        if b is not None:
            if not 0 <= b < len(self.layers):
                raise ArgumentError(f"bottleneck index {b} out of range")
            width = self.layers[b].out_dim
            before = self.layers[b].in_dim
            after = (self.layers[b + 1].out_dim
                     if b + 1 < len(self.layers) else None)
            if width >= before or (after is not None and width >= after):
                raise ShapeError(
                    f"bottleneck width {width} must be narrower than its "
                    f"neighbours ({before}, {after})"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def bottleneck_width(self) -> int | None:
        if self.bottleneck_index is None:
            return None
        return self.layers[self.bottleneck_index].out_dim

    def tap_dims(self) -> tuple[int, ...]:
        return tuple(self.layers[j].out_dim for j in self.tap_indices)

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """All layer outputs for a batch ``x`` of shape (n, in_dim)."""
        h = np.asarray(x, dtype=np.float64)
        outs = []
        for layer in self.layers:
            h = h @ layer.weight.T + layer.bias
            outs.append(h)
        return outs

    def tap_outputs(self, x: np.ndarray) -> list[np.ndarray]:
        outs = self.forward(x)
        return [outs[j] for j in self.tap_indices]

    @classmethod
    def random(cls, dims: list[int], tap_indices: tuple[int, ...],
               bottleneck_index: int | None, seed: int,
               scale: float = 0.5) -> "ToyHead":
        """Seeded Gaussian init for a stack with widths ``dims``."""
        rng = np.random.default_rng(seed)
        layers = []
        for i in range(len(dims) - 1):
            w = rng.normal(0.0, scale / np.sqrt(dims[i]), size=(dims[i + 1], dims[i]))
            layers.append(AffineLayer(w, np.zeros(dims[i + 1])))
        return cls(layers, tap_indices, bottleneck_index)


# --- training ---------------------------------------------------------------

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 4
    lr0: float = 1e-3
    lr_decay_factor: float = 0.1
    decay_epochs: tuple[int, ...] = (5, 15)
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ArgumentError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ArgumentError("batch_size must be >= 1")
        check_argument("lr0", self.lr0, above=0.0)
        if not 0 < self.lr_decay_factor <= 1:
            raise ArgumentError("lr_decay_factor must be in (0, 1]")
        object.__setattr__(self, "decay_epochs", tuple(self.decay_epochs))


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    lr: float


def _as_data_matrix(dataset) -> np.ndarray:
    """The dataset as a float64 (samples, features) array."""
    x = np.asarray(dataset, dtype=np.float64)
    if x.size == 0:
        raise ArgumentError("dataset is empty")
    if x.ndim != 2:
        raise ShapeError("dataset array must be 2-D (samples, features)")
    return x


def _layer_views(flat: np.ndarray,
                 layers: list[AffineLayer]) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (weight, bias) pair of views into ``flat`` per layer, in order."""
    views = []
    at = 0
    for layer in layers:
        mid = at + layer.weight.size
        end = mid + layer.bias.size
        views.append((flat[at:mid].reshape(layer.weight.shape), flat[mid:end]))
        at = end
    return views


class _BatchPlan:
    """One batch's loss and its gradients, over fixed buffers.

    The plan holds the batch, its teacher taps and scale factors, one output
    buffer per layer up to the last tap, one backprop buffer per layer below
    it, one residual and one square buffer per tap, and the (weight, bias)
    views of the parameters and of their gradients. ``loss_and_grads`` then
    allocates no arrays.
    """

    def __init__(self, params: list[tuple[np.ndarray, np.ndarray]],
                 grads: list[tuple[np.ndarray, np.ndarray]],
                 tap_indices: tuple[int, ...], xb: np.ndarray,
                 teacher_taps: list[np.ndarray], lambdas: list[float]):
        # layers past the last tap change no loss: they are never run, and
        # their gradients keep the zeros they start with
        last = max(tap_indices)
        n = xb.shape[0]
        outs = [np.empty((n, w.shape[0])) for w, _ in params[:last + 1]]
        inputs = [xb, *outs[:last]]
        self.forward = [(h, w.T, b, out)
                        for h, (w, b), out in zip(inputs, params, outs)]
        self.taps = []
        resid = {}
        for k, j in enumerate(tap_indices):
            resid[j] = np.empty_like(outs[j])
            self.taps.append((outs[j], teacher_taps[k], resid[j],
                              np.empty_like(outs[j]), lambdas[k], 2.0 * lambdas[k]))
        # backprop signal of each layer: the last tap's own scaled residual,
        # below it the product with the next layer's weight plus any tap's
        accs = [np.empty_like(out) for out in outs[:last]] + [resid[last]]
        self.backward = []
        for l in range(last, -1, -1):
            acc = accs[l]
            self.backward.append((acc, acc.T, resid.get(l) if l < last else None,
                                  inputs[l], *grads[l], params[l][0],
                                  accs[l - 1] if l > 0 else None))

    def loss_and_grads(self) -> float:
        """Batch loss; writes each layer's weight and bias gradient."""
        for h, wt, b, out in self.forward:
            np.matmul(h, wt, out=out)
            out += b
        loss = 0.0
        for out, target, resid, sq, lam, two_lam in self.taps:
            np.subtract(out, target, out=resid)
            np.multiply(resid, resid, out=sq)
            loss += lam * float(sq.sum())
            resid *= two_lam
        for acc, acc_t, tap_resid, h_prev, grad_w, grad_b, w, below in self.backward:
            if tap_resid is not None:
                acc += tap_resid
            np.matmul(acc_t, h_prev, out=grad_w)
            np.add.reduce(acc, axis=0, out=grad_b)
            if below is not None:
                np.matmul(acc, w, out=below)
        return loss


def _scale_factors(lambdas: list[float] | None, n_taps: int) -> list[float]:
    """One checked scale factor per tap; all 1 when none are given."""
    if lambdas is None:
        return [1.0] * n_taps
    if len(lambdas) != n_taps:
        raise ArgumentError("need one scale factor per tap")
    for k, lam in enumerate(lambdas):
        check_argument(f"scale factor {k}", lam, at_least=0.0)
    return list(lambdas)


def _check_aligned(teacher: ToyHead, student: ToyHead) -> None:
    if teacher.tap_dims() != student.tap_dims():
        raise ShapeError(
            f"tap misalignment: teacher dims {teacher.tap_dims()} vs "
            f"student dims {student.tap_dims()}"
        )
    if teacher.in_dim != student.in_dim:
        raise ShapeError("teacher and student input dims differ")


def train_toy(teacher: ToyHead, student: ToyHead, dataset,
              cfg: TrainConfig,
              lambdas: list[float] | None = None) -> tuple[ToyHead, list[EpochStats]]:
    """Adam-train a student stack to mimic a frozen teacher at its taps.

    Batch losses are summed, not averaged, within a batch; the reported
    per-epoch value is the mean of those batch sums. Batches are taken in
    dataset order, so a run is fully determined by (student init, cfg).

    Every weight and bias of the returned student is a view into one flat
    parameter vector, and backprop writes into views of a matching flat
    gradient, so each step is one elementwise Adam update over the vector.

    Before the first epoch, each batch gets a plan (``_BatchPlan``): its
    teacher taps, its ``2 * lam`` factors, preallocated output, residual and
    backprop buffers, and the weight and bias views into the flat parameter
    and gradient vectors. A step then runs forward, backprop and Adam through
    ``out=`` ufuncs and in-place operators alone, each a fixed IEEE
    operation on fixed operands in a fixed order, so the trained weights and
    every epoch's loss are the same bits on every run; golden digests in the
    tests (``TRAINED_DIGESTS``, ``BRANCH_DIGESTS``) pin both, and any change
    to an operation or its order must keep them. Backprop starts from the
    last tap's scaled residual. Layers past the last tap are not run: their
    gradient stays zero, so Adam leaves them unchanged.
    """
    _check_aligned(teacher, student)
    lambdas = _scale_factors(lambdas, len(student.tap_indices))

    x = _as_data_matrix(dataset)
    theta = np.concatenate([p.ravel() for layer in student.layers
                            for p in (layer.weight, layer.bias)])
    grad = np.zeros_like(theta)
    params = _layer_views(theta, student.layers)
    grads = _layer_views(grad, student.layers)
    student = ToyHead([AffineLayer(w, b) for w, b in params],
                      student.tap_indices, student.bottleneck_index)
    n = x.shape[0]
    plans = [_BatchPlan(params, grads, student.tap_indices, xb,
                        teacher.tap_outputs(xb), lambdas)
             for xb in (x[i:i + cfg.batch_size] for i in range(0, n, cfg.batch_size))]
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    s1 = np.empty_like(theta)
    s2 = np.empty_like(theta)

    history = []
    lr = cfg.lr0
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        if epoch in cfg.decay_epochs:
            lr *= cfg.lr_decay_factor
        epoch_losses = []
        for plan in plans:
            epoch_losses.append(plan.loss_and_grads())
            step += 1
            b1c = 1.0 - _ADAM_BETA1 ** step
            b2c = 1.0 - _ADAM_BETA2 ** step
            m *= _ADAM_BETA1
            np.multiply(grad, 1.0 - _ADAM_BETA1, out=s1)
            m += s1
            v *= _ADAM_BETA2
            np.multiply(grad, 1.0 - _ADAM_BETA2, out=s1)
            s1 *= grad
            v += s1
            # theta -= lr * (m / b1c) / (sqrt(v / b2c) + eps)
            np.divide(m, b1c, out=s1)
            s1 *= lr
            np.divide(v, b2c, out=s2)
            np.sqrt(s2, out=s2)
            s2 += _ADAM_EPS
            s1 /= s2
            theta -= s1
        history.append(EpochStats(epoch, float(np.mean(epoch_losses)), lr))
    return student, history


def evaluate_loss(teacher: ToyHead, student: ToyHead, dataset,
                  lambdas: list[float] | None = None) -> float:
    """Generalized loss summed over the whole dataset as one batch.

    The batch is one ``_BatchPlan``, the trainer's own loss, whose gradients
    go to scratch buffers and are dropped.
    """
    _check_aligned(teacher, student)
    lambdas = _scale_factors(lambdas, len(student.tap_indices))
    x = _as_data_matrix(dataset)
    params = [(layer.weight, layer.bias) for layer in student.layers]
    scratch = [(np.empty_like(w), np.empty_like(b)) for w, b in params]
    return _BatchPlan(params, scratch, student.tap_indices, x,
                      teacher.tap_outputs(x), lambdas).loss_and_grads()


def write_history_csv(history: list[EpochStats], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "lr"])
        for row in history:
            writer.writerow([row.epoch, repr(row.mean_loss), repr(row.lr)])


# --- Eckart-Young verification oracle ---------------------------------------

def eckart_young_bound(a: np.ndarray, x: np.ndarray, b: int) -> float:
    """Minimum of sum_x ||A x - S x||^2 over rank-b maps S.

    ``x`` holds one sample per row. The minimum equals the sum of squared
    singular values of A X^T beyond the first b.
    """
    if b < 0:
        raise ArgumentError("rank must be >= 0")
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    g = a @ x.T
    if g.ndim != 2:
        raise ShapeError("need a 2-D matrix")
    sv = np.linalg.svd(g, compute_uv=False)
    if b >= sv.size:
        return 0.0
    tail = sv[b:]
    return float(np.dot(tail, tail))


# --- named fixtures (used by the CLI and the acceptance suite) ---------------

@dataclass(frozen=True)
class LinearFixture:
    name: str
    teacher: ToyHead
    student: ToyHead
    data: np.ndarray
    cfg: TrainConfig
    teacher_matrix: np.ndarray  # single-tap teachers only


def _rank_limited_matrix(m: int, n: int, rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(m, rank))
    q = rng.normal(size=(rank, n))
    return p @ q


def _single_tap_fixture(name: str, m: int, n: int, rank: int, width: int,
                        n_samples: int, base_seed: int, cfg: TrainConfig) -> LinearFixture:
    # Teacher matrix and dataset are fixed per fixture name so the oracle
    # bound is stable; cfg.seed varies only the student initialization.
    a = _rank_limited_matrix(m, n, rank, base_seed)
    teacher = ToyHead([AffineLayer(a, np.zeros(m))], tap_indices=(0,))
    student = ToyHead.random([n, width, m], tap_indices=(1,),
                             bottleneck_index=0, seed=base_seed * 1000 + cfg.seed)
    rng = np.random.default_rng(base_seed + 2)
    data = rng.normal(size=(n_samples, n))
    # Exactly centered samples make the student's trainable bias useless, so
    # its best reachable loss is the rank-limited linear floor of the oracle.
    data -= data.mean(axis=0)
    return LinearFixture(name, teacher, student, data, cfg, a)


# Late decay keeps full descent speed toward an exactly reachable zero;
# the rank-limited fixtures instead settle onto a positive floor, where an
# early decay stops Adam from creeping around it.
_CFG_FULL = TrainConfig(epochs=500, batch_size=8, lr0=0.02,
                        lr_decay_factor=0.2, decay_epochs=(250, 350, 450), seed=0)
_CFG_BNECK = TrainConfig(epochs=500, batch_size=8, lr0=0.02,
                         lr_decay_factor=0.2, decay_epochs=(60, 120, 200), seed=0)


# each fixture's teacher (m x n, of the given rank), student bottleneck width,
# sample count, base seed and training config
_FIXTURES = {
    # bottleneck width 3 >= teacher rank 2: achievable loss is zero
    "rank2_full": (4, 5, 2, 3, 32, 11, _CFG_FULL),
    # width 1 < rank 3: converges to the Eckart-Young floor
    "rank3_bneck1": (5, 6, 3, 1, 32, 23, _CFG_BNECK),
    "rank4_bneck2": (6, 8, 4, 2, 40, 37, _CFG_BNECK),
}


def fixture_names() -> list[str]:
    return list(_FIXTURES)


def get_fixture(name: str, epochs: int | None = None,
                seed: int | None = None) -> LinearFixture:
    if name not in _FIXTURES:
        raise ArgumentError(f"unknown fixture {name!r}; available: {fixture_names()}")
    *sizes, cfg = _FIXTURES[name]
    if epochs is not None:
        scale = epochs / cfg.epochs
        decay = tuple(d for d in (max(1, round(e * scale)) for e in cfg.decay_epochs)
                      if d <= epochs)
        cfg = replace(cfg, epochs=epochs, decay_epochs=decay)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return _single_tap_fixture(name, *sizes, cfg)
