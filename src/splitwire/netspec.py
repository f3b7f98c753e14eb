"""Declarative layer specs: output shapes, parameter counts, tensor ratios.

A NetworkSpec is an ordered list of layers (conv / batchnorm / relu / maxpool
/ adaptive_avgpool / linear / softmax) that can be traced symbolically from
an input shape. No weights are stored and nothing is executed; the point is
shape and size arithmetic, in particular the ratio between the bottleneck
activation and the input image.

Built-in fixtures:

* ``stem``            - conv(64, k7, s2, p3) + maxpool(k3, s2, p1) front end
* ``teacher_l1``      - the unmodified first residual stage (spatial dims
                        preserved: every conv is k1/s1 or k3/s1/p1)
* ``student_l1_column`` - the redesigned stage with a 3-channel bottleneck
                        conv in the middle of a k2 conv chain
* ``student_l1``      - stem + student_l1_column, so it traces directly from
                        an image shape (this is the fixture whose bottleneck
                        to input ratio sits in the 6-7% band)
* ``neural_filter``   - the small binary gate classifier head
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, get_type_hints

from .errors import ArgumentError, ShapeError, load_json
from .tensor import Shape

__all__ = [
    "LayerSpec",
    "NetworkSpec",
    "ShapeTrace",
    "output_shape",
    "trace",
    "tensor_ratio",
    "spec_from_dict",
    "load_spec_file",
    "get_builtin_spec",
]

_KINDS = ("conv", "batchnorm", "relu", "maxpool", "adaptive_avgpool", "linear", "softmax")


@dataclass(frozen=True)
class LayerSpec:
    """One layer row: kind plus the hyperparameters that kind needs.

    Conv stride defaults to 1 and padding to 0 when omitted, matching the
    defaults the architecture tables assume. ``bias`` opts a conv into a bias
    term for parameter counting (excluded by default, the usual convention
    for convs followed by batchnorm). Each field holds the type it is
    annotated with, and a bool is not an int.
    """

    kind: str
    oc: int | None = None
    k: int | None = None
    s: int = 1
    p: int = 0
    oh: int | None = None
    ow: int | None = None
    in_features: int | None = None
    out_features: int | None = None
    bottleneck: bool = False
    bias: bool = False

    def __post_init__(self):
        for f in fields(self):
            value, want = getattr(self, f.name), _FIELD_TYPES[f.name]
            if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
                raise ArgumentError(f"layer field {f.name} must be {f.type}, got {value!r}")
        if self.kind not in _KINDS:
            raise ArgumentError(f"unknown layer kind {self.kind!r}")
        if self.kind == "conv":
            if self.oc is None or self.oc < 1:
                raise ArgumentError("conv needs oc >= 1")
            self._check_window()
        elif self.kind == "maxpool":
            self._check_window()
        elif self.kind == "adaptive_avgpool":
            if not (self.oh and self.ow and self.oh >= 1 and self.ow >= 1):
                raise ArgumentError("adaptive_avgpool needs oh, ow >= 1")
        elif self.kind == "linear":
            if not (self.in_features and self.out_features
                    and self.in_features >= 1 and self.out_features >= 1):
                raise ArgumentError("linear needs in_features, out_features >= 1")

    def _check_window(self):
        if self.k is None or self.k < 1 or self.s < 1 or self.p < 0:
            raise ArgumentError(
                f"{self.kind} needs k >= 1, s >= 1, p >= 0 "
                f"(got k={self.k}, s={self.s}, p={self.p})"
            )


_FIELD_TYPES = get_type_hints(LayerSpec)


@dataclass(frozen=True)
class NetworkSpec:
    """Named ordered layer list with at most one flagged bottleneck."""

    name: str
    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        flagged = sum(1 for l in self.layers if l.bottleneck)
        if flagged > 1:
            raise ArgumentError(
                f"{self.name}: {flagged} bottleneck layers flagged, at most 1 allowed"
            )


@dataclass(frozen=True)
class ShapeTrace:
    """Per-layer output shapes plus bottleneck shape and parameter total."""

    input_shape: Shape
    layer_shapes: tuple[Shape, ...]
    bottleneck_shape: Shape | None
    param_count: int

    @property
    def output_shape(self) -> Shape:
        return self.layer_shapes[-1] if self.layer_shapes else self.input_shape


def _window_out(extent: int, k: int, s: int, p: int) -> int:
    padded = extent + 2 * p
    if padded < k:
        raise ShapeError(f"kernel {k} larger than padded extent {padded}")
    return (padded - k) // s + 1


def output_shape(layer: LayerSpec, in_shape: Shape) -> Shape:
    """Shape produced by one layer applied to ``in_shape``."""
    kind = layer.kind
    if kind in ("conv", "maxpool", "adaptive_avgpool", "batchnorm"):
        if in_shape.rank != 3:
            raise ShapeError(f"{kind} expects a [C,H,W] input, got {in_shape}")
    if kind == "conv":
        c, h, w = in_shape
        return Shape([layer.oc,
                      _window_out(h, layer.k, layer.s, layer.p),
                      _window_out(w, layer.k, layer.s, layer.p)])
    if kind == "maxpool":
        c, h, w = in_shape
        return Shape([c,
                      _window_out(h, layer.k, layer.s, layer.p),
                      _window_out(w, layer.k, layer.s, layer.p)])
    if kind == "adaptive_avgpool":
        return Shape([in_shape[0], layer.oh, layer.ow])
    if kind == "linear":
        if in_shape.numel != layer.in_features:
            raise ShapeError(
                f"linear expects {layer.in_features} input features, "
                f"got {in_shape} (numel {in_shape.numel})"
            )
        return Shape([layer.out_features])
    # batchnorm / relu / softmax keep the shape
    return in_shape


def _layer_params(layer: LayerSpec, in_shape: Shape) -> int:
    if layer.kind == "conv":
        ic = in_shape[0]
        n = ic * layer.oc * layer.k * layer.k
        if layer.bias:
            n += layer.oc
        return n
    if layer.kind == "batchnorm":
        return 2 * in_shape[0]
    if layer.kind == "linear":
        return layer.in_features * layer.out_features + layer.out_features
    return 0


def trace(net: NetworkSpec, in_shape: Shape) -> ShapeTrace:
    """Run the whole spec symbolically, recording every intermediate shape."""
    shapes: list[Shape] = []
    bottleneck: Shape | None = None
    params = 0
    cur = in_shape
    for i, layer in enumerate(net.layers):
        try:
            params += _layer_params(layer, cur)
            cur = output_shape(layer, cur)
        except ShapeError as exc:
            raise ShapeError(f"{net.name}: layer {i} ({layer.kind}): {exc}") from exc
        shapes.append(cur)
        if layer.bottleneck:
            bottleneck = cur
    return ShapeTrace(in_shape, tuple(shapes), bottleneck, params)


def tensor_ratio(bottleneck: Shape, input_shape: Shape) -> float:
    """numel(bottleneck) / numel(input)."""
    return bottleneck.numel / input_shape.numel


# --- reading spec documents ---

def spec_from_dict(doc: dict[str, Any]) -> NetworkSpec:
    try:
        name = doc["name"]
        rows = doc["layers"]
    except (KeyError, TypeError) as exc:
        raise ArgumentError(f"network spec document needs name and layers: {exc}")
    if not isinstance(rows, list):
        raise ArgumentError(f"spec {name!r}: layers must be a list of layer objects")
    names = {f.name for f in fields(LayerSpec)}
    layers = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ArgumentError(f"layer {i} must be an object, got {type(row).__name__}")
        if "kind" not in row or not names.issuperset(row):
            raise ArgumentError(f"layer {i}: needs a kind, and only the fields "
                                f"{sorted(names)}; got {sorted(row)}")
        layers.append(LayerSpec(**row))
    return NetworkSpec(name, tuple(layers))


def load_spec_file(path: str) -> NetworkSpec:
    return spec_from_dict(load_json(path, "spec"))


# --- built-in fixtures ---

def _conv(oc, k, s=1, p=0, bottleneck=False):
    return LayerSpec("conv", oc=oc, k=k, s=s, p=p, bottleneck=bottleneck)


_BN = LayerSpec("batchnorm")
_RELU = LayerSpec("relu")

_STEM = NetworkSpec("stem", (
    _conv(64, 7, s=2, p=3),
    _BN,
    _RELU,
    LayerSpec("maxpool", k=3, s=2, p=1),
))

_TEACHER_L1 = NetworkSpec("teacher_l1", (
    _conv(64, 1), _BN,
    _conv(64, 3, p=1), _BN,
    _conv(256, 1), _BN,
    _conv(256, 1), _BN,
    _RELU,
    _conv(64, 1), _BN,
    _conv(64, 3, p=1), _BN,
    _conv(256, 1), _BN,
    _RELU,
    _conv(64, 1), _BN,
    _conv(64, 3, p=1), _BN,
    _conv(256, 1), _BN,
    _RELU,
))

_STUDENT_L1_COLUMN = NetworkSpec("student_l1_column", (
    _conv(64, 2, p=1), _BN,
    _conv(256, 2, p=1), _BN,
    _RELU,
    _conv(64, 2, p=1), _BN,
    _conv(3, 2, p=1, bottleneck=True), _BN,
    _RELU,
    _conv(64, 2), _BN,
    _conv(128, 2), _BN,
    _RELU,
    _conv(256, 2), _BN,
    _conv(256, 2), _BN,
    _RELU,
))

_STUDENT_L1 = NetworkSpec("student_l1", _STEM.layers + _STUDENT_L1_COLUMN.layers)

_NEURAL_FILTER = NetworkSpec("neural_filter", (
    LayerSpec("adaptive_avgpool", oh=64, ow=64),
    _conv(64, 4, s=2), _BN, _RELU,
    _conv(32, 3, s=2), _BN, _RELU,
    _conv(16, 2, s=1), _BN, _RELU,
    LayerSpec("adaptive_avgpool", oh=8, ow=8),
    LayerSpec("linear", in_features=1024, out_features=2),
    LayerSpec("softmax"),
))

_BUILTINS = {
    s.name: s
    for s in (_STEM, _TEACHER_L1, _STUDENT_L1_COLUMN, _STUDENT_L1, _NEURAL_FILTER)
}


def get_builtin_spec(name: str) -> NetworkSpec:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ArgumentError(
            f"unknown spec {name!r}; built-ins: {sorted(_BUILTINS)}"
        ) from None
