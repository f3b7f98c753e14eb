"""Minimal dense float32 tensor container.

Values are stored flat in row-major order so that codec payloads have an
unambiguous byte order on the wire. Tensors are immutable after construction
and therefore safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import RangeError, ShapeError

__all__ = ["Shape", "Tensor", "make_tensor", "sub", "sq_sum", "random_fill"]


@dataclass(frozen=True)
class Shape:
    """Ordered positive integer extents of a dense tensor."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ShapeError("shape needs at least one extent")
        if any(d < 1 for d in dims):
            raise ShapeError(f"extents must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def numel(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def rank(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i]

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


class Tensor:
    """Immutable rank-N array of finite float32 values.

    A tensor owns its array and marks it read-only. ``Tensor(shape, data)``
    copies ``data``, so the caller may go on writing to its array. Code in
    this package that has just allocated an array and hands it over keeps it
    with ``Tensor._adopt`` instead, without the copy.
    """

    __slots__ = ("shape", "_data")

    def __init__(self, shape: Shape, data: np.ndarray):
        self._hold(shape, data, copy=True)

    @classmethod
    def _adopt(cls, shape: Shape, data: np.ndarray) -> "Tensor":
        """Keep ``data`` itself; no other reference to it may write to it."""
        t = cls.__new__(cls)
        t._hold(shape, data, copy=False)
        return t

    def _hold(self, shape: Shape, data: np.ndarray, copy: bool) -> None:
        if data.dtype != np.float32 or data.ndim != 1:
            raise ShapeError("tensor data must be a flat float32 array")
        if data.size != shape.numel:
            raise ShapeError(
                f"data length {data.size} does not match shape {shape} "
                f"(numel {shape.numel})"
            )
        if copy:
            data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Tensor is immutable")

    @property
    def data(self) -> np.ndarray:
        """Read-only flat float32 view, row-major."""
        return self._data

    @property
    def numel(self) -> int:
        return self.shape.numel

    def tolist(self) -> list[float]:
        return self._data.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._data, other._data)
        )

    def __hash__(self):
        return hash((self.shape, self._data.tobytes()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, numel={self.numel})"


def make_tensor(shape: Shape | Sequence[int], values: Sequence[float]) -> Tensor:
    """Build a tensor owning a copy of ``values``.

    Raises ShapeError on a length mismatch and ValueError if any value is
    NaN or infinite (the codec needs finite min/max to derive scales).
    """
    if not isinstance(shape, Shape):
        shape = Shape(shape)
    arr = np.asarray(values, dtype=np.float32).reshape(-1)
    if arr.size != shape.numel:
        raise ShapeError(
            f"got {arr.size} values for shape {shape} (numel {shape.numel})"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor values must be finite (no NaN/Inf)")
    return Tensor(shape, arr)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b; shapes must match exactly."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return Tensor(a.shape, (a.data - b.data).astype(np.float32))


def sq_sum(a: Tensor) -> float:
    """Sum of squared elements, accumulated in float64."""
    d = a.data.astype(np.float64)
    return float(np.dot(d, d))


# splitmix64 constants; the generator is self-contained so seeded streams are
# byte-identical regardless of the installed numpy version.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64_unit(seed: int, n: int) -> np.ndarray:
    """n deterministic float64 samples in [0, 1) from a splitmix64 stream."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed % (1 << 64)) + idx * _SM64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM64_M1
    z = (z ^ (z >> np.uint64(27))) * _SM64_M2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def random_fill(shape: Shape | Sequence[int], seed: int, lo: float, hi: float) -> Tensor:
    """Deterministic pseudo-random tensor with values in [lo, hi)."""
    if not isinstance(shape, Shape):
        shape = Shape(shape)
    if not lo < hi:
        raise RangeError(f"need lo < hi, got lo={lo} hi={hi}")
    u = _splitmix64_unit(seed, shape.numel)
    vals = (lo + u * (hi - lo)).astype(np.float32)
    # float32 rounding may land exactly on hi; pull those back inside.
    upper = np.nextafter(np.float32(hi), np.float32(lo))
    np.minimum(vals, upper, out=vals)
    return Tensor._adopt(shape, vals)
