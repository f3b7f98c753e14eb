"""Dense float32 tensors and their shapes.

A tensor is a read-only float32 ndarray of shape ``dims``. Its row-major
bytes are what the codec quantizes, so payloads have an unambiguous byte
order on the wire, and being read-only it is safe to share between threads.
``check_tensor`` is the one rule for what the codec and the wire accept as a
tensor: float32, at least one dimension and no zero extent. The rule does not
check that the values are finite: ``quantize8``, ``quantize16`` and
``dequantize`` reject NaN and Inf with CodecError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import RangeError, ShapeError

__all__ = ["Shape", "check_tensor", "random_fill"]


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


def check_tensor(t) -> np.ndarray:
    """``t`` itself if it is a tensor: a float32 ndarray with at least one
    dimension and no zero extent; ShapeError otherwise."""
    if not (isinstance(t, np.ndarray) and t.dtype == np.float32 and t.ndim and t.size):
        got = f"{t.dtype} of shape {t.shape}" if isinstance(t, np.ndarray) else type(t)
        raise ShapeError("a tensor is a float32 array with at least one dimension "
                         f"and no zero extent, got {got}")
    return t


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


def random_fill(shape: Shape | Sequence[int], seed: int, lo: float, hi: float) -> np.ndarray:
    """Deterministic pseudo-random tensor of shape ``dims`` with values in [lo, hi)."""
    if not isinstance(shape, Shape):
        shape = Shape(shape)
    if not lo < hi:
        raise RangeError(f"need lo < hi, got lo={lo} hi={hi}")
    u = _splitmix64_unit(seed, shape.numel)
    vals = (lo + u * (hi - lo)).astype(np.float32)
    # float32 rounding may land exactly on hi; pull those back inside.
    upper = np.nextafter(np.float32(hi), np.float32(lo))
    np.minimum(vals, upper, out=vals)
    vals = vals.reshape(shape.dims)
    vals.setflags(write=False)
    return vals
