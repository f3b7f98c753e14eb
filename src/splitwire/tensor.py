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
# elements per block: random_fill's four block buffers (512 KiB) stay in L2
_BLOCK = 1 << 14


def random_fill(shape: Shape | Sequence[int], seed: int, lo: float, hi: float) -> np.ndarray:
    """Deterministic pseudo-random tensor of shape ``dims`` with values in [lo, hi).

    Element ``i`` (from 0) is ``lo + u * (hi - lo)`` rounded to float32, with
    ``u`` in [0, 1) the top 53 bits of the splitmix64 output for the counter
    ``seed + (i + 1) * gamma`` (mod 2**64), times ``2**-53``. The stream is
    generated in blocks of ``_BLOCK`` elements through buffers allocated once,
    so the temporaries stay bounded whatever the shape; every element sees the
    same IEEE operations as in one whole-array pass.
    """
    if not isinstance(shape, Shape):
        shape = Shape(shape)
    if not lo < hi:
        raise RangeError(f"need lo < hi, got lo={lo} hi={hi}")
    n = shape.numel
    vals = np.empty(n, dtype=np.float32)
    m = min(n, _BLOCK)
    # a block's counters are this ramp plus the counter before its first element
    ramp = np.arange(1, m + 1, dtype=np.uint64) * _SM64_GAMMA
    z, shifted, u = np.empty(m, np.uint64), np.empty(m, np.uint64), np.empty(m, np.float64)
    span = hi - lo
    for start in range(0, n, _BLOCK):
        k = min(_BLOCK, n - start)
        zb, sb, ub = z[:k], shifted[:k], u[:k]
        # uint64 arrays wrap silently; a uint64 scalar product would warn
        np.add(ramp[:k], np.uint64((seed + start * int(_SM64_GAMMA)) % (1 << 64)), out=zb)
        np.right_shift(zb, np.uint64(30), out=sb)
        zb ^= sb
        zb *= _SM64_M1
        np.right_shift(zb, np.uint64(27), out=sb)
        zb ^= sb
        zb *= _SM64_M2
        np.right_shift(zb, np.uint64(31), out=sb)
        zb ^= sb
        zb >>= np.uint64(11)
        ub[...] = zb
        ub *= 2.0**-53
        ub *= span
        ub += lo
        vals[start:start + k] = ub
    # float32 rounding may land exactly on hi; pull those back inside.
    upper = np.nextafter(np.float32(hi), np.float32(lo))
    np.minimum(vals, upper, out=vals)
    vals = vals.reshape(shape.dims)
    vals.setflags(write=False)
    return vals
