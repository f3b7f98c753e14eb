"""Exception hierarchy shared by all splitwire modules, and the one rule
every numeric configuration value is checked by."""

from __future__ import annotations

import math
from numbers import Real


class SplitwireError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SplitwireError, ValueError):
    """Tensor or layer shapes are inconsistent."""


class RangeError(SplitwireError, ValueError):
    """A scalar argument is outside its documented range."""


class ArgumentError(SplitwireError, ValueError):
    """An argument violates a precondition that is not a shape or range."""


class CodecError(SplitwireError, ValueError):
    """Quantized payload is corrupt or inconsistent with its metadata."""


class NoCrossoverError(SplitwireError, ValueError):
    """The bracketed rate interval contains no delay crossover."""


class ProtocolError(SplitwireError, ValueError):
    """Wire message is malformed or violates the framing contract."""


class TransportError(SplitwireError, OSError):
    """Socket-level failure while moving frames between head and tail."""


def check_number(name: str, value: object, *, above: float | None = None,
                 at_least: float | None = None, at_most: float | None = None) -> None:
    """Raise RangeError unless ``value`` is a finite real number within the
    bounds given. A bool is not a number here, although Python counts it as one."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise RangeError(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value)
            and (above is None or value > above)
            and (at_least is None or value >= at_least)
            and (at_most is None or value <= at_most)):
        rule = "".join(f" and {op} {bound:g}" for op, bound in
                       ((">", above), (">=", at_least), ("<=", at_most)) if bound is not None)
        raise RangeError(f"{name} must be finite{rule}, got {value!r}")
