"""Exception hierarchy shared by all splitwire modules, the rules every
numeric setting and every seed are checked by, and the reader that reports
a JSON document it cannot load as an ArgumentError."""

from __future__ import annotations

import json
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


def check_argument(name: str, value: object, **bounds) -> None:
    """``check_number``'s rule, raised as an ArgumentError."""
    try:
        check_number(name, value, **bounds)
    except RangeError as exc:
        raise ArgumentError(str(exc)) from None


def check_seed(name: str, value: object) -> int:
    """Return ``value`` if it is a non-negative int and not a bool, else raise ArgumentError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ArgumentError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def load_json(path: str, what: str) -> object:
    """The JSON document in the file at ``path``, a ``what`` such as a config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ArgumentError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ArgumentError(f"{what} {path} is not valid JSON: {exc}") from exc
