"""splitwire: tools for split (head/tail) edge inference pipelines.

Covers the bottleneck tensor codec, capture-to-output delay modeling for
the four execution strategies, layer-spec shape arithmetic, a toy
distillation trainer with a closed-form verification oracle, and an
executable loopback pipeline with a neural prefilter gate.
"""

from . import codec, distill, latency, netspec, pipeline, tensor
from .config import Config, load_config, load_reference_config, reference_config_path
from .errors import (
    ArgumentError,
    CodecError,
    NoCrossoverError,
    ProtocolError,
    RangeError,
    ShapeError,
    SplitwireError,
    TransportError,
)
from .tensor import Shape, Tensor, make_tensor, random_fill

__version__ = "0.1.0"

__all__ = [
    "codec",
    "distill",
    "latency",
    "netspec",
    "pipeline",
    "tensor",
    "Config",
    "load_config",
    "load_reference_config",
    "reference_config_path",
    "ArgumentError",
    "CodecError",
    "NoCrossoverError",
    "ProtocolError",
    "RangeError",
    "ShapeError",
    "SplitwireError",
    "TransportError",
    "Shape",
    "Tensor",
    "make_tensor",
    "random_fill",
    "__version__",
]
