"""splitwire: tools for split (head/tail) edge inference pipelines.

Covers the bottleneck tensor codec, capture-to-output delay modeling for
the four execution strategies, layer-spec shape arithmetic, a toy
distillation trainer with a closed-form verification oracle, and an
executable loopback pipeline with a neural prefilter gate. Every other name
is imported from the module that defines it.
"""

from . import codec, distill, latency, netspec, pipeline, tensor
from .config import load_reference_config
from .tensor import random_fill

__version__ = "0.1.0"

__all__ = [
    "codec",
    "distill",
    "latency",
    "netspec",
    "pipeline",
    "tensor",
    "load_reference_config",
    "random_fill",
    "__version__",
]
