"""Executable split pipeline: wire framing, filter gate, client and server.

Import each name from its module (``wire``, ``filtergate``, ``session``,
``server``); the package keeps only the three that callers reach here.
"""

from .server import PipelineServer
from .session import make_stream, run_session

__all__ = ["PipelineServer", "make_stream", "run_session"]
