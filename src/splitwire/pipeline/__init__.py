"""Executable split pipeline: wire framing, filter gate, client and server.

Import each name from its module (``wire``, ``filtergate``, ``session``,
``server``); the package keeps only the three that callers reach here. They
load on first use (PEP 562): ``codec`` imports ``wire``, so an eager import of
``server``, which imports ``codec``, would meet a partly initialised ``codec``.
Once perfbench imports them from their modules (ROADMAP item 2), this file
can be empty.
"""

import importlib

_LAZY = {"PipelineServer": "server", "make_stream": "session", "run_session": "session"}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
