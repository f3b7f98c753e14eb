"""Span recording for the traced benchmark run.

Spans are recorded by wrapping public functions of the splitwire package
from the outside; nothing in the package itself is instrumented. Each span
keeps a name, start and end (``time.perf_counter_ns``, CLOCK_MONOTONIC, so
spans from the client and the server process share one time base), the id
of its parent span on the same thread, and an image id. Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict

from common import p10

NO_PARENT = -1


class Tracer:
    """Collects spans from wrapped functions, one call stack per thread."""

    def __init__(self, side: str):
        self.side = side
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # --- per-thread state -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def image(self) -> int:
        return getattr(self._local, "image", -1)

    @image.setter
    def image(self, value: int) -> None:
        self._local.image = value

    def clear(self) -> None:
        self.spans = []

    # --- recording --------------------------------------------------------

    def record(self, name: str, start_ns: int, end_ns: int, parent: int = NO_PARENT,
               image: int | None = None, sid: int | None = None, **attrs) -> int:
        sid = next(self._ids) if sid is None else sid
        span = {"id": sid, "name": name, "start": start_ns, "end": end_ns,
                "parent": parent, "image": self.image if image is None else image,
                "side": self.side}
        span.update(attrs)
        self.spans.append(span)
        return sid

    def begin(self) -> tuple[int, int]:
        """Open a span on this thread; its id and its parent's id."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else NO_PARENT
        stack.append(sid)
        return sid, parent

    def end(self) -> None:
        """Close the innermost open span on this thread."""
        self._stack().pop()

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped in a span; ``attrs(result)`` adds fields."""

        def traced(*args, **kwargs):
            sid, parent = self.begin()
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self.end()
                extra = attrs(result) if attrs is not None and result is not None else {}
                self.record(name, start, end, parent, sid=sid, **extra)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``unpatch_all``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def replace(self, owner, attr: str, fn) -> None:
        """Replace ``owner.attr`` by ``fn`` until ``unpatch_all``."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --- analysis ---------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the time its children cover (ns).

    Children run on their parent's thread, one after another, so the part
    of the parent they cover is the sum of their durations.
    """
    covered: dict[int, int] = defaultdict(int)
    for s in spans:
        if s["parent"] != NO_PARENT:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def under(spans: list[dict], name: str) -> set[int]:
    """Ids of the spans named ``name`` and of all spans below them."""
    parent = {s["id"]: s["parent"] for s in spans}
    named = {s["id"] for s in spans if s["name"] == name}
    inside = set()
    for sid in parent:
        cur = sid
        while cur != NO_PARENT:
            if cur in named:
                inside.add(sid)
                break
            cur = parent.get(cur, NO_PARENT)
    return inside


def _self_by_name(spans: list[dict]) -> dict[str, list[int]]:
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(selfs[s["id"]])
    return by_name


def p10_self_ms(spans: list[dict]) -> dict[str, float]:
    """Span name -> 10th percentile of the self time per call, in ms."""
    return {name: p10(v) / 1e6 for name, v in _self_by_name(spans).items()}


def self_time_table(spans: list[dict]) -> list[list]:
    """[side, name, calls, p10, median and total self ms] per span name."""
    side = spans[0]["side"] if spans else ""
    rows = [[side, name, len(v), p10(v) / 1e6, statistics.median(v) / 1e6, sum(v) / 1e6]
            for name, v in _self_by_name(spans).items()]
    return sorted(rows, key=lambda row: -row[5])


def patch_client(tracer: Tracer) -> None:
    """Wrap the public functions on the head side of one image's path.

    The session module imports its collaborators by name, so they are
    replaced where it looks them up.
    """
    from splitwire.pipeline import session
    from splitwire.pipeline.filtergate import FilterModel

    tracer.patch(FilterModel, "sample_scores", "filtergate.sample_scores")
    tracer.patch(session, "quantize8", "codec.quantize8")
    tracer.patch(session, "dequantize", "codec.dequantize")
    tracer.patch(session, "encode_message", "wire.encode",
                 attrs=lambda frame: {"bytes": len(frame)})
    tracer.patch(session, "decode_message", "wire.decode")
    tracer.patch(session, "read_frame", "session.reply_wait")
    tracer.patch(session, "tensor_digest", "session.verify")
    tracer.patch(session.TokenBucket, "send_all", "session.send")
    tracer.patch(session, "random_fill", "tensor.random_fill")
