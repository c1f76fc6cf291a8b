"""In-memory span tracer that wraps the program's public seams from outside.

The traced run swaps module attributes and class methods for thin wrappers
that record one span per call — name, start, end, parent — plus counters,
then puts every original back.  It works because the program looks these
names up at call time (a module global such as ``repro.otis.search.
bfs_distances_regular``, or a class attribute such as ``ChunkStore.write``).
Nothing under ``src/`` is edited, and the wrappers exist only inside
:meth:`Tracer.patched`.

Spans are kept in memory and written out once, at the end of the run
(:meth:`Tracer.dump`).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict

import numpy as np

from repro.routing.routers import Router


class Tracer:
    """Spans and counters of one traced run (thread-safe appends)."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, start, end, parent
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span under the calling thread's innermost open span."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                (name, time.perf_counter_ns(), 0, stack[-1] if stack else -1)
            )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # ------------------------------------------------------------- patching
    def wrap(self, name: str, function, after=None):
        """``function`` recording a span ``name``.

        ``after(result, args, seconds)``, when given, runs after each call
        to update counters from its result, arguments and duration.
        """
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                _, start, end, _ = tracer.spans[index]
                after(result, args, (end - start) / 1e9)
            return result

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``targets``; restore every original on exit.

        Each target is ``(owner, attribute, name[, after])`` for a span
        wrapper (see :meth:`wrap`), or ``(owner, attribute, factory)`` where
        ``factory(original)`` returns the replacement.  An attribute a class
        inherits (absent from its own ``__dict__``) is deleted again on exit
        rather than pinned, so the owner ends exactly as it started.
        """
        saved = []
        try:
            for owner, attribute, how, *after in targets:
                own = vars(owner).get(attribute, _MISSING)
                original = getattr(owner, attribute)
                saved.append((owner, attribute, own))
                if callable(how):
                    replacement = how(original)
                else:
                    replacement = self.wrap(how, original, *after)
                setattr(owner, attribute, replacement)
            yield self
        finally:
            for owner, attribute, own in reversed(saved):
                if own is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, own)

    # ------------------------------------------------------------ summaries
    def totals(self, first: int = 0, stop: int | None = None) -> dict[str, list]:
        """``name -> [calls, inclusive s, self s]`` over ``spans[first:stop]``.

        A span's self time is its duration minus the time its child spans
        cover.
        """
        spans = self.spans
        stop = len(spans) if stop is None else stop
        child_ns = defaultdict(int)
        for name, start, end, parent in spans[first:stop]:
            if parent >= first and end:
                child_ns[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for index in range(first, stop):
            name, start, end, _ = spans[index]
            if not end:
                continue
            row = out[name]
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += (end - start - child_ns[index]) / 1e9
        return out

    def dump(self, path) -> None:
        """Write every span and counter as JSON (called once, at the end)."""
        payload = {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


_MISSING = object()


class DelegatingRouter(Router):
    """A :class:`Router` that answers through ``inner``.

    Subclasses, handed to the simulators through ``router=``, override the
    calls they watch; everything else passes straight through.
    """

    def __init__(self, inner: Router):
        self.inner = inner
        self.kind = inner.kind

    def next_hop(self, source: int, target: int) -> int:
        return self.inner.next_hop(source, target)

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.inner.next_hops(sources, targets)

    def num_vertices(self) -> int:
        return self.inner.num_vertices()

    def state_bytes(self) -> int:
        return self.inner.state_bytes()

    def path_lengths(self, sources, targets):
        # Keep the inner router's override (the dense table answers from
        # its distance matrix); the generic walk would call next_hops.
        return self.inner.path_lengths(sources, targets)

    def __getattr__(self, name):  # hits/misses and other router extras
        return getattr(self.inner, name)


class TracedRouter(DelegatingRouter):
    """A delegating :class:`Router` that records every next-hop call.

    Handed to the simulators through ``router=`` (and to the serve registry
    in place of the router it builds), so router time is measured at the
    boundary without touching the router classes.
    """

    def __init__(self, inner: Router, tracer: Tracer):
        super().__init__(inner)
        self._tracer = tracer
        #: Scalar calls are too many to span one by one (hundreds of
        #: thousands per run), so they are summed here without a lock: the
        #: simulators make them from a single thread.
        self.scalar_calls = 0
        self.scalar_ns = 0

    def next_hop(self, source: int, target: int) -> int:
        start = time.perf_counter_ns()
        hop = self.inner.next_hop(source, target)
        self.scalar_ns += time.perf_counter_ns() - start
        self.scalar_calls += 1
        return hop

    def next_hops(self, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
        with self._tracer.span("router.next_hops"):
            hops = self.inner.next_hops(sources, targets)
        self._tracer.count("router.next_hops.pairs", len(hops))
        return hops

    def path_lengths(self, sources, targets):
        with self._tracer.span("router.path_lengths"):
            return self.inner.path_lengths(sources, targets)
