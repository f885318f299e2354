"""In-memory spans around the library's public calls, for the traced run.

A span is (name, start, end, parent span index, run id).  Spans are kept
in a list while the run goes and written out once at the end; past
MAX_SPANS spans, calls are still timed the same way but their spans are only
counted, so that a long query phase cannot fill the memory.  Calls that
the library makes internally (build_splitmap and build_ft_trie inside
build_nm_layer) get spans by replacing those names in the nonmanifold
module for the duration of a `patched` block; nothing under src/ changes.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

MAX_SPANS = 20_000


@dataclass(frozen=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run: str


@dataclass
class Tracer:
    spans: list[Span | None] = field(default_factory=list)
    dropped: int = 0
    run: str = ""
    _open: list[int] = field(default_factory=list)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        keep = idx < MAX_SPANS
        if keep:
            self.spans.append(None)
        self._open.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            span = Span(name, start, end, parent, self.run)
            if keep:
                self.spans[idx] = span
            else:
                self.dropped += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_seconds(self) -> dict[str, dict[str, float]]:
        """run id -> span name -> summed self time in seconds.

        Self time is a span's duration minus its children's.  The program is
        single-threaded, so children of one span never overlap.
        """
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s is not None and s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s is None:
                continue
            own = (s.end_ns - s.start_ns - child_ns[i]) / 1e9
            per_run = out.setdefault(s.run, {})
            per_run[s.name] = per_run.get(s.name, 0.0) + own
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s.__dict__) + "\n")
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")


@contextmanager
def patched(module: Any, name: str, replacement: Callable) -> Iterator[None]:
    """Replace module.name for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)
