"""In-memory spans for the traced run, and the wrappers that record them.

A span is ``[name, start_ns, end_ns, parent, op, nbytes]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation all spans
of one workload operation share, and ``nbytes`` a byte count taken at the
same boundary (0 where none applies). Spans stay in a list until the run
ends; :meth:`Tracer.write` then stores them as gzip-compressed CSV.

Wrappers are installed on module attributes, at the names the callers look
up, and removed again when :func:`installed` exits. Nothing here touches the
package's source.
"""

from __future__ import annotations

import gzip
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.op, 0])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count_bytes=None):
        """``fn`` recorded as span ``name``; ``count_bytes(args, result)``,
        if given, is evaluated after the span closes."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count_bytes is not None:
                self.spans[idx][5] = count_bytes(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op,nbytes\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    def per_op(self) -> dict[str, dict[int, dict[str, float]]]:
        """Per span name and operation: summed ms, self ms, calls, bytes.

        Self time is a span's duration minus that of its direct children;
        spans of one thread nest, so children never overlap.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, dict[int, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0, "bytes": 0})
        )
        for idx, (name, start, end, _parent, op, nbytes) in enumerate(self.spans):
            agg = out[name][op]
            agg["ms"] += (end - start) / 1e6
            agg["self_ms"] += (end - start - child_ns[idx]) / 1e6
            agg["calls"] += 1
            agg["bytes"] += nbytes
        return out


def file_size(arg_index: int):
    """Byte counter: size of the file named by positional argument ``arg_index``."""
    return lambda args, _result: os.path.getsize(args[arg_index])


def run_header_size(arg_index: int):
    """Byte counter: meta.txt plus manifest.csv of the run directory argument."""
    def count(args, _result):
        run = Path(args[arg_index])
        return os.path.getsize(run / "meta.txt") + os.path.getsize(run / "manifest.csv")
    return count


def text_size(_args, result) -> int:
    return len(result.encode("utf-8"))


@contextmanager
def installed(tracer: Tracer, points):
    """Replace each ``(module, attr, span_name, count_bytes)`` with a wrapper."""
    saved = []
    try:
        for module, attr, name, count in points:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarize(per_op, scale: dict[int, float]) -> dict[str, dict[str, float]]:
    """Median per-operation ms and self ms; mean calls and bytes per operation.

    ``scale`` maps each completed operation to the factor that brings its
    wall times to reference speed. Operations that never reached a span
    count as zero for it.
    """
    out = {}
    zero = {"ms": 0.0, "self_ms": 0.0, "calls": 0, "bytes": 0}
    for name, by_op in per_op.items():
        rows = [(by_op.get(op, zero), f) for op, f in scale.items()]
        out[name] = {
            "ms": median(r["ms"] * f for r, f in rows),
            "self_ms": median(r["self_ms"] * f for r, f in rows),
            "calls": sum(r["calls"] for r, _ in rows) / len(rows),
            "bytes": sum(r["bytes"] for r, _ in rows) / len(rows),
        }
    return out
