"""Benchmark-side spans around calls into the library's layers.

A :class:`SpanRecorder` records one span per timed call: name, start,
end, the trace it belongs to, its own id and the id of the span that was
open when it started.  The library is never edited: :func:`timed`
wraps a public function or method, and :func:`patched` installs such
wrappers for the duration of a traced pass and restores the originals.

The benchmark is single-threaded.  Spans opened by synchronous calls
nest strictly; the only spans that stay open across an ``await`` are
the fleet driver's own (pass, set-up, phase, wave), which FleetDriver awaits
one at a time.  So one stack of open spans gives every span its parent,
even on the asyncio socket path.

Self time is a span's duration minus the part of it that its children
cover, so the self times of a trace's spans add up to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from unittest import mock

# Fields of a span tuple, as :attr:`SpanRecorder.spans` returns them.
NAME, START, END, SPAN_ID, PARENT_ID, TRACE_ID, ROWS = range(7)


class SpanRecorder:
    """In-memory span store; written out when the benchmark ends.

    Spans are stored column-wise in typed arrays, so recording one adds
    no object the garbage collector tracks: a traced socket pass records
    about a hundred thousand spans, and as tuples they made every full
    collection slower and the traced pass measurably longer.  Span ``i``
    (from 1) lives at index ``i - 1``.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.traces = array("q")
        self.rows = array("q")
        self._open: List[int] = []
        self.trace_id = 0

    @contextlib.contextmanager
    def trace(self, name: str) -> Iterator[int]:
        """Start a new trace whose root span is ``name``."""
        if self._open:
            raise RuntimeError("a trace starts with no span open")
        self.trace_id += 1
        with self.span(name) as root:
            yield root

    def begin(self, name: str, rows: int = 0) -> int:
        """Open a span and return its id; spans close in reverse order."""
        open_ = self._open
        self.names.append(name)
        self.parents.append(open_[-1] if open_ else 0)
        self.traces.append(self.trace_id)
        self.rows.append(rows)
        self.ends.append(0.0)
        span_id = len(self.names)
        open_.append(span_id)
        self.starts.append(time.perf_counter())
        return span_id

    def end(self, span_id: int) -> None:
        self.ends[span_id - 1] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0) -> Iterator[int]:
        span_id = self.begin(name, rows)
        try:
            yield span_id
        finally:
            self.end(span_id)

    @property
    def spans(self) -> List[tuple]:
        """Every span as a ``(name, start, end, id, parent, trace, rows)`` tuple."""
        return list(
            zip(
                self.names,
                self.starts,
                self.ends,
                range(1, len(self.names) + 1),
                self.parents,
                self.traces,
                self.rows,
            )
        )


RowCounter = Callable[[tuple, dict, object], int]


def rows_of_result(args, kwargs, result) -> int:
    """A :data:`RowCounter` for calls that return one item per row."""
    return len(result)


def timed(
    recorder: SpanRecorder, name: str, function: Callable, rows: Optional[RowCounter] = None
) -> Callable:
    """Wrap ``function`` so every call is a span named ``name``.

    ``rows(args, kwargs, result)`` gives the span's row count (the work
    the call did, in the layer's own unit).
    """
    begin, end, counts = recorder.begin, recorder.end, recorder.rows
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args, **kwargs):
            span_id = begin(name)
            try:
                result = await function(*args, **kwargs)
            finally:
                end(span_id)
            if rows is not None:
                counts[span_id - 1] = rows(args, kwargs, result)
            return result

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span_id = begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            end(span_id)
        if rows is not None:
            counts[span_id - 1] = rows(args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def patched(
    recorder: SpanRecorder,
    targets: Sequence[Tuple[object, str, str, Optional[RowCounter]]],
) -> Iterator[None]:
    """Time ``(owner, attribute, span name, rows)`` targets, then restore them."""
    with contextlib.ExitStack() as stack:
        for owner, attribute, name, rows in targets:
            original = getattr(owner, attribute)
            stack.enter_context(
                mock.patch.object(owner, attribute, timed(recorder, name, original, rows))
            )
        yield


def write_jsonl(path: str, spans: Sequence[tuple]) -> None:
    """Spans as JSON lines, in start order, with their self times."""
    own = self_times(spans)
    origin = min((s[START] for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        for span in sorted(spans, key=lambda s: s[START]):
            record = {
                "trace_id": span[TRACE_ID],
                "span_id": span[SPAN_ID],
                "parent_id": span[PARENT_ID] or None,
                "name": span[NAME],
                "start_s": span[START] - origin,
                "duration_s": span[END] - span[START],
                "self_s": own[span[SPAN_ID]],
                "rows": span[ROWS],
            }
            handle.write(json.dumps(record) + "\n")


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, float]:
    """Span id -> duration minus the coverage of its direct children.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {span[SPAN_ID]: span for span in spans}
    for span in spans:
        parent = by_id.get(span[PARENT_ID])
        if parent is None:
            continue
        start = max(span[START], parent[START])
        end = min(span[END], parent[END])
        if end > start:
            children.setdefault(parent[SPAN_ID], []).append((start, end))
    return {
        span[SPAN_ID]: (span[END] - span[START]) - covered(children.get(span[SPAN_ID], ()))
        for span in spans
    }


def stage_table(spans: Sequence[tuple]) -> List[Dict[str, object]]:
    """Self time per span name, largest first, with calls and rows."""
    own = self_times(spans)
    rows: Dict[str, Dict[str, object]] = {}
    for span in spans:
        row = rows.setdefault(
            span[NAME], {"stage": span[NAME], "calls": 0, "rows": 0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["rows"] += span[ROWS]
        row["self_s"] += own[span[SPAN_ID]]
    total = sum(row["self_s"] for row in rows.values()) or 1.0
    for row in rows.values():
        row["share"] = row["self_s"] / total
    return sorted(rows.values(), key=lambda row: -row["self_s"])


def format_stage_table(title: str, table: Sequence[Dict[str, object]], passes: int) -> str:
    lines = [
        f"stage table: {title} (self time per traced pass, {passes} passes)",
        f"  {'stage':<28}{'calls':>10}{'rows':>12}{'self_ms':>12}{'share':>8}",
    ]
    for row in table:
        lines.append(
            f"  {row['stage']:<28}{row['calls'] / passes:>10.1f}{row['rows'] / passes:>12.1f}"
            f"{row['self_s'] / passes * 1e3:>12.2f}{row['share'] * 100:>7.1f}%"
        )
    total = sum(row["self_s"] for row in table) / passes
    lines.append(f"  {'sum':<28}{'':>10}{'':>12}{total * 1e3:>12.2f}")
    return "\n".join(lines)


def spans_named(spans: Sequence[tuple], prefix: str) -> List[tuple]:
    return [span for span in spans if span[NAME].startswith(prefix)]


def total_duration(spans: Sequence[tuple]) -> float:
    return sum(span[END] - span[START] for span in spans)


def total_rows(spans: Sequence[tuple]) -> int:
    return sum(span[ROWS] for span in spans)


def us_per_row(spans: Sequence[tuple]) -> float:
    """Microseconds per row over ``spans`` (0 when they did no work)."""
    rows = total_rows(spans)
    return total_duration(spans) / rows * 1e6 if rows else 0.0
