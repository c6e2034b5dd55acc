"""Outside-in tracing: timed spans around a program's public entry points.

:class:`Tracer` replaces chosen functions and methods with wrappers that
record a span (name, start, end, parent span, repetition id) per call and
let a hook add counters from the call's arguments and result.  Spans stay
in memory; :meth:`Tracer.dump` writes them out once the run ends.
:meth:`Tracer.remove` puts every original back, so untraced runs execute
unwrapped code.

Spans are recorded in the calling process only.  Work a forked child does
on the program's behalf shows up as the self time of the parent span that
waited for it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

__all__ = ["Span", "Tracer", "self_times", "layer_totals"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    rep: str


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        inside = [
            (max(start, span.start), min(end, span.end)) for start, end in children[index]
        ]
        result.append((span.end - span.start) - _covered(inside))
    return result


def layer_totals(spans: Sequence[Span], reps: Sequence[str]) -> Dict[str, Tuple[float, int]]:
    """``name -> (summed self time, call count)`` over the spans of ``reps``."""
    wanted = set(reps)
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        if span.rep in wanted:
            totals[span.name][0] += own
            totals[span.name][1] += 1
    return {name: (seconds, int(calls)) for name, (seconds, calls) in totals.items()}


SpanName = Union[str, None, Callable[[tuple, dict], str]]
Hook = Callable[["Tracer", object, tuple, dict], None]


class Tracer:
    """Records nested spans and counters through installed wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: ``rep -> counter -> value``; hooks count into the current repetition.
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.rep = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.rep))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields the span's index."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[self.rep][name] += amount

    def counter_total(self, name: str, reps: Sequence[str]) -> float:
        return sum(self.counters[rep].get(name, 0.0) for rep in reps)

    # ---------------------------------------------------------- wrappers
    def wrap(
        self, owner: object, attr: str, name: SpanName = None, hook: Hook | None = None
    ) -> None:
        """Wrap ``owner.attr`` (a module function or a class's own method).

        ``name`` is the span name, a function of ``(args, kwargs)`` giving it,
        or ``None`` for a call that only feeds ``hook``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = tracer.open(label) if label is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                if index is not None:
                    tracer.close(index)
            if hook is not None:
                hook(tracer, result, args, kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_context(self, owner: type, name: str) -> None:
        """Record a span from ``owner.__enter__`` to the matching ``__exit__``."""
        enter, exit_ = owner.__dict__["__enter__"], owner.__dict__["__exit__"]
        tracer = self
        opened: Dict[int, int] = {}

        @functools.wraps(enter)
        def wrapped_enter(obj):
            opened[id(obj)] = tracer.open(name)
            return enter(obj)

        @functools.wraps(exit_)
        def wrapped_exit(obj, *exc_info):
            try:
                return exit_(obj, *exc_info)
            finally:
                tracer.close(opened.pop(id(obj)))

        self._patches.append((owner, "__enter__", enter))
        self._patches.append((owner, "__exit__", exit_))
        owner.__enter__ = wrapped_enter
        owner.__exit__ = wrapped_exit

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ output
    def dump(self, path: Path, header: Optional[dict] = None) -> None:
        """Write ``header``, the spans (one JSON object per line) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            if header is not None:
                handle.write(json.dumps({"meta": header}) + "\n")
            for index, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
                handle.write(json.dumps({"id": index, **asdict(span), "self": own}) + "\n")
            handle.write(json.dumps({"counters": self.counters}) + "\n")
