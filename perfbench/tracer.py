"""In-memory span tracer that is installed by wrapping module attributes.

Each wrapped function opens a span when called and closes it when it
returns or raises.  Spans nest: a span's self time is its duration minus
the durations of the spans opened directly inside it, so time spent in a
nested layer is counted once, in that layer.  Spans are aggregated per name
as they close (calls, errors, total and self seconds); nothing is written
until the caller reads the aggregates.

A function must be wrapped under the name its caller looks it up by.  A call
written ``module.func(...)`` sees a wrapper set on ``module``; a name bound
by ``from module import func`` must be wrapped on the importing module.
Names that do not exist are recorded as missing instead of failing, so the
same wrap table runs against versions of the package that dropped a
function.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.missing: set[str] = set()
        self._stack: list[list[Any]] = []  # [name, start, child seconds]
        self._installed: list[tuple[object, str, object]] = []

    def open(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def close(self, error: bool = False) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        st = self.stats.setdefault(name, SpanStats())
        st.calls += 1
        st.errors += int(error)
        st.total_s += duration
        st.self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def active(self, name: str) -> bool:
        """Whether a span called `name` is open (the caller is inside it)."""
        return any(frame[0] == name for frame in self._stack)

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st.calls if st else 0

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        after: Callable | None = None,
        before: Callable | None = None,
        span: bool = True,
    ) -> bool:
        """Replace ``module.attr`` by a recording wrapper; False if it is missing.

        `before(tracer, args, kwargs)` runs ahead of the call and its return
        value is passed as the last argument of `after(tracer, args, kwargs,
        result, token)`, which runs once the call has returned.  With
        `span=False` the wrapper only runs the hooks and times nothing.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{getattr(module, '__name__', module)}.{attr}")
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            token = before(tracer, args, kwargs) if before else None
            if span:
                tracer.open(name)
            failed = True
            try:
                result = original(*args, **kwargs)
                failed = False
            finally:
                if span:
                    tracer.close(failed)
            if after:
                after(tracer, args, kwargs, result, token)
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))
        return True

    def unwrap_all(self) -> None:
        """Put back every original attribute, last wrapped first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
