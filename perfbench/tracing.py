"""Per-layer tracing installed from outside the package.

The tracer replaces public functions of `cartoptics` modules with wrappers,
in every loaded module that holds a reference to them (so calls through a
`from .x import f` name are caught too), and puts the originals back when it
is removed.  Nothing under `src/` is edited.

Each wrapped function gets a call count and a self time: its duration minus
the time its wrapped callees took.  Entry points of a layer ("span"
functions) also record a span (id, parent id, name, start, end) in memory,
written out when the run ends.  Functions called thousands of times per
operation keep only counts and self time, so the span list stays small.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.rejected: Counter = Counter()
        self._stack: list[list] = []  # [parent id for callees, child seconds]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn: Callable, span: bool = False, reject=None) -> Callable:
        """Count calls and self time of fn under `name`.

        With span=True each call is also kept as a span.  `reject` names an
        exception type whose raising is counted as a rejected call.
        """
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            parent = stack[-1][0] if stack else -1
            if span:
                sid = self._next_id
                self._next_id += 1
            # children take the nearest span ancestor as their parent
            frame = [sid if span else parent, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                if reject is not None and isinstance(e, reject):
                    self.rejected[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span:
                    self.spans.append((sid, parent, name, start, end))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Count calls only; the time stays with the caller."""

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted_items(self, name: str, fn: Callable) -> Callable:
        """Count the items taken from the iterator fn returns."""

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.calls[name] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # --- installing ---------------------------------------------------------

    def set_attr(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_everywhere(self, package: str, original: Callable, replacement: Callable) -> None:
        """Replace every module-level reference to `original` in the package."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set_attr(mod, attr, replacement)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            for sid, parent, name, start, end in self.spans
        ]
