"""In-memory spans around the public functions of each bayescv module.

The program itself records nothing: the benchmark replaces module and
class attributes at the places the CLI calls them and restores them
afterwards. A span records its name, start, end, the span that caused
it, and the command it belongs to. Hot scalar functions get a call
counter only, since a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import subprocess
import threading
import time
from collections import defaultdict
from typing import Any, Callable

After = Callable[["Tracer", tuple, dict, Any], None]


class _SubprocessProxy:
    """Stands in for the ``subprocess`` module inside one caller, so only
    that caller's ``subprocess.run`` is traced."""

    def __init__(self, run: Callable[..., Any]) -> None:
        self.run = run

    def __getattr__(self, name: str) -> Any:
        return getattr(subprocess, name)


class Tracer:
    """Span and counter store. Create it on the thread that runs the
    commands: spans opened on worker threads with nothing open on their
    own thread get the innermost span open on that thread as parent."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index or None, command id].
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.totals: dict[str, float] = defaultdict(float)
        self.records: list[dict[str, Any]] = []
        self.command: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main: list[int] = []
        self._local.stack = self._main
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, fn: Callable[..., Any], after: After | None = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else None)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.command])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index][1:3] = [start, end]
            if after is not None:
                # Hooks add to shared totals, also from runner worker threads.
                with tracer._lock:
                    after(tracer, args, kwargs, result)
            return result

        return wrapper

    def span(self, owner: Any, attr: str, name: str, after: After | None = None) -> None:
        """Trace ``owner.attr`` (a module function, method or classmethod)."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.traced(name, raw.__func__, after))
        else:
            new = self.traced(name, raw, after)
        self.replace(owner, attr, new)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them. The count is not
        locked: only for functions called from one thread at a time."""
        self.replace(owner, attr, counting_wrapper(vars(owner)[attr], self.counts, name))

    def trace_subprocess_run(self, module: Any, name: str) -> None:
        self.replace(module, "subprocess", _SubprocessProxy(self.traced(name, subprocess.run)))

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(index)
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted((self.spans[c][1], self.spans[c][2]) for c in children[index]):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append(end - start - covered)
        return out


def counting_wrapper(fn: Callable[..., Any], counts: dict[str, int], name: str):
    @functools.wraps(fn)
    def counted(*args: Any) -> Any:
        counts[name] += 1
        return fn(*args)

    return counted


def counting_cost_per_call(calls: int = 200_000) -> float:
    """Seconds one counted call costs over a plain call, best of three."""

    def plain(a: float, b: float, x: float) -> float:
        return x

    counted = counting_wrapper(plain, defaultdict(int), "calibration")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            plain(1.0, 0.5, 0.25)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            counted(1.0, 0.5, 0.25)
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)
