"""Call-time hooks on ``dustmix`` module attributes.

Inside ``dustmix`` a collaborator is looked up as a module global when it is
called (``cmd_fit`` calls ``fit``, ``fit`` calls ``mstep``, ``mstep`` calls
``maximize_box``), so replacing the attribute on its module routes every call
through a wrapper without editing the program.  :class:`Hooks` installs such
wrappers, times each call as a span, keeps per-name totals with self time
(a span minus the spans of its direct children), hands each call to an
optional observer, and puts every original back on :meth:`restore`.

Totals are aggregated as the spans close rather than stored one by one: a
traced pass makes hundreds of thousands of special-function calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass(frozen=True)
class Call:
    """One observed call: its arguments, its result or error, and its span."""

    args: tuple
    kwargs: dict
    result: object
    error: BaseException | None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


Observer = Callable[[Call], None]


class Hooks:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, target: str, span: str, observer: Observer | None = None) -> None:
        """Route calls of ``module.attr`` (``target``) through a timing wrapper.

        An attribute that does not exist is skipped and listed in ``missing``,
        so a program that renames an internal still runs; its figures read 0.
        """
        module_name, attr = target.rsplit(".", 1)
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(target)
            print(f"bench: no attribute {target}; its span reads 0", file=sys.stderr)
            return
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            result, error = None, None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
                if observer is not None:
                    observer(Call(args, kwargs, result, error, start, end))

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def span(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())
