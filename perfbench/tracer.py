"""In-memory spans and counters recorded around calls into a program's modules.

A span is ``[name, start, end, parent, run]``: the parent is the index of
the enclosing span (-1 at the top) and ``run`` identifies the CLI command
the span belongs to, as ``"<pass>/<label>"``.  Spans stay in memory until
:meth:`Tracer.write_spans` is called at the end of a run.  Counters and
maxima are kept per pass.

Functions are wrapped from the outside: :meth:`Tracer.patch` replaces a
function in its defining module *and* in every module of the package that
bound the same object with ``from ... import``, so no call path is missed.
:meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.maxima: dict[tuple[int, str], float] = defaultdict(float)
        self.missing: list[str] = []
        self.pass_index = 0
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, n: float = 1) -> None:
        self.counters[(self.pass_index, name)] += n

    def record_max(self, name: str, value: float) -> None:
        key = (self.pass_index, name)
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a callable ``(args, kwargs) -> str``.
        ``after(result, args, kwargs)`` runs once the span is closed and
        returns the value handed back to the caller.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_of = name if callable(name) else (lambda a, k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_of(args, kwargs), clock(), 0.0,
                    stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            return out if after is None else after(out, args, kwargs)

        return traced

    # ------------------------------------------------------------- patching

    def patch(self, owner, attr: str, name, after=None) -> None:
        """Wrap ``owner.attr`` and every alias of it inside the package."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        traced = self.wrap(name, original, after)
        holders = [owner] + [
            mod for modname, mod in list(sys.modules.items())
            if mod is not None and mod is not owner
            and (modname == self.package or modname.startswith(self.package + "."))
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
                    self._undo.append((holder, key, original))

    def patch_mapping(self, mapping: dict, name_of_key) -> None:
        """Wrap every function stored in a dispatch table."""
        for key, fn in list(mapping.items()):
            mapping[key] = self.wrap(name_of_key(key, fn), fn)
            self._undo.append((mapping, key, fn))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    # ------------------------------------------------------------ read-out

    def pass_of(self, span) -> int:
        return int(span[4].split("/", 1)[0])

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")
