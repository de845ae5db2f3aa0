"""In-memory span tracer that wraps the public entry points of each layer.

The benchmark never edits the program: a :class:`Tracer` rebinds the
layer entry points (module functions and class methods) to timing
wrappers for the duration of a ``with`` block and puts every original
back on exit.

- A module function is rebound in *every* ``repro`` module that holds
  it, so names imported with ``from x import f`` are traced too.
- Each wrapper records a span: name, start, end, parent span and a few
  attributes. Spans stay in memory until the run ends.
- Pool workers are forked after the wrappers are installed, so they
  trace as well. A worker drops the spans it inherited and writes its
  own spans to ``<spool>/spans-<pid>.jsonl`` after every dispatched
  chunk; :meth:`Tracer.collect` merges those files back in.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    """One call of a wrapped entry point (times: ``perf_counter``)."""

    sid: str
    parent: Optional[str]
    name: str
    start: float
    end: float
    pid: int
    attrs: Optional[Dict[str, Any]]

    @property
    def duration(self) -> float:
        return self.end - self.start


Hook = Callable[[tuple, dict, Any], Optional[Dict[str, Any]]]


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.owner_pid = self.pid
        self.spans: List[Span] = []
        self.stack: List[str] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _check_fork(self) -> None:
        """In a forked worker, drop the coordinator's finished spans.

        The open-span stack is kept: its top is the coordinator span
        that was running when the worker forked (the pool run), so the
        worker's spans name it as their parent.
        """
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans = []

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        hook: Optional[Hook] = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        self._check_fork()
        sid = f"{self.pid}:{next(self._ids)}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
        attrs = hook(args, kwargs, result) if hook is not None else None
        self.spans.append(Span(sid, parent, name, start, end, self.pid, attrs))
        return result

    def traced(
        self, fn: Callable, name: str, hook: Optional[Hook] = None,
        flush: bool = False,
    ) -> Callable:
        """A wrapper of ``fn`` recording one span per call.

        ``flush`` makes a forked worker write out its spans after each
        call (set on the pool's per-chunk entry point).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, hook)
            if flush and tracer.pid != tracer.owner_pid:
                tracer.flush_worker()
            return result

        return wrapper

    def flush_worker(self) -> None:
        """Append this worker's spans to its spool file and forget them."""
        path = os.path.join(self.spool_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    # -- patching ------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(
        self, module: Any, attr: str, name: str, hook: Optional[Hook] = None,
        flush: bool = False,
    ) -> None:
        """Trace ``module.attr`` and every ``repro`` alias of it."""
        original = getattr(module, attr)
        wrapper = self.traced(original, name, hook, flush)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def wrap_method(
        self, cls: type, attr: str, name: str, hook: Optional[Hook] = None
    ) -> None:
        """Trace the method ``cls.attr`` (defined on ``cls`` itself)."""
        self._set(cls, attr, self.traced(cls.__dict__[attr], name, hook))

    def restore(self) -> None:
        """Put every patched attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    # -- results -------------------------------------------------------

    def collect(self) -> List[Span]:
        """This process's spans plus every worker's spooled spans."""
        spans = list(self.spans)
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                with open(
                    os.path.join(self.spool_dir, entry), encoding="utf-8"
                ) as handle:
                    spans.extend(Span(*json.loads(line)) for line in handle)
        return spans

