"""Span recorder and call wrapping for the traced benchmark pass.

A span is one call into a library function: a name, perf_counter start
and end, the id of the span that was open on the same thread when it
began (its parent), the thread it ran on, and counters attached after
the call returns.  Spans stay in memory and are written out once, when
the pass ends.

Wrapping replaces a function at every module binding it is reachable
through (``pipeline.select_hie`` as well as ``influence.select_hie``,
and dict entries such as the CLI's command table), so a call is traced
whichever name the caller used.  A target the library no longer has is
reported as absent instead of failing the pass.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time


class Recorder:
    """Thread-safe collector of spans with per-thread parent tracking."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[dict] = []
        self.counter_errors: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        span = {"id": span_id, "parent": stack[-1]["id"] if stack else None,
                "name": name, "thread": threading.get_ident(),
                "start": time.perf_counter(), "end": None, "counters": {}}
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its children cover."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _covered(children.get(span["id"], ()), span["start"], span["end"])
            for span in spans}


def wrap(func, name: str, recorder: Recorder, counters=None):
    """A stand-in for func that records one span per call.

    counters(call, result) -> dict runs after the span closes, with the
    call's arguments bound to parameter names; a failure there is noted
    on the recorder and never reaches the caller.
    """
    signature = inspect.signature(func) if counters is not None else None

    @functools.wraps(func)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.close(span)
        if counters is not None:
            try:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                span["counters"].update(counters(call.arguments, result))
            except Exception as exc:  # a counter must never break the pass
                recorder.counter_errors.append(f"{name}: {type(exc).__name__} {exc}")
        return result

    return traced


def install(recorder: Recorder, targets, modules) -> list:
    """Wrap every target at every binding in `modules` that refers to it.

    targets: (defining module, function name, span name, counters) rows.
    Returns the span names of targets the library does not have.
    """
    absent = []
    for home, func_name, span_name, counters in targets:
        original = getattr(home, func_name, None)
        if not callable(original):
            absent.append(span_name)
            continue
        traced = wrap(original, span_name, recorder, counters)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = traced
    return absent
