"""Spans around the public entry points of each permalg module.

The tracer replaces a function or method wherever the library looks it up
(the class attribute, or every module attribute bound to the same function
object), so calls from inside the library are counted as well.  Spans are
kept in memory with parent links; a span's self time is its duration minus
the durations of its child spans (jobs run on one thread, so children never
overlap).  The library itself carries no instrumentation.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Any, Callable

from permalg import envelope, expr, jordan, lie, linalg, parser, perm

_clock = time.perf_counter_ns


def _size(_args, result) -> int:
    return len(result)


def _accepted(_args, result) -> int:
    return int(bool(result))


def _terms_in(args, _result) -> int:
    return len(args[1])


# span name -> (owner, attribute, {count name: observer(args, result)})
TARGETS: list[tuple[str, Any, str, dict[str, Callable]]] = [
    ("perm.mul", perm.PermPolynomial, "__mul__", {"perm.mul_terms_out": _size}),
    ("perm.add", perm.PermPolynomial, "__add__", {}),
    ("linalg.span_add", linalg.Span, "add", {"linalg.span_add_accepted": _accepted}),
    ("linalg.witness_for", linalg.Subspace, "witness_for", {}),
    ("expr.sum_init", expr.ExprSum, "__init__", {}),
    ("expr.expand", expr.ExprSum, "expand", {}),
    ("expr.substitute", expr.ExprSum, "substitute", {}),
    ("expr.check_identity", expr, "check_identity", {}),
    ("parser.parse", parser, "parse_expr", {}),
    ("parser.parse", parser, "parse_template", {}),
    ("parser.parse", parser, "parse_envelope_expr", {}),
    ("lie.is_lie", lie, "is_lie", {}),
    ("lie.express", lie, "lie_express", {}),
    ("lie.oracle", lie, "lie_span_oracle", {}),
    ("jordan.express", jordan, "jordan_express", {}),
    ("jordan.ideal", jordan, "ideal_component", {}),
    ("jordan.sj_span", jordan, "sj_span", {}),
    ("jordan.to_bn", jordan, "to_bn", {}),
    ("envelope.construct", envelope.Envelope, "__init__", {}),
    (
        "envelope.nf",
        envelope.Envelope,
        "normal_form",
        {"envelope.nf_terms_in": _terms_in, "envelope.nf_terms_out": _size},
    ),
    ("envelope.compositions", envelope.Envelope, "check_compositions", {}),
    ("envelope.embed_check", envelope.Envelope, "embed_check", {}),
]


# spans kept per pass; later ones still count towards the totals
SPAN_CAP = 100_000


class Tracer:
    """In-memory spans, per-name totals and counts for one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [id, name, start_ns, child_ns]
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (parent name, child name) -> calls
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.dropped = 0
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- spans

    def open(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([self._next_id, name, _clock(), 0])

    def close(self) -> None:
        end = _clock()
        sid, name, start, child_ns = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child_ns
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
            self.edges[(parent[1], name)] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[0] if parent else None, name, start, end))
        else:
            self.dropped += 1

    # -- wrapping

    def _wrap(self, name: str, fn: Callable, observers: dict[str, Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
                for count, observe in observers.items():
                    tracer.counts[count] += observe(args, result)
                return result
            finally:
                tracer.close()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "permalg" or n.startswith("permalg.")]
        for name, owner, attr, observers in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observers)
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results

    def summary(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        }
