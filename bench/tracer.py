"""Span tracer that wraps polyevp's public functions from outside.

`Tracer.install` replaces each traced function with a wrapper that
records a span (name, start, end, parent).  A function imported with
``from .module import name`` is bound in several module namespaces, so
the wrapper is bound everywhere the original is: wrapping only
``lp_core.solve`` would miss the calls that geometry, scalarization and
boundedness make through their own ``solve`` names.  Class targets are
traced through their ``__post_init__``, which is where construction
validates its input.  `Tracer.restore` puts every original back, and
`bindings` lets a caller check that it did.

Spans are folded into per-name totals by `Tracer.fold` after each
operation, so memory does not grow with the run length.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (module, attribute) per span; span names are "<module>.<attribute>"
SPANS = (
    ("cli", "main"),
    ("problemfile", "load_document"),
    ("problemfile", "build_problem"),
    ("problemfile", "write_document"),
    ("evp", "solve"),
    ("evp", "verify_certificate"),
    ("evp", "lower_section"),
    ("evp", "dominates"),
    ("evp", "FiniteMetricSpace"),
    ("scalarization", "SeparationFunctional"),
    ("scalarization", "evaluate"),
    ("scalarization", "evaluate_bisection"),
    ("boundedness", "classify"),
    ("boundedness", "find_kstar"),
    ("geometry", "scaled_H_plus_K_contains"),
    ("geometry", "scaled_H_minus_K_contains"),
    ("geometry", "cone_contains"),
    ("geometry", "union_disjoint_from"),
    ("geometry", "zero_notin_H_plus_K"),
    ("lp_core", "solve"),
)
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in SPANS)


def _flag(name: str, result) -> bool:
    """The yes/no outcome a ratio metric counts, per span name."""
    if name == "lp_core.solve":
        return result.status == "infeasible"
    if name == "evp.dominates":
        return bool(result)
    return False


def _program_modules() -> list:
    return [
        m for k, m in sorted(sys.modules.items())
        if m is not None and (k == "polyevp" or k.startswith("polyevp."))
    ]


def bindings() -> dict:
    """Every name bound in a polyevp module namespace or class dict.

    Two snapshots taken around an install/restore pair compare equal
    (by identity of every value) exactly when restore undid everything.
    """
    out = {}
    for m in _program_modules():
        for k, v in vars(m).items():
            out[(m.__name__, k)] = v
            if isinstance(v, type) and v.__module__ == m.__name__:
                for ck, cv in vars(v).items():
                    out[(m.__name__, k, ck)] = cv
    return out


def same_bindings(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


class Tracer:
    def __init__(self):
        self._spans: list = []  # [name, start, end, parent, flag]
        self._stack = [-1]
        self._undo: list = []
        # name -> [calls, total_s, self_s, flagged]
        self.totals = {n: [0, 0.0, 0.0, 0] for n in SPAN_NAMES}
        # LP spans that ran inside a dominance span
        self.lp_in_dominates = 0

    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], False]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = _flag(name, result)
            return result

        return traced

    def install(self) -> None:
        modules = _program_modules()
        package = sys.modules["polyevp"]
        for (mod_name, attr), name in zip(SPANS, SPAN_NAMES):
            original = getattr(getattr(package, mod_name), attr)
            if isinstance(original, type):
                init = original.__post_init__
                self._undo.append((original, "__post_init__", init))
                setattr(original, "__post_init__", self._wrap(name, init))
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is original:
                        self._undo.append((m, k, original))
                        setattr(m, k, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def fold(self) -> dict:
        """Add the spans recorded since the last fold to the totals.

        Returns this batch's call count per span name.  Self time is a
        span's duration minus the durations of its direct children.
        """
        spans = self._spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        counts: dict = {}
        for i, (name, start, end, parent, flag) in enumerate(spans):
            t = self.totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
            t[3] += flag
            counts[name] = counts.get(name, 0) + 1
            if name == "lp_core.solve" and self._inside(i, "evp.dominates"):
                self.lp_in_dominates += 1
        spans.clear()
        return counts

    def _inside(self, i: int, name: str) -> bool:
        spans = self._spans
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][3]
        return False
