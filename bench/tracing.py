"""Span tracing around detmethod's public functions, installed from outside.

A traced function is replaced by a wrapper in every ``detmethod`` module that
holds a reference to it, because each importing module looks the name up in
its own namespace (``detmethod.engine.enumerate_affine`` and
``detmethod.cli.enumerate_affine`` are separate attributes).

Each span records its name, start, end and parent.  A span's self time is its
duration minus the part of its interval that its child spans cover.
``Polynomial.evaluate`` runs hundreds of thousands of times per pass, so it is
*folded*: each call adds to a per-name counter and to the enclosing span's
``folded`` time instead of creating a span.  A folded call is a leaf, so its
time is disjoint from every other child of the same parent and is subtracted
from the parent's self time like a child span.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

from detmethod.errors import BudgetExceededError

# (defining module, attribute): the public functions the trace wraps.
SPAN_TARGETS = (
    ("points", "enumerate_affine"),
    ("points", "enumerate_projective"),
    ("ideals", "groebner"),
    ("ideals", "staircase"),
    ("ideals", "normal_form"),
    ("engine", "build_matrix"),
    ("engine", "exact_kernel"),
    ("engine", "verify_certificate"),
    ("engine", "cover_and_construct"),
    ("engine", "affine_pipeline"),
    ("engine", "choose_delta"),
    ("cli", "load_ideal"),
    ("cli", "report_json"),
    ("cli", "verify_report_dict"),
)
FOLDED = "polynomials.evaluate"
ENUMERATIONS = ("points.enumerate_affine", "points.enumerate_projective")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the span list, -1 for a root
    folded: float = 0.0  # seconds of folded leaf calls made directly inside


@dataclass
class PassTrace:
    """Spans and counters of one pass."""

    spans: list = field(default_factory=list)
    folded_calls: int = 0
    folded_s: float = 0.0
    enumerations: list = field(default_factory=list)  # (function, bound args)
    points_found: int = 0
    kernel_entries: int = 0
    kernel_full_rank: int = 0
    certificates: int = 0
    report_bytes: int = 0


def children_of(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    kids = children_of(spans)
    return [
        (s.end - s.start)
        - covered([(spans[k].start, spans[k].end) for k in kids[i]], s.start, s.end)
        - s.folded
        for i, s in enumerate(spans)
    ]


def root_of(spans, i):
    while spans[i].parent >= 0:
        i = spans[i].parent
    return i


def inclusive_s(spans, names, root_names=None):
    """Summed duration of the outermost spans named in ``names``, optionally
    only those below a root span named in ``root_names``."""
    total = 0.0
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        if root_names is not None and spans[root_of(spans, i)].name not in root_names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


class Tracer:
    """Installs span wrappers into the loaded detmethod modules; use as a
    context manager so the originals are always restored.  ``now`` is the
    clock spans are timed with."""

    def __init__(self, now=perf_counter):
        self.now = now
        self.trace = PassTrace()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- span recording --------------------------------------------------

    def begin(self, name):
        spans = self.trace.spans
        spans.append(
            Span(name, self.now(), parent=self._stack[-1] if self._stack else -1)
        )
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def end(self, idx):
        self.trace.spans[idx].end = self.now()
        self._stack.pop()

    def new_pass(self):
        if self._stack:
            raise RuntimeError("new_pass called inside an open span")
        done, self.trace = self.trace, PassTrace()
        return done

    # -- installation ----------------------------------------------------

    def __enter__(self):
        import detmethod.polynomials

        mods = [m for k, m in sys.modules.items() if k.split(".")[0] == "detmethod"]
        for mod_name, attr in SPAN_TARGETS:
            original = getattr(sys.modules[f"detmethod.{mod_name}"], attr)
            wrapper = self._span_wrapper(original, f"{mod_name}.{attr}")
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        cls = detmethod.polynomials.Polynomial
        self._patch(cls, "evaluate", self._folded_wrapper(cls.evaluate))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        return False

    def _patch(self, owner, key, wrapper):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _span_wrapper(self, fn, name):
        observe = getattr(self, "_observe_" + name.split(".")[1], None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observe is not None:
                observe(fn, signature, args, kwargs, result)
            return result

        return wrapper

    def _folded_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(poly, point):
            t0 = self.now()
            try:
                return fn(poly, point)
            finally:
                dt = self.now() - t0
                trace = self.trace
                trace.folded_calls += 1
                trace.folded_s += dt
                if self._stack:
                    trace.spans[self._stack[-1]].folded += dt

        return wrapper

    # -- counters read from arguments and return values --------------------

    def _observe_enumerate_affine(self, fn, signature, args, kwargs, result):
        self.trace.enumerations.append((fn, signature.bind(*args, **kwargs)))
        self.trace.points_found += len(result.points)

    _observe_enumerate_projective = _observe_enumerate_affine

    def _observe_exact_kernel(self, fn, signature, args, kwargs, result):
        mat = signature.bind(*args, **kwargs).arguments["mat"]
        self.trace.kernel_entries += len(mat.exponents) * len(mat.points)
        if not result:
            self.trace.kernel_full_rank += 1

    def _observe_cover_and_construct(self, fn, signature, args, kwargs, result):
        self.trace.certificates += len(result.certificates)

    def _observe_report_json(self, fn, signature, args, kwargs, result):
        self.trace.report_bytes += len(result.encode())


def candidates(trace):
    """Candidates the pass's enumerations scanned, read from the budget guard:
    each recorded call is repeated with budget=0, which raises
    BudgetExceededError carrying the scan size before any scanning."""
    total = 0
    for fn, bound in trace.enumerations:
        bound.arguments["budget"] = 0
        try:
            fn(*bound.args, **bound.kwargs)
        except BudgetExceededError as exc:
            total += exc.required
        else:
            raise RuntimeError(f"{fn.__name__} with budget=0 did not raise")
    return total
