"""Spans and counters recorded from outside the package.

The tracer replaces public functions and methods of the toruscount modules,
and every name another module imports them under, with wrappers that record
a span (name, start, end, parent span, job id) or bump a counter. Nothing in
the package changes; `instrument()` puts every original back when it exits.
A target the package no longer has is listed by `missing_targets()`, and the
run reports it as a problem. A counter that no longer fits the package's
types raises inside the traced call, which fails the job.

A span's self time is its duration minus the durations of its direct
children. Self times summed by module name give each layer's share.
"""

from __future__ import annotations

import collections.abc
import contextlib
import functools
import importlib
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "torus", "orbits", "localfactors", "matroid", "archim", "intlinalg")

# (module, function or Class.method, span name). Several targets may share a
# span name: the three cmd_* handlers are one "cli.cmd" layer boundary.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "_load_document", "cli.load_document"),
    ("cli", "build_report", "cli.build_report"),
    ("cli", "cmd_analyze", "cli.cmd"),
    ("cli", "cmd_local", "cli.cmd"),
    ("cli", "cmd_binf", "cli.cmd"),
    ("intlinalg", "smith_normal_form", "intlinalg.snf"),
    ("intlinalg", "unimodular_inverse", "intlinalg.unimodular_inverse"),
    ("intlinalg", "LatticeQuotient.__init__", "intlinalg.quotient"),
    ("intlinalg", "IntMatrix.det", "intlinalg.det"),
    ("intlinalg", "IntMatrix.__matmul__", "intlinalg.matmul"),
    ("intlinalg", "finite_cokernel_order", "intlinalg.finite_cokernel_order"),
    ("torus", "load_spec", "torus.load_spec"),
    ("torus", "TorusAnalysis.is_faithful", "torus.is_faithful"),
    ("torus", "TorusAnalysis.invariant_A", "torus.invariant_A"),
    ("torus", "TorusAnalysis.sigma_set", "torus.sigma_set"),
    ("torus", "TorusAnalysis.strata", "torus.strata"),
    ("torus", "TorusAnalysis.abscissa", "torus.abscissa"),
    ("torus", "TorusAnalysis.lambda_invariant", "torus.lambda_invariant"),
    ("orbits", "build_gtilde", "orbits.build_gtilde"),
    ("orbits", "FiberedAttainingSet.__init__", "orbits.fibered"),
    ("orbits", "FiberTransport.__init__", "orbits.transport"),
    ("orbits", "FiberedAttainingSet.act", "orbits.act"),
    ("orbits", "FiberedAttainingSet.orbits", "orbits.orbits"),
    ("orbits", "FiberedAttainingSet.deg_P", "orbits.deg_P"),
    ("localfactors", "make_local_data", "localfactors.make_local_data"),
    ("localfactors", "LocalCalculator.local_factor", "localfactors.local_factor"),
    ("localfactors", "LocalCalculator.pi_eq", "localfactors.pi_eq"),
    ("localfactors", "LocalCalculator.hom_count", "localfactors.hom_count"),
    ("localfactors", "LocalCalculator.a_count", "localfactors.a_count"),
    ("matroid", "LinearMatroid.rank", "matroid.rank"),
    ("matroid", "b_infinity", "matroid.b_infinity"),
    ("archim", "assemble", "archim.assemble"),
    ("archim", "arch_abscissa", "archim.arch_abscissa"),
    ("archim", "check_domination", "archim.check_domination"),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1, job)
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.job = None
        self._grounds = {}
        self._ground_ids = weakref.WeakKeyDictionary()

    # -- recording -------------------------------------------------------------

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            self.calls[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.job)
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def ground_id(self, matroid):
        """Small id shared by matroids on the same rows, so rank keys compare."""
        gid = self._ground_ids.get(matroid)
        if gid is None:
            gid = self._grounds.setdefault(matroid.ground, len(self._grounds))
            self._ground_ids[matroid] = gid
        return gid

    # -- results ---------------------------------------------------------------

    def self_times(self):
        """Self time per span name and per layer, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = Counter()
        by_layer = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = (end - start) - child[i]
            by_name[name] += own
            by_layer[name.split(".", 1)[0]] += own
        return by_name, by_layer

    def write_spans(self, path):
        """Tab-separated spans; times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                handle.write(f"{i}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}"
                             f"\t{parent}\t{job}\n")


# -- counters attached to spans ----------------------------------------------

def _count_gtilde(tracer, args, result):
    tracer.counts["orbits.gtilde.order"] += result.order


def _count_fibered(tracer, args, result):
    tracer.counts["orbits.fibered.elements"] += len(args[0].elements)


def _distinct_hom_count(tracer, args, result):
    _, diag, local = args
    tracer.distinct["localfactors.hom_count"].add((tracer.job, diag.defining_rows, local))


def _distinct_rank(tracer, args, result):
    matroid, indices = args
    if isinstance(indices, collections.abc.Iterator):
        raise TypeError("matroid.rank was passed an iterator; "
                        "its distinct subsets cannot be counted")
    key = (tracer.job, tracer.ground_id(matroid), frozenset(indices))
    tracer.distinct["matroid.rank"].add(key)


AFTER = {
    "orbits.build_gtilde": _count_gtilde,
    "orbits.fibered": _count_fibered,
    "localfactors.hom_count": _distinct_hom_count,
    "matroid.rank": _distinct_rank,
}


def _counted_subsets(tracer, fn):
    # keeps the return type: a lazy iterator stays lazy, a sequence stays one
    def counting(items):
        for item in items:
            tracer.counts["torus.subsets.yielded"] += 1
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts["torus.subsets.passes"] += 1
        result = fn(*args, **kwargs)
        if isinstance(result, collections.abc.Iterator):
            return counting(result)
        tracer.counts["torus.subsets.yielded"] += len(result)
        return result
    return wrapper


def _counted_diag(tracer, fn):
    # a call is a miss when it had to build a lattice quotient
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        built = tracer.calls["intlinalg.quotient"]
        result = fn(*args, **kwargs)
        tracer.counts["torus.diag_for_support.calls"] += 1
        if tracer.calls["intlinalg.quotient"] != built:
            tracer.counts["torus.diag_for_support.misses"] += 1
        return result
    return wrapper


COUNTERS = (
    ("torus", "TorusAnalysis.subsets", _counted_subsets),
    ("torus", "TorusAnalysis.diag_for_support", _counted_diag),
)


# -- patching ------------------------------------------------------------------

def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "toruscount" or name.startswith("toruscount."))]


def _lookup(module_name, path):
    """(owner, attribute, original) of one target; KeyError if the package lacks it."""
    module = importlib.import_module(f"toruscount.{module_name}")
    cls_name, _, attr = path.rpartition(".")
    owner = vars(module)[cls_name] if cls_name else module
    return owner, attr, vars(owner)[attr]


def missing_targets():
    """Targets of SPANS and COUNTERS that the package no longer has."""
    missing = []
    for module_name, path, _ in SPANS + COUNTERS:
        try:
            _lookup(module_name, path)
        except (ImportError, KeyError):
            missing.append(f"{module_name}.{path}")
    return missing


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every target for the duration of the block."""
    restore = []

    def patch(module_name, path, make_wrapper):
        owner, attr, original = _lookup(module_name, path)
        wrapper = make_wrapper(original)
        if "." in path:
            setattr(owner, attr, wrapper)           # a method: patch the class
            restore.append((owner, attr, original))
            return
        for mod in _package_modules():            # a function: every name it goes by
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    restore.append((mod, name, original))

    try:
        for module_name, path, span_name in SPANS:
            patch(module_name, path,
                  lambda fn, n=span_name: tracer.span(n, fn, AFTER.get(n)))
        for module_name, path, make in COUNTERS:
            patch(module_name, path, lambda fn, m=make: m(tracer, fn))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
