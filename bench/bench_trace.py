"""Span tracing of the implicitcoin layers from outside the package.

Each wrapper replaces one public function or method of a module for the
duration of a traced cycle and records a span (name, start, end, parent) per
call. Spans live in flat in-memory arrays and are written out once, when the
run ends. Nothing under ``src/`` knows about the tracer.
"""

import time
from array import array

import numpy as np

_MISSING = object()

LEARNER_CLASSES = ("ImplicitCoin", "ProjectedImplicitCoin", "CoordinateImplicitCoin")
BASELINE_CLASSES = ("Sgd", "AProx", "ImportanceAwareSgd")
FOLD_CLASSES = ("NoOvershootFold", "WealthIdentityFold", "BetaBallFold",
                "WealthLowerBoundFold", "WealthTraceWriter")
SPLIT_FUNCTIONS = ("shuffle_split", "median_threshold", "binarize_by_threshold",
                   "standardize_then_unit_normalize")
ROOTSOLVE_SPANS = ("rootsolve.roots_in_unit", "rootsolve.bisect")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


class Tracer:
    """Flat span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.bisect_evals = 0

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def timed(self, name, fn):
        """fn wrapped so that every call records one span."""
        nid = self.intern(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapped

    def install(self, ic, patches, on_learner):
        """Wrap every traced entry point of the package namespace ``ic``.

        ``on_learner`` receives each object that make_algorithm returns.
        """
        for cls_name in LEARNER_CLASSES:
            cls = getattr(ic.learners, cls_name)
            patches.set(cls, "step", self.timed(f"learners.{cls_name}.step", cls.step))
        for cls_name in BASELINE_CLASSES:
            cls = getattr(ic.baselines, cls_name)
            patches.set(cls, "step", self.timed(f"baselines.{cls_name}.step", cls.step))
        for cls_name in FOLD_CLASSES:
            cls = getattr(ic.diagnostics, cls_name)
            patches.set(cls, "update",
                        self.timed(f"diagnostics.{cls_name}.update", cls.update))

        patches.set(ic.rootsolve, "roots_in_unit",
                    self.timed("rootsolve.roots_in_unit", ic.rootsolve.roots_in_unit))
        bisect = ic.rootsolve.bisect

        def counting_bisect(f, lo, hi, tol):
            def counted(x):
                self.bisect_evals += 1
                return f(x)
            return bisect(counted, lo, hi, tol)

        patches.set(ic.rootsolve, "bisect", self.timed("rootsolve.bisect", counting_bisect))

        # learners and diagnostics bind these two by name at import time
        make_pair = self.timed("truncated.make_pair", ic.truncated.make_pair)
        patches.set(ic.truncated, "make_pair", make_pair)
        patches.set(ic.learners, "make_pair", make_pair)
        residual = self.timed("truncated.linear_residual", ic.truncated.linear_residual)
        patches.set(ic.truncated, "linear_residual", residual)
        patches.set(ic.diagnostics, "linear_residual", residual)

        for fn_name in ("absolute_eval_grad", "hinge_eval_grad", "LabeledExample",
                        "mean_loss"):
            patches.set(ic.losses, fn_name,
                        self.timed(f"losses.{fn_name}", getattr(ic.losses, fn_name)))
        for fn_name in ("parse_libsvm",) + SPLIT_FUNCTIONS:
            patches.set(ic.data_io, fn_name,
                        self.timed(f"data_io.{fn_name}", getattr(ic.data_io, fn_name)))
        for fn_name in ("run_single", "write_metadata", "emit_csv"):
            patches.set(ic.harness, fn_name,
                        self.timed(f"harness.{fn_name}", getattr(ic.harness, fn_name)))

        make_algorithm = ic.baselines.make_algorithm

        def observed_make_algorithm(*args, **kwargs):
            learner = make_algorithm(*args, **kwargs)
            on_learner(learner)
            return learner

        patches.set(ic.baselines, "make_algorithm",
                    self.timed("baselines.make_algorithm", observed_make_algorithm))

    def arrays(self, lo=0, hi=None):
        """numpy views of spans lo..hi-1 (parents re-based to the slice)."""
        hi = len(self.name) if hi is None else hi
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy()
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy()
        parent[parent < 0] = -1
        return name, parent, start, end

    def dump(self, path, samples):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end, samples=np.array(samples, dtype=np.float64))


class SpanSummary:
    """Per-name call counts, total and self time over a range of spans.

    ``samples`` are the (start, end) intervals of speed samples taken during
    the spans. A sample interrupts every span open at that moment, so its
    time is taken out of each of them; self time then loses it only in the
    innermost one."""

    def __init__(self, tracer, lo, hi, samples):
        name, parent, start, end = tracer.arrays(lo, hi)
        k = len(tracer.names)
        dur = end - start
        for s0, s1 in samples:
            dur[(start <= s0) & (end >= s1)] -= s1 - s0
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=len(name))
        self_time = dur - child_time
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self._calls = np.bincount(name, minlength=k)
        self._self = np.bincount(name, weights=self_time, minlength=k)
        self._total = np.bincount(name, weights=dur, minlength=k)
        rs = [self._ids[n] for n in ROOTSOLVE_SPANS if n in self._ids]
        corner_steps = np.unique(parent[np.isin(name, rs) & child])
        self._corner = np.bincount(name[corner_steps], minlength=k)

    def calls(self, span):
        i = self._ids.get(span)
        return 0 if i is None else int(self._calls[i])

    def self_s(self, span):
        i = self._ids.get(span)
        return 0.0 if i is None else float(self._self[i])

    def total_s(self, span):
        i = self._ids.get(span)
        return 0.0 if i is None else float(self._total[i])

    def self_us_per_call(self, span):
        n = self.calls(span)
        return self.self_s(span) / n * 1e6 if n else 0.0

    def corner_rounds(self, step_span):
        """Steps that opened at least one root-solver span."""
        i = self._ids.get(step_span)
        return 0 if i is None else int(self._corner[i])
