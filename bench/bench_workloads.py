"""The three benchmark workloads and the run loop that times them.

A run generates its inputs from the seed, measures set-up, runs one checked
cycle (every round observed and verified, not timed), then repeats plain
cycles of the same operations until the requested seconds have passed. With
tracing on, traced cycles alternate with the plain ones and the per-layer
metrics come from their spans. Every cycle runs the same operations on the
same inputs, so its outputs must equal the checked cycle's.
"""

import hashlib
import importlib
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import bench_checks as chk
from bench_trace import (BASELINE_CLASSES, FOLD_CLASSES, LEARNER_CLASSES,
                         SPLIT_FUNCTIONS, Patches, SpanSummary, Tracer)

WORKLOADS = ("tuned-protocol", "betting-protocol", "checked-fuzz")
GRID_POINTS = 13            # the harness's default eta0 grid
FUZZ_DIM = 4                # dimension of the checked-fuzz streams
MAX_TRACED_CYCLES = 3       # bounds the span store; later cycles run plain
SAMPLE_SEED = 20220321
SAMPLE_ROWS = 143            # 100 training rows: about 1 ms of work
SAMPLE_INTERVAL_S = 0.05
SAMPLE_REFERENCE_S = 0.0008  # sample time on a quiet phase of the reference box
MODULES = ("baselines", "cli", "data_io", "diagnostics", "harness", "learners",
           "losses", "rootsolve", "truncated")


@dataclass(frozen=True)
class Sizes:
    """Workload make-up. The defaults are sized so that one cycle of each
    workload takes a few seconds on one core; the self-test uses toy sizes."""

    epochs: int = 10
    tuned_rows: int = 250                 # houses-8l shape: 8 features
    tuned_reps: int = 2
    betting_rows: int = 1000              # cpu-act shape: 21 features
    betting_reps: tuple = (("implicit-coin", 6), ("cw-implicit-coin", 2))
    fuzz_streams: int = 6                 # per learner and cycle
    fuzz_rounds: int = 500                # per stream
    setup_repeats: int = 15               # fresh import + load, median taken


TOY = Sizes(epochs=2, tuned_rows=40, tuned_reps=1, betting_rows=400,
            betting_reps=(("implicit-coin", 1), ("cw-implicit-coin", 1)),
            fuzz_streams=1, fuzz_rounds=200, setup_repeats=2)

# name, unit, better: the per-layer metrics of a traced run
PER_LAYER = (
    [(f"learners.{c}.{m}", u, b) for c in LEARNER_CLASSES for m, u, b in (
        ("step_us", "us", "lower"), ("steps", "count", "lower"),
        ("corner_rounds", "count", "lower"), ("zero_grad_rounds", "count", "lower"),
        ("corner_fallbacks", "count", "lower"), ("grad_renorms", "count", "lower"))]
    + [("rootsolve.roots_in_unit_us", "us", "lower"),
       ("rootsolve.roots_in_unit_calls", "count", "lower"),
       ("rootsolve.bisect_us", "us", "lower"),
       ("rootsolve.bisect_calls", "count", "lower"),
       ("rootsolve.bisect_evals_per_call", "count", "lower"),
       ("truncated.make_pair_us", "us", "lower"),
       ("truncated.make_pair_calls", "count", "lower"),
       ("truncated.linear_residual_us", "us", "lower"),
       ("truncated.linear_residual_calls", "count", "lower"),
       ("losses.absolute_eval_grad_us", "us", "lower"),
       ("losses.hinge_eval_grad_us", "us", "lower"),
       ("losses.eval_grad_calls", "count", "lower"),
       ("losses.example_build_us", "us", "lower"),
       ("losses.mean_loss_us", "us", "lower"),
       ("losses.mean_loss_calls", "count", "lower")]
    + [(f"baselines.{c}.step_us", "us", "lower") for c in BASELINE_CLASSES]
    + [("baselines.make_algorithm_calls", "count", "lower"),
       ("data_io.parse_libsvm_mb_per_s", "MB/s", "higher"),
       ("data_io.split_ms", "ms", "lower"),
       ("data_io.split_calls", "count", "lower"),
       ("harness.loop_us_per_round", "us", "lower"),
       ("harness.run_single_calls", "count", "lower"),
       ("harness.write_metadata_ms", "ms", "lower"),
       ("harness.emit_csv_ms", "ms", "lower")]
    + [(f"diagnostics.{c}.update_us", "us", "lower") for c in FOLD_CLASSES]
    + [("bench.trace_overhead", "ratio", "lower")])

END_TO_END = (("rounds_per_s", "rounds/s", "higher"), ("setup_s", "s", "lower"),
              ("peak_rss_mb", "MB", "lower"))


class Package:
    """The implicitcoin modules the benchmark drives, loaded from src/."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, sys.modules[f"implicitcoin.{name}"])


def _package_modules():
    return {k: v for k, v in sys.modules.items()
            if k == "implicitcoin" or k.startswith("implicitcoin.")}


def load_package(src_dir):
    """Import implicitcoin from src_dir."""
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    importlib.import_module("implicitcoin.cli")
    return Package()


def measure_setup(src_dir, wl):
    """Set-up as a user pays it: a fresh import of the package (numpy already
    loaded) and the workload's load step, repeated. Returns the package, the
    median time and that median at the reference machine speed. Each
    repetition's time excludes the speed samples taken inside it. Modules
    that were already imported in this process are put back afterwards."""
    if src_dir not in sys.path:
        sys.path.insert(0, src_dir)
    saved = _package_modules()
    sampler = wl.sampler
    raw = []
    try:
        with sampler:
            for _ in range(wl.sizes.setup_repeats):
                for k in _package_modules():
                    del sys.modules[k]
                t0 = time.perf_counter()
                importlib.import_module("implicitcoin.cli")
                loaded = wl.setup_once(Package())
                t1 = time.perf_counter()
                raw.append(t1 - t0 - sampler.inside(t0, t1))
                wl.verify_setup(loaded)
    finally:
        sys.modules.update(saved)
    setup_s = statistics.median(raw)
    return Package(), setup_s, setup_s * sampler.speed()


class SpeedSampler:
    """Measures how fast the shared machine runs while the program runs.

    Inside a ``with`` block a timer signal interrupts the process every
    SAMPLE_INTERVAL_S seconds for one sample: one epoch of the benchmark's
    own truncated-step reference on a fixed input, about 1 ms. Samples are
    taken at the same moments as the program's work, so their mean time
    tracks the machine's speed over that work."""

    def __init__(self):
        rng = np.random.default_rng(SAMPLE_SEED)
        X = rng.normal(size=(SAMPLE_ROWS, 8))
        self._split = chk.reference_split(X, X @ rng.normal(size=8), 0, 0, False)
        self.samples = []           # (start, end) of every sample
        self._first = 0

    def sample(self, *_):
        t0 = time.perf_counter()
        chk.reference_tuned_run("aprox", self._split, 0.1, 1)
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._first = len(self.samples)
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        if len(self.samples) == self._first:
            self.sample()   # a block shorter than the interval
        return False

    def window(self):
        """Samples of the last block."""
        return self.samples[self._first:]

    def inside(self, t0, t1):
        """Time spent in samples of the last block between t0 and t1."""
        return sum(max(0.0, min(s1, t1) - max(s0, t0)) for s0, s1 in self.window())

    def speed(self):
        """Mean speed over the last block relative to the reference: each
        sample's reference time over its time, below 1 when the machine ran
        slower. Samples are evenly spaced in wall time, so this is the
        time-average speed the program saw."""
        return statistics.fmean(SAMPLE_REFERENCE_S / (s1 - s0) for s0, s1 in self.window())


# -- inputs --------------------------------------------------------------------

def write_libsvm(path, X, y):
    with open(path, "w") as fh:
        for xi, yi in zip(X.tolist(), y.tolist()):
            feats = " ".join(f"{j + 1}:{v!r}" for j, v in enumerate(xi) if v != 0.0)
            fh.write(f"{yi!r} {feats}\n")


def make_regression(rng, n, d):
    """houses-8l-like: independent features on mixed scales, a linear target
    with Laplace noise (the absolute loss's noise model)."""
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 5.0, size=d)
    w = rng.normal(size=d)
    y = X @ (4.0 * w / np.linalg.norm(w)) + rng.laplace(scale=0.5, size=n)
    return X, y


def make_raw_classification(rng, n, d):
    """cpu-act-like: a continuous raw target that the harness thresholds at
    the training median."""
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 5.0, size=d) + rng.uniform(-3, 3, size=d)
    w = rng.normal(size=d)
    score = ((X - X.mean(axis=0)) / X.std(axis=0)) @ (w / np.linalg.norm(w))
    y = 50.0 + 10.0 * score + rng.normal(scale=3.0, size=n)
    return X, y


# -- workloads -----------------------------------------------------------------

class Workload:
    """Common cycle machinery. Subclasses define the operations."""

    def __init__(self, name, seed, out_dir, sizes, violations):
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.sizes = sizes
        self.violations = violations
        self.attempted = 0
        self.failed = 0
        self.reference = None          # outputs of the checked cycle
        self.learners = []             # learner objects of the current cycle
        self.shares = {}               # per-class round shares from the checked cycle
        self.data_path = None
        self.op_walls = {}             # op -> wall seconds in each plain cycle
        self.step_us = {}              # step span -> inclusive us per call (traced)
        self.raw = {}                  # end-to-end figures before the speed correction
        self.sampler = SpeedSampler()
        os.makedirs(out_dir, exist_ok=True)

    def install_checks(self, ic, patches):
        """Patch the observers of a checked cycle (none by default)."""

    def record_shares(self, cls, checkers):
        """Add the round make-up seen by RoundCheckers to the class's totals."""
        share = self.shares.setdefault(cls, dict.fromkeys(
            ("rounds", "zero_grad_rounds", "corner_rounds", "corner_checked"), 0))
        for key in share:
            share[key] += sum(getattr(c, key) for c in checkers)

    def run_cycle(self, ic, mode, tracer=None):
        """Run every operation once. mode: checked, plain or traced.
        Returns the summed wall time of the operations, without the speed
        samples taken inside them."""
        self.learners = []
        patches = Patches()
        wall = 0.0
        outputs = []
        try:
            if mode == "checked":
                self.install_checks(ic, patches)
            elif mode == "traced":
                tracer.install(ic, patches, on_learner=self.learners.append)
            for op in self.ops():
                output, seconds = self.run_op(ic, op, mode)
                outputs.append(output)
                wall += seconds
        finally:
            patches.undo()
        if mode == "checked":
            self.reference = outputs
        else:
            for op, got, ref in zip(self.ops(), outputs, self.reference):
                self.violations.require(
                    got is None or ref is None or got == ref,
                    f"{self.name} {mode} cycle: {op} output differs from the checked cycle")
        return wall

    def run_op(self, ic, op, mode):
        """Execute one operation; return its output (None when it failed)
        and its wall time without speed samples."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            ok = self.execute(ic, op, mode)
        except Exception as err:  # a crashing operation counts as failed
            print(f"{self.name} {op}: {type(err).__name__}: {err}", file=sys.stderr)
            ok = False
        finally:
            t1 = time.perf_counter()
            seconds = t1 - t0 - self.sampler.inside(t0, t1)
        if not ok:
            self.failed += 1
            return None, seconds
        if mode == "plain":
            self.op_walls.setdefault(op.split("#")[0], []).append(seconds)
        return self.output(ic, op, mode), seconds


class ProtocolWorkload(Workload):
    """`implicitcoin run` invoked in-process, once per algorithm per cycle."""

    def __init__(self, name, seed, out_dir, sizes, violations):
        super().__init__(name, seed, out_dir, sizes, violations)
        rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        if name == "tuned-protocol":
            self.task, self.loss = "regression", "absolute"
            self.reps = {a: sizes.tuned_reps for a in ("sgd", "aprox", "iwa")}
            self.X, self.y = make_regression(rng, sizes.tuned_rows, 8)
            grid = GRID_POINTS
        else:
            self.task, self.loss = "classification", "hinge"
            self.reps = dict(sizes.betting_reps)
            self.X, self.y = make_raw_classification(rng, sizes.betting_rows, 21)
            grid = 1
        self.data_path = os.path.join(out_dir, "data.libsvm")
        write_libsvm(self.data_path, self.X, self.y)
        n_train = int(0.70 * len(self.y))
        self.op_rounds = {a: grid * r * sizes.epochs * n_train for a, r in self.reps.items()}
        self.cycle_rounds = sum(self.op_rounds.values())
        self.checkers = []

    def ops(self):
        return list(self.reps)

    def csv_path(self, algo):
        return os.path.join(self.out_dir, f"{algo}.csv")

    def argv(self, algo):
        return ["run", "--algo", algo, "--data", self.data_path, "--format", "libsvm",
                "--task", "reg" if self.task == "regression" else "clf",
                "--epochs", str(self.sizes.epochs), "--reps", str(self.reps[algo]),
                "--seed", str(self.seed), "--out", self.csv_path(algo)]

    def setup_once(self, ic):
        config = ic.harness.ExperimentConfig(algorithm="sgd" if self.loss == "absolute"
                                             else "implicit-coin",
                                             data_path=self.data_path, task=self.task)
        return ic.harness.load_dataset(config)

    def verify_setup(self, ds):
        self.violations.require(np.array_equal(ds.X, self.X) and np.array_equal(ds.y, self.y),
                                f"{self.name}: parsed dataset differs from the generated one")

    def install_checks(self, ic, patches):
        fn_name = f"{self.loss}_eval_grad"
        self.oracle = chk.Oracle(getattr(ic.losses, fn_name))
        patches.set(ic.losses, fn_name, self.oracle)
        make_algorithm = ic.baselines.make_algorithm

        def checked_make_algorithm(name, *args, **kwargs):
            learner = make_algorithm(name, *args, **kwargs)
            self.learners.append(learner)
            self.checkers.append(chk.RoundChecker(
                learner, self.violations, f"{name} run {len(self.checkers)}",
                oracle=self.oracle, no_overshoot=name != "sgd"))
            return learner

        patches.set(ic.baselines, "make_algorithm", checked_make_algorithm)

    def execute(self, ic, algo, mode):
        if mode == "checked":
            self.checkers, self.learners = [], []
            self.oracle.total = 0
        rc = ic.cli.main(self.argv(algo))
        if rc != 0:
            return False
        if mode == "checked":
            self.check_op(algo)
        return True

    def check_op(self, algo):
        v = self.violations
        rows = chk.read_rows(self.csv_path(algo))
        rounds = sum(c.rounds for c in self.checkers)
        v.require(rounds == self.op_rounds[algo] == self.oracle.total,
                  f"{algo}: {rounds} learner rounds, {self.oracle.total} oracle calls, "
                  f"expected {self.op_rounds[algo]}")
        if self.loss == "absolute":
            chk.check_tuned_csv(rows, algo, self.X, self.y, self.seed, self.sizes.epochs, v)
        else:
            chk.check_final_iterates(rows, algo, self.learners, self.X, self.y,
                                     self.seed, self.sizes.epochs, v)
            self.record_shares(type(self.learners[0]).__name__, self.checkers)

    def output(self, ic, algo, mode):
        return chk.rows_without_wall(chk.read_rows(self.csv_path(algo)))


class FuzzWorkload(Workload):
    """The three betting learners driven directly by seeded C1-shaped streams
    with every diagnostics fold and a wealth-trace writer attached. An
    operation is one learner's stream; each learner gets several short
    independent streams per cycle, because a single long stream's corner
    share swings widely from seed to seed."""

    CLASSES = LEARNER_CLASSES

    def __init__(self, name, seed, out_dir, sizes, violations):
        super().__init__(name, seed, out_dir, sizes, violations)
        T, d = sizes.fuzz_rounds, FUZZ_DIM
        self.streams = {}
        for i, cls in enumerate(self.CLASSES):
            for k in range(sizes.fuzz_streams):
                rng = np.random.default_rng([seed, WORKLOADS.index(name), i, k])
                G = rng.normal(size=(T, d))
                G *= (rng.uniform(size=T) ** (1.0 / d) / np.linalg.norm(G, axis=1))[:, None]
                self.streams[f"{cls}#{k}"] = (G, np.einsum("ij,ij->i", G, G).tolist(),
                                              rng.uniform(size=T).tolist())
        self.op_rounds = {op: T for op in self.streams}
        self.cycle_rounds = T * len(self.streams)

    def ops(self):
        return list(self.streams)

    def trace_path(self, op):
        return os.path.join(self.out_dir, f"{op.replace('#', '-')}.wealth.csv")

    def build(self, ic, op):
        """Learner, folds and writer for one stream."""
        cls = op.split("#")[0]
        d = FUZZ_DIM
        if cls == "ImplicitCoin":
            folds = ic.diagnostics.folds_for_learner("implicit-coin", d)
        elif cls == "CoordinateImplicitCoin":
            folds = ic.diagnostics.folds_for_learner("cw-implicit-coin", d)
        else:
            folds = [ic.diagnostics.NoOvershootFold(), ic.diagnostics.WealthIdentityFold(1.0),
                     ic.diagnostics.BetaBallFold("l2"),
                     ic.diagnostics.WealthLowerBoundFold(ic.learners.PROJECTED)]
        writer = ic.diagnostics.WealthTraceWriter(self.trace_path(op))

        def trace_cb(tr):
            for fold in folds:
                fold.update(tr)
            writer.update(tr)

        return getattr(ic.learners, cls)(d, trace_cb=trace_cb), folds, writer

    def setup_once(self, ic):
        return [self.build(ic, f"{cls}#0") for cls in self.CLASSES]

    def verify_setup(self, built):
        for _, _, writer in built:
            writer.close()

    def execute(self, ic, op, mode):
        learner, folds, writer = self.build(ic, op)
        self.learners.append(learner)
        checker = None
        if mode == "checked":
            checker = chk.RoundChecker(learner, self.violations, f"fuzz {op}",
                                       corner_sample=8)
        G, GG, U = self.streams[op]
        coordinate = isinstance(learner.wealth, np.ndarray)
        try:
            for i in range(len(U)):
                if i % 2 == 0:
                    loss = 10.0 * U[i]
                else:
                    # at the scale of the tentative step, so corners stay frequent
                    if coordinate:
                        wealth, inv_eta = float(np.sum(learner.wealth)), float(np.min(learner.inv_eta))
                    else:
                        wealth, inv_eta = learner.wealth, learner.inv_eta
                    loss = U[i] * 2.0 * GG[i] * max(wealth, 1e-6) / inv_eta
                learner.step(loss, G[i])
        finally:
            writer.close()
        self.reports = [fold.report() for fold in folds]
        if checker is not None:
            v = self.violations
            v.require(checker.rounds == len(U), f"fuzz {op}: {checker.rounds} rounds")
            for rep in self.reports:
                v.require(rep.passed, f"fuzz {op}: fold {rep.line()}")
            with open(self.trace_path(op)) as fh:
                lines = sum(1 for _ in fh)
            v.require(lines == len(U) + 1, f"fuzz {op}: {lines} wealth-trace lines")
            self.record_shares(type(learner).__name__, [checker])
        return True

    def output(self, ic, op, mode):
        learner = self.learners[-1]
        with open(self.trace_path(op), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        state = tuple(np.asarray(getattr(learner, a), dtype=np.float64).tobytes()
                      for a in ("beta", "wealth", "inv_eta"))
        return state, digest, [rep.line() for rep in self.reports]


def make_workload(name, seed, out_dir, sizes, violations):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    cls = FuzzWorkload if name == "checked-fuzz" else ProtocolWorkload
    return cls(name, seed, os.path.join(out_dir, name), sizes, violations)


# -- per-layer metrics -----------------------------------------------------------

@dataclass
class TracedCycle:
    lo: int                 # span ids lo..hi-1 belong to this cycle
    hi: int
    learners: list          # learner objects built in the cycle
    bisect_evals: int       # root-function evaluations inside rootsolve.bisect
    samples: list           # (start, end) of the speed samples taken in it
    reference_s: float      # wall time without samples, at the reference speed


def layer_metrics(wl, tracer, cycles, data_bytes):
    """Per-layer metrics of the traced cycles. Counts are per cycle and must
    repeat exactly; times are per call over all traced cycles, without the
    speed samples."""
    summaries = [SpanSummary(tracer, c.lo, c.hi, c.samples) for c in cycles]
    total = SpanSummary(tracer, 0, None, [s for c in cycles for s in c.samples])
    m = {}

    def counts(s):
        c = {}
        for cls in LEARNER_CLASSES:
            step = f"learners.{cls}.step"
            c[f"learners.{cls}.steps"] = s.calls(step)
            c[f"learners.{cls}.corner_rounds"] = s.corner_rounds(step)
        for name in ("roots_in_unit", "bisect"):
            c[f"rootsolve.{name}_calls"] = s.calls(f"rootsolve.{name}")
        for name in ("make_pair", "linear_residual"):
            c[f"truncated.{name}_calls"] = s.calls(f"truncated.{name}")
        c["losses.eval_grad_calls"] = (s.calls("losses.absolute_eval_grad")
                                       + s.calls("losses.hinge_eval_grad"))
        c["losses.mean_loss_calls"] = s.calls("losses.mean_loss")
        c["baselines.make_algorithm_calls"] = s.calls("baselines.make_algorithm")
        c["data_io.split_calls"] = s.calls("data_io.shuffle_split")
        c["harness.run_single_calls"] = s.calls("harness.run_single")
        return c

    first = counts(summaries[0])
    for s in summaries[1:]:
        wl.violations.require(counts(s) == first,
                              f"{wl.name}: traced counts differ between cycles")
    m.update(first)
    for metric, attr in (("corner_fallbacks", "corner_fallbacks"),
                         ("grad_renorms", "grad_norm_warnings")):
        for name in LEARNER_CLASSES:
            per_cycle = [sum(getattr(lr, attr) for lr in c.learners
                             if type(lr).__name__ == name) for c in cycles]
            wl.violations.require(len(set(per_cycle)) == 1,
                                  f"{wl.name}: {name}.{attr} differs between cycles")
            m[f"learners.{name}.{metric}"] = per_cycle[0]
    for name in LEARNER_CLASSES:
        m[f"learners.{name}.zero_grad_rounds"] = wl.shares.get(name, {}).get(
            "zero_grad_rounds", 0)
        m[f"learners.{name}.step_us"] = total.self_us_per_call(f"learners.{name}.step")
        checked = wl.shares.get(name, {}).get("corner_rounds", 0)
        wl.violations.require(checked == first[f"learners.{name}.corner_rounds"],
                              f"{wl.name}: {name} corner rounds {checked} in the checked "
                              f"cycle, {first[f'learners.{name}.corner_rounds']} traced")
    for name in BASELINE_CLASSES:
        m[f"baselines.{name}.step_us"] = total.self_us_per_call(f"baselines.{name}.step")
    for span in [f"learners.{c}.step" for c in LEARNER_CLASSES] + [
            f"baselines.{c}.step" for c in BASELINE_CLASSES]:
        if total.calls(span):
            wl.step_us[span] = total.total_s(span) / total.calls(span) * 1e6
    for name in FOLD_CLASSES:
        m[f"diagnostics.{name}.update_us"] = total.self_us_per_call(
            f"diagnostics.{name}.update")
    m["rootsolve.roots_in_unit_us"] = total.self_us_per_call("rootsolve.roots_in_unit")
    m["rootsolve.bisect_us"] = total.self_us_per_call("rootsolve.bisect")
    bisects = first["rootsolve.bisect_calls"]
    m["rootsolve.bisect_evals_per_call"] = (cycles[0].bisect_evals / bisects
                                            if bisects else 0.0)
    m["truncated.make_pair_us"] = total.self_us_per_call("truncated.make_pair")
    m["truncated.linear_residual_us"] = total.self_us_per_call("truncated.linear_residual")
    m["losses.absolute_eval_grad_us"] = total.self_us_per_call("losses.absolute_eval_grad")
    m["losses.hinge_eval_grad_us"] = total.self_us_per_call("losses.hinge_eval_grad")
    m["losses.example_build_us"] = total.self_us_per_call("losses.LabeledExample")
    m["losses.mean_loss_us"] = total.self_us_per_call("losses.mean_loss")
    parse_s = total.total_s("data_io.parse_libsvm")
    parses = total.calls("data_io.parse_libsvm")
    m["data_io.parse_libsvm_mb_per_s"] = (parses * data_bytes / 1e6 / parse_s
                                          if parse_s else 0.0)
    splits = total.calls("data_io.shuffle_split")
    m["data_io.split_ms"] = (sum(total.total_s(f"data_io.{f}") for f in SPLIT_FUNCTIONS)
                             / splits * 1e3 if splits else 0.0)
    rounds = sum(total.calls(f"learners.{c}.step") for c in LEARNER_CLASSES) + sum(
        total.calls(f"baselines.{c}.step") for c in BASELINE_CLASSES)
    loop_s = total.self_s("harness.run_single")
    m["harness.loop_us_per_round"] = loop_s / rounds * 1e6 if loop_s else 0.0
    for name in ("write_metadata", "emit_csv"):
        n = total.calls(f"harness.{name}")
        m[f"harness.{name}_ms"] = total.self_s(f"harness.{name}") / n * 1e3 if n else 0.0
    return m


# -- the run -------------------------------------------------------------------

def run(name, seed, seconds, trace, root, out_dir=None, sizes=Sizes()):
    """Run one workload. Returns the result object (correct, attempted,
    failed, metrics), the workload with its per-run figures, and the
    violations found."""
    out_dir = out_dir or os.path.join(root, "bench", "out")
    violations = chk.Violations()
    wl = make_workload(name, seed, out_dir, sizes, violations)
    sampler = wl.sampler
    ic, setup_raw, setup_s = measure_setup(os.path.join(root, "src"), wl)

    wl.run_cycle(ic, "checked")
    for cls, share in wl.shares.items():
        violations.require(share["corner_checked"] > 0,
                           f"{name}: no {cls} corner round checked against the bisection")
    tracer = Tracer() if trace else None
    plain, traced = [], []      # plain: (wall without samples, speed) per cycle
    t_start = time.perf_counter()
    while True:
        use_tracer = trace and len(traced) < min(len(plain), MAX_TRACED_CYCLES)
        # speed() after the block: a block shorter than the interval gets its
        # one sample on exit
        if use_tracer:
            lo, evals0 = len(tracer.name), tracer.bisect_evals
            with sampler:
                wall = wl.run_cycle(ic, "traced", tracer)
            traced.append(TracedCycle(lo, len(tracer.name), list(wl.learners),
                                      tracer.bisect_evals - evals0, sampler.window(),
                                      wall * sampler.speed()))
        else:
            with sampler:
                wall = wl.run_cycle(ic, "plain")
            plain.append((wall, sampler.speed()))
        if time.perf_counter() - t_start >= seconds and (not trace or traced):
            break

    if trace:
        data_bytes = os.path.getsize(wl.data_path) if wl.data_path else 0
        metrics = layer_metrics(wl, tracer, traced, data_bytes)
        # both sides at the reference speed, so the machine's phases cancel
        metrics["bench.trace_overhead"] = (
            statistics.median(c.reference_s for c in traced)
            / statistics.median(wall * speed for wall, speed in plain))
        tracer.dump(os.path.join(wl.out_dir, "spans.npz"),
                    [s for c in traced for s in c.samples])
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        wl.raw = {"rounds_per_s": statistics.median(wl.cycle_rounds / wall
                                                    for wall, _ in plain),
                  "setup_s": setup_raw}
        metrics = {
            "rounds_per_s": statistics.median(wl.cycle_rounds / wall / speed
                                              for wall, speed in plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {n: u for n, u, _ in END_TO_END}
    result = {
        "correct": violations.count == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, wl, violations
