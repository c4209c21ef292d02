"""Benchmark protocol: epochs of online updates over a shuffled training split,
repeated with fresh splits, validation-tuned step sizes for the tuned kinds,
and CSV output with a final averaged block.

A repetition is prepared once (`prepare_repetition`): its split,
preprocessing and training rows (as LabeledExamples) are the one value that
every run of the grid (`run_single`) consumes, epoch after epoch.
"""

import math
import platform
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import __version__, baselines, data_io, losses

# Step-size grid used when the config does not override it: 13 log-spaced
# points covering 1e-4 .. 1e2.
DEFAULT_GRID = tuple(float(v) for v in np.logspace(-4.0, 2.0, 13))

CSV_HEADER = ("algorithm", "repetition", "epoch", "eta0",
              "train_loss", "val_loss", "test_loss", "wall_ms")


@dataclass
class ExperimentConfig:
    algorithm: str
    data_path: str = ""
    data_format: str = "libsvm"            # libsvm | csv
    task: str = "regression"               # classification | regression
    target_column: str = "target"
    epochs: int = 10
    repetitions: int = 3
    eta0_grid: tuple = None   # None: DEFAULT_GRID for tuned kinds, () otherwise
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in baselines.ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name, least in (("epochs", 1), ("repetitions", 1), ("seed", 0)):
            value = getattr(self, name)  # a bool is not a count, a numpy integer is
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.data_format not in ("libsvm", "csv"):
            raise ValueError(f"unknown data format {self.data_format!r}")
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        grid = DEFAULT_GRID if self.eta0_grid is None else tuple(
            float(v) for v in self.eta0_grid)
        if baselines.is_parameter_free(self.algorithm):
            if self.eta0_grid:
                raise ValueError(
                    f"{self.algorithm} is parameter-free; the eta0 grid must be empty")
            grid = ()
        elif not grid:
            raise ValueError(f"{self.algorithm} needs a non-empty eta0 grid")
        elif not all(0.0 < v < math.inf for v in grid):  # nan too
            raise ValueError(f"eta0 grid values must be positive and finite, got {grid}")
        self.eta0_grid = grid

    @property
    def loss_kind(self):
        return "hinge" if self.task == "classification" else "absolute"


@dataclass
class RunRecord:
    algorithm: str
    repetition: object           # int, or "mean" for the averaged block
    epoch: int
    eta0: float = None
    train_loss: float = 0.0
    val_loss: float = 0.0
    test_loss: float = 0.0
    wall_ms: float = 0.0


class RunAborted(RuntimeError):
    """A learner precondition failed; carries the offending round index."""

    def __init__(self, round_index, cause):
        super().__init__(f"round {round_index}: {cause}")
        self.round_index = round_index


def load_dataset(config: ExperimentConfig) -> data_io.Dataset:
    with open(config.data_path) as fh:
        if config.data_format == "libsvm":
            return data_io.parse_libsvm(fh, task=config.task, name=config.data_path)
        return data_io.parse_csv(fh, config.target_column, config.task,
                                 name=config.data_path)


class PreparedRepetition(NamedTuple):
    """A repetition's preprocessed validation and test splits and its
    training rows, built once and shared by every run of the repetition.
    Nothing writes into them. threshold is the binarization threshold of
    the targets, None when there is none. (A NamedTuple: cheaper to define
    at import than a dataclass.)"""

    repetition: int
    threshold: float
    dim: int
    val: data_io.Dataset
    test: data_io.Dataset
    examples: list  # losses.LabeledExample per training row, in split order


def prepare_repetition(config: ExperimentConfig, dataset, repetition):
    """Split 70/15/15, binarize classification targets when they are not
    already +-1 (at the median of the training targets), run the
    preprocessing chain, and build one LabeledExample per training row as a
    batch (`losses.labeled_examples`)."""
    train, val, test = data_io.shuffle_split(dataset, config.seed, repetition)
    threshold = None
    if config.task == "classification" and not set(np.unique(train.y)) <= {-1.0, 1.0}:
        threshold = data_io.median_threshold(train.y)
        train, val, test = (data_io.binarize_by_threshold(d, threshold)
                            for d in (train, val, test))
    train, val, test = data_io.standardize_then_unit_normalize(train, val, test)
    examples = losses.labeled_examples(train.X, train.y)
    return PreparedRepetition(repetition, threshold, train.n_features, val, test, examples)


def run_single(config: ExperimentConfig, prepared, eta0=None, loss_fn=None,
               trace_cb=None):
    """One run of the prepared repetition at one step size: epochs of
    sequential online updates in split order, evaluating validation and
    test loss after every epoch."""
    val, test, examples = prepared.val, prepared.test, prepared.examples
    n = len(examples)
    kind = config.loss_kind
    loss_fn = loss_fn or losses.eval_grad_fn(kind)
    learner = baselines.make_algorithm(
        config.algorithm, prepared.dim, eta0=eta0, trace_cb=trace_cb)
    step = learner.step

    records = []
    w = learner.predict()
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        total = 0.0
        for i, ex in enumerate(examples):
            loss_value, g = loss_fn(w, ex)
            total += loss_value
            try:
                w = step(loss_value, g, ex)
            except ValueError as err:
                round_index = (epoch - 1) * n + i + 1
                raise RunAborted(round_index, err) from err
        records.append(RunRecord(
            algorithm=config.algorithm, repetition=prepared.repetition, epoch=epoch,
            eta0=eta0,
            train_loss=total / n,
            val_loss=losses.mean_loss(kind, w, val.X, val.y),
            test_loss=losses.mean_loss(kind, w, test.X, test.y),
            wall_ms=(time.perf_counter() - t0) * 1e3))
    return records


def _mean_rows(per_rep_records, config):
    by_epoch = {}
    for rec in per_rep_records:
        by_epoch.setdefault(rec.epoch, []).append(rec)
    rows = []
    for epoch in sorted(by_epoch):
        group = by_epoch[epoch]
        etas = [r.eta0 for r in group]
        rows.append(RunRecord(
            algorithm=config.algorithm, repetition="mean", epoch=epoch,
            eta0=None if any(e is None for e in etas) else sum(etas) / len(etas),
            train_loss=sum(r.train_loss for r in group) / len(group),
            val_loss=sum(r.val_loss for r in group) / len(group),
            test_loss=sum(r.test_loss for r in group) / len(group),
            wall_ms=sum(r.wall_ms for r in group) / len(group)))
    return rows


def tune_and_run(config: ExperimentConfig, dataset=None, trace_cb=None,
                 thresholds=None):
    """Full protocol. Tuned kinds sweep the grid per repetition and keep the
    step size with the best final-epoch validation loss (ties go to the
    smaller eta0); parameter-free kinds run once per repetition. Each
    repetition is prepared once for all its runs. Averaged rows are appended
    last. thresholds, a list when given, receives each repetition's
    binarization threshold (None when there is none) in repetition order,
    for write_metadata, so that nothing splits a repetition again."""
    if dataset is None:
        dataset = load_dataset(config)

    selected = []
    for rep in range(config.repetitions):
        prepared = prepare_repetition(config, dataset, rep)
        if thresholds is not None:
            thresholds.append(prepared.threshold)
        if not config.eta0_grid:  # a parameter-free kind
            selected.extend(run_single(config, prepared, trace_cb=trace_cb))
            continue
        best = None
        for eta0 in sorted(config.eta0_grid):
            records = run_single(config, prepared, eta0)
            final_val = records[-1].val_loss
            if best is None or final_val < best[0]:
                best = (final_val, records)  # ascending grid: ties keep smaller
        selected.extend(best[1])
    return selected + _mean_rows(selected, config)


def _fmt(value):
    if value is None:
        return ""
    return f"{value:.10g}"


def emit_csv(records, path, extra_lines=()):
    """Write records (header + one row each); optional trailing comment lines
    carry the diagnostics block."""
    if not records:
        raise ValueError("no records to write")
    with open(path, "w") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for r in records:
            fh.write(",".join([
                r.algorithm, str(r.repetition), str(r.epoch), _fmt(r.eta0),
                _fmt(r.train_loss), _fmt(r.val_loss), _fmt(r.test_loss),
                _fmt(r.wall_ms)]) + "\n")
        for line in extra_lines:
            fh.write(line.rstrip("\n") + "\n")


def read_csv(path):
    """Parse a file written by emit_csv back into dict rows (comments skipped)."""
    rows = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != list(CSV_HEADER):
            raise ValueError(f"unexpected header {header}")
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            vals = line.split(",")
            row = dict(zip(header, vals))
            for key in ("eta0", "train_loss", "val_loss", "test_loss", "wall_ms"):
                row[key] = float(row[key]) if row[key] else None
            row["epoch"] = int(row["epoch"])
            rows.append(row)
    return rows


def write_metadata(config: ExperimentConfig, path, thresholds):
    """Record the protocol substitutions that the benchmark leaves open:
    the grid actually used, the split PRNG, any binarization thresholds,
    and the package, Python and numpy versions for replay. thresholds are
    the repetitions' binarization thresholds (None where there is none), as
    tune_and_run hands them back."""
    with open(path, "w") as fh:
        fh.write(f"algorithm={config.algorithm}\n")
        fh.write(f"task={config.task}\n")
        fh.write(f"loss={config.loss_kind}\n")
        fh.write(f"epochs={config.epochs}\n")
        fh.write(f"repetitions={config.repetitions}\n")
        fh.write(f"seed={config.seed}\n")
        fh.write(f"split_prng={data_io.SPLIT_PRNG}\n")
        fh.write(f"package_version={__version__}\n")
        fh.write(f"python={platform.python_version()}\n")
        fh.write(f"numpy={np.__version__}\n")
        fh.write("selection=final-epoch validation loss, ties to smaller eta0\n")
        fh.write("eta0_grid=" + ",".join(f"{v:.10g}" for v in sorted(config.eta0_grid)) + "\n")
        for rep, threshold in enumerate(thresholds):
            if threshold is not None:
                fh.write(f"binarize_threshold_rep{rep}={threshold!r}\n")
