"""Dataset ingestion, preprocessing and deterministic splitting.

Pipeline used by the benchmark harness: parse (LIBSVM or CSV), optionally
binarize the targets, shuffle-split 70/15/15 with a seeded permutation, then
standardize with training statistics and scale every row to unit norm.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

SPLIT_PRNG = "pcg64"  # numpy default_rng; recorded so splits can be replayed

# Sample and feature counts of the benchmark datasets, keyed by name.
TABLE_SHAPES = {
    "cpu-act": ("classification", 8192, 21),
    "2dplane": ("classification", 40768, 10),
    "houses": ("classification", 20640, 8),
    "rainfall": ("regression", 16755, 3),
    "bank32nh": ("regression", 8192, 32),
    "houses-8l": ("regression", 22784, 8),
}


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    task: str
    name: str = ""
    feature_names: tuple = ()

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or self.y.ndim != 1 or len(self.X) != len(self.y):
            raise ValueError("X must be (n, d) and y (n,) with matching n")
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")

    def __len__(self):
        return len(self.y)

    @property
    def n_features(self):
        return self.X.shape[1]

    def __eq__(self, other):
        return (isinstance(other, Dataset) and self.task == other.task
                and np.array_equal(self.X, other.X)
                and np.array_equal(self.y, other.y))


@dataclass(frozen=True)
class SplitSpec:
    seed: int
    repetition: int = 0

    def __post_init__(self):
        if self.repetition < 0:
            raise ValueError("repetition must be >= 0")


@dataclass
class TransformRecord:
    """Everything needed to replay preprocessing on new rows."""

    mean: np.ndarray
    std: np.ndarray
    seed: int = 0
    repetition: int = 0
    binarize_threshold: float = None


def _lines(stream):
    if isinstance(stream, str):
        return io.StringIO(stream)
    return stream


def _map_binary_labels(y):
    """Map a two-valued label column onto {-1, +1} (smaller value -> -1)."""
    values = np.unique(y)
    if set(values.tolist()) == {-1.0, 1.0}:
        return y, True
    if len(values) == 2:
        return np.where(y == values[0], -1.0, 1.0), True
    return y, False


def _require_finite(X, y, row_label, col_label):
    """Reject nan/inf cells, naming the first offending row and column; the
    labels are functions of the row and column index."""
    ok = np.isfinite(y) & np.isfinite(X).all(axis=1)
    if ok.all():
        return
    i = int(np.argmin(ok))
    if not np.isfinite(y[i]):
        raise ValueError(f"{row_label(i)}: non-finite target {float(y[i])!r}")
    j = int(np.argmin(np.isfinite(X[i])))
    raise ValueError(f"{row_label(i)}: non-finite value {float(X[i, j])!r} in {col_label(j)}")


# Every byte but ":" and " ". Deleting them from the space-joined feature
# tokens leaves ": : ... :" exactly when every token holds one colon; a
# count of the colons alone would accept "5 1:2:3" as the pairs 5:1 2:3.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b": ")
# Feature tokens converted per batch. A token lives as about three short
# strings until its batch is converted, against 16 bytes once parsed, so
# the batch bounds the parse's peak memory.
_BATCH_TOKENS = 4096


def parse_libsvm(stream, task="classification", name=""):
    """Parse the sparse `label idx:val ...` text format (1-based indices).

    Classification labels such as {0,1} or {1,2} are mapped onto {-1,+1};
    many-valued classification targets are kept raw for later thresholding.

    Tokens are converted a batch of lines at a time, by Python's float()
    and int(), so a token is accepted exactly when float() or int() accepts
    it; malformed input is scanned token by token only to name its line.
    """
    linenos, parsed = [], []
    for batch in _line_batches(stream):
        linenos += batch[0]
        parsed.append(_convert_batch(*batch))
    y, idx, val, counts = (np.concatenate(column) for column in zip(*parsed))

    X = np.zeros((len(y), int(idx.max()) if len(idx) else 0))
    X[np.repeat(np.arange(len(y)), counts), idx - 1] = val
    _require_finite(X, y, lambda i: f"line {linenos[i]}", lambda j: f"feature {j + 1}")
    if task == "classification":
        y, _ = _map_binary_labels(y)
    return Dataset(X=X, y=y, task=task, name=name)


def _line_batches(stream):
    """Consecutive non-blank lines as (linenos, labels, feature tokens,
    tokens per line), about _BATCH_TOKENS tokens at a time; the last batch
    may be empty."""
    batch = linenos, labels, tokens, counts = [], [], [], []
    for lineno, line in enumerate(_lines(stream), start=1):
        parts = line.split()
        if parts:
            linenos.append(lineno)
            labels.append(parts[0])
            tokens += parts[1:]
            counts.append(len(parts) - 1)
            if len(tokens) >= _BATCH_TOKENS:
                yield batch
                batch = linenos, labels, tokens, counts = [], [], [], []
    yield batch


def _convert_batch(linenos, labels, tokens, counts):
    """(y, idx, val, counts) of one batch of lines as arrays. Raises the
    ValueError of the batch's first bad label, token or index order."""
    n_tok = len(tokens)
    joined = " ".join(tokens)
    counts = np.array(counts, dtype=np.int64)
    try:
        y = np.fromiter(map(float, labels), np.float64, len(labels))
        well_formed = (joined.encode().translate(None, _NOT_SEPARATOR)
                       == b" ".join([b":"] * n_tok))
        if well_formed:
            pairs = joined.replace(" ", ":").split(":") if n_tok else []
            idx_s = pairs[0::2]
            as_int = {t: int(t) for t in set(idx_s)}  # few distinct indices
            idx = np.fromiter(map(as_int.__getitem__, idx_s), np.int64, n_tok)
            val = np.fromiter(map(float, pairs[1::2]), np.float64, n_tok)
            # every index exceeds the one before it in its row, or 0 at a
            # row's first token
            prev = np.empty(n_tok, dtype=np.int64)
            prev[1:] = idx[:-1]
            prev[(np.cumsum(counts) - counts)[counts > 0]] = 0
            well_formed = bool((idx > prev).all())
    except (ValueError, OverflowError):
        well_formed = False
    if not well_formed:
        _raise_libsvm_error(linenos, labels, tokens, counts)
    return y, idx, val, counts


def _raise_libsvm_error(linenos, labels, tokens, counts):
    """Raise for the first bad label, bad token or out-of-order index."""
    end = 0
    for lineno, label, count in zip(linenos, labels, counts.tolist()):
        try:
            float(label)
        except ValueError:
            raise ValueError(f"line {lineno}: bad label {label!r}") from None
        prev_idx = 0
        start, end = end, end + count
        for tok in tokens[start:end]:
            idx_s, _, val_s = tok.partition(":")
            try:
                idx = int(idx_s)
                float(val_s)
            except ValueError:
                raise ValueError(f"line {lineno}: bad feature token {tok!r}") from None
            if idx <= prev_idx:
                raise ValueError(
                    f"line {lineno}: indices must be ascending and >= 1, got {idx}")
            prev_idx = idx
    # every token is well formed, so an index overflowed int64
    raise ValueError("feature index too large")


def serialize_libsvm(ds: Dataset) -> str:
    """Inverse of parse_libsvm; zero entries are omitted, floats use repr."""
    out = []
    for i in range(len(ds)):
        toks = [repr(float(ds.y[i]))]
        row = ds.X[i]
        for j in np.nonzero(row)[0]:
            toks.append(f"{j + 1}:{float(row[j])!r}")
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


def parse_csv(stream, target_column, task, name=""):
    """Parse a headered CSV; non-numeric columns are one-hot encoded in
    first-appearance category order, the named target column becomes y."""
    reader = csv.reader(_lines(stream))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV: no header row") from None
    header = [h.strip() for h in header]
    if target_column not in header:
        raise ValueError(f"missing target column {target_column!r}")
    tgt = header.index(target_column)

    raw = []
    rownos = []
    for rowno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ValueError(
                f"row {rowno}: expected {len(header)} fields, got {len(row)}")
        raw.append([v.strip() for v in row])
        rownos.append(rowno)
    if not raw:
        raise ValueError("CSV has a header but no data rows")

    def as_float(v):
        try:
            return float(v)
        except ValueError:
            return None

    try:
        y = np.array([float(r[tgt]) for r in raw])
    except ValueError:
        raise ValueError(f"target column {target_column!r} must be numeric") from None

    cols = []
    names = []
    for j, col_name in enumerate(header):
        if j == tgt:
            continue
        vals = [r[j] for r in raw]
        floats = [as_float(v) for v in vals]
        if all(f is not None for f in floats):
            cols.append(np.array(floats))
            names.append(col_name)
        else:
            cats = list(dict.fromkeys(vals))  # first-appearance order
            for c in cats:
                cols.append(np.array([1.0 if v == c else 0.0 for v in vals]))
                names.append(f"{col_name}={c}")

    X = np.column_stack(cols) if cols else np.zeros((len(raw), 0))
    _require_finite(X, y, lambda i: f"row {rownos[i]}", lambda j: f"column {names[j]!r}")
    if task == "classification":
        y, _ = _map_binary_labels(y)
    return Dataset(X=X, y=y, task=task, name=name, feature_names=tuple(names))


def median_threshold(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))


def binarize_by_threshold(ds: Dataset, threshold: float) -> Dataset:
    """Targets strictly above the threshold become +1, the rest -1."""
    y = np.where(ds.y > threshold, 1.0, -1.0)
    return Dataset(X=ds.X.copy(), y=y, task="classification", name=ds.name,
                   feature_names=ds.feature_names)


def shuffle_split(ds: Dataset, spec: SplitSpec):
    """Deterministic 70/15/15 split; the permutation is a pure function of
    (seed, repetition, dataset size)."""
    n = len(ds)
    if n < 10:
        raise ValueError(f"dataset too small to split: {n} rows")
    rng = np.random.default_rng([spec.seed, spec.repetition])
    perm = rng.permutation(n)
    n_train = int(0.70 * n)
    n_val = int(0.15 * n)
    parts = (perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:])
    return tuple(
        Dataset(X=ds.X[p], y=ds.y[p], task=ds.task, name=ds.name,
                feature_names=ds.feature_names)
        for p in parts)


def standardize_then_unit_normalize(train: Dataset, *others):
    """Center and scale with statistics of the training split only, then scale
    every row to unit Euclidean norm (zero rows stay zero).

    Returns the transformed datasets followed by the TransformRecord.
    """
    if len(train) == 0:
        raise ValueError("training split is empty")
    mean = train.X.mean(axis=0)
    std = train.X.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    record = TransformRecord(mean=mean, std=std)

    def apply(ds):
        Z = (ds.X - mean) / std
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
        Z = Z / np.where(norms > 0.0, norms, 1.0)
        return Dataset(X=Z, y=ds.y.copy(), task=ds.task, name=ds.name,
                       feature_names=ds.feature_names)

    return tuple(apply(ds) for ds in (train, *others)) + (record,)


def save_transform_record(record: TransformRecord, path):
    """Key=value text dump of the preprocessing transform."""
    with open(path, "w") as fh:
        fh.write(f"prng={SPLIT_PRNG}\n")
        fh.write(f"seed={record.seed}\n")
        fh.write(f"repetition={record.repetition}\n")
        if record.binarize_threshold is not None:
            fh.write(f"binarize_threshold={record.binarize_threshold!r}\n")
        fh.write("mean=" + ",".join(repr(float(v)) for v in record.mean) + "\n")
        fh.write("std=" + ",".join(repr(float(v)) for v in record.std) + "\n")


def make_synthetic_regression(n=1000, dim=10, seed=0, weight_scale=4.0, noise=0.25):
    """Linear regression data with heterogeneous feature scales and Laplace
    noise, matched to the absolute loss."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 5.0, size=dim)
    X = rng.normal(size=(n, dim)) * scales
    w_star = rng.normal(size=dim)
    w_star *= weight_scale / np.linalg.norm(w_star)
    y = X @ w_star + rng.laplace(scale=noise, size=n)
    return Dataset(X=X, y=y, task="regression", name=f"synthetic-reg-{seed}")


def expected_shape(name):
    """Benchmark-table (task, samples, features) for a known dataset name."""
    key = name.lower()
    if key not in TABLE_SHAPES:
        raise ValueError(f"no recorded shape for dataset {name!r}")
    return TABLE_SHAPES[key]
