"""Same-numbers digest of every algorithm over fuzz streams, or of
`implicitcoin run` outputs.

    python3 tools/digest.py SRC [--cli] [--compare OTHER_SRC]

Plays every betting learner (ImplicitCoin, ProjectedImplicitCoin,
CoordinateImplicitCoin) and every baseline (Sgd, AProx, ImportanceAwareSgd
at eta0 = 0.5, KtCoin, Cocob) of the implicitcoin package under SRC on
C1-shaped streams: seeds 5, 111 and 90001, d = 1, 4 and 21, each plain and
drifting (a persistent coin that drives the first coordinates onto the
shrink branch). A stream has gradient norms u^(1/d), losses alternating
between a plain draw and the scale of the tentative step, every 7th gradient
zero and every 11th lifted 5e-10 past the unit bound, so it has full rounds,
corners, zero rounds and renormalised gradients. Every stream is fed two
ways: as arrays, step(loss, g), and as examples, step(loss, g, ex) with ex
the row's example from `losses.labeled_examples` and g its x, neg_x or zero
row in turn (zero rows included), so the input checks read the example's
statistics. The betting learners' streams are played traced and untraced.
The digest is a SHA-256 over every returned iterate, every trace record,
the counters and the final state.

With --compare, both trees are loaded in this one process and play the same
streams. Each stream prints "identical", or the first round where the two
differ with the relative iterate gap (the largest |w - w'| over the stream
over the largest |w'| over the stream, so a round whose iterate is near 0
does not inflate it) and, for a traced stream, the largest |h - h'|. A line
after the streams gives the largest of both over all differing streams. The
exit code is 1 when any stream differs.

With --cli, it runs `cli.main` of each tree instead: every algorithm with
--task reg and with --task clf, --check-bounds for all and --trace-wealth
for the two betting learners, on one LIBSVM file that this tool writes from
its own seeded generator, so every tree reads the same bytes. A run's digest
covers its exit code, its CSV rows without the wall_ms column (the
`# DIAGNOSTICS` lines included), its `.meta.txt` file and its wealth trace.
With --compare, each run prints "identical", or the first file and line
where the two trees differ.
"""

import argparse
import hashlib
import importlib
import os
import struct
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from round_costs import GRADIENTS, LEARNERS, load_tree  # noqa: E402

BASELINES = ("Sgd", "AProx", "ImportanceAwareSgd", "KtCoin", "Cocob")
TUNED = ("Sgd", "AProx", "ImportanceAwareSgd")
ETA0 = 0.5
SEEDS = (5, 111, 90001)
DIMS = (1, 4, 21)
ROUNDS = 300
FEEDS = ("array", "example")
TRACE_FIELDS = ("w", "g", "w_next", "beta", "beta_next")
# the state a stream ends in, by class (the betting learners' by default)
FINAL_STATE = {
    **dict.fromkeys(TUNED, ("k", "w")),
    "KtCoin": ("k", "rounds_bet", "wealth", "coin_sum", "w"),
    "Cocob": ("k", "scale", "grad_abs_sum", "coin_sum", "reward", "w"),
}
BETTING_STATE = ("t", "corner_rounds", "residual_evals", "grad_norm_warnings", "beta",
                 "wealth", "inv_eta")


def c1_stream(seed, dim, rounds, drift, coordinate):
    """(gradients, uniforms) of a C1-shaped stream, as in the tests. Every
    11th nonzero gradient is lifted 5e-10 past the unit bound: its largest
    entry's for the per-coordinate learner, else its norm."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(rounds, dim))
    if drift:
        half = max(1, dim // 2)
        G[:, :half] = -2.0 + 0.3 * G[:, :half]
    G *= (rng.uniform(size=rounds) ** (1.0 / dim) / np.linalg.norm(G, axis=1))[:, None]
    G[::7] = 0.0
    for i in range(5, rounds, 11):
        if np.any(G[i]):  # float excess over the bound: renormalised
            G[i] *= (1.0 + 5e-10) / (np.max(np.abs(G[i])) if coordinate
                                     else np.linalg.norm(G[i]))
    return G, rng.uniform(size=rounds)


def streams():
    """(name, class name, seed, dim, drift, feed, traced) of every stream."""
    for cls in LEARNERS + BASELINES:
        for seed in SEEDS:
            for dim in DIMS:
                for drift in (False, True):
                    for feed in FEEDS:
                        for traced in ((False, True) if cls in LEARNERS else (False,)):
                            name = (f"{cls:<22} seed={seed:<5} d={dim:<2} "
                                    f"{'drift' if drift else 'plain'} {feed:<7} "
                                    f"{'traced' if traced else 'untraced'}")
                            yield name, cls, seed, dim, drift, feed, traced


def make(ic, cls, dim, records):
    """A fresh learner of class cls from the tree ic, tracing into records
    when that is not None."""
    if cls in LEARNERS:
        trace_cb = records.append if records is not None else None
        return getattr(ic.learners, cls)(dim, trace_cb=trace_cb)
    if cls in TUNED:
        return getattr(ic.baselines, cls)(dim, ETA0)
    return getattr(ic.baselines, cls)(dim)


def play(ic, cls, seed, dim, drift, feed, traced):
    """The stream on a fresh learner of the tree ic: per round (the bytes of
    the iterate and of its trace record, the iterate, h or None), and the
    bytes of the counters and the final state."""
    records = [] if traced else None
    learner = make(ic, cls, dim, records)
    betting = cls in LEARNERS
    G, U = c1_stream(seed, dim, ROUNDS, drift, cls == "CoordinateImplicitCoin")
    if feed == "example":
        examples = ic.losses.labeled_examples(G, np.ones(ROUNDS))
        fed = [(getattr(ex, GRADIENTS[i % 3]), ex) for i, ex in enumerate(examples)]
    else:
        fed = [(g, None) for g in G]
    rounds = []
    for i, ((g, ex), u) in enumerate(zip(fed, U)):
        if i % 2 == 0:
            loss = 10.0 * u
        elif betting:
            loss = u * 2.0 * float(g @ g) * max(float(np.sum(learner.wealth)), 1e-6) / float(
                np.min(learner.inv_eta))
        else:  # the AProx cap loss / g.g = u binds when u < eta
            loss = u * float(g @ g)
        w = learner.step(loss, g, ex)
        data, h = [w.tobytes()], None
        if traced:
            tr = records[-1]
            h = tr.h
            data.append(struct.pack("<q4d", tr.t, tr.loss_value, tr.h,
                                    tr.wealth_before, tr.wealth_after))
            data += [np.asarray(getattr(tr, f), dtype=np.float64).tobytes() for f in TRACE_FIELDS]
        rounds.append((b"".join(data), w, h))
    final = [np.asarray(getattr(learner, a), dtype=np.float64).tobytes()
             for a in FINAL_STATE.get(cls, BETTING_STATE)]
    return rounds, b"".join(final)


def stream_digest(rounds, final):
    sha = hashlib.sha256()
    for data, _, _ in rounds:
        sha.update(data)
    sha.update(final)
    return sha


def gaps(rounds, other):
    """(first differing round or None, relative iterate gap, largest |delta h|
    or None for an untraced stream) of two plays of one stream. The gap is
    the largest |w - w'| over the largest |w'| of the stream."""
    first, gap, scale, dh = None, 0.0, 0.0, None
    for k, ((data, w, h), (data_o, w_o, h_o)) in enumerate(zip(rounds, other), start=1):
        if data != data_o and first is None:
            first = k
        scale = max(scale, float(np.max(np.abs(w_o))))
        gap = max(gap, float(np.max(np.abs(w - w_o))))
        if h is not None:
            dh = max(dh or 0.0, abs(h - h_o))
    if gap:
        gap = gap / scale if scale else float("inf")
    return first, gap, dh


def describe_gap(rel, dh):
    return f"largest relative iterate gap {rel:.3g}" + (
        "" if dh is None else f", largest |dh| {dh:.3g}")


def print_cases(names, cases, noun, out, summary=None):
    """Print, to out (standard output when None), one line per case with
    its name, the digest of each tree in names and, for two trees,
    "identical" or how they differ; then the line summary() returns, if
    summary is given and returns one; then each tree's digest over all
    cases and, for two trees, a count. cases yields (name, tree -> sha256,
    difference or None); noun names the cases. Returns the number of cases
    that differ."""
    totals = {n: hashlib.sha256() for n in names}
    differ = 0
    for name, shas, difference in cases:
        for n in names:
            totals[n].update(shas[n].digest())
        line = f"{name}  " + " ".join(shas[n].hexdigest()[:12] for n in names)
        if len(names) == 2:
            differ += difference is not None
            line += "  identical" if difference is None else f"  {difference}"
        print(line, file=out)
    line = summary() if summary is not None else None
    if line is not None:
        print(line, file=out)
    for n in names:
        print(f"sha256 {totals[n].hexdigest()}  {n}", file=out)
    if len(names) == 2:
        print(f"all {noun} identical" if not differ else f"{differ} {noun} differ", file=out)
    return differ


def report(trees, out=None):
    """Print, to out (standard output when None), the digest of every tree
    in trees (name -> package) and, for two trees, each stream's comparison;
    returns the number of streams that differ."""
    names = list(trees)
    worst = []  # (relative gap, |dh| or None) of every differing stream

    def cases():
        for name, *stream in streams():
            plays = {n: play(ic, *stream) for n, ic in trees.items()}
            difference = None
            if len(names) == 2:
                (rounds, final), (rounds_o, final_o) = plays[names[0]], plays[names[1]]
                first, rel, dh = gaps(rounds, rounds_o)
                if first is not None or final != final_o:
                    where = f"round {first}" if first is not None else "the counters or final state"
                    difference = f"differs from {where}: {describe_gap(rel, dh)}"
                    worst.append((rel, dh))
            yield name, {n: stream_digest(*plays[n]) for n in names}, difference

    def summary():
        if not worst:
            return None
        dhs = [dh for _, dh in worst if dh is not None]
        return (f"over the {len(worst)} differing streams: "
                + describe_gap(max(rel for rel, _ in worst), max(dhs) if dhs else None))

    return print_cases(names, cases(), "streams", out, summary)


CLI_ALGORITHMS = ("sgd", "aprox", "iwa", "coin", "cocob", "implicit-coin",
                  "cw-implicit-coin")
CLI_TRACED = ("implicit-coin", "cw-implicit-coin")
CLI_TASKS = ("reg", "clf")
CLI_ROWS = 300
CLI_DIM = 6
CLI_EPOCHS = 3
CLI_REPS = 2
CLI_SEED = 7


def write_cli_data(path):
    """A LIBSVM regression file: features of mixed scales with some zero
    entries, a linear target with Laplace noise (thresholded at its median
    under --task clf), every float written with repr."""
    rng = np.random.default_rng(CLI_SEED)
    X = rng.normal(size=(CLI_ROWS, CLI_DIM)) * rng.uniform(0.5, 5.0, size=CLI_DIM)
    X[rng.uniform(size=X.shape) < 0.2] = 0.0
    y = X @ rng.normal(size=CLI_DIM) + rng.laplace(scale=0.25, size=CLI_ROWS)
    with open(path, "w") as fh:
        for row, target in zip(X, y):
            fh.write(" ".join([repr(float(target))] + [
                f"{j + 1}:{float(v)!r}" for j, v in enumerate(row) if v != 0.0]) + "\n")


def cli_runs():
    """(name, argv without --data and the output paths, traced) of every run."""
    for algo in CLI_ALGORITHMS:
        for task in CLI_TASKS:
            argv = ["run", "--algo", algo, "--format", "libsvm", "--task", task,
                    "--epochs", str(CLI_EPOCHS), "--reps", str(CLI_REPS),
                    "--seed", str(CLI_SEED), "--check-bounds"]
            yield f"{algo:<17} {task}", argv, algo in CLI_TRACED


def _lines(path):
    if not os.path.exists(path):
        return ["<missing>"]
    with open(path) as fh:
        return fh.read().splitlines()


def cli_outputs(ic, argv, traced, data, out):
    """(file, lines) of one run of the tree ic's cli.main, written under the
    output path out: the exit code, the CSV without wall_ms, the metadata
    and the wealth trace (empty when the run is not traced)."""
    argv = argv + ["--data", data, "--out", out]
    if traced:
        argv += ["--trace-wealth", out + ".trace.csv"]
    code = importlib.import_module(ic.__name__ + ".cli").main(argv)
    csv = _lines(out)
    header = csv[0].split(",") if csv else []
    if "wall_ms" in header:
        wall = header.index("wall_ms")
        csv = [line if line.startswith("#") else
               ",".join(v for i, v in enumerate(line.split(",")) if i != wall)
               for line in csv]
    return [("exit code", [str(code)]), ("csv", csv), ("meta.txt", _lines(out + ".meta.txt")),
            ("trace", _lines(out + ".trace.csv") if traced else [])]


def outputs_digest(outputs):
    sha = hashlib.sha256()
    for name, lines in outputs:
        sha.update(f"{name}:{len(lines)}\n".encode())
        sha.update("".join(line + "\n" for line in lines).encode())
    return sha


def first_difference(outputs, other):
    """"file line k" of the first line where two runs' outputs differ, or
    None."""
    for (name, lines), (_, lines_o) in zip(outputs, other):
        for k in range(max(len(lines), len(lines_o))):
            if lines[k:k + 1] != lines_o[k:k + 1]:
                return f"{name} line {k + 1}"
    return None


def cli_report(trees, workdir, out=None):
    """As report, over the `implicitcoin run` outputs of every tree in trees,
    written under workdir; returns the number of runs that differ."""
    names = list(trees)
    data = os.path.join(workdir, "data.libsvm")
    write_cli_data(data)

    def cases():
        for i, (name, argv, traced) in enumerate(cli_runs()):
            runs = {n: cli_outputs(ic, argv, traced, data,
                                   os.path.join(workdir, f"run{i}-tree{j}.csv"))
                    for j, (n, ic) in enumerate(trees.items())}
            where = first_difference(*runs.values()) if len(names) == 2 else None
            yield (name, {n: outputs_digest(runs[n]) for n in names},
                   None if where is None else f"differs at {where}")

    return print_cases(names, cases(), "runs", out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="a source tree holding the implicitcoin package")
    parser.add_argument("--cli", action="store_true",
                        help="digest `implicitcoin run` outputs instead of fuzz streams")
    parser.add_argument("--compare", metavar="OTHER_SRC",
                        help="a second source tree, played on the same streams")
    args = parser.parse_args(argv)
    # keyed by role, so a tree compared with itself is still two trees
    trees = {"this": load_tree(args.src, "_digest_this")}
    if args.compare:
        trees["other"] = load_tree(args.compare, "_digest_other")
    if not args.cli:
        return 1 if report(trees) else 0
    with tempfile.TemporaryDirectory() as workdir:
        return 1 if cli_report(trees, workdir) else 0


if __name__ == "__main__":
    sys.exit(main())
