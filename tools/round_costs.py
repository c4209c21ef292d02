"""Per-round cost of the betting learners by round type, next to Sgd.step.

    python3 tools/round_costs.py [--dims 8 21] [--rows 1000] [--epochs 2]
                                 [--trials 9] [--compare OTHER_SRC] [--json PATH]

For every dimension it draws a hinge-loss problem (unit-norm rows, noisy
labels), records each betting learner's own (loss, g) rounds under the hinge
oracle, and sorts them into zero-gradient, full (h = 1) and corner (h < 1)
rounds. It then replays the recorded rounds on fresh, untraced learners,
timing every `step`, and `Sgd.step` on the nonzero gradients of the
`ImplicitCoin` stream. A round is replayed as `run_single` plays it,
`step(loss, g, ex)`, where g is the array of the tree's own example `ex`
(x, -x or zeros) that the oracle returned, so a step reads the statistics
the example carries wherever it would in a run. Trials interleave the
learners (and, with --compare, the source trees, all loaded in this one
process) in a rotating order, so a slow phase of the machine hits every
column alike. A cell is the median over trials of the mean microseconds per
round, the timer's own cost taken out.

With --compare, this tree is loaded a second time after the other one
("this-again"), and every row gives this/other next to this/this: the same
code read through the tool, whose distance from 1 is the tool's own bias in
that session. The last lines give, per dimension and tree, the ratios of
medians full / Sgd, corner / Sgd, corner / full and zero / Sgd for each
learner (nan where the stream has no round of that type); with --compare,
every ratio over Sgd divides both trees' medians by the other tree's
`Sgd.step` median, labelled "/ other's Sgd", so a change to Sgd alone moves
no learner's ratio. Then, for each
learner its residual evaluations per corner: residual_evals / corner_rounds
of one untimed replay of the same recorded rounds on each tree, so two
trees' figures pair up on the same rounds instead of being read against a
figure from another session. With --json, the rows, ratio lines and
evaluation counts are stored as `round_types` in the JSON file PATH; its
other keys are kept, so the tool fills that part of a `BENCH_*.json`.
"""

import argparse
import importlib.util
import json
import math
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEARNERS = ("ImplicitCoin", "ProjectedImplicitCoin", "CoordinateImplicitCoin")
TYPES = ("zero", "full", "corner")


def load_tree(src_dir, name):
    """The implicitcoin package under src_dir, imported as module `name`
    (afresh, with its submodules, if that name was loaded before)."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    pkg = os.path.join(os.path.abspath(src_dir), "implicitcoin")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def hinge_problem(rng, rows, dim):
    X = rng.normal(size=(rows, dim))
    X /= np.linalg.norm(X, axis=1)[:, None]
    y = np.where(X @ rng.normal(size=dim) + 0.3 * rng.normal(size=rows) >= 0.0, 1.0, -1.0)
    return X, y


GRADIENTS = ("x", "neg_x", "zero")  # the example arrays an oracle returns


def record(ic, cls, X, y, epochs):
    """The rounds a learner plays under the hinge oracle, as (loss, row,
    name of the example array that was g), with the type of each round."""
    hs = []
    learner = getattr(ic.learners, cls)(X.shape[1], trace_cb=lambda tr: hs.append(tr.h))
    examples = [ic.losses.LabeledExample(x, t) for x, t in zip(X, y)]
    rounds, types = [], []
    w = learner.predict()
    for _ in range(epochs):
        for i, ex in enumerate(examples):
            loss, g = ic.losses.hinge_eval_grad(w, ex)
            w = learner.step(loss, g, ex)
            rounds.append((loss, i, next(n for n in GRADIENTS if getattr(ex, n) is g)))
            types.append("zero" if not np.any(g) else "full" if hs[-1] == 1.0 else "corner")
    return rounds, types


def bind(ic, X, y, rounds):
    """The recorded rounds as (loss, g, ex) on the tree's own examples."""
    examples = [ic.losses.LabeledExample(x, t) for x, t in zip(X, y)]
    return [(loss, getattr(examples[i], name), examples[i]) for loss, i, name in rounds]


def timer_cost(n=20000):
    """Seconds one perf_counter call costs, the least of five loops."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(5):
        t0 = clock()
        for _ in range(n):
            clock()
        best = min(best, (clock() - t0) / n)
    return best


def replay(make, rounds, types, overhead):
    """Mean seconds per round by type: one fresh learner, every step timed."""
    step = make().step
    clock = time.perf_counter
    spent = dict.fromkeys(TYPES, 0.0)
    for (loss, g, ex), kind in zip(rounds, types):
        t0 = clock()
        step(loss, g, ex)
        spent[kind] += clock() - t0 - overhead
    counts = {k: types.count(k) for k in TYPES}
    return {k: spent[k] / counts[k] for k in TYPES if counts[k]}


def corner_evals(make, rounds):
    """(corner rounds, residual evaluations) of one untimed replay."""
    learner = make()
    for loss, g, ex in rounds:
        learner.step(loss, g, ex)
    return learner.corner_rounds, learner.residual_evals


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dims", type=int, nargs="+", default=[8, 21])
    parser.add_argument("--rows", type=int, default=1000)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--trials", type=int, default=9)
    parser.add_argument("--compare", metavar="OTHER_SRC",
                        help="a second source tree, replayed alongside on the same rounds")
    parser.add_argument("--json", metavar="PATH",
                        help="store the rows as round_types in this JSON file")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    trees = {"this": load_tree(src, "_round_costs_this")}
    if args.compare:
        trees["other"] = load_tree(args.compare, "_round_costs_other")
        trees[AGAIN] = load_tree(src, "_round_costs_again")  # loaded after the other
    recorder = trees["this"]
    overhead = timer_cost()
    rng = np.random.default_rng(1)

    # (dim, learner, tree) -> type -> per-trial microseconds
    cells = {}
    jobs = []  # (key, make, rounds, types)
    for dim in args.dims:
        X, y = hinge_problem(rng, args.rows, dim)
        for cls in LEARNERS:
            rounds, types = record(recorder, cls, X, y, args.epochs)
            for tree, ic in trees.items():
                jobs.append(((dim, cls, tree), (lambda ic=ic, cls=cls, dim=dim:
                                                 getattr(ic.learners, cls)(dim)),
                             bind(ic, X, y, rounds), types))
            if cls == "ImplicitCoin":
                moving = [r for r, t in zip(rounds, types) if t != "zero"]
                for tree, ic in trees.items():
                    jobs.append(((dim, "Sgd", tree), (lambda ic=ic, dim=dim:
                                                      ic.baselines.Sgd(dim, 0.1)),
                                 bind(ic, X, y, moving), ["full"] * len(moving)))

    for trial in range(args.trials):
        shift = trial % len(jobs)
        for key, make, rounds, types in jobs[shift:] + jobs[:shift]:
            for kind, seconds in replay(make, rounds, types, overhead).items():
                cells.setdefault(key, {}).setdefault(kind, []).append(seconds * 1e6)

    # dim -> learner -> tree -> (corners, evaluations), the control load aside
    evals = {}
    for (dim, cls, tree), make, rounds, _ in jobs:
        if cls in LEARNERS and tree != AGAIN:
            evals.setdefault(f"d{dim}", {}).setdefault(cls, {})[tree] = corner_evals(make, rounds)

    rows, ratios = summarise(args.dims, list(trees), cells, jobs)
    print_table(args.trials, overhead, list(trees), rows, ratios, evals)
    if args.json:
        store(args.json, argv if argv is not None else sys.argv[1:], args.trials, rows, ratios,
              evals)
    return 0


AGAIN = "this-again"  # the second load of this tree, the control of --compare


def summarise(dims, names, cells, jobs):
    """The rows ("d8.ImplicitCoin.full" -> rounds, each tree's median and
    least microseconds and, with --compare, the ratios this/other and
    this/this again) and the ratio lines (dim -> label -> tree -> ratio of
    medians, for this and other)."""
    rows = {}
    for dim in dims:
        for cls in LEARNERS + ("Sgd",):
            for kind in TYPES:
                if kind not in cells[(dim, cls, names[0])]:
                    continue
                row = {"rounds": count(jobs, (dim, cls, names[0]), kind)}
                for n in names:
                    trials = cells[(dim, cls, n)][kind]
                    row[f"{n}_us"] = statistics.median(trials)
                    row[f"{n}_min_us"] = min(trials)
                if len(names) > 1:
                    row["this/other"] = row["this_us"] / row["other_us"]
                    row["this/this"] = row["this_us"] / row[f"{AGAIN}_us"]
                rows[f"d{dim}.{cls}.{kind}"] = row
    ratios = {}
    fixed = "other" if len(names) > 1 else None  # the tree whose Sgd.step divides
    sgd = "other's Sgd" if fixed else "Sgd"
    for dim in dims:
        pairs = [(f"{cls} {num} / {sgd if den == 'Sgd' else den}", (cls, num), den)
                 for num, den in (("full", "Sgd"), ("corner", "Sgd"), ("corner", "full"),
                                  ("zero", "Sgd"))
                 for cls in LEARNERS]
        def median(tree, cls, kind):
            return statistics.median(cells[(dim, cls, tree)].get(kind, [math.nan]))

        ratios[f"d{dim}"] = {
            label: {n: median(n, *num) / (median(fixed or n, "Sgd", "full") if den == "Sgd"
                                          else median(n, num[0], den))
                    for n in names if n != AGAIN}
            for label, num, den in pairs}
    return rows, ratios


def print_table(trials, overhead, names, rows, ratios, evals):
    print(f"us per round, median over {trials} trials (min in brackets); "
          f"timer cost {overhead * 1e9:.0f} ns per call taken out")
    compared = len(names) > 1
    print(f"{'dim':>4} {'learner':<24}{'type':<8}{'rounds':>7}"
          + "".join(f"{n:>18}" for n in names)
          + ("   this/other   this/this" if compared else ""))
    for key, row in rows.items():
        dim, cls, kind = key.split(".")
        line = f"{dim[1:]:>4} {cls:<24}{kind:<8}{row['rounds']:>7}"
        line += "".join(f"{row[f'{n}_us']:>10.2f} ({row[f'{n}_min_us']:5.2f})" for n in names)
        if compared:
            line += f"   {row['this/other']:10.3f}  {row['this/this']:10.3f}"
        print(line)
    for dim, labels in ratios.items():
        for label, by_tree in labels.items():
            print(f"{label} at d = {dim[1:]}: "
                  + ", ".join(f"{r:.2f} ({n})" for n, r in by_tree.items()))
    for dim, learners in evals.items():
        for cls, by_tree in learners.items():
            print(f"{cls} evaluations / corner at d = {dim[1:]}: "
                  + ", ".join(f"{e / c if c else math.nan:.4f} ({n}: {e} / {c})"
                              for n, (c, e) in by_tree.items()))


def store(path, argv, trials, rows, ratios, evals):
    """Put the rows, ratios and evaluation counts into the JSON file at path
    as round_types, keeping its other keys."""
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    data["round_types"] = {
        "what": "python3 tools/round_costs.py " + " ".join(argv) + ": untraced "
                "learner.step wall time by round type, median (and least) over "
                f"{trials} interleaved trials in one process; with --compare, "
                f"'{AGAIN}' is a second load of this tree, whose ratio this/this "
                "is the tool's own bias, and every ratio over Sgd divides both "
                "trees by the other tree's Sgd.step median (\"/ other's Sgd\")",
        "unit": "us",
        "rows": {k: {f: round(v, 4) if isinstance(v, float) else v for f, v in row.items()}
                 for k, row in rows.items()},
        "ratios": {dim: {label: {n: round(r, 4) for n, r in by_tree.items()}
                         for label, by_tree in labels.items()}
                   for dim, labels in ratios.items()},
        "corner_evals": {dim: {cls: {n: {"corners": c, "evals": e,
                                         "per_corner": round(e / c, 6) if c else None}
                                     for n, (c, e) in by_tree.items()}
                               for cls, by_tree in learners.items()}
                         for dim, learners in evals.items()},
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def count(jobs, key, kind):
    return next(t.count(kind) for k, _, _, t in jobs if k == key)


if __name__ == "__main__":
    sys.exit(main())
