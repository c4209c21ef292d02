"""Alternating parent-versus-change benchmark pairs for one workload.

    python3 tools/compare.py --parent DIR --change DIR --workload W
                             [--pairs 10] [--seconds 25] [--seed 1] [--json PATH]

DIR is a checkout of the repository: a tree holding `bench/run.py`, `src/`
and `BENCHMARK.json`. Each pair runs

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

once in each tree, from that tree's root, the parent first in even pairs
(0-based) and the change first in odd ones, so a slow phase of the machine
hits both sides alike. The last line a run prints is its JSON result.

For every end-to-end metric of the change's `BENCHMARK.json` it prints each
side's median and quartiles, the ratio of the medians and the number of
pairs the change won, then two verdicts:

- **bound**: the change's median is worse than the parent's by more than the
  metric's `bound` (a fraction of the parent's median), a run was not
  `correct`, or the change failed a larger share of its operations. A metric
  whose parent runs spread (interquartile range) wider than its bound reads
  "unresolved", unless every change run beats every parent run;
- **claim**: the change won at least 9 in 10 of the pairs and its median
  beats the parent's by more than the parent's interquartile range. A
  claimed gain still needs the held-out seed 90001 to confirm it.

A metric whose runs also print `# <metric> before the speed correction:
<value>` gets a second line with the same figures on those uncorrected
values (each side's median, the ratio of the medians and the change's
wins), stored under the metric's "raw" key; the verdicts read the corrected
values only.

With --json, the result is stored as `end_to_end["<workload>@<seed>"]`, with
the `machine` it ran on, in the JSON file PATH; other keys of an existing
file are kept, so several runs fill one `BENCH_*.json`. The exit code is 1
when a bound is broken.
"""

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata


def run_bench(tree, argv):
    """The standard output of `bench/run.py argv` run from the tree's root."""
    done = subprocess.run([sys.executable, os.path.join("bench", "run.py")] + argv,
                          cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited with {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def last_json(output):
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in output.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


RAW_LINE = re.compile(r"^# (\S+) before the speed correction: (\S+)$", re.MULTILINE)


def raw_figures(output):
    """The uncorrected figures a run prints, by metric name."""
    return {name: float(value) for name, value in RAW_LINE.findall(output)}


def quartiles(values):
    """(q1, median, q3), linear between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def wins_of(spec, parent_runs, change_runs):
    """Pairs in which the change's figure is the better one."""
    higher = spec["better"] == "higher"
    return sum((c > p) if higher else (c < p) for p, c in zip(parent_runs, change_runs))


def summarise_raw(spec, parent_runs, change_runs):
    """Each side's median, the ratio of medians and the change's wins on
    the figures before the speed correction."""
    parent, change = statistics.median(parent_runs), statistics.median(change_runs)
    return {"parent_median": parent, "change_median": change,
            "ratio_of_medians": change / parent if parent else math.nan,
            "change_wins": wins_of(spec, parent_runs, change_runs),
            "parent_runs": parent_runs, "change_runs": change_runs}


def summarise(spec, parent_runs, change_runs):
    """The comparison of one metric over the pairs: statistics of each side,
    the change's wins, the ratio of medians and both verdicts."""
    higher = spec["better"] == "higher"
    sides = {}
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "n": len(runs)}
    wins = wins_of(spec, parent_runs, change_runs)
    parent, change = sides["parent"]["median"], sides["change"]["median"]
    gain = (change - parent) if higher else (parent - change)
    iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
    every_run_better = (min(change_runs) > max(parent_runs) if higher
                        else max(change_runs) < min(parent_runs))
    return {
        "unit": spec["unit"], "better": spec["better"], **sides,
        "change_wins": wins,
        "ratio_of_medians": change / parent if parent else math.nan,
        "within_bound": gain >= -spec["bound"] * abs(parent),
        "resolved": iqr <= spec["bound"] * abs(parent) or every_run_better,
        "claim_rule_met": 10 * wins >= 9 * len(parent_runs) and gain > iqr,
        "parent_runs": parent_runs, "change_runs": change_runs,
    }


def compare(parent, change, workload, pairs, seconds, seed, runner=run_bench, out=None):
    """Run the pairs and return the comparison (see the module docstring)."""
    with open(os.path.join(change, "BENCHMARK.json")) as fh:
        specs = json.load(fh)["end_to_end"]
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    results, raws = {"parent": [], "change": []}, {"parent": [], "change": []}
    for k in range(pairs):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            output = runner(parent if side == "parent" else change, argv)
            result = last_json(output)
            results[side].append(result)
            raws[side].append(raw_figures(output))
            print(f"pair {k} {side}: correct={result['correct']} "
                  + " ".join(f"{s['name']}={result['metrics'][s['name']]['value']:.6g}"
                             for s in specs), file=out)
    metrics = {s["name"]: summarise(s, *[[r["metrics"][s["name"]]["value"] for r in results[side]]
                                         for side in ("parent", "change")])
               for s in specs}
    for s in specs:
        runs = [[raw.get(s["name"]) for raw in raws[side]] for side in ("parent", "change")]
        if all(v is not None for side_runs in runs for v in side_runs):
            metrics[s["name"]]["raw"] = summarise_raw(s, *runs)
    share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for side, rs in results.items()}
    return {
        "workload": workload, "seed": seed, "pairs": pairs, "seconds": seconds,
        "order": "alternating, parent first in even pairs (0-based)",
        "correct": all(r["correct"] for rs in results.values() for r in rs),
        "failed_share": share,
        "metrics": metrics,
    }


def broken_bounds(comparison):
    """What breaks a bound, as one line each (empty when nothing does)."""
    broken = [f"{name}: change median {m['change']['median']:.6g} against parent "
              f"{m['parent']['median']:.6g} is past the bound"
              for name, m in comparison["metrics"].items() if not m["within_bound"]]
    if not comparison["correct"]:
        broken.append("a run was not correct")
    if comparison["failed_share"]["change"] > comparison["failed_share"]["parent"]:
        broken.append("the change failed a larger share of its operations")
    return broken


def report(comparison, out=None):
    """Print the per-metric table and the verdicts."""
    print(f"{comparison['workload']} seed {comparison['seed']}: {comparison['pairs']} pairs "
          f"of {comparison['seconds']} s", file=out)
    for name, m in comparison["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"{name} ({m['unit']}, {m['better']} is better): parent {p['median']:.6g} "
              f"[{p['q1']:.6g}, {p['q3']:.6g}], change {c['median']:.6g} "
              f"[{c['q1']:.6g}, {c['q3']:.6g}], ratio {m['ratio_of_medians']:.4f}, "
              f"change won {m['change_wins']} of {comparison['pairs']}; "
              f"{'within' if m['within_bound'] else 'PAST'} bound"
              f"{'' if m['resolved'] else ' (unresolved: parent spread wider than the bound)'}"
              f"; claim rule {'met' if m['claim_rule_met'] else 'not met'}", file=out)
        raw = m.get("raw")
        if raw is not None:
            print(f"{name} before the speed correction: parent {raw['parent_median']:.6g}, "
                  f"change {raw['change_median']:.6g}, ratio {raw['ratio_of_medians']:.4f}, "
                  f"change won {raw['change_wins']} of {comparison['pairs']}", file=out)
    for line in broken_bounds(comparison):
        print(f"BOUND BROKEN: {line}", file=out)


def store(path, comparison):
    """Put the comparison into the JSON file at path, keeping its other keys."""
    data = {}
    if os.path.exists(path):
        with open(path) as fh:
            data = json.load(fh)
    key = f"{comparison['workload']}@{comparison['seed']}"
    data.setdefault("end_to_end", {})[key] = comparison
    data["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "numpy": metadata.version("numpy"),
                       "os": f"{platform.system()} {platform.machine()}"}
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def main(argv=None, runner=run_bench, out=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's checkout")
    parser.add_argument("--change", required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", metavar="PATH", help="store the result in this JSON file")
    args = parser.parse_args(argv)
    comparison = compare(args.parent, args.change, args.workload, args.pairs,
                         args.seconds, args.seed, runner, out)
    report(comparison, out)
    if args.json:
        store(args.json, comparison)
    return 1 if broken_bounds(comparison) else 0


if __name__ == "__main__":
    sys.exit(main())
