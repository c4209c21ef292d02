"""Command-line entry point for the benchmark harness."""

import argparse
import sys

from . import baselines, diagnostics, harness


def build_parser():
    parser = argparse.ArgumentParser(
        prog="implicitcoin",
        description="Run an online-learning benchmark and write per-epoch CSV.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="train one algorithm on one dataset")
    run.add_argument("--algo", required=True, choices=baselines.ALGORITHMS)
    run.add_argument("--data", required=True, help="dataset path")
    run.add_argument("--format", required=True, choices=("libsvm", "csv"))
    run.add_argument("--task", required=True, choices=("clf", "reg"))
    run.add_argument("--epochs", type=int, default=10)
    run.add_argument("--reps", type=int, default=3)
    run.add_argument("--grid", default=None,
                     help="comma-separated eta0 grid (tuned algorithms only)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--target-col", default="target",
                     help="target column name for CSV datasets")
    run.add_argument("--trace-wealth", default="",
                     help="write per-round (t,h,wealth,beta_norm,residual) CSV")
    run.add_argument("--check-bounds", action="store_true",
                     help="fold the invariant checks over the run and append "
                          "a diagnostics block to the output")
    return parser


def _parse_grid(text):
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        values = ()
    if not values:
        raise ValueError(f"bad grid {text!r}")
    return values


def run_command(args):
    config = harness.ExperimentConfig(
        algorithm=args.algo,
        data_path=args.data,
        data_format=args.format,
        task="classification" if args.task == "clf" else "regression",
        target_column=args.target_col,
        epochs=args.epochs,
        repetitions=args.reps,
        eta0_grid=_parse_grid(args.grid) if args.grid else None,
        seed=args.seed,
    )
    if args.trace_wealth and config.algorithm not in ("implicit-coin", "cw-implicit-coin"):
        raise ValueError("trace-wealth needs a betting learner "
                         "(implicit-coin or cw-implicit-coin)")
    dataset = harness.load_dataset(config)

    folds = diagnostics.folds_for_learner(config.algorithm, dataset.n_features) \
        if args.check_bounds else []
    writer = diagnostics.WealthTraceWriter(args.trace_wealth) if args.trace_wealth else None

    def trace_cb(tr):
        for fold in folds:
            fold.update(tr)
        if writer is not None:
            writer.update(tr)

    try:
        thresholds = []
        records = harness.tune_and_run(
            config, dataset,
            trace_cb=trace_cb if (folds or writer) else None, thresholds=thresholds)

        extra = []
        if args.check_bounds:
            extra.append("# DIAGNOSTICS")
            reports = [fold.report() for fold in folds]
            if reports:
                extra.extend("# " + rep.line() for rep in reports)
            else:
                extra.append("# no applicable checks for this algorithm")
        harness.emit_csv(records, args.out, extra_lines=extra)
        harness.write_metadata(config, args.out + ".meta.txt", thresholds)
    finally:
        if writer is not None:
            writer.close()
    if args.check_bounds and any(not rep.passed for rep in reports):
        raise ValueError("diagnostics check failed; see " + args.out)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except (ValueError, OSError, harness.RunAborted) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
