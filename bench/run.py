"""Benchmark of the implicitcoin reproduction.

    python3 bench/run.py --workload tuned-protocol --seed 1 --seconds 20 --trace 0

Runs one workload in this process on one thread, checks its outputs, prints
every metric with its unit and, as the last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics; --trace 1 the per-layer metrics of a separate traced pass.
"""

import argparse
import json
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # single-threaded: set before numpy loads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_workloads  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "implicitcoin", "__init__.py")):
        print(f"error: no implicitcoin sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    result, wl, violations = bench_workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for cls, share in sorted(wl.shares.items()):
        print(f"# {cls}: " + " ".join(f"{k}={v}" for k, v in share.items()))
    total = sum(sum(t) for t in wl.op_walls.values())
    for group, times in wl.op_walls.items():
        ops = [op for op in wl.ops() if op.split("#")[0] == group]
        rounds = len(times) / len(ops) * sum(wl.op_rounds[op] for op in ops)
        print(f"# {group}: {sum(times) / total:.3f} of the plain wall time, "
              f"{sum(times) / rounds * 1e6:.2f} us per round")
    for name, value in wl.raw.items():
        print(f"# {name} before the speed correction: {value:.6g}")
    for span, us in wl.step_us.items():
        print(f"# {span} inclusive of child spans: {us:.3f} us/call")
    for message in violations.messages:
        print(f"# check failed: {message}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']} "
          f"correct = {result['correct']}")
    line = json.dumps(result)
    with open(os.path.join(wl.out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
