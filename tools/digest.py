"""Same-numbers digest of the betting learners over fuzz streams.

    python3 tools/digest.py SRC [--compare OTHER_SRC]

Plays every betting learner (ImplicitCoin, ProjectedImplicitCoin,
CoordinateImplicitCoin) of the implicitcoin package under SRC on C1-shaped
streams: seeds 5, 111 and 90001, d = 1, 4 and 21, each plain and drifting
(a persistent coin that drives the first coordinates onto the shrink
branch), every stream traced and untraced. A stream has gradient norms
u^(1/d), losses alternating between a plain draw and the scale of the
tentative step, every 7th gradient zero and every 11th lifted 5e-10 past
the unit bound, so it has full rounds, corners, zero rounds and
renormalised gradients. The digest is a SHA-256 over every returned
iterate, every trace record, the counters and the final state.

With --compare, both trees are loaded in this one process and play the same
streams. Each stream prints "identical", or the first round where the two
differ with the largest relative iterate gap (max |w - w'| / max |w'| over a
round, the largest over the stream) and the largest |h - h'|. The exit code
is 1 when any stream differs.
"""

import argparse
import hashlib
import os
import struct
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from round_costs import LEARNERS, load_tree  # noqa: E402

SEEDS = (5, 111, 90001)
DIMS = (1, 4, 21)
ROUNDS = 300
TRACE_FIELDS = ("w", "g", "w_next", "beta", "beta_next")


def c1_stream(seed, dim, rounds, drift):
    """(gradients, uniforms) of a C1-shaped stream, as in the tests."""
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(rounds, dim))
    if drift:
        half = max(1, dim // 2)
        G[:, :half] = -2.0 + 0.3 * G[:, :half]
    G *= (rng.uniform(size=rounds) ** (1.0 / dim) / np.linalg.norm(G, axis=1))[:, None]
    G[::7] = 0.0
    return G, rng.uniform(size=rounds)


def streams():
    """(name, class name, seed, dim, drift, traced) of every stream."""
    for cls in LEARNERS:
        for seed in SEEDS:
            for dim in DIMS:
                for drift in (False, True):
                    for traced in (False, True):
                        name = (f"{cls:<22} seed={seed:<5} d={dim:<2} "
                                f"{'drift' if drift else 'plain'} "
                                f"{'traced' if traced else 'untraced'}")
                        yield name, cls, seed, dim, drift, traced


def play(ic, cls, seed, dim, drift, traced):
    """The stream on a fresh learner of the tree ic: per round (the bytes of
    the iterate and of its trace record, the iterate, h or None), and the
    bytes of the counters and the final state."""
    records = []
    learner = getattr(ic.learners, cls)(dim, trace_cb=records.append if traced else None)
    coordinate = cls == "CoordinateImplicitCoin"
    G, U = c1_stream(seed, dim, ROUNDS, drift)
    rounds = []
    for i, (g, u) in enumerate(zip(G, U)):
        if i % 11 == 5 and np.any(g):  # float excess over the bound: renormalised
            g = g * ((1.0 + 5e-10) / (np.max(np.abs(g)) if coordinate else np.linalg.norm(g)))
        if i % 2 == 0:
            loss = 10.0 * u
        else:
            loss = u * 2.0 * float(g @ g) * max(float(np.sum(learner.wealth)), 1e-6) / float(
                np.min(learner.inv_eta))
        w = learner.step(loss, g)
        data, h = [w.tobytes()], None
        if traced:
            tr = records[-1]
            h = tr.h
            data.append(struct.pack("<q4d", tr.t, tr.loss_value, tr.h,
                                    tr.wealth_before, tr.wealth_after))
            data += [np.asarray(getattr(tr, f), dtype=np.float64).tobytes() for f in TRACE_FIELDS]
        rounds.append((b"".join(data), w, h))
    final = [struct.pack("<4q", learner.t, learner.corner_rounds, learner.residual_evals,
                         learner.grad_norm_warnings)]
    final += [np.asarray(getattr(learner, a), dtype=np.float64).tobytes()
              for a in ("beta", "wealth", "inv_eta")]
    return rounds, b"".join(final)


def stream_digest(rounds, final):
    sha = hashlib.sha256()
    for data, _, _ in rounds:
        sha.update(data)
    sha.update(final)
    return sha


def gaps(rounds, other):
    """(first differing round or None, largest relative iterate gap, largest
    |delta h|) of two plays of one stream."""
    first, rel, dh = None, 0.0, 0.0
    for k, ((data, w, h), (data_o, w_o, h_o)) in enumerate(zip(rounds, other), start=1):
        if data != data_o and first is None:
            first = k
        scale = float(np.max(np.abs(w_o)))
        gap = float(np.max(np.abs(w - w_o)))
        if gap:
            rel = max(rel, gap / scale if scale else float("inf"))
        if h is not None:
            dh = max(dh, abs(h - h_o))
    return first, rel, dh


def report(trees, out=None):
    """Print, to out (standard output when None), the digest of every tree
    in trees (name -> package) and, for two trees, each stream's comparison;
    returns the number of streams that differ."""
    names = list(trees)
    totals = {n: hashlib.sha256() for n in names}
    differ = 0
    for name, *stream in streams():
        plays = {n: play(ic, *stream) for n, ic in trees.items()}
        shas = {n: stream_digest(*plays[n]) for n in names}
        for n in names:
            totals[n].update(shas[n].digest())
        line = f"{name}  " + " ".join(shas[n].hexdigest()[:12] for n in names)
        if len(names) == 2:
            (rounds, final), (rounds_o, final_o) = plays[names[0]], plays[names[1]]
            first, rel, dh = gaps(rounds, rounds_o)
            if first is None and final == final_o:
                line += "  identical"
            else:
                differ += 1
                where = f"round {first}" if first is not None else "the counters or final state"
                line += (f"  differs from {where}: largest relative iterate gap {rel:.3g},"
                         f" largest |dh| {dh:.3g}")
        print(line, file=out)
    for n in names:
        print(f"sha256 {totals[n].hexdigest()}  {n}", file=out)
    if len(names) == 2:
        print("all streams identical" if not differ else f"{differ} streams differ", file=out)
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="a source tree holding the implicitcoin package")
    parser.add_argument("--compare", metavar="OTHER_SRC",
                        help="a second source tree, played on the same streams")
    args = parser.parse_args(argv)
    trees = {args.src: load_tree(args.src, "_digest_this")}
    if args.compare:
        trees[args.compare] = load_tree(args.compare, "_digest_other")
    return 1 if report(trees) else 0


if __name__ == "__main__":
    sys.exit(main())
