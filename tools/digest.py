"""Same-numbers digest of every algorithm over fuzz streams.

    python3 tools/digest.py SRC [--compare OTHER_SRC]

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
