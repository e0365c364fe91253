"""Time one side's stacked extraction, and its stacked middle-block step,
against the same records one at a time.

    OMP_NUM_THREADS=1 taskset -c 1 python3 tools/extraction_batch_bench.py [rounds]

Run from the repository root; the package is imported from ``src/``.  For
each basis width k in {32, 88, 300} an engine runs the Gramian pair on
``rlc:200`` (m = p = 2) over a cyclic list of real shifts and pairs until
its V basis holds k columns, and ends on a pair unit, so that the last
block has four columns and two distinct eigenvalues, as at a pair step of
the workloads.  Six records then extract that block against the side's held
Schur form: four with a rank-p Woodbury block U_i and two without, with
random right-hand sides.  Each round times one ``solve_placed_sylvester``
call over the six records stacked, and six calls over batches of one, in
alternating order so that host drift falls on both alike; each call forms
its own shifted factors, as each step does.

The middle-block step is timed the same way: four weighted records' small
Lyapunov equations -s^T X_i - X_i s + Q_i = 0 on the consumed block s of a
real unit and of a pair unit (the last blocks of two sides at k = 32), with
Q_i = l^T l + x_i^T qk_i x_i from random x_i and symmetric qk_i, as one
stacked ``solve_small_lyapunov`` call and as four calls, both against the
negated block of the side's held Schur form, as the engine solves them.

Prints one JSON object: per k, and per middle block, the median
milliseconds of each way over the rounds, their ratio, and the largest
difference of the two results relative to the largest entry.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uadi.linalg import solve_placed_sylvester, solve_small_lyapunov  # noqa: E402
from uadi.systems import rlc_ladder  # noqa: E402
from uadi.uadi import uadi_init, uadi_step  # noqa: E402

WIDTHS = (32, 88, 300)
RECORDS = 6
SHIFTS = (-0.05, -0.3 + 0.5j, -0.8, -2.0, -0.1 + 2.0j, -5.0)


def side_at(k, last=-0.2 + 1.0j):
    """The V side of a Gramian-pair run whose basis first reaches k
    columns with the unit ``last``, a pair unless given."""
    g = rlc_ladder(200)
    st = uadi_init(g, g, None, "lyap_p,lyap_q")
    i = 0
    while st.v.k + 4 < k:
        uadi_step(st, SHIFTS[i % len(SHIFTS)], SHIFTS[i % len(SHIFTS)])
        i += 1
    uadi_step(st, last, last)
    return st.v


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def compare(rounds, ways):
    """Median milliseconds of each way over the rounds, run in alternating
    order, their ratio and the largest relative difference of the results."""
    times = {name: [] for name in ways}
    for r in range(rounds):
        for name in (list(ways) if r % 2 == 0 else list(ways)[::-1]):
            times[name].append(timed(ways[name])[0])
    a, b = (fn() for fn in ways.values())
    med = {name: statistics.median(v) * 1e3 for name, v in times.items()}
    names = list(ways)
    return {**{f"{n}_ms": med[n] for n in names},
            "ratio": med[names[0]] / med[names[1]],
            "max_rel_diff": float(np.abs(a - b).max() / np.abs(b).max())}


def middle_blocks(rounds, rng, records=4):
    """The stacked small Lyapunov solve of ``records`` weighted records
    against one call per record, on a real and on a pair block."""
    out = {}
    for name, last in (("real", -0.7), ("pair", -0.2 + 1.0j)):
        side = side_at(32, last)
        kp, q = side.bounds[-2], side.bounds[-1]
        l, p = side.L[:, kp:q], side.G.shape[1]
        F = -side.schur.block(kp, q)
        x = rng.standard_normal((records, p, q - kp))
        qk = rng.standard_normal((records, p, p))
        Q = l.T @ l + x.swapaxes(1, 2) @ (qk + qk.swapaxes(1, 2)) @ x
        out[name] = {"records": records, "block_columns": q - kp, **compare(rounds, {
            "stacked": lambda: solve_small_lyapunov(F, Q),
            "one_by_one": lambda: np.stack([solve_small_lyapunov(F, Qi) for Qi in Q]),
        })}
        print(name, {k: round(v, 4) for k, v in out[name].items()}, file=sys.stderr)
    return out


def main(rounds):
    rng = np.random.default_rng(0)
    out = {}
    for k in WIDTHS:
        side = side_at(k)
        kp, q = side.bounds[-2], side.bounds[-1]
        G = side.G[:q]
        H = rng.standard_normal((RECORDS, q, q - kp))
        U = [rng.standard_normal(G.shape) if i < 4 else None for i in range(RECORDS)]

        def stacked():
            return solve_placed_sylvester(side.schur, kp, q, H, U, G)[0]

        def one_by_one():
            return np.stack([
                solve_placed_sylvester(side.schur, kp, q, H[i:i + 1], [U[i]], G)[0][0]
                for i in range(RECORDS)])

        out[f"k={q}"] = {"records": RECORDS, "block_columns": q - kp, **compare(
            rounds, {"stacked": stacked, "one_by_one": one_by_one})}
        print(f"k={q}", {n: round(v, 4) for n, v in out[f"k={q}"].items()},
              file=sys.stderr)
    out["middle_block"] = middle_blocks(rounds, rng)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 41)
