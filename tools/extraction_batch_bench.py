"""Time one side's stacked extraction against the same records one at a time.

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
alternating order so that host drift falls on both alike; the form's
shifted factors are dropped before each, as each step makes new ones.
Prints one JSON object: per k the median milliseconds of each way over the
rounds, their ratio, and the largest difference of the two results relative
to the largest entry.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uadi.linalg import solve_placed_sylvester  # noqa: E402
from uadi.systems import rlc_ladder  # noqa: E402
from uadi.uadi import uadi_init, uadi_step  # noqa: E402

WIDTHS = (32, 88, 300)
RECORDS = 6
SHIFTS = (-0.05, -0.3 + 0.5j, -0.8, -2.0, -0.1 + 2.0j, -5.0)


def side_at(k):
    """The V side of a Gramian-pair run whose basis first reaches k
    columns with a pair unit."""
    g = rlc_ladder(200)
    st = uadi_init(g, g, None, "lyap_p,lyap_q")
    i = 0
    while st.v.k + 4 < k:
        uadi_step(st, SHIFTS[i % len(SHIFTS)], SHIFTS[i % len(SHIFTS)])
        i += 1
    uadi_step(st, -0.2 + 1.0j, -0.2 + 1.0j)
    return st.v


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


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
            side.schur._shifted.clear()
            return solve_placed_sylvester(side.schur, kp, q, H, U, G)[0]

        def one_by_one():
            side.schur._shifted.clear()
            return np.stack([
                solve_placed_sylvester(side.schur, kp, q, H[i:i + 1], [U[i]], G)[0][0]
                for i in range(RECORDS)])

        times = {"stacked": [], "one_by_one": []}
        for r in range(rounds):
            order = ("stacked", "one_by_one") if r % 2 == 0 else ("one_by_one", "stacked")
            for name in order:
                times[name].append(timed(stacked if name == "stacked" else one_by_one)[0])
        a, b = stacked(), one_by_one()
        med = {name: statistics.median(v) * 1e3 for name, v in times.items()}
        out[f"k={q}"] = {
            "records": RECORDS, "block_columns": q - kp,
            "stacked_ms": med["stacked"], "one_by_one_ms": med["one_by_one"],
            "ratio": med["stacked"] / med["one_by_one"],
            "max_rel_diff": float(np.abs(a - b).max() / np.abs(b).max()),
        }
        print(f"k={q}", {n: round(v, 3) for n, v in med.items()}, file=sys.stderr)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 41)
