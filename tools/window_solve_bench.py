"""Time windowed against whole-block tridiagonal solves on the RLC ladder.

    OMP_NUM_THREADS=1 taskset -c 1 python3 tools/window_solve_bench.py [rounds]

Run from the repository root; the package is imported from ``src/``.  For
each shift of ``perfbench/static_rlc_shifts.txt`` on ``rlc:10000``
(n = 40000, two independent blocks of 20000 rows) and each of
``trans='N'`` and ``'T'``, it factors A + shift*E once and solves the
ports B, the engine's first right-hand side:

- on a fresh split, recording the window each block ends with (the reach)
  and how often its window doubled on the way;
- then, rounds times each and interleaved, the windowed solve starting
  from that reach (``ShiftedFactorization.solve``), the solve on the LU a
  cache makes once its split's frame is all n rows (one gttrs call over
  each whole block, checks included), the factorization a cache makes on
  the reached split (gttrf on the reached rows of each block plus one,
  checks included) and the one it makes with every block reached (one
  gttrf per whole block, checks included).

Prints a markdown table: per shift and trans the reach of each block, its
doublings, the median windowed and whole-block solve times in ms, how
many entries of the whole-block solution are subnormal (nonzero and below
tiny), and the median reached-rows and whole-block factorization times in
ms.
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from uadi.linalg import ShiftedFactorization, _PencilSplit  # noqa: E402
from uadi.systems import rlc_ladder  # noqa: E402

SHIFTS = ROOT / "perfbench" / "static_rlc_shifts.txt"


def shifts():
    """The alpha column of the shift file, in its order."""
    for line in SHIFTS.read_text().splitlines():
        line = line.split("#")[0].split()
        if line:
            yield complex(float(line[0]), float(line[1]))


def ms(fn):
    t0 = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - t0)


def main(rounds):
    g = rlc_ladder(10000)
    tiny = np.finfo(float).tiny
    band = _PencilSplit(g.A, g.E)   # every block reached: its LUs and solves cover every row
    starts = band.bands[2]
    band.ends = dict(zip(starts[:-1].tolist(), starts[1:].tolist()))
    print("| shift | trans | reach (rows per block) | doublings | windowed ms "
          "| whole-block ms | whole-block subnormals | factor reached ms | factor whole ms |")
    print("|---|---|---|---|---|---|---|---|---|")
    for s in shifts():
        for trans in "NT":
            fac = ShiftedFactorization(g.A, g.E, s)
            calls, solve = [], fac._core_solve
            fac._core_solve = lambda b, t, rows=None: calls.append(rows) or solve(b, t, rows)
            fac.solve(g.B, trans=trans)
            ends = sorted(fac._split.ends.items())   # block start -> window end
            starts = [lo for lo, _ in calls]
            doublings = [starts.count(lo) - 1 for lo, _ in ends]
            reach = [end - lo for lo, end in ends]
            fac._core_solve = solve
            split, every = fac._split, ShiftedFactorization(g.A, g.E, s, split=band)
            windowed, full, reached, whole = [], [], [], []
            for _ in range(rounds):   # interleaved, so host drift falls on both
                windowed.append(ms(lambda: fac.solve(g.B, trans=trans)))
                full.append(ms(lambda: every.solve(g.B, trans=trans)))
                reached.append(ms(lambda: ShiftedFactorization(g.A, g.E, s, split=split)))
                whole.append(ms(lambda: ShiftedFactorization(g.A, g.E, s, split=band)))
            x = every.solve(g.B, trans=trans)
            subnormal = int(np.count_nonzero((x != 0) & (np.abs(x) < tiny)))
            print(f"| {s:.4g} | {trans} | {reach} | {doublings} "
                  f"| {statistics.median(windowed):.2f} | {statistics.median(full):.2f} "
                  f"| {subnormal} | {statistics.median(reached):.2f} "
                  f"| {statistics.median(whole):.2f} |")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 21)
