"""Time windowed against full-length tridiagonal solves on the RLC ladder.

    OMP_NUM_THREADS=1 taskset -c 1 python3 tools/window_solve_bench.py [rounds]

Run from the repository root; the package is imported from ``src/``.  For
each shift of ``perfbench/static_rlc_shifts.txt`` on ``rlc:10000``
(n = 40000, two independent blocks of 20000 rows) and each of
``trans='N'`` and ``'T'``, it factors A + shift*E once and solves the
ports B, the engine's first right-hand side:

- on a fresh split, recording the window each block ends with (the reach)
  and how often its window doubled on the way;
- then, rounds times each and interleaved, the windowed solve starting
  from that reach (``ShiftedFactorization.solve``) and one full-length
  gttrs of all n rows.

Prints a markdown table: per shift and trans the reach of each block, its
doublings, the median windowed and full solve times in ms, and how many
entries of the full solution are subnormal (nonzero and below tiny).
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from uadi.linalg import ShiftedFactorization  # noqa: E402
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
    print("| shift | trans | reach (rows per block) | doublings | windowed ms "
          "| full ms | full subnormals |")
    print("|---|---|---|---|---|---|---|")
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
            windowed, full = [], []
            for _ in range(rounds):   # interleaved, so host drift falls on both
                windowed.append(ms(lambda: fac.solve(g.B, trans=trans)))
                full.append(ms(lambda: fac._core_solve(g.B, trans)))
            x = fac._core_solve(g.B, trans)
            subnormal = int(np.count_nonzero((x != 0) & (np.abs(x) < tiny)))
            print(f"| {s:.4g} | {trans} | {reach} | {doublings} "
                  f"| {statistics.median(windowed):.2f} | {statistics.median(full):.2f} "
                  f"| {subnormal} |")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 21)
