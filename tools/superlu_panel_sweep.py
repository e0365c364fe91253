"""Time SuperLU's panel size and supernode relaxation on shifted pencils.

    OMP_NUM_THREADS=1 taskset -c 1 python3 tools/superlu_panel_sweep.py [rounds]

Run from the repository root; the package is imported from ``src/``.  It
times SuperLU on whole pencils, decoupled states included, which
``ShiftedFactorization`` no longer passes to SuperLU: there penzl's
pencils are factored as their 6 x 6 coupled core, and the RLC ladders,
tridiagonal in their stored order, by LAPACK gttrf, so their pencils here
never reach SuperLU in the engine.  For each pencil
A + shift*E (the three generators' pencils, a 2-D 5-point
stencil and a dense random system, each at one complex and one real shift)
every setting of PanelSize in {default, 1, 2, 4} times Relax in
{default, 1} factors the pencil once per round, settings interleaved, so
that host drift falls on all settings alike.  Prints one JSON object: per
pencil and shift the median seconds of each setting over the rounds, its
ratio to scipy's defaults, and how far its L and U are from the
default's.
"""

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uadi.systems import penzl_triple_peak, random_stable_system, rlc_ladder  # noqa: E402

SETTINGS = [(p, r) for p in (None, 1, 2, 4) for r in (None, 1)]
SHIFTS = {"complex": -1.0 + 20.0j, "real": -1.0}


def stencil(side):
    """5-point Laplacian on a side x side grid with a non-identity diagonal
    E: the fill of a 2-D problem, where supernodes exist."""
    T = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
    I = sps.identity(side)
    A = -(sps.kron(I, T) + sps.kron(T, I))
    E = sps.diags(1.0 + 0.5 * np.random.default_rng(0).random(side * side))
    return A.tocsc(), E.tocsc()


def pencils():
    for name, sys_ in (("penzl:30000", penzl_triple_peak(30000, 10, 20, 30)),
                       ("rlc:10000", rlc_ladder(10000)),
                       ("rlc:1000", rlc_ladder(1000)),
                       ("random_stable_system(300)",
                        random_stable_system(300, 1, 1, 0))):
        yield name, sys_.A, sys_.E
    yield "stencil 100x100", *stencil(100)


def factor(M, setting):
    panel, relax = setting
    return splu(M, panel_size=panel, relax=relax)


def factor_change(M, setting):
    """0.0 when the setting's L and U equal the default's bit for bit, else
    their largest entry change relative to the largest entry; None when
    the row or column permutation differs."""
    ref, lu = factor(M, (None, None)), factor(M, setting)
    if not (np.array_equal(ref.perm_r, lu.perm_r)
            and np.array_equal(ref.perm_c, lu.perm_c)):
        return None
    return max(abs(a - b).max() / abs(a).max()
               for a, b in ((ref.L, lu.L), (ref.U, lu.U)))


def main(rounds):
    out = {}
    for name, A, E in pencils():
        for kind, s in SHIFTS.items():
            M = (A + s * E).tocsc()
            times = {st: [] for st in SETTINGS}
            for _ in range(rounds):
                for st in SETTINGS:
                    t0 = time.perf_counter()
                    factor(M, st)
                    times[st].append(time.perf_counter() - t0)
            base = statistics.median(times[(None, None)])
            lu = factor(M, (None, None))
            out[f"{name} {kind}"] = {
                "n": M.shape[0], "nnz": M.nnz, "nnz_LU": lu.L.nnz + lu.U.nnz,
                "settings": {
                    f"PanelSize={p or 'default'} Relax={r or 'default'}": {
                        "median_s": statistics.median(times[(p, r)]),
                        "ratio": statistics.median(times[(p, r)]) / base,
                        "factor_change": factor_change(M, (p, r)),
                    } for p, r in SETTINGS},
            }
            print(name, kind, {k: round(v["ratio"], 3)
                               for k, v in out[f"{name} {kind}"]["settings"].items()},
                  file=sys.stderr)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 9)
