"""Fixed reference kernel that gauges the host's speed around each job.

On a shared host the same job's wall time drifts by up to 1.7x within
minutes (other tenants' load), which no run length averages away.  The
kernel below does a fixed amount of the three kinds of work a `uadi solve`
job is made of (interpreted Python, LAPACK at the size of the basis, a
sparse LU with solves) using numpy and scipy only, never the uadi package,
so no change to the program can change it.  run.py times it on the CPU
its jobs are pinned to, before the first job and after every job, and
divides each job's times by the mean of the two passes around it over
``NOMINAL_S`` so that they read as seconds at a fixed host speed.
"""

from time import perf_counter

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spsla

# About the kernel's median time on a 2-vCPU KVM Xeon (Sapphire Rapids, one
# BLAS thread).  Only a scale: every time is divided by the same constant.
NOMINAL_S = 0.25
_N_SPARSE = 20000


def _inputs():
    rng = np.random.default_rng(0)
    tall = rng.standard_normal((4000, 88))
    small = rng.standard_normal((88, 88)) - 30.0 * np.eye(88)
    n = _N_SPARSE
    band = sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1),
                     -0.5 * np.ones(n - 50)], [-1, 0, 1, 50], format="csc")
    shifted = (band + (0.3 + 0.7j) * sp.identity(n, format="csc")).tocsc()
    rhs = rng.standard_normal((n, 4)).astype(complex)
    return tall, small, shifted, rhs


_TALL, _SMALL, _SHIFTED, _RHS = _inputs()


def _python():
    acc = {}
    for i in range(120000):
        acc[i % 997] = acc.get(i % 997, 0.0) + i * 0.5
    return acc


def _dense():
    for _ in range(2):
        _, r = np.linalg.qr(_TALL)
        spla.solve_sylvester(_SMALL, _SMALL.T, r)


def _sparse():
    spsla.splu(_SHIFTED).solve(_RHS)


def measure():
    """Wall seconds of one pass of the kernel."""
    t = perf_counter()
    _python()
    _dense()
    _sparse()
    return perf_counter() - t
