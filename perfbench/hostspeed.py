"""Host-speed probe: time metrics in reference seconds on a shared host.

The 2-core sandbox this benchmark was built on shares its cores with other
tenants. The same numpy code there runs up to 1.7x slower for stretches of
seconds to minutes, and CPU time slows with wall time, so it is contention
and not descheduling. Medians of wall-clock runs/s from 36 s runs spread
by up to 39% between runs.

The probe is a frozen copy of one Euler-Maruyama step of the phase
integrator (trig, the two sparse products with the workload's own coupling
matrix, noise, wrap), built by the benchmark, not by oimsim. It is timed
before and after each repetition. probe_s / reference_s is the host factor:
how much slower the host ran than the reference host's fast state. Wall
times divided by it are reference seconds. Because the probe never changes,
a change to oimsim moves the program's time and not the probe's.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

PROBE_BATCH = 10  # columns, as in one of the harness's 10-seed work units


def coupling_matrix(ref):
    """Symmetric CSR matrix of a workload Ref, built from its edge list."""
    rows = np.concatenate([ref.ei, ref.ej])
    cols = np.concatenate([ref.ej, ref.ei])
    return sp.csr_matrix((np.concatenate([ref.J, ref.J]), (rows, cols)),
                         shape=(ref.n, ref.n))


def probe(adj, steps):
    """Seconds for `steps` frozen integrator steps on a (n, 10) phase block."""
    rng = np.random.default_rng(0)
    phi = rng.random((adj.shape[0], PROBE_BATCH)) * (2 * np.pi)
    start = time.perf_counter()
    for _ in range(steps):
        c = np.cos(phi)
        s = np.sin(phi)
        g = s * (adj @ c)
        g -= c * (adj @ s)
        g *= 0.01
        g += 0.02 * (s * c)
        phi -= g
        phi += 0.01 * rng.standard_normal(phi.shape)
        np.mod(phi, 2 * np.pi, out=phi)
    return time.perf_counter() - start
