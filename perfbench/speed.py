"""Machine-speed probes: fixed numpy kernels timed between the parts of a measured op.

The reference machine is a 2-vCPU microVM on a shared host.  Its speed per
CPU second swings by up to 1.6x within seconds and drifts over minutes (CPU
time tracks wall time through these swings, so they are not scheduling
gaps).  A measured run therefore times a probe kernel, which does not touch
scip, between the parts of each op and scales the time of each part by the
probe's reference time over the mean of the readings on both sides of it:
times are reported as they would read with the probe taking ``ref_s``.  A
change to scip moves the scaled times as it moves the raw ones; a swing in
the machine's speed moves both the op and the probe and largely cancels.

Each workload has a probe that slows as its ops do.  The interpreter-bound
sweep follows small-array numpy calls in a Python loop; the large-array
pool follows random-access binary search over an 8 MB array (it barely
follows the small-array kernel: scaled by it, its spread grew).  Set-up
(imports, data generation, one warm-up op) follows the pool probe more
closely than the sweep probe, for both workloads; it is scaled by
``SETUP_READS`` pool-probe readings taken just before the measuring process
starts and as many taken, while it waits, just after it is ready.
"""

from __future__ import annotations

import time

import numpy as np

SETUP_READS = 3


class Probe:
    """A fixed kernel and the seconds it takes on the reference machine at full speed."""

    def __init__(self, kernel, ref_s: float):
        self.kernel = kernel
        self.ref_s = ref_s

    def read(self) -> float:
        """Seconds one kernel run takes now."""
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def factors(self, readings) -> np.ndarray:
        """Scale factor of each interval between consecutive readings."""
        r = np.asarray(readings)
        return self.ref_s * 2.0 / (r[:-1] + r[1:])


def sweep_probe() -> Probe:
    """Logistic-regression gradient descent on 1000 x 10 rows plus one sort of 4e5 floats (about 10 ms)."""
    gen = np.random.default_rng(20240601)
    x = gen.random((1000, 10))
    y = (x[:, 0] + 0.2 * gen.standard_normal(1000) > 0.5).astype(float)
    v = gen.random(400_000)

    def kernel():
        w = np.zeros(10)
        for _ in range(300):
            p = 1.0 / (1.0 + np.exp(-(x @ w)))
            w -= 0.1 * (x.T @ (p - y)) / x.shape[0]
        return float(w.sum() + np.sort(v)[200_000])

    return Probe(kernel, 0.010)


def pool_probe() -> Probe:
    """Binary search of 5e4 random keys in 1e6 sorted floats (about 25 ms)."""
    gen = np.random.default_rng(20240602)
    table = np.sort(gen.random(1_000_000))
    keys = gen.random(50_000)
    return Probe(lambda: np.searchsorted(table, keys), 0.025)
