"""Fixed kernels owned by the benchmark, used to report times at a
reference speed.

The CPU speed of a shared machine drifts by tens of percent over minutes,
and every timing of the program drifts with it.  A change to the program
cannot change these kernels' cost, so their time tracks the machine: a time
divided by the current slowdown (kernel time / its nominal time) is the
time at the reference speed.

Two kernels, because work of different kinds slows differently under the
same contention:

- ``bulk``: an interpreter loop, then one scan-sized block (a 64-map
  einsum over 384 states, clipped and raised to a power, a few MB of
  temporaries).  It tracks the scan, whose blocks slow with memory traffic
  more than cache-resident work does, and the set-up processes.  On six
  noisy 25 s ``scan`` runs it cut the spread of ``op_p90_ms`` against a
  cache-resident kernel by three quarters.
- ``small``: a loop of numpy calls on 4x4 arrays (``eigh``, two matmuls, a
  power and a clipped sum), where per-call overhead dominates.  It tracks
  the search and both positivity workloads, whose time is spent the same
  way (the n=64 pair sweep is a Python loop over numpy scalars); on one
  25 s run of ``positivity_small`` it left a fifth of the drift the
  ``bulk`` kernel left.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Kernel times at the reference speed of the machine where the benchmark
#: was defined (2-core Xeon, family 6 model 143, quiet period).  The
#: ``bulk`` value is the ``small`` one times the median ratio of the two,
#: timed interleaved.
NOMINAL_S = {"bulk": 0.0055, "small": 0.0022}


class Reference:
    """Times one of the kernels and keeps every sample."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self._maps = rng.random((64, 6, 6)) / 6.0
        self._states = rng.random((384, 6))
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self._small = z + z.conj().T
        self._kernel = {"bulk": self._bulk, "small": self._small_calls}[kind]
        self.nominal_s = NOMINAL_S[kind]
        self.samples: list[float] = []

    def _bulk(self) -> None:
        total = 0
        for i in range(6_000):
            total += i * i
        images = np.einsum("mij,sj->msi", self._maps, self._states)
        np.sum(np.clip(images, 0.0, 1.0) ** 1.5, axis=-1)

    def _small_calls(self) -> None:
        small = self._small
        for _ in range(80):
            _, v = np.linalg.eigh(small)
            x = np.abs(v.conj().T @ small @ v) ** 2
            float(np.sum(np.clip(x, 0.0, 1.0)))

    def measure(self) -> None:
        start = perf_counter()
        self._kernel()
        self.samples.append(perf_counter() - start)

    def scale(self, first: int = 0) -> float:
        """Slowdown against the nominal speed over samples[first:]."""
        return statistics.median(self.samples[first:]) / self.nominal_s

    def scale_between(self, index: int) -> float:
        """Slowdown over sample ``index`` and the next one, which bracket
        the work done between them."""
        return statistics.fmean(self.samples[index : index + 2]) / self.nominal_s
