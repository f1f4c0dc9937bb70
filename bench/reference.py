"""Fixed reference kernels, one per workload, timed between passes.

The host these benchmarks run on is shared, and its speed drifts by 10-30%
over minutes: a pass and a numpy call of the same kind slow down together.
Each workload therefore has a reference kernel that does the kind of work
its passes spend their time on, built only from numpy on fixed inputs
(its own constant seed, never ``--seed``), so that no change to nhtopo can
change it.  ``run.py`` times one reference call before every pass and
reports the median pass time divided by the median reference time; the
drift cancels in that ratio, and a faster program lowers it in proportion.
A reference call takes about half as long as a pass: the ratio's noise
is that of both medians, so a short reference would dominate it.

    phase-grid     2500 rounds of the winding loop: a 2001-point k stack of
                   2x2 blocks, a stacked det, angle, unwrap and sum
    chain-spectra  40 dense non-Hermitian eigvals at 2L = 300
    steady-state   4 complex Hermitian eighs at 2L = 1000
    dense-system   2 full-matrices SVDs of a 3600 x 30 constraint matrix
"""

from __future__ import annotations

import numpy as np

REFERENCE_SEED = 20231106

# CPU seconds of one reference call on the machine the baseline figures in
# README.md were measured on.  ``setup_s`` is scaled by NOMINAL_S over the
# run's median reference time, so that it too reads at that machine's speed.
NOMINAL_S = {
    "phase-grid": 0.964,
    "chain-spectra": 1.872,
    "steady-state": 1.547,
    "dense-system": 0.474,
}


def _winding_loop():
    k = np.linspace(-np.pi, np.pi, 2001)
    rotation = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

    def run():
        total = 0.0
        for i in range(2500):
            u = -1.5 + 3.5 * i / 2499
            h = np.empty((k.size, 2, 2), dtype=complex)
            h[:, 0, 0] = h[:, 1, 1] = 0.0
            h[:, 0, 1] = u + 0.5 * np.exp(-1j * k) + 0.1j
            h[:, 1, 0] = u + 0.5 * np.exp(1j * k) - 0.1j
            q = (rotation.conj().T @ h @ rotation)[:, :1, 1:]
            phase = np.unwrap(np.angle(np.linalg.det(q)))
            total += float(np.round((phase[-1] - phase[0]) / (2.0 * np.pi)))
        return total

    return run


def _eigvals(rng):
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    return lambda: [np.linalg.eigvals(a) for _ in range(40)]


def _eigh(rng):
    a = rng.standard_normal((1000, 1000)) + 1j * rng.standard_normal((1000, 1000))
    a = a + a.conj().T
    return lambda: [np.linalg.eigh(a) for _ in range(4)]


def _svd(rng):
    a = rng.standard_normal((3600, 30))
    return lambda: [np.linalg.svd(a) for _ in range(2)]


_BUILDERS = {
    "phase-grid": lambda rng: _winding_loop(),
    "chain-spectra": _eigvals,
    "steady-state": _eigh,
    "dense-system": _svd,
}


def kernel(workload: str):
    """The zero-argument reference callable of ``workload``."""
    return _BUILDERS[workload](np.random.default_rng(REFERENCE_SEED))
