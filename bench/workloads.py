"""Seeded workloads: the CLI commands of each one and what they must produce.

Each workload is a list of (argv, spec) pairs.  ``argv`` is what the
program sees; ``spec`` tells ``oracles.py`` how to check the output and is
never shown to the program.  ``--seed`` moves every sweep range by a
sub-spacing offset (all but the fixed L = 8 sweep, see L8_U_RANGE) and
draws the dense-system matrices, so a claim can be rechecked on a seed not
used while it was written.  Inputs are written to files before any timing
starts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WHY = {
    "phase-grid": (
        "41x41 (u, gamma) phase-diagram: 3362 small GIL-bound winding and "
        "state_components calls; no lattice build, no dense eigensolve"
    ),
    "chain-spectra": (
        "L=150 band spectra, open and periodic, 41 u each: dense non-Hermitian "
        "eigvals, lattice build and 17-digit CSV; no winding, no logarithm"
    ),
    "steady-state": (
        "every route of the effective layer: L=500 Fig-4 density and log-domain "
        "split, L=8 extreme sweep, L=50 direct sweep; winding and eigvals unused"
    ),
    "dense-system": (
        "seeded dim-30 matrix files through classify, metric and theorem3-demo: "
        "the only workload reaching statmech, biortho, symmetry and matrixio"
    ),
}
NAMES = tuple(WHY)

# Extreme-coupling points of the paper's Fig. 4 (acceptance criterion 5):
# j = sqrt(1.6e4) and |gamma| = j - sqrt(2.5e-10), at full precision.
FIG4_J = math.sqrt(1.6e4)
FIG4_GAMMA = FIG4_J - math.sqrt(2.5e-10)
# Fixed u points of the L = 8 sweep, inside (u_c-, u_c+) = (-0.17, 1.83) of
# the topological Fig-4 point and including its u = 1.2.  The stitched
# log-domain split is wrong at some of them and right at others, so an
# offset here would make the number of oracle misses depend on the seed.
L8_U_RANGE = ("0", "1.6", "5")
DENSE_DIM = 30


@dataclass(frozen=True)
class Workload:
    commands: list  # [(argv, spec)]

    @property
    def argvs(self) -> list:
        return [argv for argv, _ in self.commands]


def _num(x: float) -> str:
    return repr(float(x))


def _sweep(rng, start: float, stop: float, count: int) -> list:
    """START STOP COUNT moved by a seeded offset of at most a quarter spacing."""
    shift = (stop - start) / (count - 1) * rng.uniform(-0.25, 0.25)
    return [_num(start + shift), _num(stop + shift), str(count)]


def _phase_grid(rng, small):
    n, extra = (11, ["--k-grid", "401"]) if small else (41, [])
    u = _sweep(rng, -1.5, 2.0, n)
    g = _sweep(rng, -0.9, 0.9, n)
    argv = ["phase-diagram", "--t", "0.5", "--j", "1", "--temperature", "0.2",
            "--threads", "1", "--u-range", *u, "--gamma-range", *g, *extra]
    return [(argv, {"kind": "phase", "t": 0.5, "j": 1.0, "temperature": 0.2})]


def _chain_spectra(rng, small):
    cells, n = (20, 5) if small else (150, 41)
    commands = []
    for bc in ("open", "periodic"):
        argv = ["spectrum-scan", "--which", "bands", "--cells", str(cells),
                "--t", "1", "--j", "1", "--gamma", "0.5",
                "--u-range", *_sweep(rng, -2.0, 2.0, n), "--bc", bc]
        spec = {"kind": "bands", "bc": bc, "cells": cells,
                "t": 1.0, "j": 1.0, "gamma": 0.5}
        commands.append((argv, spec))
    return commands


def _steady_state(rng, small):
    fig4 = ["--t", "1", "--j", _num(FIG4_J), "--bc", "open"]
    topo = {"t": 1.0, "j": FIG4_J, "gamma": FIG4_GAMMA, "temperature": 0.1}
    density = [
        (["density", "--cells", "500", "--u", "1.2", "--gamma", _num(FIG4_GAMMA),
          "--temperature", "0.1", *fig4],
         {"kind": "density", "particles": 501, "accumulation": "topological"}),
        (["density", "--cells", "500", "--u", "0", "--gamma", _num(-FIG4_GAMMA),
          "--temperature", "0.15", *fig4],
         {"kind": "density", "particles": 501, "accumulation": "trivial"}),
    ]
    effective = ["spectrum-scan", "--which", "effective"]
    n = 9 if small else 81
    spectra = [
        ([*effective, "--cells", "500", "--u-range", "1.2", "1.2", "1",
          "--gamma", _num(FIG4_GAMMA), "--temperature", "0.1", *fig4],
         {"kind": "effective", "cells": 500, "reference": None, **topo}),
        ([*effective, "--cells", "8", "--u-range", *L8_U_RANGE,
          "--gamma", _num(FIG4_GAMMA), "--temperature", "0.1", *fig4],
         {"kind": "effective", "cells": 8, "reference": "mpmath", **topo}),
        ([*effective, "--cells", "50", "--u-range", *_sweep(rng, -2.0, 2.0, n),
          "--t", "1", "--j", "1", "--gamma", "0.5", "--temperature", "1",
          "--bc", "open"],
         {"kind": "effective", "cells": 50, "reference": "double",
          "t": 1.0, "j": 1.0, "gamma": 0.5, "temperature": 1.0}),
    ]
    return density + spectra


def _format_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def _write_matrix_file(path, blocks) -> None:
    n = blocks[0].shape[0]
    lines = [f"{n} {len(blocks) - 1}"]
    for block in blocks:
        lines.extend(" ".join(_format_complex(z) for z in row) for row in block)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _dense_system(rng, n, complex_spectrum):
    """H = R E R^-1 with metric T = R diag(w) R^dagger and couplings [T, T^2].

    With a complex spectrum a third of the modes keep Im E = 0 and the rest
    decay; the reduced metric on the kept modes is then diag(w) there.
    """
    basis = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    right = basis + 3.0 * np.eye(n)
    right /= np.linalg.norm(right, axis=0)
    energies = np.sort(rng.uniform(-1.0, 1.0, n)).astype(complex)
    if complex_spectrum:
        lossy = rng.choice(n, n - n // 3, replace=False)
        energies[lossy] -= 1j * rng.uniform(0.2, 0.6, lossy.size)
    weights = rng.uniform(0.5, 2.0, n)
    h = (right * energies) @ np.linalg.inv(right)
    t = (right * weights) @ right.conj().T
    return h, t, energies, weights


def _dense(rng, small, outdir):
    n = 10 if small else DENSE_DIM
    commands = []
    paths = {}
    for label, complex_spectrum in (("complex", True), ("real", False)):
        h, t, energies, weights = _dense_system(rng, n, complex_spectrum)
        path = os.path.join(outdir, f"{label}.txt")
        _write_matrix_file(path, [h, t, t @ t])
        paths[label] = path
        spec = {"kind": "metric", "metric": t, "energies": energies, "weights": weights}
        commands.append((["classify", path, "--format", "json"], {"kind": "classify"}))
        commands.append((["metric", path, "--format", "json"], spec))
    commands.append(
        (["theorem3-demo", paths["complex"], "--alphas", "1e2", "1e3", "1e4"],
         {"kind": "theorem3"})
    )
    return commands


def build(name: str, seed: int, outdir: str, small: bool = False) -> Workload:
    """Generate the workload's inputs under ``outdir`` and return its commands."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng(seed)
    if name == "phase-grid":
        commands = _phase_grid(rng, small)
    elif name == "chain-spectra":
        commands = _chain_spectra(rng, small)
    elif name == "steady-state":
        commands = _steady_state(rng, small)
    else:
        commands = _dense(rng, small, outdir)
    workload = Workload(commands=commands)
    with open(os.path.join(outdir, "commands.json"), "w", encoding="utf-8") as fh:
        json.dump(workload.argvs, fh, indent=1)
    return workload
