"""Command-line front end.

Subcommands
-----------
phase-diagram
    Sweep (u, gamma) and emit the invariant pair with its region label.
spectrum-scan
    Open/periodic-chain spectra along a u sweep, with zero-mode flags.
density
    Per-cell occupations of the lowest-N effective filling.
winding
    Band and state winding numbers along a u sweep.
classify
    Symmetry report and tenfold class of a matrix-file Hamiltonian.
metric
    Metric operator, mode weights, occupations and effective Hamiltonian
    of a matrix-file system (automatic max-Im reduction for complex
    spectra).
theorem3-demo
    Discrepancy between the reduced and large-alpha steady states over a
    list of alpha values.

Every subcommand honors ``--format {csv,json}``, ``--out PATH`` (default
stdout), ``--threads N`` (default NHTOPO_THREADS or all cores) and the
``--tol-*`` overrides.  A config file of ``key = value`` lines supplies
defaults that explicit flags override.  Exit codes: 0 success, 1
usage/parse error, 2 numerical failure, 3 not thermalizable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import matrixio
from .effective import critical_points, density_profile, edge_accumulation
from .errors import (
    DefectiveError,
    DegenerateFillingError,
    GapClosedError,
    NHTopoError,
    NotPositiveDefiniteError,
    NotThermalizableError,
    OnBoundaryError,
)
from .model import BoundaryCondition, ModelParams
from .statmech import (
    GeneralSystem,
    effective_from_general,
    imaginary_shift_normalize,
    max_im_projector,
    solve_metric,
    steady_probabilities,
    theorem3_check,
)
from .symmetry import SymmetryOp, build_report, classify, model_symmetry_ops
from .winding import REGION_LABELS, band_invariant, spectrum_scan, state_invariant

_EXIT_USAGE = 1
_EXIT_NUMERICAL = 2
_EXIT_NOT_THERMALIZABLE = 3


def _fmt(x) -> str:
    """Locale-independent float formatting at 17 significant digits."""
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(_EXIT_USAGE)


def _thread_default() -> int:
    env = os.environ.get("NHTOPO_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"NHTOPO_THREADS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _read_config(path: str) -> dict:
    """Parse a plain ``key = value`` config file into option overrides."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            overrides[key.strip().replace("-", "_")] = value.strip()
    return overrides


def _coerce(value: str, like):
    if isinstance(like, bool):
        return value.lower() in ("1", "true", "yes", "on")
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    if isinstance(like, (list, tuple)):
        parts = value.split()
        return [_coerce(p, like[0] if like else 0.0) for p in parts]
    return value


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags (flags parsed as None when unset)."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        overrides = _read_config(args.config)
        for key, text in overrides.items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _coerce(text, merged[key])
    for key in merged:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _params_from(cfg: dict, u: float | None = None) -> ModelParams:
    return ModelParams(
        u=cfg["u"] if u is None else u,
        t=cfg["t"],
        j=cfg["j"],
        gamma=cfg["gamma"],
        temperature=cfg["temperature"],
        cells=cfg["cells"],
    )


def _bc_from(cfg: dict) -> BoundaryCondition:
    return BoundaryCondition(cfg["bc"])


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(header: list[str], rows: list[list[str]], cfg: dict) -> None:
    if cfg["format"] == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=1) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write_output(text, cfg["out"])


def _complex_matrix_json(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


# ---------------------------------------------------------------------------
# sweep subcommands
# ---------------------------------------------------------------------------

def _linspace(rng) -> np.ndarray:
    start, stop, count = rng
    count = int(count)
    if count < 1:
        raise ValueError("range count must be >= 1")
    return np.linspace(float(start), float(stop), count)


def cmd_phase_diagram(cfg: dict) -> int:
    u_values = _linspace(cfg["u_range"])
    g_values = _linspace(cfg["gamma_range"])
    grid = int(cfg["k_grid"])

    def one_point(point):
        u, g = point
        try:
            p = dataclasses.replace(_params_from(cfg, u=float(u)), gamma=float(g))
        except ValueError as exc:
            return [_fmt(u), _fmt(g), "", "", "", str(exc)]
        boundaries = [-p.t, p.t, *critical_points(p)]
        if min(abs(p.u - b) for b in boundaries) < 1e-9:
            return [_fmt(u), _fmt(g), "", "", "boundary", ""]
        try:
            w_band = band_invariant(p, grid).value
            w_state = state_invariant(p, grid).value
        except NHTopoError as exc:
            return [_fmt(u), _fmt(g), "", "", "", str(exc)]
        label = REGION_LABELS.get((w_band, w_state), "")
        return [_fmt(u), _fmt(g), str(w_band), str(w_state), label, ""]

    points = [(u, g) for u in u_values for g in g_values]  # u-major order
    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        rows = list(pool.map(one_point, points))
    _emit_rows(["u", "gamma", "W", "w", "region", "error"], rows, cfg)
    return 0


def cmd_spectrum_scan(cfg: dict) -> int:
    u_values = _linspace(cfg["u_range"])
    scan = spectrum_scan(
        _params_from(cfg),
        u_values,
        _bc_from(cfg),
        which=cfg["which"],
        zero_mode_fraction=cfg["tol_zero_mode"],
    )
    rows = []
    for i, u in enumerate(scan.u_values):
        tol = scan.zero_mode_tols[i]
        for idx, e in enumerate(scan.eigenvalues[i]):
            rows.append(
                [
                    _fmt(u),
                    str(idx),
                    _fmt(e.real),
                    _fmt(e.imag),
                    str(bool(abs(e) < tol)).lower(),
                ]
            )
    _emit_rows(["u", "index", "re_E", "im_E", "is_zero_mode"], rows, cfg)
    return 0


def cmd_density(cfg: dict) -> int:
    params = _params_from(cfg)
    n = cfg["particles"] if cfg["particles"] >= 0 else params.cells + 1
    profile = density_profile(params, _bc_from(cfg), n)
    acc = edge_accumulation(profile)
    if cfg["format"] == "json":
        payload = {
            "cells": list(range(1, profile.cells + 1)),
            "occupation": [float(x) for x in profile.per_cell],
            "n_particles": profile.n_particles,
            "edge_accumulation": acc,
        }
        _write_output(json.dumps(payload, indent=1) + "\n", cfg["out"])
        return 0
    rows = [[str(i + 1), _fmt(x)] for i, x in enumerate(profile.per_cell)]
    rows.append(["edge_accumulation", _fmt(acc)])
    _emit_rows(["cell", "occupation"], rows, cfg)
    return 0


def cmd_winding(cfg: dict) -> int:
    u_values = _linspace(cfg["u_range"])
    grid = int(cfg["k_grid"])

    def one_point(u):
        p = _params_from(cfg, u=float(u))
        try:
            w_band = str(band_invariant(p, grid).value)
        except GapClosedError:
            w_band = ""
        try:
            w_state = str(state_invariant(p, grid).value)
        except GapClosedError:
            w_state = ""
        return [_fmt(u), w_band, w_state]

    with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
        rows = list(pool.map(one_point, u_values))
    _emit_rows(["u", "W", "w"], rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# matrix-file subcommands
# ---------------------------------------------------------------------------

def _load_op(path: str | None, antiunitary: bool) -> SymmetryOp | None:
    if not path:
        return None
    u, _ = matrixio.load(path)
    return SymmetryOp(unitary=u, antiunitary=antiunitary)


def cmd_classify(cfg: dict) -> int:
    h, _ = matrixio.load(cfg["matrix_file"])
    if cfg["model_ops"]:
        if h.shape[0] % 2:
            raise ValueError("--model-ops needs an even-dimensional matrix")
        ops = model_symmetry_ops(h.shape[0] // 2)
    else:
        ops = {
            "trs_op": _load_op(cfg["trs_file"], antiunitary=True),
            "phs_op": _load_op(cfg["phs_file"], antiunitary=False),
            "chiral_op": _load_op(cfg["chiral_file"], antiunitary=False),
            "sublattice_op": _load_op(cfg["sublattice_file"], antiunitary=False),
        }
    report = build_report(
        h,
        ordinary_tol=cfg["tol_ordinary"],
        linearized_tol=cfg["tol_linearized"],
        degeneracy_tol=cfg["tol_degeneracy"],
        **ops,
    )
    label = classify(report)
    payload = {
        "report": {
            "phs": report.phs,
            "trs": report.trs,
            "cs": report.cs,
            "sublattice": report.sublattice,
            "ltrs": report.ltrs,
            "lcs": report.lcs,
            "phs_square": report.phs_square,
            "trs_square": report.trs_square,
            "ltrs_square": report.ltrs_square,
            "residuals": {k: float(v) for k, v in report.residuals.items()},
        },
        "class": {
            "state_class": label.state_class,
            "band_class_of_effective": label.band_class_of_effective,
            "invariant_groups": list(label.invariant_groups),
        },
    }
    if cfg["format"] == "json":
        _write_output(json.dumps(payload, indent=1) + "\n", cfg["out"])
        return 0
    rows = []
    for key, value in payload["report"].items():
        if key == "residuals":
            for rk, rv in value.items():
                rows.append([f"residual_{rk}", _fmt(rv)])
        else:
            rows.append([key, str(value).lower() if isinstance(value, bool) else str(value)])
    for key, value in payload["class"].items():
        rows.append([key, ";".join(value) if isinstance(value, list) else str(value)])
    _emit_rows(["key", "value"], rows, cfg)
    return 0


def cmd_metric(cfg: dict) -> int:
    h, couplings = matrixio.load(cfg["matrix_file"])
    beta = cfg["beta"]
    system = GeneralSystem(h=h, couplings=couplings)

    from .biortho import biorthogonal_eig

    dec = biorthogonal_eig(h, cfg["tol_degeneracy"])
    radius = float(np.max(np.abs(dec.eigenvalues)))
    complex_spectrum = bool(
        np.max(np.abs(dec.eigenvalues.imag)) > 1e-8 * max(1.0, radius)
    )
    retained = None
    if complex_spectrum:
        shifted = imaginary_shift_normalize(h, cfg["tol_degeneracy"])
        reduced = max_im_projector(
            GeneralSystem(h=shifted, couplings=couplings),
            degeneracy_tol=cfg["tol_degeneracy"],
        )
        idx = reduced.retained
        r_s = reduced.basis.right[:, idx]
        l_s = reduced.basis.left[:, idx]
        small = GeneralSystem(
            h=np.diag(reduced.basis.eigenvalues[idx].real).astype(complex),
            couplings=[l_s.conj().T @ c @ r_s for c in couplings],
        )
        solution = solve_metric(small, cfg["tol_degeneracy"], cfg["tol_nullspace"])
        probs = steady_probabilities(small.h, solution.t_c, beta)
        h_eff = effective_from_general(small.h, solution.t_c, beta)
        retained = [int(i) for i in idx]
    else:
        solution = solve_metric(system, cfg["tol_degeneracy"], cfg["tol_nullspace"])
        probs = steady_probabilities(h, solution.t_c, beta)
        h_eff = effective_from_general(h, solution.t_c, beta)

    payload = {
        "path": "reduced" if complex_spectrum else "direct",
        "t_c": _complex_matrix_json(solution.t_c),
        "mode_weights": [float(w) for w in solution.mode_weights],
        "probabilities": [float(p) for p in probs],
        "h_eff": _complex_matrix_json(h_eff),
        "nullspace_dim": solution.nullspace_dim,
        "residuals": {k: float(v) for k, v in solution.residuals.items()},
    }
    if retained is not None:
        payload["retained_modes"] = retained
    if cfg["format"] == "json":
        _write_output(json.dumps(payload, indent=1) + "\n", cfg["out"])
        return 0
    rows = [["path", "", "", payload["path"], ""]]
    for name in ("t_c", "h_eff"):
        for i, row in enumerate(payload[name]):
            for jj, (re, im) in enumerate(row):
                rows.append([name, str(i), str(jj), _fmt(re), _fmt(im)])
    for i, w in enumerate(payload["mode_weights"]):
        rows.append(["mode_weight", str(i), "", _fmt(w), ""])
    for i, p in enumerate(payload["probabilities"]):
        rows.append(["probability", str(i), "", _fmt(p), ""])
    if retained is not None:
        for i in retained:
            rows.append(["retained_mode", str(i), "", "", ""])
    rows.append(["nullspace_dim", "", "", str(payload["nullspace_dim"]), ""])
    for k, v in payload["residuals"].items():
        rows.append([f"residual_{k}", "", "", _fmt(v), ""])
    _emit_rows(["field", "i", "j", "value", "im"], rows, cfg)
    return 0


def _demo_system(seed: int, dim: int) -> GeneralSystem:
    """Thermalizable complex-spectrum system for the theorem3 demo."""
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    basis += 3.0 * np.eye(dim)
    n_top = max(2, dim // 3)
    energies = np.sort(rng.uniform(-1.0, 1.0, dim)).astype(complex)
    energies[: dim - n_top] -= 1j * rng.uniform(0.2, 0.6, dim - n_top)
    h = (basis * energies) @ np.linalg.inv(basis)
    right = basis / np.linalg.norm(basis, axis=0)
    t_true = right @ np.diag(rng.uniform(0.5, 2.0, dim)) @ right.conj().T
    return GeneralSystem(h=h, couplings=[t_true, t_true @ t_true])


def cmd_theorem3_demo(cfg: dict) -> int:
    if cfg["matrix_file"]:
        h, couplings = matrixio.load(cfg["matrix_file"])
        system = GeneralSystem(h=h, couplings=couplings)
    else:
        system = _demo_system(cfg["seed"], cfg["dim"])
    rows = []
    for alpha in cfg["alphas"]:
        disc = theorem3_check(system, float(alpha), cfg["beta"])
        rows.append([_fmt(alpha), _fmt(disc)])
    _emit_rows(["alpha", "discrepancy"], rows, cfg)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

_MODEL_DEFAULTS = {
    "u": 0.0,
    "t": 1.0,
    "j": 1.0,
    "gamma": 0.5,
    "temperature": 1.0,
    "cells": 50,
    "bc": "open",
}

_COMMON_DEFAULTS = {
    "format": "csv",
    "out": None,
    "threads": 0,  # resolved to _thread_default() at run time
    "tol_ordinary": 1e-10,
    "tol_linearized": 1e-8,
    "tol_degeneracy": 1e-8,
    "tol_zero_mode": 1e-3,
    "tol_nullspace": 1e-10,
}


def _add_common(sub):
    sub.add_argument("--config", help="key = value file merged under explicit flags")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--threads", type=int)
    sub.add_argument("--tol-ordinary", type=float, dest="tol_ordinary")
    sub.add_argument("--tol-linearized", type=float, dest="tol_linearized")
    sub.add_argument("--tol-degeneracy", type=float, dest="tol_degeneracy")
    sub.add_argument("--tol-zero-mode", type=float, dest="tol_zero_mode")
    sub.add_argument("--tol-nullspace", type=float, dest="tol_nullspace")


def _add_model(sub):
    sub.add_argument("--u", type=float)
    sub.add_argument("--t", type=float)
    sub.add_argument("--j", type=float)
    sub.add_argument("--gamma", type=float)
    sub.add_argument("--temperature", type=float)
    sub.add_argument("--cells", type=int)
    sub.add_argument("--bc", choices=("open", "periodic"))


def build_parser() -> _Parser:
    parser = _Parser(prog="nhtopo", description=__doc__.split("\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("phase-diagram", help="(u, gamma) sweep of the invariant pair")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--u-range", nargs=3, type=float, dest="u_range",
                    metavar=("START", "STOP", "COUNT"))
    sp.add_argument("--gamma-range", nargs=3, type=float, dest="gamma_range",
                    metavar=("START", "STOP", "COUNT"))
    sp.add_argument("--k-grid", type=int, dest="k_grid")

    sp = subs.add_parser("spectrum-scan", help="chain spectra along a u sweep")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--u-range", nargs=3, type=float, dest="u_range",
                    metavar=("START", "STOP", "COUNT"))
    sp.add_argument("--which", choices=("bands", "effective"))

    sp = subs.add_parser("density", help="per-cell occupations of the lowest-N filling")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--particles", type=int, help="default: cells + 1")

    sp = subs.add_parser("winding", help="band and state windings along a u sweep")
    _add_common(sp)
    _add_model(sp)
    sp.add_argument("--u-range", nargs=3, type=float, dest="u_range",
                    metavar=("START", "STOP", "COUNT"))
    sp.add_argument("--k-grid", type=int, dest="k_grid")

    sp = subs.add_parser("classify", help="symmetry report and class of a matrix file")
    _add_common(sp)
    sp.add_argument("matrix_file")
    sp.add_argument("--model-ops", action="store_true", default=None,
                    help="use the standard per-cell chain operators")
    sp.add_argument("--trs-file", dest="trs_file")
    sp.add_argument("--phs-file", dest="phs_file")
    sp.add_argument("--chiral-file", dest="chiral_file")
    sp.add_argument("--sublattice-file", dest="sublattice_file")

    sp = subs.add_parser("metric", help="metric operator of a matrix-file system")
    _add_common(sp)
    sp.add_argument("matrix_file")
    sp.add_argument("--beta", type=float)

    sp = subs.add_parser("theorem3-demo", help="reduced vs large-alpha steady states")
    _add_common(sp)
    sp.add_argument("matrix_file", nargs="?", default=None)
    sp.add_argument("--beta", type=float)
    sp.add_argument("--alphas", nargs="+", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--dim", type=int)

    return parser


_COMMAND_DEFAULTS = {
    "phase-diagram": {
        **_COMMON_DEFAULTS,
        **_MODEL_DEFAULTS,
        "u_range": [-1.5, 2.0, 41],
        "gamma_range": [-0.9, 0.9, 41],
        "k_grid": 2001,
    },
    "spectrum-scan": {
        **_COMMON_DEFAULTS,
        **_MODEL_DEFAULTS,
        "u_range": [-2.0, 2.0, 81],
        "which": "bands",
    },
    "density": {**_COMMON_DEFAULTS, **_MODEL_DEFAULTS, "particles": -1},
    "winding": {
        **_COMMON_DEFAULTS,
        **_MODEL_DEFAULTS,
        "u_range": [-2.0, 2.5, 91],
        "k_grid": 2001,
    },
    "classify": {
        **_COMMON_DEFAULTS,
        "matrix_file": "",
        "model_ops": False,
        "trs_file": None,
        "phs_file": None,
        "chiral_file": None,
        "sublattice_file": None,
    },
    "metric": {**_COMMON_DEFAULTS, "matrix_file": "", "beta": 1.0},
    "theorem3-demo": {
        **_COMMON_DEFAULTS,
        "matrix_file": None,
        "beta": 1.0,
        "alphas": [1e2, 1e3, 1e4],
        "seed": 7,
        "dim": 6,
    },
}

_HANDLERS = {
    "phase-diagram": cmd_phase_diagram,
    "spectrum-scan": cmd_spectrum_scan,
    "density": cmd_density,
    "winding": cmd_winding,
    "classify": cmd_classify,
    "metric": cmd_metric,
    "theorem3-demo": cmd_theorem3_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    try:
        cfg = _merge_config(args, _COMMAND_DEFAULTS[args.command])
        if not cfg["threads"]:
            cfg["threads"] = _thread_default()
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE
    try:
        return _HANDLERS[args.command](cfg)
    except NotThermalizableError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_NOT_THERMALIZABLE
    except (DefectiveError, NotPositiveDefiniteError, GapClosedError,
            OnBoundaryError, DegenerateFillingError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_NUMERICAL
    except (ValueError, OSError, NHTopoError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
