"""Winding-number invariants, zero modes, and phase-diagram regions.

Two integer invariants coexist for the non-Hermitian chain: the band
winding W of the chain Hamiltonian and the state winding w of the
effective Hamiltonian.  Both are computed by accumulating the phase of
the determinant of the chiral off-diagonal block around the Brillouin
zone, which is quantized by construction and robust near transitions;
the trace-integral form is provided separately as a cross-check
quadrature.  W jumps at the band gap closings u = +/- t, while w jumps
at the state critical points u_c; the four (W, w) combinations label the
phase-diagram regions I-IV.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .effective import critical_points, effective_spectrum, state_components
from .errors import GapClosedError, NotChiralError, OnBoundaryError, PhaseStepError
from .model import (
    SIGMA_Y,
    SIGMA_Z,
    BoundaryCondition,
    ModelParams,
    bloch_hamiltonian,
    lattice_hamiltonian,
)
from .symmetry import SymmetryOp

DEFAULT_GRID = 2001
_DET_FLOOR = 1e-12
_CHIRAL_TOL = 1e-8

REGION_LABELS = {(0, 0): "I", (0, 1): "II", (1, 0): "III", (1, 1): "IV"}


@dataclass(frozen=True)
class WindingResult:
    """Integer winding with its raw accumulated phase / 2 pi."""

    value: int
    raw: float
    grid_size: int


def _eval_family(h_family, ks: np.ndarray) -> np.ndarray:
    """Evaluate a Bloch family on a grid, batching when supported.

    A scalar-only family rejects an array of momenta with TypeError or
    ValueError and is then evaluated point by point; any other error
    propagates.
    """
    try:
        out = np.asarray(h_family(ks), dtype=complex)
        if out.ndim == 3 and out.shape[0] == ks.size:
            return out
    except (TypeError, ValueError):
        pass
    return np.stack([np.asarray(h_family(k), dtype=complex) for k in ks])


def winding_number(
    h_family,
    chiral_op: SymmetryOp,
    grid_size: int = DEFAULT_GRID,
    max_refinements: int = 2,
) -> WindingResult:
    """Winding of det q(k) for the chiral off-diagonal block q.

    The family is rotated to the eigenbasis of the chiral operator; with
    the relation  U H(k)^dagger U^{-1} = -H(k)  the physics sits in the
    off-diagonal blocks, and the phase of det q accumulated around the
    Brillouin zone is 2 pi times an integer.  Orientation is fixed so the
    topological phase of the reference chain carries +1.

    Parameters
    ----------
    h_family : callable
        k -> (d, d) matrix; may also accept a 1-D array of momenta and
        return a (N, d, d) stack.
    chiral_op : SymmetryOp
        Hermitian unitary with balanced +1/-1 eigenspaces.
    grid_size : int
        Points on [-pi, pi] including both endpoints.
    max_refinements : int
        The grid is refined x4 while any phase step reaches pi/2, at most
        this many times.

    Raises
    ------
    GapClosedError
        If min_k |det H(k)| falls below 1e-12 (no line gap).
    NotChiralError
        If the chiral relation residual exceeds 1e-8 on the grid, or the
        chiral blocks are unbalanced.
    PhaseStepError
        If refinement cannot bring all phase steps below pi/2.
    """
    u = chiral_op.unitary
    if np.max(np.abs(u - u.conj().T)) > 1e-12:
        raise NotChiralError("chiral operator must be Hermitian unitary")
    gamma_vals, gamma_vecs = np.linalg.eigh(u)
    minus = gamma_vecs[:, gamma_vals < 0]
    plus = gamma_vecs[:, gamma_vals > 0]
    if minus.shape[1] != plus.shape[1]:
        raise NotChiralError("chiral operator has unbalanced eigenspaces")

    size = grid_size
    for attempt in range(max_refinements + 1):
        ks = np.linspace(-np.pi, np.pi, size)
        h = _eval_family(h_family, ks)

        defect = chiral_op.unitary @ h.conj().transpose(0, 2, 1) @ chiral_op.unitary.conj().T + h
        chiral_residual = float(np.max(np.abs(defect)))
        if chiral_residual > _CHIRAL_TOL:
            raise NotChiralError(
                f"chiral relation residual {chiral_residual:.3e} exceeds {_CHIRAL_TOL:g}"
            )
        dets = np.linalg.det(h)
        min_det = float(np.min(np.abs(dets)))
        max_det = float(np.max(np.abs(dets)))
        # floor relative to the family's own determinant scale, so that a
        # legitimately small overall amplitude is not mistaken for a
        # closed gap (1e-12 absolute for unit-scale families)
        if max_det == 0.0 or min_det < _DET_FLOOR * max_det:
            raise GapClosedError(f"line gap closed: min |det H(k)| = {min_det:.3e}")

        q = minus.conj().T @ h @ plus
        z = np.linalg.det(q) if q.shape[1] > 1 else q[:, 0, 0]
        steps = np.angle(z[1:] / z[:-1])
        if np.max(np.abs(steps)) < 0.5 * np.pi:
            raw = float(np.sum(steps) / (2.0 * np.pi))
            return WindingResult(value=int(np.rint(raw)), raw=raw, grid_size=size)
        size = 4 * (size - 1) + 1
    raise PhaseStepError(
        f"phase steps stayed >= pi/2 after {max_refinements} refinements"
    )


def winding_number_trace(
    h_family, chiral_op: SymmetryOp, grid_size: int = 4001
) -> float:
    """Trace-integral winding (1/4 pi i) oint tr[G H^{-1} dH/dk] dk.

    Reference quadrature (periodic trapezoid with central differences).
    Equals the block-determinant winding for Hermitian chiral families;
    for non-Hermitian families with the daggered chiral relation it picks
    up a non-quantized normalization and is reported as-is.
    """
    ks = np.linspace(-np.pi, np.pi, grid_size, endpoint=False)
    dk = 2.0 * np.pi / grid_size
    h = _eval_family(h_family, ks)
    dh = (np.roll(h, -1, axis=0) - np.roll(h, 1, axis=0)) / (2.0 * dk)
    integrand = np.trace(
        chiral_op.unitary @ np.linalg.inv(h) @ dh, axis1=1, axis2=2
    )
    total = np.sum(integrand) * dk / (4.0j * np.pi)
    return float(total.real)


# ---------------------------------------------------------------------------
# model invariants
# ---------------------------------------------------------------------------

_CHIRAL_SIGMA_X = SymmetryOp(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def band_family(params: ModelParams, balanced: bool = True):
    """Bloch family of the chain Hamiltonian (vectorized over k).

    With ``balanced`` the two sin k terms are divided by j, a positive
    rescaling that leaves the winding and the chiral relation intact but
    keeps the loop round when j dwarfs the remaining couplings.
    """
    if not balanced:
        return lambda k: bloch_hamiltonian(params, k)
    scaled = dataclasses.replace(params, j=1.0, gamma=params.gamma / params.j)
    return lambda k: bloch_hamiltonian(scaled, k)


def state_family(params: ModelParams):
    """Family a_y(k) sigma_y + a_z(k) sigma_z sharing the state winding.

    The positive arccosh amplitude of the effective Bloch matrix is
    dropped: it cannot affect the winding, and removing it keeps the
    entries well-conditioned at any beta Delta.
    """

    def fam(k):
        _, a_y, a_z = state_components(params, k)
        return np.multiply.outer(np.asarray(a_y), SIGMA_Y) + np.multiply.outer(
            np.asarray(a_z), SIGMA_Z
        )

    return fam


def band_invariant(params: ModelParams, grid_size: int = DEFAULT_GRID) -> WindingResult:
    """Band winding W of the chain; jumps at u = +/- t.

    Raises
    ------
    GapClosedError
        At (or within 1e-9 of) the band gap-closing points.
    """
    lo, hi = -params.t, params.t
    if min(abs(params.u - lo), abs(params.u - hi)) < 1e-9:
        raise GapClosedError(f"band gap closes at u = +/-{params.t}")
    return winding_number(band_family(params), _CHIRAL_SIGMA_X, grid_size)


def state_invariant(params: ModelParams, grid_size: int = DEFAULT_GRID) -> WindingResult:
    """State winding w of the effective Hamiltonian; jumps at u_c(+/-).

    Raises
    ------
    GapClosedError
        At (or within 1e-9 of) the state critical points.
    """
    lo, hi = critical_points(params)
    if min(abs(params.u - lo), abs(params.u - hi)) < 1e-9:
        raise GapClosedError(f"state gap closes at u_c = ({lo:.6g}, {hi:.6g})")
    return winding_number(state_family(params), _CHIRAL_SIGMA_X, grid_size)


# ---------------------------------------------------------------------------
# spectra and zero modes
# ---------------------------------------------------------------------------

def zero_modes(spectrum, tol_abs: float):
    """Eigenvalues with |E| < tol_abs; returns (count, energies)."""
    spectrum = np.asarray(spectrum)
    mask = np.abs(spectrum) < tol_abs
    return int(np.count_nonzero(mask)), spectrum[mask]


@dataclass(frozen=True)
class SpectrumScan:
    """Open- or periodic-chain spectra along an onsite-energy sweep."""

    u_values: np.ndarray
    eigenvalues: list  # one complex array of length 2L per u
    zero_mode_counts: np.ndarray
    zero_mode_tols: np.ndarray
    which: str


def spectrum_scan(
    params_base: ModelParams,
    u_values,
    bc: BoundaryCondition = BoundaryCondition.OPEN,
    which: str = "bands",
    zero_mode_fraction: float = 1e-3,
) -> SpectrumScan:
    """Diagonalize the chain (or its effective model) along a u sweep.

    The zero-mode tolerance at each u is ``zero_mode_fraction`` times the
    spectral radius there, absorbing the exponentially small splitting of
    the twofold edge pair.
    """
    if which not in ("bands", "effective"):
        raise ValueError(f"which must be 'bands' or 'effective', got {which!r}")
    u_values = np.asarray(u_values, dtype=float)
    spectra = []
    counts = np.zeros(u_values.size, dtype=int)
    tols = np.zeros(u_values.size)
    for i, u in enumerate(u_values):
        p = dataclasses.replace(params_base, u=float(u))
        if which == "bands":
            ev = np.linalg.eigvals(lattice_hamiltonian(p, bc))
        else:
            ev = effective_spectrum(p, bc).astype(complex)
        tol = zero_mode_fraction * float(np.max(np.abs(ev)))
        counts[i], _ = zero_modes(ev, tol)
        spectra.append(np.sort_complex(ev))
        tols[i] = tol
    return SpectrumScan(
        u_values=u_values,
        eigenvalues=spectra,
        zero_mode_counts=counts,
        zero_mode_tols=tols,
        which=which,
    )


# ---------------------------------------------------------------------------
# phase regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasePoint:
    """(u, gamma) point with its invariant pair and region label."""

    u: float
    gamma: float
    band_winding: int
    state_winding: int
    region: str


def region(params: ModelParams, grid_size: int = DEFAULT_GRID) -> PhasePoint:
    """Locate a parameter point in the four-region phase diagram.

    Raises
    ------
    OnBoundaryError
        Within 1e-9 of a band or state transition line.
    """
    boundaries = [-params.t, params.t, *critical_points(params)]
    nearest = min(abs(params.u - b) for b in boundaries)
    if nearest < 1e-9:
        raise OnBoundaryError(f"u = {params.u} lies on a transition line")
    w_band = band_invariant(params, grid_size).value
    w_state = state_invariant(params, grid_size).value
    label = REGION_LABELS.get((w_band, w_state))
    if label is None:
        raise ValueError(f"invariant pair {(w_band, w_state)} outside the region map")
    return PhasePoint(
        u=params.u,
        gamma=params.gamma,
        band_winding=w_band,
        state_winding=w_state,
        region=label,
    )
