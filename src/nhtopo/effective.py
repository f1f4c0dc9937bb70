"""Steady-state effective Hamiltonian of the non-Hermitian chain.

The chain relaxes, in contact with a weakly coupled thermal bath at inverse
temperature beta, to a Gaussian steady state rho = S e^{-beta H_0} S where
S = e^{theta sigma_z} per cell is the positive similarity transform that
Hermitianizes the chain Hamiltonian (H_0 = S^{-1} H S).  The Hermitian
effective Hamiltonian H_eff = -ln rho carries the topology of the quantum
state; its gap closes at onsite energies u_c that differ from the band
gap-closing points whenever gamma != 0.

Two independent evaluation routes are provided in momentum space: a closed
form built from scalar functions of k, and a route through the principal
matrix logarithm.  Their agreement is itself a library invariant.  Large
exponents beta * Delta_k / 2 are handled there in log-domain asymptotics.

In real space one kernel serves the effective matrix, its spectrum and the
density profiles: the chain is real, so S e^{-beta H_0} S is the Gram
matrix of a real G whose singular values a one-sided Jacobi SVD resolves
to high relative accuracy, keeping the extreme-coupling regimes evaluable
in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateError,
    DegenerateFillingError,
    NotPositiveDefiniteError,
)
from .model import (
    SIGMA_Y,
    SIGMA_Z,
    BoundaryCondition,
    ModelParams,
    band_gap,
    bloch_hamiltonian,
    lattice_hamiltonian,
)

# Crossover to log-domain asymptotics for the momentum-space closed form.
LOG_DOMAIN_CROSSOVER = 30.0

# Largest exponent spread that still fits in double precision with margin.
_MAX_EXPONENT = 650.0


# ---------------------------------------------------------------------------
# similarity transform and metric operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimilarityTransform:
    """Positive diagonal transform S = diag(e^theta, e^-theta) per cell."""

    theta: float

    @property
    def bloch_matrix(self) -> np.ndarray:
        return np.diag([np.exp(self.theta), np.exp(-self.theta)]).astype(complex)

    def lattice_diagonal(self, cells: int) -> np.ndarray:
        """Diagonal entries of the 2L x 2L lattice form."""
        return np.tile([np.exp(self.theta), np.exp(-self.theta)], cells)


@dataclass(frozen=True)
class MetricOperator:
    """Positive Hermitian operator T_c = S^2 conjugating H into H^dagger."""

    log_coefficient: float  # exponent of sigma_z per cell; equals 2 theta

    @property
    def bloch_matrix(self) -> np.ndarray:
        c = self.log_coefficient
        return np.diag([np.exp(c), np.exp(-c)]).astype(complex)

    def lattice_matrix(self, cells: int) -> np.ndarray:
        c = self.log_coefficient
        return np.diag(np.tile([np.exp(c), np.exp(-c)], cells)).astype(complex)


def hermitianizing_transform(params: ModelParams) -> SimilarityTransform:
    """Similarity transform with theta = (1/4) ln((j + gamma)/(j - gamma)).

    Conjugation by the returned transform makes the Bloch matrix Hermitian:
    S^{-1} H(k) S = (u - t cos k) sigma_z + sqrt(j^2 - gamma^2) sin k sigma_y.
    """
    theta = 0.25 * np.log((params.j + params.gamma) / (params.j - params.gamma))
    return SimilarityTransform(theta=float(theta))


def metric_operator_model(params: ModelParams) -> MetricOperator:
    """Metric operator of the chain: per-cell diag(sqrt((j+g)/(j-g)), inverse)."""
    coeff = 0.5 * np.log((params.j + params.gamma) / (params.j - params.gamma))
    return MetricOperator(log_coefficient=float(coeff))


def critical_points(params: ModelParams) -> tuple[float, float]:
    """Onsite energies (u_c-, u_c+) where the state gap closes.

    u_c(+/-) = (T/2) ln((j + gamma)/(j - gamma)) +/- t.  At T = 0 the
    formula reduces to the band gap-closing points (-t, +t).
    """
    if params.zero_temperature:
        return (-params.t, params.t)
    center = 0.5 * params.temperature * np.log(
        (params.j + params.gamma) / (params.j - params.gamma)
    )
    return (float(center - params.t), float(center + params.t))


# ---------------------------------------------------------------------------
# momentum space, closed form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveBloch:
    """Effective Bloch matrix at one momentum.

    ``w`` is half the state gap (the matrix has eigenvalues +/- w up to an
    identity shift), ``a_y``/``a_z`` are the sigma_y/sigma_z components of a
    positive multiple of the Bloch vector, so the matrix equals
    w (a_y sigma_y + a_z sigma_z)/hypot(a_y, a_z).
    """

    matrix: np.ndarray
    w: float
    a_y: float
    a_z: float


def state_components(params: ModelParams, k):
    """Vectorized (w, a_y, a_z) components of the effective Bloch matrix.

    For beta Delta_k / 2 above the crossover the arccosh amplitude is
    evaluated in log-domain asymptotics to avoid overflow.  With
    temperature = 0 the amplitude is rescaled by 1/beta (its divergent
    prefactor), which preserves the Bloch-vector direction and therefore
    the topology.
    """
    k = np.asarray(k, dtype=float)
    u, t, j, g = params.u, params.t, params.j, params.gamma
    d_z = u - t * np.cos(k)
    delta = np.asarray(band_gap(params, k), dtype=float)
    eps = 0.5 * delta
    root = np.sqrt(j * j - g * g)

    a_y = np.sin(k) * (j * j - g * g) / j

    if params.zero_temperature:
        a_z = d_z - (g / j) * eps
        w = eps
        return w, a_y, np.asarray(a_z)

    beta = params.beta
    x = beta * eps

    tiny = 1e-12
    small = delta < tiny
    delta_safe = np.where(small, 1.0, delta)
    x_safe = np.where(small, 0.0, np.minimum(x, LOG_DOMAIN_CROSSOVER))

    # sinh(x)/Delta and Delta/tanh(x), with their Delta -> 0 limits
    sinh_over_delta = np.where(small, 0.5 * beta, np.sinh(x_safe) / delta_safe)
    delta_over_tanh = np.where(
        small, 2.0 / beta, delta / np.where(small, 1.0, np.tanh(np.where(small, 1.0, x)))
    )

    a_z = d_z - (g / (2.0 * j)) * delta_over_tanh

    m0 = (j * np.cosh(x_safe) + 2.0 * g * (t * np.cos(k) - u) * sinh_over_delta) / root
    w_exact = np.arccosh(np.maximum(m0, 1.0))

    # log-domain asymptotics: arccosh(m0) -> x + ln((j - g d_z/eps)/root)
    eps_safe = np.where(small, 1.0, eps)
    w_asym = x + np.log(
        np.maximum(j - g * d_z / eps_safe, np.finfo(float).tiny) / root
    )
    w = np.where(x > LOG_DOMAIN_CROSSOVER, w_asym, w_exact)
    return w, a_y, np.asarray(a_z)


def _bloch_from_components(w, a_y, a_z) -> np.ndarray:
    norm = np.hypot(a_y, a_z)
    return (w / norm) * (a_y * SIGMA_Y + a_z * SIGMA_Z)


def effective_bloch_closed_form(params: ModelParams, k: float) -> EffectiveBloch:
    """Effective Bloch matrix from the closed-form amplitude and components.

    Raises
    ------
    DegenerateError
        If the Bloch vector vanishes at this k (state gap closed).
    """
    w, a_y, a_z = state_components(params, k)
    w, a_y, a_z = float(w), float(a_y), float(a_z)
    scale = max(1.0, abs(params.u) + params.t + params.j)
    if np.hypot(a_y, a_z) <= 1e-12 * scale:
        raise DegenerateError(f"effective Bloch vector vanishes at k = {k}")
    return EffectiveBloch(
        matrix=_bloch_from_components(w, a_y, a_z), w=w, a_y=a_y, a_z=a_z
    )


# ---------------------------------------------------------------------------
# momentum space, matrix-log route
# ---------------------------------------------------------------------------

def _neg_log_hermitian_2x2(m: np.ndarray, logdet: float) -> np.ndarray:
    """Principal -log of a Hermitian positive-definite 2x2 matrix.

    ``logdet`` must be the exact log-determinant (supplied by the caller
    from spectral data); the small eigenvalue is recovered from it instead
    of by cancellation, which keeps the result accurate for condition
    numbers far beyond 1/eps.
    """
    m0 = 0.5 * float(np.real(m[0, 0] + m[1, 1]))
    mx = 0.5 * float(np.real(m[0, 1] + m[1, 0]))
    my = 0.5 * float(np.real(1j * (m[0, 1] - m[1, 0])))
    mz = 0.5 * float(np.real(m[0, 0] - m[1, 1]))
    mnorm = float(np.sqrt(mx * mx + my * my + mz * mz))
    if not m0 > 0.0:
        raise NotPositiveDefiniteError("matrix-log argument is not positive definite")
    ident = np.eye(2, dtype=complex)
    if mnorm == 0.0:
        return -0.5 * logdet * ident
    # eigenvalues m0 +/- |m|; ln of the ratio via logdet avoids cancellation
    half_span = np.log(m0 + mnorm) - 0.5 * logdet
    if not np.isfinite(half_span) or half_span < 0.0:
        raise NotPositiveDefiniteError("matrix-log argument is not positive definite")
    direction = (mx * np.array([[0, 1], [1, 0]], dtype=complex)
                 + my * SIGMA_Y + mz * SIGMA_Z) / mnorm
    return -0.5 * logdet * ident - half_span * direction


def effective_bloch_via_log(params: ModelParams, k: float) -> EffectiveBloch:
    """Effective Bloch matrix as -log(S e^{-beta H_0(k)} S).

    Independent of the closed form: the Hermitianized Bloch matrix H_0 is
    obtained by numerical conjugation and exponentiated spectrally.

    Raises
    ------
    NotPositiveDefiniteError
        If the logarithm argument fails positive definiteness numerically.
    """
    if params.zero_temperature:
        raise ValueError("matrix-log route requires temperature > 0")
    beta = params.beta
    s = hermitianizing_transform(params)
    s_diag = np.array([np.exp(s.theta), np.exp(-s.theta)])
    h = bloch_hamiltonian(params, k)
    h0 = (1.0 / s_diag)[:, None] * h * s_diag[None, :]
    herm_defect = np.max(np.abs(h0 - h0.conj().T))
    if herm_defect > 1e-10 * max(1.0, np.max(np.abs(h0))):
        raise NotPositiveDefiniteError(
            f"similarity transform failed to Hermitianize (defect {herm_defect:.2e})"
        )
    h0 = 0.5 * (h0 + h0.conj().T)
    lam, v = np.linalg.eigh(h0)
    if beta * (lam[-1] - lam[0]) + 4.0 * abs(s.theta) > _MAX_EXPONENT:
        raise OverflowError(
            "exponent spread exceeds double precision; reduce beta or the gap"
        )
    shift = beta * lam[0]
    b = s_diag[:, None] * v
    m_tilde = (b * np.exp(-beta * lam + shift)) @ b.conj().T
    logdet_tilde = float(-beta * (lam[0] + lam[1]) + 2.0 * shift)
    h_eff = shift * np.eye(2, dtype=complex) + _neg_log_hermitian_2x2(
        m_tilde, logdet_tilde
    )
    h_eff = 0.5 * (h_eff + h_eff.conj().T)
    h_y = 0.5 * float(np.real(1j * (h_eff[0, 1] - h_eff[1, 0])))
    h_z = 0.5 * float(np.real(h_eff[0, 0] - h_eff[1, 1]))
    return EffectiveBloch(
        matrix=h_eff, w=float(np.hypot(h_y, h_z)), a_y=h_y, a_z=h_z
    )


# ---------------------------------------------------------------------------
# real space
# ---------------------------------------------------------------------------

def _steady_state_modes(
    params: ModelParams, bc: BoundaryCondition, vectors: bool = True
):
    """Effective energies (ascending) and, if ``vectors``, their modes.

    The chain is real, so H_0 = S^{-1} H S = V Lambda V^T is real symmetric
    and S e^{-beta H_0} S = e^{-beta lambda_0} G G^T with
    G = S V e^{-beta (Lambda - lambda_0) / 2}.  The one-sided Jacobi SVD of
    G (LAPACK dgejsv, JOBA='C') gives sigma to high relative accuracy, G
    being a well-conditioned S V times a graded diagonal; the energies
    are beta lambda_0 - 2 ln sigma, the modes the left singular vectors.

    Raises
    ------
    OverflowError
        If the exponent spread exceeds double precision.
    NotPositiveDefiniteError
        If the SVD fails or G is numerically singular.
    """
    if params.zero_temperature:
        raise ValueError("lattice effective Hamiltonian requires temperature > 0")
    h = lattice_hamiltonian(params, bc)
    if np.any(h.imag != 0.0):
        raise ValueError("lattice Hamiltonian has a nonzero imaginary part")
    beta, s = params.beta, hermitianizing_transform(params)
    s_diag = s.lattice_diagonal(params.cells)
    h0 = (1.0 / s_diag)[:, None] * h.real * s_diag[None, :]
    lam, v = np.linalg.eigh(0.5 * (h0 + h0.T))
    if beta * (lam[-1] - lam[0]) + 4.0 * abs(s.theta) > _MAX_EXPONENT:
        raise OverflowError(
            "exponent spread exceeds double precision; reduce beta or the bandwidth"
        )
    g = (s_diag[:, None] * v) * np.exp(-0.5 * beta * (lam - lam[0]))

    from scipy.linalg import lapack  # deferred: keeps CLI start-up light

    # JOBA='C' (relative accuracy; 'A' would flush sigma below sqrt(n) eps
    # sigma_max to zero), JOBU='U'|'N', JOBV='N', JOBR='N', JOBP='N'
    sva, u_g, _, work, _, info = lapack.dgejsv(
        g, joba=0, jobu=0 if vectors else 3, jobv=3, jobr=0, jobp=0
    )
    sigma = sva * (work[0] / work[1])
    if info != 0 or not sigma[-1] > 0.0:
        raise NotPositiveDefiniteError(
            f"steady-state SVD failed: info {info}, sigma_min {sigma[-1]:.3e}"
        )
    return beta * lam[0] - 2.0 * np.log(sigma), (u_g if vectors else None)


def effective_lattice(
    params: ModelParams, bc: BoundaryCondition = BoundaryCondition.OPEN
) -> np.ndarray:
    """Real-space effective Hamiltonian -log(S e^{-beta H_0} S), 2L x 2L.

    Real symmetric; under periodic boundaries its spectrum equals the
    union of the effective Bloch spectra over k = 2 pi n / L.

    Raises
    ------
    NotPositiveDefiniteError
        If the logarithm argument is numerically singular.
    """
    energies, vectors = _steady_state_modes(params, bc)
    h_eff = (vectors * energies) @ vectors.T
    return 0.5 * (h_eff + h_eff.T)


def effective_spectrum(
    params: ModelParams, bc: BoundaryCondition = BoundaryCondition.OPEN
) -> np.ndarray:
    """Sorted real eigenvalues of the lattice effective Hamiltonian."""
    energies, _ = _steady_state_modes(params, bc, vectors=False)
    return energies


# ---------------------------------------------------------------------------
# occupations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityProfile:
    """Per-cell particle numbers of the lowest-N effective filling."""

    per_cell: np.ndarray
    n_particles: int

    @property
    def cells(self) -> int:
        return self.per_cell.size


def density_profile(
    params: ModelParams,
    bc: BoundaryCondition,
    n_particles: int,
) -> DensityProfile:
    """Occupy the ``n_particles`` lowest effective modes and bin per cell.

    The occupied modes are the lowest-energy modes of the steady-state
    kernel, accurate even at extreme coupling where the spectrum of
    S e^{-beta H_0} S spans more decades than double precision resolves.

    Raises
    ------
    DegenerateFillingError
        If the effective energies at the filling edge differ by < 1e-10.
    """
    L = params.cells
    if not 0 <= n_particles <= 2 * L:
        raise ValueError(f"n_particles must lie in [0, {2 * L}], got {n_particles}")
    energies, vectors = _steady_state_modes(params, bc)
    if 0 < n_particles < 2 * L and np.diff(energies)[n_particles - 1] < 1e-10:
        raise DegenerateFillingError(
            "filling edge is degenerate within 1e-10 in effective energy"
        )
    site_density = np.sum(vectors[:, :n_particles] ** 2, axis=1)
    per_cell = site_density[0::2] + site_density[1::2]
    return DensityProfile(per_cell=per_cell, n_particles=int(n_particles))


def edge_accumulation(profile: DensityProfile, edge_cells: int = 5) -> float:
    """Total particle excess over the uniform filling in the edge windows.

    Sums (n_cell - N/L) over the ``edge_cells`` outermost cells at each
    edge; positive values mean particles accumulated at the boundaries.
    Requires at least 20 cells so the windows stay clear of each other.
    """
    L = profile.cells
    if L < 20:
        raise ValueError(f"edge accumulation needs >= 20 cells, got {L}")
    baseline = profile.n_particles / L
    exc = profile.per_cell - baseline
    return float(np.sum(exc[:edge_cells]) + np.sum(exc[-edge_cells:]))
