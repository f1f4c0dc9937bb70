"""Effective Hamiltonian: two routes, lattice machinery, occupations."""

import dataclasses

import numpy as np
import pytest

from nhtopo import (
    BoundaryCondition,
    DegenerateError,
    DegenerateFillingError,
    ModelParams,
    SIGMA_Y,
    bloch_hamiltonian,
    critical_points,
    density_profile,
    edge_accumulation,
    effective_bloch_closed_form,
    effective_bloch_via_log,
    effective_lattice,
    effective_spectrum,
    hermitianizing_transform,
    lattice_hamiltonian,
    metric_operator_model,
    state_components,
)
from nhtopo.effective import LOG_DOMAIN_CROSSOVER

OPEN = BoundaryCondition.OPEN
PERIODIC = BoundaryCondition.PERIODIC

FIG4_J = np.sqrt(1.6e4)
FIG4_DELTA = np.sqrt(2.5e-10)


def random_params(rng, cells=6, max_x=None):
    """Valid parameters; optionally capped so beta Delta / 2 < max_x."""
    while True:
        j = rng.uniform(0.5, 2.0)
        p = ModelParams(
            u=rng.uniform(-2.5, 2.5),
            t=rng.uniform(0.2, 2.0),
            j=j,
            gamma=rng.uniform(-0.9, 0.9) * j,
            temperature=rng.uniform(0.05, 5.0),
            cells=cells,
        )
        if max_x is None:
            return p
        top = p.beta * (abs(p.u) + p.t + p.j) / 1.0
        if top < max_x:
            return p


class TestSimilarityTransform:
    def test_theta_value(self):
        p = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.5)
        s = hermitianizing_transform(p)
        assert s.theta == pytest.approx(0.25 * np.log(3.0), abs=1e-14)

    def test_identity_at_hermitian_point(self):
        p = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.0)
        assert np.allclose(hermitianizing_transform(p).bloch_matrix, np.eye(2))

    def test_conjugation_hermitianizes(self):
        p = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.5)
        s = hermitianizing_transform(p).bloch_matrix
        k = np.pi / 2
        h0 = np.linalg.inv(s) @ bloch_hamiltonian(p, k) @ s
        assert np.allclose(h0, np.sqrt(0.75) * SIGMA_Y, atol=1e-14)

    def test_conjugation_hermitianizes_generic(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            j = rng.uniform(0.5, 2.0)
            p = ModelParams(
                u=rng.uniform(-2, 2), t=rng.uniform(0.2, 2), j=j,
                gamma=rng.uniform(-0.95, 0.95) * j,
            )
            s = hermitianizing_transform(p).bloch_matrix
            k = rng.uniform(-np.pi, np.pi)
            h0 = np.linalg.inv(s) @ bloch_hamiltonian(p, k) @ s
            assert np.max(np.abs(h0 - h0.conj().T)) < 1e-12
            expected_y = np.sqrt(p.j**2 - p.gamma**2) * np.sin(k)
            assert h0[0, 1] == pytest.approx(-1j * expected_y, abs=1e-12)


class TestMetricOperator:
    def test_identity_at_hermitian_point(self):
        p = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.0)
        assert np.allclose(metric_operator_model(p).bloch_matrix, np.eye(2))

    def test_per_cell_values(self):
        p = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.5)
        m = metric_operator_model(p).bloch_matrix
        assert np.allclose(np.diag(m), [np.sqrt(3.0), 1.0 / np.sqrt(3.0)])

    def test_conjugacy_relation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            j = rng.uniform(0.5, 2.0)
            p = ModelParams(
                u=rng.uniform(-2, 2), t=rng.uniform(0.2, 2), j=j,
                gamma=rng.uniform(-0.9, 0.9) * j,
            )
            m = metric_operator_model(p).bloch_matrix
            k = rng.uniform(-np.pi, np.pi)
            h = bloch_hamiltonian(p, k)
            assert np.max(np.abs(h @ m - m @ h.conj().T)) < 1e-12


class TestCriticalPoints:
    def test_hermitian_limit(self):
        p = ModelParams(u=0.0, t=0.7, j=1.0, gamma=0.0)
        assert critical_points(p) == (-0.7, 0.7)

    def test_reference_values(self):
        p = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.5, temperature=1.0)
        lo, hi = critical_points(p)
        assert lo == pytest.approx(-0.450694, abs=1e-6)
        assert hi == pytest.approx(1.549306, abs=1e-6)

    def test_extreme_coupling_window(self):
        p = ModelParams(
            u=1.2, t=1.0, j=FIG4_J, gamma=FIG4_J - FIG4_DELTA,
            temperature=0.1, cells=4,
        )
        lo, hi = critical_points(p)
        center = 0.5 * (lo + hi)
        assert center == pytest.approx(0.82940, abs=1e-4)
        assert lo < 1.2 < hi  # the reference point sits inside the window

    def test_zero_temperature(self):
        p = ModelParams(u=0.0, t=1.3, j=1.0, gamma=0.5, temperature=0.0)
        assert critical_points(p) == (-1.3, 1.3)

    def test_roots_of_state_gap(self):
        # the minimal state gap, scanned in u, vanishes exactly at u_c
        rng = np.random.default_rng(9)
        ks = np.linspace(-np.pi, np.pi, 801)
        for _ in range(5):
            j = rng.uniform(0.5, 1.5)
            p = ModelParams(
                u=0.0, t=rng.uniform(0.3, 1.5), j=j,
                gamma=rng.uniform(-0.8, 0.8) * j,
                temperature=rng.uniform(0.2, 2.0),
            )
            _, u_c = critical_points(p)

            def min_gap(u):
                w, _, _ = state_components(dataclasses.replace(p, u=u), ks)
                return float(np.min(w))

            lo, hi = u_c - 0.2, u_c + 0.2
            for _ in range(40):  # bisect on gap(u_c + eps) being tiny
                mid = 0.5 * (lo + hi)
                if min_gap(mid) < min_gap(mid + 1e-9):
                    hi = mid
                else:
                    lo = mid
            assert abs(0.5 * (lo + hi) - u_c) < 1e-6


class TestClosedForm:
    def test_hermitian_limit_is_scaled_chain(self):
        p = ModelParams(u=0.4, t=1.0, j=1.0, gamma=0.0, temperature=0.5)
        for k in (0.3, 1.2, 2.9):
            eff = effective_bloch_closed_form(p, k)
            assert np.allclose(eff.matrix, p.beta * bloch_hamiltonian(p, k), atol=1e-12)

    def test_state_gap_closes_at_critical_point(self):
        u_c = 0.5 * np.log(3.0) + 1.0
        p = ModelParams(u=u_c, t=1.0, j=1.0, gamma=0.5, temperature=1.0)
        w, a_y, a_z = state_components(p, 0.0)
        assert float(w) < 1e-6
        # at the exact closing point the Bloch vector has no direction
        with pytest.raises(DegenerateError):
            effective_bloch_closed_form(p, 0.0)
        # marginally off the critical point the construction succeeds
        eff = effective_bloch_closed_form(dataclasses.replace(p, u=u_c + 1e-4), 0.0)
        assert eff.w < 1e-4

    def test_extreme_coupling_stays_finite(self):
        p = ModelParams(
            u=1.2, t=1.0, j=FIG4_J, gamma=FIG4_J - FIG4_DELTA,
            temperature=0.1, cells=4,
        )
        for k in np.linspace(-np.pi, np.pi, 64):
            eff = effective_bloch_closed_form(p, k)
            assert np.all(np.isfinite(eff.matrix))

    def test_crossover_seam_is_continuous(self):
        # exact and asymptotic amplitudes agree across the switch point
        p = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.5, temperature=1.0)
        k = np.pi / 2
        delta = 2.0 * np.sqrt(p.j**2 - p.gamma**2)
        for offset in (-1e-6, 0.0, 1e-6):
            x = LOG_DOMAIN_CROSSOVER + offset
            beta = 2.0 * x / delta
            p_x = dataclasses.replace(p, temperature=1.0 / beta)
            w, _, _ = state_components(p_x, k)
            exact = np.arccosh(
                (p.j * np.cosh(x) + 0.0) / np.sqrt(p.j**2 - p.gamma**2)
            )
            assert abs(float(w) - exact) < 1e-10

    def test_matrix_is_hermitian(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = random_params(rng, max_x=250.0)
            eff = effective_bloch_closed_form(p, rng.uniform(-np.pi, np.pi))
            assert np.max(np.abs(eff.matrix - eff.matrix.conj().T)) < 1e-12
            assert eff.w >= 0.0


class TestTwoPathAgreement:
    def test_point_value(self):
        p = ModelParams(u=0.3, t=1.0, j=1.0, gamma=0.5, temperature=1.0)
        cf = effective_bloch_closed_form(p, 1.1)
        lg = effective_bloch_via_log(p, 1.1)
        assert np.max(np.abs(cf.matrix - lg.matrix)) < 1e-8
        assert np.max(np.abs(lg.matrix - lg.matrix.conj().T)) < 1e-12

    def test_randomized_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(400):
            p = random_params(rng, max_x=290.0)
            k = rng.uniform(-np.pi, np.pi)
            cf = effective_bloch_closed_form(p, k)
            lg = effective_bloch_via_log(p, k)
            assert np.max(np.abs(cf.matrix - lg.matrix)) < 1e-8

    def test_hermitian_limit_both_routes(self):
        p = ModelParams(u=0.6, t=1.0, j=1.0, gamma=1e-9, temperature=1.0)
        for k in (0.4, 1.7):
            target = p.beta * bloch_hamiltonian(dataclasses.replace(p, gamma=0.0), k)
            assert np.max(np.abs(effective_bloch_closed_form(p, k).matrix - target)) < 1e-8
            assert np.max(np.abs(effective_bloch_via_log(p, k).matrix - target)) < 1e-8


class TestEffectiveLattice:
    def test_periodic_spectrum_is_bloch_union(self):
        p = ModelParams(u=0.5, t=1.0, j=1.0, gamma=0.5, temperature=1.0, cells=8)
        spec = effective_spectrum(p, PERIODIC)
        ks = 2.0 * np.pi * np.arange(1, p.cells + 1) / p.cells
        w, a_y, a_z = state_components(p, ks)
        bloch = np.sort(np.concatenate([w, -w]))
        assert np.max(np.abs(spec - bloch)) < 1e-8

    def test_periodic_union_extreme_coupling(self):
        # the lattice kernel must track the closed form where M spans ~17 decades
        for u in (0.0, 1.2):
            for cells in (8, 40):
                p = ModelParams(
                    u=u, t=1.0, j=FIG4_J, gamma=FIG4_J - FIG4_DELTA,
                    temperature=0.1, cells=cells,
                )
                spec = effective_spectrum(p, PERIODIC)
                ks = 2.0 * np.pi * np.arange(1, p.cells + 1) / p.cells
                w, _, _ = state_components(p, ks)
                bloch = np.sort(np.concatenate([w, -w]))
                assert np.max(np.abs(spec - bloch)) < 1e-6, (u, cells)

    def test_hermitian_limit_matches_chain(self):
        p = ModelParams(u=0.7, t=1.0, j=1.0, gamma=0.0, temperature=2.0, cells=6)
        target = p.beta * lattice_hamiltonian(p, OPEN)
        assert np.max(np.abs(effective_lattice(p, OPEN) - target)) < 1e-10

    def test_open_chain_zero_modes(self):
        p = ModelParams(u=0.5, t=1.0, j=1.0, gamma=0.5, temperature=1.0, cells=50)
        spec = effective_spectrum(p, OPEN)
        tol = 1e-3 * np.max(np.abs(spec))
        assert np.count_nonzero(np.abs(spec) < tol) == 2

    def test_hermitian_and_real(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p = random_params(rng, cells=5, max_x=25.0)
            h_eff = effective_lattice(p, OPEN)
            assert np.max(np.abs(h_eff - h_eff.conj().T)) < 1e-12
            assert np.max(np.abs(np.linalg.eigvalsh(h_eff).imag)) == 0.0

    def test_matrix_agrees_with_spectrum_on_split_path(self):
        """effective_lattice and effective_spectrum agree through the one kernel.

        Both come from the same singular values, so this checks only that
        the matrix is assembled from orthonormal modes; accuracy rests on
        the mpmath and Bloch-union tests.  (The name predates the kernel:
        it once compared two separate split routes.)
        """
        p = ModelParams(
            u=0.4, t=1.0, j=FIG4_J, gamma=FIG4_J - FIG4_DELTA,
            temperature=0.2, cells=6,
        )
        spec = effective_spectrum(p, OPEN)
        ev = np.sort(np.linalg.eigvalsh(effective_lattice(p, OPEN)))
        assert np.max(np.abs(spec - ev)) < 1e-6


def _mpmath_open_spectrum(p, digits=80):
    """-ln eig(S e^{-beta H_0} S) of the open chain in ``digits``-digit arithmetic.

    H_0 is assembled from its closed-form entries (onsite u sigma_z, bond
    blocks [[-t, j'], [-j', t]]/2 with j' = sqrt(j^2 - gamma^2)), so the
    reference shares no code with the library.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(digits):
        u, t, j, g, temp = (
            mpmath.mpf(x) for x in (p.u, p.t, p.j, p.gamma, p.temperature)
        )
        n = 2 * p.cells
        jp = mpmath.sqrt((j + g) * (j - g))
        bond = ((-t / 2, jp / 2), (-jp / 2, t / 2))
        h0 = mpmath.zeros(n, n)
        for c in range(p.cells):
            h0[2 * c, 2 * c], h0[2 * c + 1, 2 * c + 1] = u, -u
            if c + 1 < p.cells:
                for a in range(2):
                    for b in range(2):
                        h0[2 * c + a, 2 * c + 2 + b] = bond[a][b]
                        h0[2 * c + 2 + b, 2 * c + a] = bond[a][b]
        lam, v = mpmath.eigsy(h0)
        theta = mpmath.log((j + g) / (j - g)) / 4
        gm = mpmath.matrix(n, n)  # G = S V e^{-beta Lambda / 2}
        for r in range(n):
            s = mpmath.exp(theta if r % 2 == 0 else -theta)
            for c in range(n):
                gm[r, c] = s * v[r, c] * mpmath.exp(-lam[c] / (2 * temp))
        mu, _ = mpmath.eigsy(gm * gm.T)
        return np.sort([float(-mpmath.log(m)) for m in mu])


class TestExtremeCouplingOracle:
    @pytest.mark.parametrize("u", [0.0, 0.4, 0.8, 1.2, 1.6])
    def test_open_spectrum_matches_80_digit_reference(self, u):
        # Fig-4 topological point, where M spans ~17 decades at L = 8
        p = ModelParams(
            u=u, t=1.0, j=FIG4_J, gamma=FIG4_J - FIG4_DELTA,
            temperature=0.1, cells=8,
        )
        spec = effective_spectrum(p, OPEN)
        ref = _mpmath_open_spectrum(p)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(spec - ref)) < 1e-8 * scale
        assert np.max(np.abs(spec + spec[::-1])) < 1e-8 * scale

    @pytest.mark.parametrize(
        "cells, j, gamma, temperature",
        [
            (4, 1.0, 0.5, 0.02),
            (8, 1.0, 0.5, 0.02),
            (8, FIG4_J, FIG4_J - FIG4_DELTA, 0.03),
        ],
        ids=["L4", "L8", "L8-fig4"],
    )
    def test_open_spectrum_spanning_beyond_double_precision(
        self, cells, j, gamma, temperature
    ):
        # beta * bandwidth ~ 90-150: the singular values of G span far more
        # than 1e16, below the sqrt(2L) eps cut of an absolute-accuracy SVD
        p = ModelParams(
            u=0.5, t=1.0, j=j, gamma=gamma, temperature=temperature, cells=cells
        )
        ref = _mpmath_open_spectrum(p, digits=120)
        assert ref[-1] - ref[0] > 2.0 * np.log(1e16)
        spec = effective_spectrum(p, OPEN)
        assert np.max(np.abs(spec - ref)) < 1e-8 * np.max(np.abs(ref))


class TestSymmetryInheritance:
    def test_particle_hole_relation_shared(self):
        # sigma_x H^T(k) sigma_x = -H(-k) holds for chain and effective Bloch
        rng = np.random.default_rng(12)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(60):
            p = random_params(rng, max_x=200.0)
            k = rng.uniform(-np.pi, np.pi)
            h = bloch_hamiltonian(p, k)
            assert np.max(np.abs(sx @ h.T @ sx + bloch_hamiltonian(p, -k))) < 1e-10
            e_p = effective_bloch_closed_form(p, k).matrix
            e_m = effective_bloch_closed_form(p, -k).matrix
            assert np.max(np.abs(sx @ e_p.T @ sx + e_m)) < 1e-10

    def test_sublattice_symmetry_not_inherited(self):
        # at u = t = 0 the chain gains sigma_z conjugation; the state does not
        sz = np.diag([1.0, -1.0])
        p = ModelParams(u=0.0, t=0.0, j=1.0, gamma=0.5, temperature=1.0)
        k = 1.0
        e = effective_bloch_closed_form(p, k).matrix
        assert np.max(np.abs(sz @ e @ sz + e)) > 1e-3


class TestDensityProfile:
    def test_uniform_in_trivial_insulator(self):
        p = ModelParams(u=8.0, t=0.5, j=1.0, gamma=0.0, temperature=0.5, cells=30)
        prof = density_profile(p, OPEN, p.cells)
        assert np.max(np.abs(prof.per_cell - 1.0)) < 1e-6
        assert edge_accumulation(prof) == pytest.approx(0.0, abs=1e-6)

    def test_occupations_bounded_and_summing(self):
        p = ModelParams(u=0.5, t=1.0, j=1.0, gamma=0.5, temperature=1.0, cells=25)
        prof = density_profile(p, OPEN, 26)
        assert np.all(prof.per_cell >= -1e-12)
        assert np.all(prof.per_cell <= 2.0 + 1e-12)
        assert float(np.sum(prof.per_cell)) == pytest.approx(26.0, abs=1e-8)

    def test_degenerate_filling_rejected(self):
        # periodic chain momenta come in +/-k pairs: pick a filling that
        # would have to split one of the resulting exact degeneracies
        p = ModelParams(u=0.5, t=1.0, j=1.0, gamma=0.0, temperature=1.0, cells=8)
        spec = effective_spectrum(p, PERIODIC)
        gaps = np.diff(spec)
        i = int(np.argmin(gaps))
        assert gaps[i] < 1e-12
        with pytest.raises(DegenerateFillingError):
            density_profile(p, PERIODIC, i + 1)

    def test_edge_accumulation_present_in_state_topological_region(self):
        # scaled-down counterpart of the extreme-coupling reference point
        p = ModelParams(u=1.2, t=1.0, j=1.0, gamma=0.5, temperature=1.0, cells=60)
        prof = density_profile(p, OPEN, 61)
        assert edge_accumulation(prof) > 0.5

    def test_window_requires_enough_cells(self):
        p = ModelParams(u=0.5, t=1.0, j=1.0, gamma=0.5, temperature=1.0, cells=10)
        prof = density_profile(p, OPEN, 10)
        with pytest.raises(ValueError):
            edge_accumulation(prof)


class TestGuards:
    def test_exponent_overflow_rejected(self):
        p = ModelParams(u=2.0, t=1.0, j=1.0, gamma=0.5, temperature=1e-4, cells=4)
        with pytest.raises(OverflowError):
            effective_lattice(p, OPEN)
        with pytest.raises(OverflowError):
            effective_bloch_via_log(p, 0.7)
        with pytest.raises(OverflowError):
            density_profile(p, OPEN, 4)

    def test_zero_temperature_limited_to_momentum_space(self):
        p = ModelParams(u=0.5, t=1.0, j=1.0, gamma=0.5, temperature=0.0, cells=4)
        # rescaled closed form stays available
        eff = effective_bloch_closed_form(p, 0.9)
        assert np.all(np.isfinite(eff.matrix))
        with pytest.raises(ValueError):
            effective_lattice(p, OPEN)
        with pytest.raises(ValueError):
            effective_bloch_via_log(p, 0.9)

    def test_zero_temperature_closed_form_direction(self):
        # the beta-rescaled limit keeps the Bloch-vector direction of the
        # small-temperature closed form
        p0 = ModelParams(u=0.5, t=1.0, j=1.0, gamma=0.5, temperature=0.0)
        p_small = dataclasses.replace(p0, temperature=1e-3)
        for k in (0.4, 1.9):
            w0, ay0, az0 = state_components(p0, k)
            _, ay1, az1 = state_components(p_small, k)
            angle0 = np.arctan2(float(ay0), float(az0))
            angle1 = np.arctan2(float(ay1), float(az1))
            assert abs(angle0 - angle1) < 1e-6
            # the rescaled amplitude is half the band gap
            from nhtopo import band_gap

            assert float(w0) == pytest.approx(0.5 * float(band_gap(p0, k)), abs=1e-12)
