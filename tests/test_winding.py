"""Winding invariants, zero modes, spectra, and phase regions."""

import dataclasses

import numpy as np
import pytest

from nhtopo import (
    BoundaryCondition,
    GapClosedError,
    ModelParams,
    NotChiralError,
    OnBoundaryError,
    SymmetryOp,
    band_invariant,
    critical_points,
    lattice_hamiltonian,
    region,
    spectrum_scan,
    state_invariant,
    winding_number,
    winding_number_trace,
    zero_modes,
)
from nhtopo.winding import band_family, state_family

OPEN = BoundaryCondition.OPEN
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
CHIRAL = SymmetryOp(SX)

REF = dict(t=1.0, j=1.0, gamma=0.5, temperature=1.0)


class TestBandWinding:
    def test_topological_value(self):
        assert band_invariant(ModelParams(u=0.0, **REF)).value == 1

    def test_trivial_values(self):
        assert band_invariant(ModelParams(u=2.0, **REF)).value == 0
        assert band_invariant(ModelParams(u=-2.0, **REF)).value == 0

    def test_inside_window_half_t(self):
        assert band_invariant(ModelParams(u=0.5, **REF)).value == 1

    def test_grid_refinement_stability(self):
        p = ModelParams(u=0.5, **REF)
        assert band_invariant(p, 501).value == band_invariant(p, 4001).value

    def test_gap_closed_at_transition(self):
        with pytest.raises(GapClosedError):
            band_invariant(ModelParams(u=1.0, **REF))

    def test_integrality(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            j = rng.uniform(0.5, 2.0)
            p = ModelParams(
                u=rng.uniform(-3, 3), t=rng.uniform(0.2, 2), j=j,
                gamma=rng.uniform(-0.9, 0.9) * j, temperature=1.0,
            )
            if min(abs(p.u - p.t), abs(p.u + p.t)) < 1e-2:
                continue
            res = band_invariant(p)
            assert abs(res.raw - res.value) < 1e-6

    def test_constant_between_transitions(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            j = rng.uniform(0.5, 2.0)
            t = rng.uniform(0.3, 1.5)
            base = ModelParams(u=0.0, t=t, j=j, gamma=rng.uniform(-0.9, 0.9) * j)
            inside = [rng.uniform(-t + 0.02, t - 0.02) for _ in range(3)]
            below = [rng.uniform(-3 * t, -t - 0.02) for _ in range(2)]
            above = [rng.uniform(t + 0.02, 3 * t) for _ in range(2)]
            for us, expected in ((inside, 1), (below, 0), (above, 0)):
                vals = {
                    band_invariant(dataclasses.replace(base, u=u)).value for u in us
                }
                assert vals == {expected}


class TestStateWinding:
    def test_region_two_point(self):
        # state winds while the band does not
        p = ModelParams(u=1.2, **REF)
        assert state_invariant(p).value == 1
        assert band_invariant(p).value == 0

    def test_outside_critical_window(self):
        assert state_invariant(ModelParams(u=1.8, **REF)).value == 0

    def test_hermitian_limit_matches_band(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            p = ModelParams(
                u=rng.uniform(-2, 2), t=rng.uniform(0.3, 1.5), j=1.0,
                gamma=0.0, temperature=rng.uniform(0.2, 2.0),
            )
            if min(abs(p.u - p.t), abs(p.u + p.t)) < 1e-2:
                continue
            assert state_invariant(p).value == band_invariant(p).value

    def test_transitions_at_critical_points(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            j = rng.uniform(0.5, 2.0)
            base = ModelParams(
                u=0.0, t=rng.uniform(0.3, 1.5), j=j,
                gamma=rng.uniform(-0.85, 0.85) * j,
                temperature=rng.uniform(0.2, 2.0),
            )
            lo, hi = critical_points(base)
            for u, expected in (
                (rng.uniform(lo + 0.02, hi - 0.02), 1),
                (hi + rng.uniform(0.02, 1.0), 0),
                (lo - rng.uniform(0.02, 1.0), 0),
            ):
                p = dataclasses.replace(base, u=u)
                assert state_invariant(p).value == expected

    def test_gap_closed_at_critical_point(self):
        p = ModelParams(u=0.0, **REF)
        _, hi = critical_points(p)
        with pytest.raises(GapClosedError):
            state_invariant(dataclasses.replace(p, u=hi))


class TestGenericWinding:
    def test_not_chiral_rejected(self):
        fam = lambda k: np.array([[1.0, np.exp(-1j * k)], [np.exp(1j * k), 1.0]])
        with pytest.raises(NotChiralError):
            winding_number(fam, CHIRAL, 301)

    def test_two_cell_winding(self):
        # off-diagonal block e^{2ik} winds twice (chiral operator sigma_z)
        fam = lambda k: np.array(
            [[0.0, np.exp(-2j * k)], [np.exp(2j * k), 0.0]], dtype=complex
        )
        chiral_z = SymmetryOp(np.diag([1.0, -1.0]).astype(complex))
        res = winding_number(fam, chiral_z, 801)
        assert abs(res.value) == 2
        assert abs(res.raw - res.value) < 1e-9

    def test_auto_refinement_resolves_fast_phases(self):
        # winding 100 on a 301-point grid has pi/2 < steps < pi, which
        # must trigger one x4 refinement
        fam = lambda k: np.array(
            [[0.0, np.exp(-100j * k)], [np.exp(100j * k), 0.0]], dtype=complex
        )
        chiral_z = SymmetryOp(np.diag([1.0, -1.0]).astype(complex))
        res = winding_number(fam, chiral_z, 301)
        assert abs(res.value) == 100
        assert res.grid_size == 1201

    def test_refinement_exhaustion_raises(self):
        # the loop passes within 1e-5 of the origin: the ~pi phase jump
        # across the passage survives both refinements
        from nhtopo import PhaseStepError

        def fam(k):
            # passage point at an irrational momentum stays between grid
            # points at every refinement level
            q = np.exp(1j * (k - 0.71371)) - 1.0 + 1e-5
            return np.array([[0.0, np.conj(q)], [q, 0.0]], dtype=complex)

        chiral_z = SymmetryOp(np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(PhaseStepError):
            winding_number(fam, chiral_z, 101)

    def test_scalar_only_family_evaluated_pointwise(self):
        import math

        def fam(k):
            q = complex(math.cos(k), math.sin(k))  # TypeError on an array
            return np.array([[0.0, np.conj(q)], [q, 0.0]])

        chiral_z = SymmetryOp(np.diag([1.0, -1.0]).astype(complex))
        assert abs(winding_number(fam, chiral_z, 301).value) == 1

    def test_family_error_on_array_propagates(self):
        calls = []

        def fam(k):
            calls.append(np.ndim(k))
            if np.ndim(k):
                raise RuntimeError("family failed on the momentum grid")
            q = np.exp(1j * k)
            return np.array([[0.0, np.conj(q)], [q, 0.0]], dtype=complex)

        chiral_z = SymmetryOp(np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(RuntimeError, match="momentum grid"):
            winding_number(fam, chiral_z, 301)
        assert calls == [1]  # not retried point by point

    def test_trace_integral_matches_on_hermitian_family(self):
        # quadrature route equals the block winding for Hermitian chiral
        # families, up to discretization
        p = ModelParams(u=0.4, **REF)
        fam = state_family(p)
        block = winding_number(fam, CHIRAL).value
        trace = winding_number_trace(fam, CHIRAL, 4001)
        assert abs(trace - block) < 1e-3

    def test_trace_integral_normalization_on_chain(self):
        # the daggered chiral relation of the non-Hermitian chain rescales
        # the trace integral by j / sqrt(j^2 - gamma^2)
        p = ModelParams(u=0.0, **REF)
        fam = band_family(p, balanced=False)
        block = winding_number(fam, CHIRAL).value
        trace = winding_number_trace(fam, CHIRAL, 8001)
        factor = p.j / np.sqrt(p.j**2 - p.gamma**2)
        assert trace == pytest.approx(factor * block, abs=1e-3)


class TestZeroModes:
    def test_counts_along_band_window(self):
        base = ModelParams(u=0.0, **REF, cells=50)
        for u, expected in ((0.5, 2), (1.5, 0)):
            spec = np.linalg.eigvals(
                lattice_hamiltonian(dataclasses.replace(base, u=u), OPEN)
            )
            tol = 1e-3 * np.max(np.abs(spec))
            count, energies = zero_modes(spec, tol)
            assert count == expected
            assert energies.size == expected

    def test_effective_window_extends_past_band_window(self):
        from nhtopo import effective_spectrum

        p = ModelParams(u=1.2, **REF, cells=50)
        spec = effective_spectrum(p, OPEN)
        count, _ = zero_modes(spec, 1e-3 * np.max(np.abs(spec)))
        assert count == 2

    def test_scan_windows(self):
        base = ModelParams(u=0.0, **REF, cells=50)
        u_values = np.array([-1.5, -0.8, -0.2, 0.3, 0.8, 1.2, 1.7])
        bands = spectrum_scan(base, u_values, OPEN, "bands")
        assert list(bands.zero_mode_counts) == [0, 2, 2, 2, 2, 0, 0]
        effective = spectrum_scan(base, u_values, OPEN, "effective")
        # state window (-0.4507, 1.5493) keeps modes alive at u = 1.2
        assert list(effective.zero_mode_counts) == [0, 0, 2, 2, 2, 2, 0]

    def test_hermitian_limit_scans_coincide(self):
        base = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.0, temperature=2.0, cells=20)
        u_values = np.array([-0.5, 0.4, 1.6])
        bands = spectrum_scan(base, u_values, OPEN, "bands")
        effective = spectrum_scan(base, u_values, OPEN, "effective")
        for b, e in zip(bands.eigenvalues, effective.eigenvalues):
            assert np.max(np.abs(base.beta * np.sort(b.real) - np.sort(e.real))) < 1e-8


class TestRegions:
    def test_reference_points(self):
        assert region(ModelParams(u=1.2, **REF)).region == "II"
        assert region(ModelParams(u=0.0, **REF)).region == "IV"
        assert region(ModelParams(u=2.5, **REF)).region == "I"

    def test_fig_like_extreme_point_is_region_iii(self):
        j = np.sqrt(1.6e4)
        delta = np.sqrt(2.5e-10)
        p = ModelParams(
            u=0.0, t=1.0, j=j, gamma=-(j - delta), temperature=0.15, cells=4
        )
        assert region(p).region == "III"

    def test_on_boundary_rejected(self):
        with pytest.raises(OnBoundaryError):
            region(ModelParams(u=1.0, **REF))

    def test_gamma_flip_moves_critical_window(self):
        # flipping gamma flips the sign of the critical-window center
        p = ModelParams(u=1.2, **REF)
        lo_p, hi_p = critical_points(p)
        flipped = dataclasses.replace(p, gamma=-p.gamma)
        lo_m, hi_m = critical_points(flipped)
        assert lo_m == pytest.approx(-hi_p)
        assert hi_m == pytest.approx(-lo_p)
        assert region(p).region == "II"
        assert region(flipped).region == "I"


class TestBulkBoundary:
    def test_zero_modes_track_winding(self):
        base = ModelParams(u=0.0, **REF, cells=50)
        rng = np.random.default_rng(35)
        lo, hi = critical_points(base)
        for _ in range(8):
            u = rng.uniform(-2.0, 2.0)
            transitions = [-base.t, base.t, lo, hi]
            if min(abs(u - b) for b in transitions) < 0.05:
                continue
            p = dataclasses.replace(base, u=u)
            spec = np.linalg.eigvals(lattice_hamiltonian(p, OPEN))
            count, _ = zero_modes(spec, 1e-3 * np.max(np.abs(spec)))
            expected = 2 if band_invariant(p).value == 1 else 0
            assert count == expected
