"""Master-equation backend: operators, generator, steady states, evolution."""

from __future__ import annotations

import logging
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from nit_sim import (
    DegenerateSteadyStateError,
    DensityMatrix,
    DomainError,
    HilbertSpec,
    Liouvillian,
    SystemParams,
    build_hamiltonian,
    build_liouvillian,
    build_operators,
    closure_defect,
    evolve,
    expectation,
    rwa_error_probe,
    steady_state,
    steady_state_dm,
    trace_distance,
    vacuum_state,
)
from nit_sim.quantum import GMRES_RESTART, GMRES_RTOL, _gmres, _solve_lu
from nit_sim.spectra import detuning_grid

from conftest import decoupled_system, matched_system, weak_drive_system

SPEC22 = HilbertSpec(2, 2)
SPEC44 = HilbertSpec(4, 4)


def idx(spec: HilbertSpec, qubit: int, n_a: int, n_b: int) -> int:
    """Basis index in qubit (x) Fock(a) (x) Fock(b) order."""
    return (qubit * spec.n_a + n_a) * spec.n_b + n_b


def lossy_mode_system(**overrides) -> SystemParams:
    """Driven-mode decay alone: every other channel switched off."""
    base = SystemParams(
        delta_p=0.0, lam=0.0, g=0.0, epsilon=0.0,
        kappa_a=1.0, kappa_b=0.0, gamma=0.0, gamma_phi=0.0,
    )
    return replace(base, **overrides) if overrides else base


class TestOperators:
    def test_annihilator_matrix_elements(self):
        ops = build_operators(SPEC44)
        a = ops.a
        assert a[idx(SPEC44, 0, 0, 0), idx(SPEC44, 0, 1, 0)] == 1.0
        assert a[idx(SPEC44, 0, 1, 0), idx(SPEC44, 0, 2, 0)] == pytest.approx(
            math.sqrt(2.0)
        )
        assert a[idx(SPEC44, 0, 0, 0), idx(SPEC44, 1, 1, 0)] == 0.0
        b = ops.b
        assert b[idx(SPEC44, 1, 2, 0), idx(SPEC44, 1, 2, 1)] == 1.0
        assert b[idx(SPEC44, 0, 0, 2), idx(SPEC44, 0, 0, 3)] == pytest.approx(
            math.sqrt(3.0)
        )

    def test_qubit_operators(self):
        ops = build_operators(SPEC22)
        sz = ops.sigma_z
        assert sz[idx(SPEC22, 1, 0, 0), idx(SPEC22, 1, 0, 0)] == 1.0
        assert sz[idx(SPEC22, 0, 1, 1), idx(SPEC22, 0, 1, 1)] == -1.0
        sm = ops.sigma_minus
        assert sm[idx(SPEC22, 0, 1, 1), idx(SPEC22, 1, 1, 1)] == 1.0
        assert sm[idx(SPEC22, 1, 0, 0), idx(SPEC22, 0, 0, 0)] == 0.0

    def test_two_level_closure(self):
        ops = build_operators(SPEC22)
        sm, ident = ops.sigma_minus, ops.identity
        anticomm = sm @ sm.conj().T + sm.conj().T @ sm
        assert abs(anticomm - ident).max() == 0.0

    def test_modes_commute(self):
        ops = build_operators(SPEC44)
        comm = ops.a @ ops.b - ops.b @ ops.a
        assert abs(comm).max() == 0.0

    def test_truncated_canonical_commutator(self):
        ops = build_operators(SPEC44)
        a = ops.a
        comm = (a @ a.conj().T - a.conj().T @ a).toarray()
        assert np.allclose(comm, np.diag(np.diag(comm)), atol=0)
        for q in range(2):
            for na in range(SPEC44.n_a):
                for nb in range(SPEC44.n_b):
                    want = 1.0 if na < SPEC44.n_a - 1 else 1.0 - SPEC44.n_a
                    # sqrt(n)^2 is only n to rounding, so not exact equality
                    got = comm[idx(SPEC44, q, na, nb), idx(SPEC44, q, na, nb)]
                    assert got == pytest.approx(want, rel=1e-14)

    def test_spec_validation(self):
        with pytest.raises(DomainError, match="Fock levels"):
            HilbertSpec(1, 5)
        with pytest.raises(DomainError, match="cap"):
            HilbertSpec(40, 40)
        assert SPEC44.dim == 32


class TestHamiltonian:
    def test_coupling_matrix_elements(self):
        sys = weak_drive_system()
        h = build_hamiltonian(sys, SPEC44)
        # beam-splitter exchange: <g,1,0|H|g,0,1> = -lam
        assert h[idx(SPEC44, 0, 1, 0), idx(SPEC44, 0, 0, 1)] == -sys.lam
        # sideband exchange: <e,0,0|H|g,0,1> = g
        assert h[idx(SPEC44, 1, 0, 0), idx(SPEC44, 0, 0, 1)] == sys.g
        # drive: <g,1,0|H|g,0,0> = eps
        assert h[idx(SPEC44, 0, 1, 0), idx(SPEC44, 0, 0, 0)] == sys.epsilon
        assert abs((h - h.conj().T)).max() <= 1e-14

    def test_free_hamiltonian_is_diagonal(self):
        sys = decoupled_system(
            epsilon=0.0, delta_p=0.7, delta_b_offset=0.2, delta_q_offset=-0.1
        )
        h = build_hamiltonian(sys, SPEC44).toarray()
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        da, db, dq = 0.7, 0.7 + 0.2, 0.7 - 0.1
        for q in range(2):
            for na in range(4):
                for nb in range(4):
                    want = 0.5 * dq * (1.0 if q else -1.0) + da * na + db * nb
                    got = h[idx(SPEC44, q, na, nb), idx(SPEC44, q, na, nb)].real
                    assert got == pytest.approx(want, abs=1e-15)


class TestLiouvillian:
    def test_trace_preservation(self):
        liou = build_liouvillian(weak_drive_system(), SPEC44)
        assert liou.trace_defect() <= 1e-10
        assert liou.dim2 == SPEC44.dim**2

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(delta_b_offset=0.07, delta_q_offset=-0.05),
            dict(epsilon=0.02 - 0.03j),
            dict(gamma=0.0, gamma_phi=0.0),
        ],
        ids=["offsets", "complex-eps", "undamped-qubit"],
    )
    def test_detuning_shifts_only_the_diagonal(self, n, overrides):
        # L(s) = L(0) + s*D, D = -i diag(n1 - n2), n the excitation number
        spec = HilbertSpec(n, n)
        exc = np.array([
            q + na + nb for q in range(2) for na in range(n) for nb in range(n)
        ])
        d = sp.diags(-1j * (exc[:, None] - exc[None, :]).ravel(order="F"))
        base = weak_drive_system(**overrides)
        liou0 = build_liouvillian(base, spec)
        l0 = liou0.matrix
        if "gamma" in overrides:  # the qubit coherence's diagonal entry vanishes
            coherence = idx(spec, 1, 0, 0)  # |e,0,0><g,0,0|
            assert l0[coherence, coherence] == 0.0
        for s in (-1.5, 0.37, 1.5):
            liou = build_liouvillian(replace(base, delta_p=s), spec)
            ls = liou.matrix
            defect = abs(l0 + s * d - ls).max()
            assert defect <= 1e-14 * abs(ls).max()
            rho = steady_state_dm(liou0, shift=s)
            assert trace_distance(rho, steady_state_dm(liou)) < 1e-13

    def test_photon_decay_closed_form(self):
        spec = HilbertSpec(3, 2)
        liou = build_liouvillian(lossy_mode_system(), spec)
        i0, i1 = idx(spec, 0, 0, 0), idx(spec, 0, 1, 0)
        m = np.zeros((spec.dim, spec.dim), dtype=complex)
        m[i0, i0] = m[i1, i1] = m[i0, i1] = m[i1, i0] = 0.5
        rho = evolve(DensityMatrix(m), liou, t_end=1.0)
        ops = build_operators(spec)
        n_op = ops.a.conj().T @ ops.a
        # population decays at kappa_a, coherence at kappa_a/2
        assert expectation(n_op, rho).real == pytest.approx(
            0.5 * math.exp(-1.0), rel=1e-7
        )
        assert rho.matrix[i0, i1] == pytest.approx(0.5 * math.exp(-0.5), rel=1e-7)

    def test_dephasing_linewidth_convention(self):
        # gamma_phi must decay the qubit coherence at exactly gamma_phi,
        # pinning kappa_q = 2*gamma_phi + gamma across backends
        sys = lossy_mode_system(gamma_phi=0.05)
        liou = build_liouvillian(sys, SPEC22)
        i_g, i_e = idx(SPEC22, 0, 0, 0), idx(SPEC22, 1, 0, 0)
        m = np.zeros((SPEC22.dim, SPEC22.dim), dtype=complex)
        m[i_g, i_g] = m[i_e, i_e] = m[i_g, i_e] = m[i_e, i_g] = 0.5
        rho = evolve(DensityMatrix(m), liou, t_end=2.0)
        ops = build_operators(SPEC22)
        coherence = expectation(ops.sigma_minus, rho)
        assert coherence.real == pytest.approx(0.5 * math.exp(-0.1), rel=1e-7)
        assert abs(coherence.imag) < 1e-9
        assert rho.matrix[i_e, i_e].real == pytest.approx(0.5, abs=1e-9)

    def test_qubit_relaxation_closed_form(self):
        sys = lossy_mode_system(gamma=0.2)
        liou = build_liouvillian(sys, SPEC22)
        i_e = idx(SPEC22, 1, 0, 0)
        m = np.zeros((SPEC22.dim, SPEC22.dim), dtype=complex)
        m[i_e, i_e] = 1.0
        rho = evolve(DensityMatrix(m), liou, t_end=2.0)
        assert rho.matrix[i_e, i_e].real == pytest.approx(
            math.exp(-0.4), rel=1e-7
        )


class TestSteadyState:
    def test_undriven_system_relaxes_to_vacuum(self):
        liou = build_liouvillian(matched_system(epsilon=0.0), HilbertSpec(3, 3))
        info: dict = {}
        rho = steady_state_dm(liou, info=info)
        assert trace_distance(rho, vacuum_state(HilbertSpec(3, 3))) < 1e-12
        assert info["route"] == "structured" and info["iterations"] == 0

    def test_decoupled_drive_gives_coherent_state(self):
        spec = HilbertSpec(8, 2)
        sys = decoupled_system()
        rho = steady_state_dm(build_liouvillian(sys, spec))
        ops = build_operators(spec)
        assert expectation(ops.a, rho) == pytest.approx(-0.06j, abs=1e-9)
        occupation = expectation(ops.a.conj().T @ ops.a, rho).real
        assert occupation == pytest.approx(0.0036, rel=1e-6)

    def test_residual_certificate(self):
        liou = build_liouvillian(weak_drive_system(), SPEC44)
        info: dict = {}
        rho = steady_state_dm(liou, info=info)
        resid = np.linalg.norm(liou.matrix @ rho.matrix.ravel(order="F"))
        assert resid <= 1e-10 * float(np.abs(liou.matrix.data).max())
        assert info["route"] == "structured" and info["iterations"] > 0
        assert info["threshold"] == 1e-10 * float(np.abs(liou.matrix.data).max())
        assert info["residual"] <= info["threshold"]

    @pytest.mark.parametrize(
        "overrides",
        [dict(delta_b_offset=0.07, delta_q_offset=-0.05), dict(epsilon=0.3)],
        ids=["offsets", "eps0.3"],
    )
    def test_structured_route_matches_lu_reference(self, overrides):
        # per point (L assembled at each detuning) and per sweep (L(0) shifted)
        spec = HilbertSpec(5, 5)
        a_op = build_operators(spec).a
        l0 = build_liouvillian(weak_drive_system(**overrides), spec)
        worst = worst_sweep = sweep_vs_point = 0.0
        for d in detuning_grid(-1.5, 1.5, 11):
            liou = build_liouvillian(
                weak_drive_system(delta_p=float(d), **overrides), spec
            )
            info: dict = {}
            a_fast = expectation(a_op, steady_state_dm(liou, info=info))
            assert info["route"] == "structured"
            shifted: dict = {}
            a_sweep = expectation(a_op, steady_state_dm(l0, info=shifted, shift=float(d)))
            assert shifted["route"] == "structured"
            assert shifted["residual"] <= shifted["threshold"]
            x = _solve_lu(liou.matrix, info["threshold"])
            a_ref = expectation(a_op, x.reshape(spec.dim, spec.dim, order="F"))
            worst = max(worst, abs(a_fast - a_ref) / abs(a_ref))
            worst_sweep = max(worst_sweep, abs(a_sweep - a_ref) / abs(a_ref))
            sweep_vs_point = max(sweep_vs_point, abs(a_sweep - a_fast) / abs(a_fast))
        assert worst <= 1e-12
        assert worst_sweep <= 1e-12
        assert sweep_vs_point <= 1e-13

    def test_strong_drive_falls_back_to_lu(self, caplog):
        liou = build_liouvillian(
            weak_drive_system(epsilon=1.0, delta_p=0.3), HilbertSpec(5, 5)
        )
        info: dict = {}
        with caplog.at_level(logging.WARNING, logger="nit_sim.quantum"):
            rho = steady_state_dm(liou, info=info)
        assert info["route"] == "lu"
        assert "falling back to LU" in caplog.text
        resid = np.linalg.norm(liou.matrix @ rho.matrix.ravel(order="F"))
        assert resid <= info["threshold"]
        assert info["residual"] <= info["threshold"]

    def test_shifted_strong_drive_falls_back_to_lu(self, caplog):
        spec = HilbertSpec(5, 5)
        l0 = build_liouvillian(weak_drive_system(epsilon=1.0), spec)
        info: dict = {}
        with caplog.at_level(logging.WARNING, logger="nit_sim.quantum"):
            rho = steady_state_dm(l0, info=info, shift=0.3)
        assert info["route"] == "lu"
        assert "falling back to LU" in caplog.text
        # the residual is held against the generator assembled at the shift
        ls = build_liouvillian(weak_drive_system(epsilon=1.0, delta_p=0.3), spec).matrix
        assert info["threshold"] == pytest.approx(1e-10 * np.abs(ls.data).max(), rel=1e-14)
        assert np.linalg.norm(ls @ rho.matrix.ravel(order="F")) <= info["threshold"]
        assert info["residual"] <= info["threshold"]

    @pytest.mark.parametrize("delta_p", [0.0, 0.3])
    def test_matches_closed_form_at_weak_drive(self, delta_p):
        sys = weak_drive_system(delta_p=delta_p)
        rho = steady_state_dm(build_liouvillian(sys, HilbertSpec(5, 5)))
        a_q = expectation(build_operators(HilbertSpec(5, 5)).a, rho)
        a_ref = steady_state(sys).a
        assert abs(a_q - a_ref) / abs(a_ref) < 0.02

    def test_response_linear_in_weak_drive(self):
        spec = SPEC44
        ops = build_operators(spec)
        full = expectation(
            ops.a, steady_state_dm(build_liouvillian(weak_drive_system(), spec))
        )
        half_sys = weak_drive_system(epsilon=0.005)
        half = expectation(
            ops.a, steady_state_dm(build_liouvillian(half_sys, spec))
        )
        assert abs(full / half - 2.0) < 0.01

    def test_truncation_converged_at_weak_drive(self):
        sys = weak_drive_system()
        a44 = expectation(
            build_operators(SPEC44).a,
            steady_state_dm(build_liouvillian(sys, SPEC44)),
        )
        spec66 = HilbertSpec(6, 6)
        a66 = expectation(
            build_operators(spec66).a,
            steady_state_dm(build_liouvillian(sys, spec66)),
        )
        assert abs(a44 - a66) / abs(a66) < 1e-3

    def test_undamped_sector_has_no_unique_fixed_point(self, caplog):
        with caplog.at_level(logging.WARNING, logger="nit_sim.quantum"):
            with pytest.raises(DegenerateSteadyStateError):
                steady_state_dm(build_liouvillian(lossy_mode_system(), SPEC22))
        assert not caplog.records  # a singular preconditioner is no GMRES miss

    @pytest.mark.parametrize("scale, restarted", [(0.1, False), (0.22, True)])
    def test_gmres_solves_a_generic_complex_system(self, scale, restarted):
        # the generator's Hessenberg matrices come out real; this one does not
        rng = np.random.default_rng(0)
        n = 80
        noise = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = sp.csr_matrix(np.eye(n) * (3 + 2j) + scale * noise)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x, iterations, converged = _gmres(a, lambda v: v / a.diagonal(), b)
        assert converged
        assert (iterations > GMRES_RESTART) == restarted
        assert np.linalg.norm(a @ x - b) <= GMRES_RTOL * np.linalg.norm(b)

    def test_closure_defect_small_off_center(self):
        sys = weak_drive_system(delta_p=0.3)
        rho = steady_state_dm(build_liouvillian(sys, SPEC44))
        assert closure_defect(rho, SPEC44) < 0.05

    def test_closure_defect_undefined_without_phonons(self):
        with pytest.raises(DomainError, match="<b> = 0"):
            closure_defect(vacuum_state(SPEC22), SPEC22)


class TestEvolve:
    def test_long_horizon_meets_direct_solve(self):
        # slowest decay 0.108/kappa_a: t = 120 leaves ~7e-8, well under 1e-6
        sys = weak_drive_system()
        liou = build_liouvillian(sys, SPEC44)
        info: dict = {}
        rho_t = evolve(vacuum_state(SPEC44), liou, t_end=120.0, info=info)
        rho_ss = steady_state_dm(liou)
        assert trace_distance(rho_t, rho_ss) < 1e-6
        assert info["n_steps"] > 0
        assert info["trace_drift"] < 1e-9
        assert float(np.linalg.eigvalsh(rho_t.matrix)[0]) >= -1e-8

    def test_zero_generator_is_the_identity_flow(self):
        dim2 = SPEC22.dim**2
        liou = Liouvillian(sp.csr_matrix((dim2, dim2), dtype=complex), SPEC22)
        rho0 = vacuum_state(SPEC22)
        rho = evolve(rho0, liou, t_end=5.0)
        assert trace_distance(rho, rho0) < 1e-12

    def test_rejects_bad_arguments(self):
        liou = build_liouvillian(weak_drive_system(), SPEC22)
        with pytest.raises(DomainError):
            evolve(vacuum_state(SPEC22), liou, t_end=0.0)
        with pytest.raises(DomainError):
            evolve(vacuum_state(SPEC22), liou, t_end=1.0, tol=0.5)


class TestCounterRotatingProbe:
    def test_silent_when_decoupled(self):
        err = rwa_error_probe(
            decoupled_system(epsilon=0.01), SPEC22, omega_sum=50.0, t_end=1.0
        )
        assert err < 1e-12

    def test_error_shrinks_inversely_with_the_carrier(self):
        # first-order averaging: the deviation plateaus within one carrier
        # period and its size falls off as 1/omega_sum
        sys = weak_drive_system()
        errs = [
            rwa_error_probe(sys, SPEC22, omega_sum=w, t_end=1.0)
            for w in (25.0, 100.0, 400.0)
        ]
        assert errs[0] > errs[1] > errs[2] > 0.0
        assert errs[0] > 8.0 * errs[2]  # asymptotically 16x

    def test_rejects_nonpositive_carrier(self):
        with pytest.raises(DomainError):
            rwa_error_probe(weak_drive_system(), SPEC22, omega_sum=0.0)


class TestDensityMatrix:
    def test_accepts_vacuum(self):
        v = vacuum_state(SPEC22)
        assert v.matrix[0, 0] == 1.0
        assert v.dim == SPEC22.dim
        assert expectation(build_operators(SPEC22).identity, v) == pytest.approx(1.0)
        assert expectation(build_operators(SPEC22).sigma_z, v) == pytest.approx(-1.0)

    def test_rejects_nonhermitian(self):
        m = np.zeros((8, 8), dtype=complex)
        m[0, 0] = 1.0
        m[0, 1] = 0.5
        with pytest.raises(DomainError, match="hermitian"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError, match="trace"):
            DensityMatrix(np.eye(8, dtype=complex))

    def test_rejects_negative_eigenvalues(self):
        m = np.zeros((8, 8), dtype=complex)
        m[0, 0] = 1.5
        m[1, 1] = -0.5
        with pytest.raises(DomainError, match="eigenvalue"):
            DensityMatrix(m)

    def test_expectation_accepts_dense_arguments(self):
        spec = SPEC22
        rho = vacuum_state(spec)
        ops = build_operators(spec)
        dense = expectation(ops.sigma_z.toarray(), rho.matrix)
        assert dense == expectation(ops.sigma_z, rho)
