"""Master-equation backend: operators, generator, steady states, evolution."""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from nit_sim import (
    DegenerateSteadyStateError,
    DensityMatrix,
    DomainError,
    HilbertSpec,
    Liouvillian,
    SolverError,
    StiffnessError,
    SystemParams,
    ZERO_STATE,
    build_hamiltonian,
    build_liouvillian,
    build_operators,
    evolve,
    expectation,
    integrate,
    rwa_error_probe,
    steady_state,
    steady_state_dm,
    trace_distance,
    vacuum_state,
)
from nit_sim import quantum
from nit_sim.quantum import _solve_lu
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


def vacuum_fixed(liou: Liouvillian, m: sp.csr_matrix):
    """The generator ``m`` on the unknowns of the vacuum-fixed solve (``a``),
    its probe-free part (``pre``: the entries that keep n1 - n2) and the
    vec-transpose |i><j| -> |j><i| as a permutation ``t`` of the unknowns."""
    p, dim = liou.pieces, liou.spec.dim
    a = sp.csr_matrix((m.data[p.a.data], p.a.indices, p.a.indptr), shape=p.a.shape)
    n = np.indices((2, liou.spec.n_a, liou.spec.n_b)).sum(axis=0).ravel()
    k = p.order[1:]
    coherence = (np.tile(n, dim) - np.repeat(n, dim))[k]
    c = a.tocoo()
    keep = coherence[c.row] == coherence[c.col]
    pre = sp.csr_matrix((c.data[keep], (c.row[keep], c.col[keep])), shape=a.shape)
    rank = np.empty_like(p.order)
    rank[p.order] = np.arange(p.order.size) - 1
    return a, pre, rank[k % dim * dim + k // dim]


def kron_generator(sys: SystemParams, spec: HilbertSpec) -> sp.csr_matrix:
    """Reference: L = -i S(K, I) + i S(I, K^dag) + sum_k 2 c_k S(B_k, B_k^dag)
    as a sum of kron products, S(A, B) = kron(B^T, A)."""
    ops = build_operators(spec)
    ident = ops.identity
    k = build_hamiltonian(sys, spec)
    jumps = []
    for rate, op in (
        (0.5 * sys.gamma, ops.sigma_minus),
        (0.25 * sys.gamma_phi, ops.sigma_z),
        (0.5 * sys.kappa_a, ops.a),
        (0.5 * sys.kappa_b, ops.b),
    ):
        if rate:
            k = k - 1j * rate * (op.conj().T @ op)
            jumps.append(2.0 * rate * sp.kron(op.conj(), op, format="csr"))
    return (
        -1j * sp.kron(ident, k, format="csr")
        + 1j * sp.kron(k.conj(), ident, format="csr")
        + sum(jumps)
    )


def kron_operators(spec: HilbertSpec) -> dict[str, sp.csr_matrix]:
    """Reference: each operator as the kron product qubit (x) Fock(a) (x)
    Fock(b) of its single-subsystem factor and identities, stored zeros
    dropped."""
    i2, ia, ib = (sp.identity(n, format="csr") for n in (2, spec.n_a, spec.n_b))
    da, db = (sp.diags(np.sqrt(np.arange(1.0, n)), 1) for n in (spec.n_a, spec.n_b))
    factors = {
        "a": (i2, da, ib),
        "b": (i2, ia, db),
        "sigma_minus": (sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])), ia, ib),
        "sigma_z": (sp.diags([-1.0, 1.0]), ia, ib),
        "identity": (i2, ia, ib),
    }
    out = {}
    for name, (q, fa, fb) in factors.items():
        out[name] = sp.kron(sp.kron(q, fa), fb, format="csr")
        out[name].eliminate_zeros()
    return out


# (n, overrides) of the coherence-order symmetry checks
COHERENCE_CASES = pytest.mark.parametrize(
    "n, overrides",
    [
        (5, {}),
        (6, dict(epsilon=0.3)),
        (5, dict(delta_b_offset=0.1, delta_q_offset=-0.05)),
        (5, dict(epsilon=0.01 + 0.005j)),
    ],
    ids=["weak", "eps0.3", "offsets", "complex-drive"],
)


class TestOperators:
    @pytest.mark.parametrize("n_a, n_b", [(2, 2), (3, 2), (2, 5), (5, 5)])
    def test_operators_equal_the_kron_embedding(self, n_a, n_b):
        """Built from the basis index, every operator stores no zeros and
        equals its kron embedding entry for entry, two-level modes included."""
        spec = HilbertSpec(n_a, n_b)
        ops = build_operators(spec)
        for name, ref in kron_operators(spec).items():
            op = getattr(ops, name)
            assert np.all(op.data != 0), name
            np.testing.assert_array_equal(op.indptr, ref.indptr, err_msg=name)
            np.testing.assert_array_equal(op.indices, ref.indices, err_msg=name)
            np.testing.assert_array_equal(op.data, ref.data, err_msg=name)

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

    @pytest.mark.parametrize(
        "n_a, n_b, shown", [(2.5, 3, "2.5, 3"), (4, 3.0, "4, 3.0")], ids=["n_a", "n_b"]
    )
    def test_truncation_must_be_an_integer(self, n_a, n_b, shown):
        with pytest.raises(DomainError, match=f"n_a, n_b must be integers, got {shown}"):
            HilbertSpec(n_a, n_b)
        assert HilbertSpec(np.int64(3), np.int32(2)).dim == 12


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

    def test_non_hermitian_assembly_is_a_solver_error(self, monkeypatch):
        # a sigma_z with an imaginary diagonal makes (Dq/2) sz anti-hermitian in part
        ops = build_operators(SPEC22)
        broken = replace(ops, sigma_z=ops.sigma_z * (1.0 + 0.5j))
        monkeypatch.setattr(quantum, "build_operators", lambda spec: broken)
        with pytest.raises(SolverError, match="not hermitian: defect"):
            build_hamiltonian(weak_drive_system(delta_p=0.3), SPEC22)


class TestLiouvillian:
    def test_generator_that_loses_trace_is_a_solver_error(self, monkeypatch):
        # an anti-hermitian part of H, let through unchecked, drains the trace
        h = build_hamiltonian(weak_drive_system(), SPEC22)
        leaky = h + 0.1j * build_operators(SPEC22).identity
        monkeypatch.setattr(quantum, "build_hamiltonian", lambda sys, spec: leaky)
        with pytest.raises(SolverError, match="does not preserve trace: defect"):
            build_liouvillian(weak_drive_system(), SPEC22)

    def test_trace_preservation(self):
        liou = build_liouvillian(weak_drive_system(), SPEC44)
        trace = np.eye(SPEC44.dim).ravel(order="F")
        assert np.max(np.abs(trace @ liou.matrix)) <= 1e-10
        assert liou.matrix.shape == (SPEC44.dim**2, SPEC44.dim**2)

    @pytest.mark.parametrize(
        "overrides, nnz",
        [
            (dict(), (368, 1000, 2565)),
            (
                dict(delta_p=0.37, delta_b_offset=0.07, delta_q_offset=-0.05,
                     epsilon=0.02 - 0.03j, kappa_b=0.02, gamma=0.03, gamma_phi=0.05),
                (368, 1000, 2565),
            ),
            (dict(gamma=0.0, gamma_phi=0.0), (352, 964, 2484)),
        ],
        ids=["criterion-02", "all-channels", "undamped-qubit"],
    )
    def test_generator_is_the_lindblad_equation(self, overrides, nnz):
        # column i + j*dim of L is vec(L |i><j|), with L applied densely as
        # -i[H, E] + sum_k c_k (2 B E B' - B'B E - E B'B)
        sys = weak_drive_system(**overrides)
        for spec, want_nnz in zip((SPEC22, HilbertSpec(3, 2), HilbertSpec(3, 3)), nnz):
            ops = build_operators(spec)
            h = build_hamiltonian(sys, spec).toarray()
            channels = [
                (c, b.toarray(), b.conj().T.toarray())
                for c, b in (
                    (0.5 * sys.gamma, ops.sigma_minus),
                    (0.25 * sys.gamma_phi, ops.sigma_z),
                    (0.5 * sys.kappa_a, ops.a),
                    (0.5 * sys.kappa_b, ops.b),
                )
            ]
            dim = spec.dim
            want = np.empty((dim * dim, dim * dim), dtype=complex)
            for j in range(dim):
                for i in range(dim):
                    e = np.zeros((dim, dim))
                    e[i, j] = 1.0
                    out = -1j * (h @ e - e @ h)
                    for c, b, bd in channels:
                        out += c * (2 * b @ e @ bd - bd @ b @ e - e @ bd @ b)
                    want[:, i + j * dim] = out.ravel(order="F")

            m = build_liouvillian(sys, spec).matrix
            got = m.toarray()
            assert np.abs(got - want).max() <= 1e-15 * np.abs(got).max()
            # the dense nonzeros, plus the diagonal that Liouvillian stores in full
            coo = m.tocoo()
            stored = np.zeros(want.shape, dtype=bool)
            stored[coo.row, coo.col] = True
            np.testing.assert_array_equal(
                stored, (want != 0) | np.eye(dim * dim, dtype=bool)
            )
            assert m.nnz == want_nnz

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(epsilon=0.02 - 0.03j, delta_b_offset=0.07, delta_q_offset=-0.05),
            dict(gamma=0.0, gamma_phi=0.0),
            dict(kappa_b=0.0),
        ],
        ids=["weak", "complex-drive-offsets", "undamped-qubit", "undamped-mechanics"],
    )
    def test_one_pass_assembly_equals_the_kron_sum(self, overrides):
        sys = weak_drive_system(**overrides)
        for spec in (SPEC22, HilbertSpec(3, 2), HilbertSpec(5, 5)):
            got = build_liouvillian(sys, spec).matrix
            want = Liouvillian(kron_generator(sys, spec), spec).matrix
            assert got.nnz == want.nnz, spec
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), (spec, part)

    def test_a_callers_csr_keeps_its_bytes(self):
        # a duplicate, unsorted columns and a missing diagonal: making this
        # canonical in place would rewrite all three arrays
        n = SPEC22.dim**2
        data = np.array([1.0 + 2.0j, 3.0, -1.0j, 0.5, 0.25j])
        indices = np.array([5, 0, 5, n - 1, 2], dtype=np.int32)
        indptr = np.array([0, 3] + [4] * (n - 2) + [5], dtype=np.int32)
        m = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        parts = ("data", "indices", "indptr")
        before = [getattr(m, part).tobytes() for part in parts]
        dense = m.toarray()
        liou = Liouvillian(m, SPEC22)
        assert [getattr(m, part).tobytes() for part in parts] == before
        assert liou.matrix.has_canonical_format
        assert liou.matrix.nnz == n + 3  # the full diagonal and three entries off it
        np.testing.assert_array_equal(liou.matrix.toarray(), dense)

    @pytest.mark.parametrize("spec", [SPEC22, HilbertSpec(3, 2), HilbertSpec(5, 5)], ids=str)
    def test_generator_arrays_are_exactly_nnz_long(self, spec):
        m = build_liouvillian(weak_drive_system(), spec).matrix
        for part in (m.data, m.indices):
            held = part
            while isinstance(held.base, np.ndarray):  # a view keeps its whole buffer
                held = held.base
            assert part.size == m.nnz
            assert held.nbytes == part.nbytes

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

    def test_generator_without_its_zero_diagonal_gives_the_same_state(self):
        # Liouvillian stores the diagonal in full, so every shift has a slot
        spec = HilbertSpec(3, 3)
        built = build_liouvillian(weak_drive_system(gamma=0.0, gamma_phi=0.0), spec)
        m = built.matrix.copy()
        m.eliminate_zeros()
        assert m.nnz < built.matrix.nnz
        by_hand = Liouvillian(m, spec)
        assert by_hand.matrix.nnz == built.matrix.nnz
        want = steady_state_dm(built, shift=0.37).matrix
        assert steady_state_dm(by_hand, shift=0.37).matrix.tobytes() == want.tobytes()

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
        [dict(delta_b_offset=0.07), dict(delta_q_offset=-0.05), dict(epsilon=0.01 + 0.005j)],
        ids=["delta_b_offset", "delta_q_offset", "complex-drive"],
    )
    def test_mirror_fails_its_residual_without_the_symmetry(self, overrides):
        liou = build_liouvillian(weak_drive_system(**overrides), HilbertSpec(3, 3))
        rho = steady_state_dm(liou, shift=-0.4)
        with pytest.raises(SolverError, match=r"steady-state residual .* exceeds"):
            quantum.mirror_dm(liou, rho, 0.4)

    # BiCGSTAB iterations at each of the 11 points, as measured: a slower
    # preconditioner that still converges must not pass unnoticed
    @pytest.mark.parametrize(
        "overrides, ceilings",
        [
            (dict(delta_b_offset=0.07, delta_q_offset=-0.05),
             (3, 4, 4, 5, 4, 5, 5, 5, 4, 4, 3)),
            (dict(epsilon=0.3), (11, 12, 17, 27, 27, 25, 27, 27, 17, 12, 11)),
            (dict(epsilon=0.01 + 0.005j), (4, 4, 4, 5, 5, 6, 5, 5, 4, 4, 4)),
        ],
        ids=["offsets", "eps0.3", "complex-drive"],
    )
    def test_structured_route_matches_lu_reference(self, overrides, ceilings):
        # per point (L assembled at each detuning) and per sweep (L(0) shifted)
        spec = HilbertSpec(5, 5)
        a_op = build_operators(spec).a
        l0 = build_liouvillian(weak_drive_system(**overrides), spec)
        worst = worst_sweep = sweep_vs_point = 0.0
        for d, ceiling in zip(detuning_grid(-1.5, 1.5, 11), ceilings, strict=True):
            liou = build_liouvillian(
                weak_drive_system(delta_p=float(d), **overrides), spec
            )
            info: dict = {}
            a_fast = expectation(a_op, steady_state_dm(liou, info=info))
            assert info["route"] == "structured"
            assert info["iterations"] <= ceiling, d
            shifted: dict = {}
            a_sweep = expectation(a_op, steady_state_dm(l0, info=shifted, shift=float(d)))
            assert shifted["route"] == "structured"
            assert shifted["iterations"] <= ceiling, d
            assert shifted["residual"] <= shifted["threshold"]
            assert shifted["threshold"] == pytest.approx(info["threshold"], rel=1e-14)
            x = _solve_lu(liou.matrix)
            assert np.linalg.norm(liou.matrix @ x) <= info["threshold"]
            a_ref = expectation(a_op, x.reshape(spec.dim, spec.dim, order="F"))
            worst = max(worst, abs(a_fast - a_ref) / abs(a_ref))
            worst_sweep = max(worst_sweep, abs(a_sweep - a_ref) / abs(a_ref))
            sweep_vs_point = max(sweep_vs_point, abs(a_sweep - a_fast) / abs(a_fast))
        assert worst <= 1e-12
        assert worst_sweep <= 1e-12
        assert sweep_vs_point <= 1e-13

    @pytest.mark.parametrize("n_a, n_b", [(2, 2), (3, 2), (5, 5)])
    def test_unknowns_come_in_coherence_blocks(self, n_a, n_b):
        # the preconditioner slices the unknowns at k0 and k1: the m = 0 run,
        # the m > 0 run, each in (n1 + n2, n1) order, then the transposes of
        # the m > 0 run in the same sequence; within a block |i><j| runs by
        # (n_b, qubit) of j, then of i, which keeps each block's LU banded
        spec = HilbertSpec(n_a, n_b)
        p, dim = build_liouvillian(weak_drive_system(), spec).pieces, spec.dim
        qubit, _, phonons = np.indices((2, n_a, n_b)).reshape(3, -1)
        n = np.indices((2, n_a, n_b)).sum(axis=0).ravel()
        i, j = p.order % dim, p.order // dim
        n1, n2 = n[i], n[j]
        assert np.array_equal(np.sort(p.order), np.arange(dim**2))
        assert p.order[0] == idx(spec, 0, 0, 0) * (dim + 1)  # vec index of the vacuum
        zero, plus = slice(1, p.k0 + 1), slice(p.k0 + 1, p.k1 + 1)
        assert (n1[zero] == n2[zero]).all() and p.k0 > 0
        assert (n1[plus] > n2[plus]).all() and p.k1 > p.k0
        for run in (zero, plus):
            key = list(zip(n1[run] + n2[run], n1[run], phonons[j[run]], qubit[j[run]],
                           phonons[i[run]], qubit[i[run]]))
            assert key == sorted(key)
        k = p.order[plus]
        assert np.array_equal(p.order[p.k1 + 1:], k % dim * dim + k // dim)

    @COHERENCE_CASES
    @pytest.mark.parametrize("delta", [0.0, 0.6])
    def test_transpose_maps_the_system_onto_its_conjugate(self, n, overrides, delta):
        # T L T = conj(L) because L preserves hermiticity, exactly (only the
        # signs of zeros may differ); the preconditioner solves the m < 0
        # blocks with the conjugated m > 0 factor
        spec = HilbertSpec(n, n)
        l0 = build_liouvillian(weak_drive_system(**overrides), spec)
        at_delta = build_liouvillian(weak_drive_system(delta_p=delta, **overrides), spec)
        for liou, m in ((l0, quantum._shifted(l0, delta)), (at_delta, at_delta.matrix)):
            a, pre, t = vacuum_fixed(liou, m)
            for op in (a, pre):
                flipped, want = op[t][:, t], op.conj()
                flipped.sort_indices()
                want.sort_indices()
                assert np.array_equal(flipped.indptr, want.indptr)
                assert np.array_equal(flipped.indices, want.indices)
                assert np.array_equal(flipped.data, want.data)

    @COHERENCE_CASES
    @pytest.mark.parametrize("delta", [0.0, 0.6])
    def test_preconditioner_by_coherence_order_matches_the_whole_factor(
        self, n, overrides, delta
    ):
        import scipy.sparse.linalg as spla

        l0 = build_liouvillian(weak_drive_system(**overrides), HilbertSpec(n, n))
        m = quantum._shifted(l0, delta)
        _, pre, _ = vacuum_fixed(l0, m)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(pre.shape[0]) + 1j * rng.standard_normal(pre.shape[0])
        want = spla.splu(pre.tocsc(), permc_spec="NATURAL").solve(v)
        got = quantum._preconditioner(l0.pieces, m)(v)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

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

    def test_lu_residual_over_threshold_raises(self, monkeypatch, caplog):
        # a threshold no solve can meet sends the point to LU, which misses it too
        monkeypatch.setattr(quantum, "RESIDUAL_TOL", 1e-30)
        liou = build_liouvillian(matched_system(), HilbertSpec(3, 3))
        with caplog.at_level(logging.WARNING, logger="nit_sim.quantum"):
            with pytest.raises(SolverError, match=r"steady-state residual .* exceeds"):
                steady_state_dm(liou)
        assert "falling back to LU" in caplog.text

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

    # relative shift of <a> from (N, N) to (N + 1, N + 1) at N = 4 and 5; a
    # shift under 1e-11 is at the solve's resolution, so its entry (1e-11 or
    # less) is an upper bound: 1.7e-14 and 4.9e-12 were measured
    TRUNCATION_SHIFTS = {
        (0.01, 0.0): (1.40e-10, 1e-12),
        (0.01, 0.5): (2.82e-8, 1e-11),
        (0.1, 0.0): (1.24e-4, 1.58e-6),
        (0.1, 0.5): (1.88e-3, 3.42e-5),
        (0.3, 0.0): (3.95e-2, 5.17e-3),
        (0.3, 0.5): (1.23e-1, 2.43e-2),
    }

    @pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.3])
    def test_truncation_shifts_are_pinned(self, epsilon):
        # a faster solve must not move where the truncation is converged
        ladder = [
            build_liouvillian(weak_drive_system(epsilon=epsilon), HilbertSpec(n, n))
            for n in (4, 5, 6)
        ]
        for delta in (0.0, 0.5):
            a = [
                expectation(build_operators(liou.spec).a, steady_state_dm(liou, shift=delta))
                for liou in ladder
            ]
            expected = self.TRUNCATION_SHIFTS[epsilon, delta]
            for lo, hi, pinned in zip(a, a[1:], expected):
                shift = abs(hi - lo) / abs(hi)
                if pinned > 1e-11:
                    assert shift == pytest.approx(pinned, rel=0.1), (delta, pinned)
                else:
                    assert shift <= pinned, (delta, pinned)

    @pytest.mark.parametrize("shift", [-0.3, 0.0, 0.6, 1.2])
    def test_iterations_count_every_iteration_begun(self, monkeypatch, shift):
        # BiCGSTAB solves twice per iteration but may converge after the first
        import scipy.sparse.linalg as spla

        liou = build_liouvillian(weak_drive_system(), HilbertSpec(5, 5))
        assert liou.pieces.lu0 is not None  # made on first use: count only the per-point LU
        splu, solves = spla.splu, []

        class CountedLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, v):
                solves.append(1)
                return self.lu.solve(v)

        monkeypatch.setattr(spla, "splu", lambda *a, **k: CountedLU(splu(*a, **k)))
        info: dict = {}
        steady_state_dm(liou, info=info, shift=shift)
        assert info["route"] == "structured"
        assert info["iterations"] == (len(solves) + 1) // 2

    def test_undamped_sector_has_no_unique_fixed_point(self, caplog):
        with caplog.at_level(logging.WARNING, logger="nit_sim.quantum"):
            with pytest.raises(DegenerateSteadyStateError):
                steady_state_dm(build_liouvillian(lossy_mode_system(), SPEC22))
        assert not caplog.records  # a singular preconditioner is no BiCGSTAB miss

    def test_singular_point_factor_goes_to_lu_without_a_warning(self, monkeypatch, caplog):
        # the m = 0 factor is made before the patch; the m > 0 factor of the
        # point is then singular, and LU solves the point from scratch
        import scipy.sparse.linalg as spla

        liou = build_liouvillian(weak_drive_system(), SPEC44)
        assert liou.pieces.lu0 is not None
        splu = spla.splu

        def natural_singular(m, permc_spec=None, **kwargs):
            if permc_spec == "NATURAL":
                raise RuntimeError("Factor is exactly singular")
            return splu(m, **kwargs)

        monkeypatch.setattr(spla, "splu", natural_singular)
        info: dict = {}
        with caplog.at_level(logging.WARNING, logger="nit_sim.quantum"):
            rho = steady_state_dm(liou, info=info)
        assert (info["route"], info["iterations"]) == ("lu", 0)
        assert info["residual"] <= info["threshold"]
        assert not caplog.records
        assert rho.matrix.shape == (SPEC44.dim, SPEC44.dim)

    def test_factorization_failure_other_than_singular_is_a_solver_error(self, monkeypatch):
        import scipy.sparse.linalg as spla

        def failing(*args, **kwargs):
            raise RuntimeError("not enough memory")

        monkeypatch.setattr(spla, "splu", failing)
        liou = build_liouvillian(weak_drive_system(), SPEC22)
        with pytest.raises(SolverError, match="factorization failed: not enough memory"):
            steady_state_dm(liou)


    def test_state_that_is_no_density_matrix_is_a_solver_error(self):
        # at epsilon = 1e150 the LU state meets its residual bound with a
        # trace of about -9e4; BiCGSTAB's inner products overflow first
        liou = build_liouvillian(matched_system(lam=1.0, g=1.0, epsilon=1e150), SPEC22)
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            with pytest.raises(SolverError, match="trace .* differs from 1 beyond"):
                steady_state_dm(liou)


class TestEvolve:
    def test_evolution_factors_nothing(self, monkeypatch):
        # the steady-state pieces, with their m = 0 LU, are made on first use
        import scipy.sparse.linalg as spla

        splu, calls = spla.splu, []
        monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
        liou = build_liouvillian(weak_drive_system(), SPEC44)
        evolve(vacuum_state(SPEC44), liou, t_end=1.0)
        rwa_error_probe(weak_drive_system(), SPEC22, omega_sum=10.0)
        assert calls == []
        steady_state_dm(liou)
        assert len(calls) == 2  # the m = 0 block, then the point's m > 0 blocks

    def test_generator_with_a_singular_coherence_block_evolves(self):
        # undamped qubit and mechanics: the m = 0 block has a kernel
        liou = build_liouvillian(lossy_mode_system(), SPEC22)
        assert liou.pieces.lu0 is None
        start = np.zeros((SPEC22.dim, SPEC22.dim), dtype=complex)
        one = idx(SPEC22, 0, 1, 0)
        start[one, one] = 1.0
        rho = evolve(DensityMatrix(start), liou, t_end=1.0)
        ops = build_operators(SPEC22)
        photons = expectation(ops.a.conj().T @ ops.a, rho).real
        assert photons == pytest.approx(math.exp(-1.0), rel=1e-6)
        assert rwa_error_probe(lossy_mode_system(), SPEC22, omega_sum=10.0) < 1e-12

    def test_long_horizon_meets_direct_solve(self):
        # slowest decay 0.108/kappa_a: t = 120 leaves ~7e-8, well under 1e-6
        sys = weak_drive_system()
        liou = build_liouvillian(sys, SPEC44)
        info: dict = {}
        rho_t = evolve(vacuum_state(SPEC44), liou, t_end=120.0, info=info)
        rho_ss = steady_state_dm(liou)
        assert trace_distance(rho_t, rho_ss) < 1e-6
        assert info["herm_drift"] < 1e-10
        assert info["trace_drift"] < 1e-9
        assert float(np.linalg.eigvalsh(rho_t.matrix)[0]) >= -1e-8

    def test_zero_generator_is_the_identity_flow(self):
        dim2 = SPEC22.dim**2
        liou = Liouvillian(sp.csr_matrix((dim2, dim2), dtype=complex), SPEC22)
        rho0 = vacuum_state(SPEC22)
        rho = evolve(rho0, liou, t_end=5.0)
        assert trace_distance(rho, rho0) < 1e-12

    def test_trace_drift_is_held_to_the_density_matrix_bound(self):
        # evolve checks the drift against the trace tolerance of DensityMatrix,
        # so a drift above it is a SolverError, not DensityMatrix's DomainError
        dim2 = SPEC22.dim**2
        liou = Liouvillian(-5e-10 * sp.identity(dim2, dtype=complex, format="csr"), SPEC22)
        info: dict = {}
        with pytest.raises(SolverError, match="trace drift"):
            evolve(vacuum_state(SPEC22), liou, t_end=1.0, info=info)
        assert info["trace_drift"] == pytest.approx(5e-10, rel=1e-3)

    def test_state_that_is_no_density_matrix_is_a_solver_error(self):
        # d rho_00/dt = rho_00 = -d rho_11/dt keeps the trace but drives the
        # population of the second level negative
        dim = SPEC22.dim
        gen = sp.coo_matrix(([1.0, -1.0], ([0, dim + 1], [0, 0])), shape=(dim**2, dim**2))
        liou = Liouvillian(gen.astype(complex), SPEC22)
        with pytest.raises(SolverError, match="negative eigenvalue"):
            evolve(vacuum_state(SPEC22), liou, t_end=1.0)

    def test_rejects_bad_arguments(self):
        liou = build_liouvillian(weak_drive_system(), SPEC22)
        with pytest.raises(DomainError):
            evolve(vacuum_state(SPEC22), liou, t_end=0.0)

    @pytest.mark.parametrize("spec", [SPEC22, HilbertSpec(3, 2), HilbertSpec(3, 3)], ids=str)
    @pytest.mark.parametrize("epsilon", [0.01, 0.3])
    def test_matches_the_dense_exponential(self, spec, epsilon):
        import scipy.linalg

        liou = build_liouvillian(weak_drive_system(epsilon=epsilon, delta_p=0.3), spec)
        rho0 = vacuum_state(spec)
        for t in (0.5, 5.0, 40.0):
            v = scipy.linalg.expm(t * liou.matrix.toarray()) @ rho0.matrix.ravel(order="F")
            exact = v.reshape(spec.dim, spec.dim, order="F")
            exact = 0.5 * (exact + exact.conj().T)
            assert trace_distance(evolve(rho0, liou, t_end=t), exact) <= 1e-8, t


_WRONG_INPUTS = {
    "steady-nan-shift": lambda: steady_state_dm(
        build_liouvillian(weak_drive_system(), SPEC22), shift=math.nan
    ),
    "mirror-inf-shift": lambda: quantum.mirror_dm(
        build_liouvillian(weak_drive_system(), SPEC22), vacuum_state(SPEC22), math.inf
    ),
    "generator-too-small": lambda: Liouvillian(sp.identity(10), SPEC22),
    "generator-not-square": lambda: Liouvillian(sp.csr_matrix((64, 60)), SPEC22),
    "state-of-another-truncation": lambda: evolve(
        vacuum_state(SPEC22), build_liouvillian(weak_drive_system(), SPEC44), t_end=1.0
    ),
}


@pytest.mark.parametrize("entry", list(_WRONG_INPUTS))
def test_master_equation_inputs_raise_domain_error(entry):
    """A non-finite shift once surfaced as DegenerateSteadyStateError, and a
    generator or state of the wrong shape as numpy's ValueError."""
    with pytest.raises(DomainError, match="shift must be finite|generator"):
        _WRONG_INPUTS[entry]()


_HORIZONS = {
    "evolve": lambda h: evolve(
        vacuum_state(SPEC22), build_liouvillian(weak_drive_system(), SPEC22), t_end=h
    ),
    "integrate": lambda h: integrate(ZERO_STATE, matched_system(), t_end=h),
}


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", list(_HORIZONS))
def test_horizon_must_be_finite_and_positive(entry, horizon):
    """An infinite or NaN horizon once hung evolve, and ran the mean-field
    integrator into step underflow; both entry points name the value they
    reject."""
    with pytest.raises(DomainError, match=f"={horizon!r}|got {horizon!r}"):
        _HORIZONS[entry](horizon)


_INTEGRATIONS = {
    "evolve": lambda: evolve(
        vacuum_state(SPEC22), build_liouvillian(weak_drive_system(), SPEC22), t_end=1.0
    ),
    "rwa_error_probe": lambda: rwa_error_probe(weak_drive_system(), SPEC22, omega_sum=10.0),
}


@pytest.mark.parametrize("entry", list(_INTEGRATIONS))
def test_failed_integration_is_a_stiffness_error(entry, monkeypatch):
    """Both time evolutions fail alike, with scipy's message; the probe once
    warned and returned the distance over the states it had reached."""
    import scipy.integrate

    message = "Required step size is less than spacing between numbers."
    failed = SimpleNamespace(success=False, message=message)
    monkeypatch.setattr(scipy.integrate, "solve_ivp", lambda *args, **kwargs: failed)
    with pytest.raises(StiffnessError, match=message):
        _INTEGRATIONS[entry]()


class TestCounterRotatingProbe:
    def test_silent_when_decoupled(self):
        err = rwa_error_probe(decoupled_system(epsilon=0.01), SPEC22, omega_sum=50.0)
        assert err < 1e-12

    def test_error_shrinks_inversely_with_the_carrier(self):
        # first-order averaging: the deviation plateaus within one carrier
        # period and its size falls off as 1/omega_sum
        sys = weak_drive_system()
        errs = [rwa_error_probe(sys, SPEC22, omega_sum=w) for w in (25.0, 100.0, 400.0)]
        assert errs[0] > errs[1] > errs[2] > 0.0
        assert errs[0] > 8.0 * errs[2]  # asymptotically 16x

    @pytest.mark.parametrize("omega_sum", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_carrier(self, omega_sum):
        with pytest.raises(DomainError, match="omega_sum"):
            rwa_error_probe(weak_drive_system(), SPEC22, omega_sum=omega_sum)


class TestDensityMatrix:
    def test_accepts_vacuum(self):
        v = vacuum_state(SPEC22)
        assert v.matrix[0, 0] == 1.0
        assert v.matrix.shape == (SPEC22.dim, SPEC22.dim)
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

    @pytest.mark.parametrize(
        "m",
        [[[1.0, np.nan], [np.nan, 0.0]], np.full((2, 2), np.nan)],
        ids=["nan-coherence", "all-nan"],
    )
    def test_rejects_non_finite_entries(self, m):
        with pytest.raises(DomainError, match="non-finite"):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalues(self):
        m = np.zeros((8, 8), dtype=complex)
        m[0, 0] = 1.5
        m[1, 1] = -0.5
        with pytest.raises(DomainError, match="eigenvalue"):
            DensityMatrix(m)
