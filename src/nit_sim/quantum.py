"""Full master-equation route on a truncated Hilbert space.

Basis order is qubit (x) Fock(a) (x) Fock(b), with qubit basis {|g>, |e>}
and sigma_z|e> = +|e>.  Density matrices are column-vectorized, so
vec(A rho B) = kron(B^T, A) vec(rho), and the generator is

    L = -i[(I (x) H) - (H^T (x) I)]
        + sum_k c_k [2 conj(B_k) (x) B_k - I (x) B_k^dag B_k
                     - (B_k^dag B_k)^T (x) I]

with channels (c, B):

    (gamma/2,     sigma_-)   qubit relaxation: population decay gamma
    (gamma_phi/4, sigma_z)   pure dephasing: coherence decay gamma_phi
    (kappa_a/2,   a)         driven-mode amplitude decay kappa_a/2
    (kappa_b/2,   b)         mechanical amplitude decay kappa_b/2

The dephasing prefactor is fixed by requiring the qubit coherence linewidth
kappa_q = 2*gamma_phi + gamma seen by the other two backends; with the
doubled dissipator convention above, a prefactor c on sigma_z decays the
coherence at 4c.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    DomainError,
    SolverError,
    StiffnessError,
)
from .model import SystemParams

# scipy is imported inside the functions that solve the master equation, so
# the analytic and mean-field commands never pay for loading it.
if TYPE_CHECKING:
    import scipy.sparse as sp

log = logging.getLogger(__name__)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
TRACE_DRIFT_MAX = 1e-9
RESIDUAL_TOL = 1e-10
SOLVE_RTOL = 1e-13
SOLVE_MAXITER = 50  # BiCGSTAB iterations (two preconditioner solves each)
DIM2_CAP = 250_000  # superoperator dimension dim^2
_PROBE_TOL = 1e-9  # rwa_error_probe: relative step tolerance
_PROBE_SAMPLES = 81  # evenly spaced times at which it compares the states


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation of the two bosonic modes; total dim = 2 * n_a * n_b."""

    n_a: int = 5
    n_b: int = 5

    def __post_init__(self):
        if self.n_a < 2 or self.n_b < 2:
            raise DomainError(
                f"need at least two Fock levels per mode, got "
                f"n_a={self.n_a}, n_b={self.n_b}"
            )
        if self.dim * self.dim > DIM2_CAP:
            raise DomainError(
                f"superoperator dimension {self.dim}^2 = {self.dim**2} "
                f"exceeds the cap {DIM2_CAP}"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n_a * self.n_b


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Embedded single-subsystem operators as plain csr matrices."""

    a: sp.csr_matrix
    b: sp.csr_matrix
    sigma_minus: sp.csr_matrix
    sigma_z: sp.csr_matrix
    identity: sp.csr_matrix


def _destroy(n: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.diags(np.sqrt(np.arange(1, n)), 1, format="csr")


@lru_cache(maxsize=None)
def build_operators(spec: HilbertSpec) -> OperatorSet:
    """Embedded single-subsystem operators, built once per truncation."""
    import scipy.sparse as sp

    i2 = sp.identity(2, format="csr")
    ia = sp.identity(spec.n_a, format="csr")
    ib = sp.identity(spec.n_b, format="csr")
    sm2 = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # |g><e|
    sz2 = sp.csr_matrix(np.diag([-1.0, 1.0]))

    def emb(q, ta, tb):
        return sp.kron(sp.kron(q, ta), tb, format="csr")

    return OperatorSet(
        a=emb(i2, _destroy(spec.n_a), ib),
        b=emb(i2, ia, _destroy(spec.n_b)),
        sigma_minus=emb(sm2, ia, ib),
        sigma_z=emb(sz2, ia, ib),
        identity=emb(i2, ia, ib),
    )


def build_hamiltonian(sys: SystemParams, spec: HilbertSpec) -> sp.csr_matrix:
    """Driven rotating-frame Hamiltonian on the truncated space.

    H = (Dq/2) sz + Da a'a + Db b'b - lam (a b' + b a')
        + g (s+ b + s- b') + (eps a' + conj(eps) a)

    with Da = delta_p, Db = delta_p + delta_b_offset,
    Dq = delta_p + delta_q_offset.
    """
    ops = build_operators(spec)
    a, b, sm, sz = ops.a, ops.b, ops.sigma_minus, ops.sigma_z
    adag, bdag, splus = a.conj().T, b.conj().T, sm.conj().T

    da = sys.delta_p
    db = sys.delta_p + sys.delta_b_offset
    dq = sys.delta_p + sys.delta_q_offset
    eps = sys.epsilon

    h = (
        0.5 * dq * sz
        + da * (adag @ a)
        + db * (bdag @ b)
        - sys.lam * (a @ bdag + b @ adag)
        + sys.g * (splus @ b + sm @ bdag)
        + eps * adag + np.conj(eps) * a
    ).tocsr()

    defect = abs(h - h.conj().T).max()
    scale = max(abs(h).max(), 1.0)
    if defect > 1e-12 * scale:
        raise SolverError(f"assembled Hamiltonian not hermitian: defect {defect:.3e}")
    return h


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Sparse generator acting on column-vectorized density matrices, with
    the shift-independent parts of its steady-state solve (``pieces``, see
    ``_build_pieces``), built once here.

    ``matrix`` is kept as a complex csr copy whose diagonal is stored in full,
    explicit zeros included (with no qubit damping an n1 != n2 entry can
    vanish), so that L + shift*D has the sparsity of L for every shift.
    """

    matrix: sp.csr_matrix
    spec: HilbertSpec
    pieces: _Pieces = field(init=False, repr=False)

    def __post_init__(self):
        m = self.matrix.tocsr().astype(complex)
        m.sum_duplicates()
        m.setdiag(m.diagonal())
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "pieces", _build_pieces(m, self.spec))

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def dim2(self) -> int:
        return self.dim * self.dim

    def trace_vector(self) -> np.ndarray:
        """Row functional t with t . vec(rho) = trace(rho)."""
        t = np.zeros(self.dim2)
        t[np.arange(self.dim) * (self.dim + 1)] = 1.0
        return t

    def trace_defect(self) -> float:
        """Max abs of the trace functional applied to the generator columns."""
        return float(np.max(np.abs(self.trace_vector() @ self.matrix)))


def _lmul(op: sp.spmatrix, ident: sp.spmatrix) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.kron(ident, op, format="csr")


def _rmul(op: sp.spmatrix, ident: sp.spmatrix) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.kron(op.T, ident, format="csr")


def build_liouvillian(sys: SystemParams, spec: HilbertSpec) -> Liouvillian:
    """Assemble the vectorized generator for the given rate set."""
    import scipy.sparse as sp

    ops = build_operators(spec)
    h = build_hamiltonian(sys, spec)
    ident = ops.identity

    gen = -1j * (_lmul(h, ident) - _rmul(h, ident))
    channels = (
        (0.5 * sys.gamma, ops.sigma_minus),
        (0.25 * sys.gamma_phi, ops.sigma_z),  # coherence decay gamma_phi
        (0.5 * sys.kappa_a, ops.a),
        (0.5 * sys.kappa_b, ops.b),
    )
    for rate, op in channels:
        if rate == 0.0:
            continue
        bb = (op.conj().T @ op).tocsr()
        gen = gen + rate * (
            2.0 * sp.kron(op.conj(), op, format="csr")
            - _lmul(bb, ident)
            - _rmul(bb, ident)
        )

    liou = Liouvillian(gen.tocsr(), spec)
    defect = liou.trace_defect()
    if defect > 1e-10:
        raise SolverError(f"generator does not preserve trace: defect {defect:.3e}")
    return liou


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix: finite, hermitian, unit trace, positive to tolerance."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if not np.isfinite(m).all():
            raise DomainError("density matrix has non-finite entries")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > HERM_TOL:
            raise DomainError(f"not hermitian: max|rho - rho^dag| = {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace {tr!r} differs from 1 beyond {TRACE_TOL:g}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < EIG_FLOOR:
            raise DomainError(f"negative eigenvalue {lo:.3e} below {EIG_FLOOR:g}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def vacuum_state(spec: HilbertSpec) -> DensityMatrix:
    """|g, 0, 0><g, 0, 0|."""
    m = np.zeros((spec.dim, spec.dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(m)


def _vec(m: np.ndarray) -> np.ndarray:
    return m.ravel(order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim, order="F")


def expectation(op: sp.spmatrix, rho) -> complex:
    """trace(op . rho) for a sparse operator and a DensityMatrix or ndarray."""
    if isinstance(rho, DensityMatrix):
        rho = rho.matrix
    return complex(op.multiply(rho.T).sum())


@dataclass(frozen=True, eq=False)
class _Pieces:
    """What the steady state of L + shift*D needs that no shift changes (see
    ``_build_pieces``); unknowns are numbered in excitation order.  Each entry
    of ``a`` and ``pre`` is the position in L.data of the value it takes."""

    order: np.ndarray  # vec(rho) index of the vacuum, then of each unknown
    a: sp.csr_matrix  # the generator on the unknowns
    pre: sp.csc_matrix  # its probe-free part
    rhs: np.ndarray  # minus the vacuum column
    d: np.ndarray  # D's diagonal, -i(n1 - n2), in vec order
    diag: np.ndarray  # where L's diagonal sits in L.data, in vec order


def _build_pieces(matrix: sp.csr_matrix, spec: HilbertSpec) -> _Pieces:
    """Split the generator for the vacuum-fixed solve in excitation order.

    |i><j| carries the excitation pair (n1, n2), n = qubit + n_a + n_b.
    Apart from the probe, the generator conserves n1 - n2 and its jumps
    lower n1 + n2, so in (n1 + n2, n1) order its probe-free part is block
    triangular: LU in that natural order fills in only inside the diagonal
    blocks.  rho[0, 0] = 1 replaces the vacuum row (redundant by trace
    preservation) and unknown; the vacuum column becomes the source.
    ``matrix`` is canonical csr with its diagonal stored in full.
    """
    import scipy.sparse as sp

    q, na, nb = np.indices((2, spec.n_a, spec.n_b)).reshape(3, -1)
    n = q + na + nb
    n1, n2 = np.tile(n, spec.dim), np.repeat(n, spec.dim)
    order = np.lexsort((n1, n1 + n2))  # the vacuum alone has n1 + n2 = 0
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - 1

    coo = matrix.tocoo()  # keeps the order of matrix.data
    at = np.arange(coo.nnz)
    row, col = rank[coo.row], rank[coo.col]
    body = (row >= 0) & (col >= 0)
    keep = body & ((n1 - n2)[coo.row] == (n1 - n2)[coo.col])
    shape = (order.size - 1, order.size - 1)
    a = sp.csr_matrix((at[body], (row[body], col[body])), shape=shape)
    pre = sp.csc_matrix((at[keep], (row[keep], col[keep])), shape=shape)
    rhs = np.zeros(shape[0], dtype=complex)
    source = (row >= 0) & (col < 0)
    rhs[row[source]] = -coo.data[source]
    diag = np.flatnonzero(coo.row == coo.col)
    return _Pieces(order=order, a=a, pre=pre, rhs=rhs, d=-1j * (n1 - n2), diag=diag)


def _shifted(liou: Liouvillian, shift: float) -> sp.csr_matrix:
    """L + shift*D as one csr matrix with the sparsity of L."""
    if not shift:
        return liou.matrix
    m = liou.matrix.copy()
    m.data[liou.pieces.diag] += shift * liou.pieces.d
    return m


def _solve_structured(
    liou: Liouvillian, m: sp.csr_matrix
) -> tuple[np.ndarray | None, int, bool]:
    """Vacuum-fixed BiCGSTAB for the fixed point of ``m`` = L + shift*D:
    (trace-normalized vec(rho), iterations begun, converged), or
    (None, 0, False) when the preconditioner is singular.

    The LU of the probe-free part, taken in its natural (excitation) order,
    preconditions BiCGSTAB on the driven system (see ``_build_pieces``).  Both
    are gathered from m.data.  scipy's gmres would spin idle OpenBLAS threads
    on the other cores (its Krylov update is a BLAS gemv); bicgstab uses only
    level-1 operations, so it does not.  (numpy's vdot and norm, which it
    calls, stay on one thread up to 10000 elements, truncation (7, 7).)
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    p = liou.pieces
    a = sp.csr_matrix((m.data[p.a.data], p.a.indices, p.a.indptr), shape=p.a.shape)
    pre = sp.csc_matrix(
        (m.data[p.pre.data], p.pre.indices, p.pre.indptr), shape=p.pre.shape
    )
    try:
        lu = spla.splu(pre, permc_spec="NATURAL")
    except RuntimeError:  # the undriven generator has no unique fixed point
        return None, 0, False
    solves = 0

    def precondition(v):
        nonlocal solves
        solves += 1
        return lu.solve(v)

    y, status = spla.bicgstab(
        a, p.rhs, rtol=SOLVE_RTOL, atol=0.0, maxiter=SOLVE_MAXITER,
        M=spla.LinearOperator(a.shape, precondition, dtype=complex),
    )
    x = np.empty(liou.dim2, dtype=complex)
    x[p.order] = np.concatenate(([1.0], y))
    # an iteration solves twice, but may converge after its first solve
    return x / (liou.trace_vector() @ x), (solves + 1) // 2, status == 0


def _solve_lu(matrix: sp.spmatrix) -> np.ndarray:
    """Reference route: LU of the generator ``matrix`` with row 0 (a
    diagonal-element row, hence redundant by trace preservation) swapped for
    the trace functional, plus iterative refinement.  Returns vec(rho); the
    caller checks its residual."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = matrix.shape[0]
    trace = np.zeros(n)
    trace[:: math.isqrt(n) + 1] = 1.0
    m = sp.vstack([sp.csr_matrix(trace), matrix[1:]], format="csc")
    rhs_ = np.zeros(n, dtype=complex)
    rhs_[0] = 1.0

    try:
        lu = spla.splu(m)
    except RuntimeError as exc:  # singular factor
        if "singular" in str(exc).lower():
            raise DegenerateSteadyStateError(
                "generator is rank deficient beyond the trace direction"
            ) from exc
        raise SolverError(f"steady-state factorization failed: {exc}") from exc
    x = lu.solve(rhs_)
    for _ in range(2):
        r = rhs_ - m @ x
        if np.linalg.norm(r) <= 1e-14 * np.linalg.norm(x):
            break
        x = x + lu.solve(r)
    return x


def steady_state_dm(
    liou: Liouvillian, info: dict | None = None, shift: float = 0.0
) -> DensityMatrix:
    """Unique fixed point of L + shift*D, where D = -i diag(n1 - n2).

    delta_p enters H as delta_p*(N - 1/2), N the excitation number, so the
    generator at detuning delta_p is exactly L(0) + delta_p*D; a sweep
    assembles L(0) once (with every offset in it) and passes each detuning
    as ``shift``.  The checks made while assembling L hold for every shift:
    N - 1/2 is real and diagonal, so H stays hermitian, and the trace
    functional picks only n1 == n2 entries, where D vanishes, so L + shift*D
    preserves the trace as L does.

    Runs BiCGSTAB on the excitation-ordered system with the vacuum population
    fixed, preconditioned by the LU of its probe-free part (see
    ``_solve_structured``).  If that factor is singular, BiCGSTAB does not
    converge, or the residual ||(L + shift*D) vec(rho)||_2 exceeds 1e-10 *
    max|entries of L + shift*D|, it falls back to the LU of the
    trace-replaced generator, whose residual is held to the same bound.
    Rank deficiency beyond the trace direction raises
    DegenerateSteadyStateError, a missed residual SolverError.  ``info``, if
    given, receives the route taken ("structured" or "lu"), the BiCGSTAB
    iterations begun (half the preconditioner solves, rounded up), the
    residual and its threshold.
    """
    m = _shifted(liou, shift)
    threshold = RESIDUAL_TOL * float(np.abs(m.data).max())
    route = "structured"
    x, iterations, converged = _solve_structured(liou, m)
    residual = np.inf if x is None else float(np.linalg.norm(m @ x))
    if not (converged and residual <= threshold):
        if x is not None:
            log.warning(
                "structured steady state missed: BiCGSTAB %s after %d iterations, "
                "residual %.3e, threshold %.3e; falling back to LU",
                "converged" if converged else "did not converge",
                iterations, residual, threshold,
            )
        route = "lu"
        x = _solve_lu(m)
        residual = float(np.linalg.norm(m @ x))
        if not residual <= threshold:  # also catches a non-finite solution
            raise SolverError(
                f"steady-state residual {residual:.3e} exceeds {threshold:.3e}"
            )

    log.debug(
        "steady_state_dm: %s route, %d iterations, residual %.3e of %.3e",
        route, iterations, residual, threshold,
    )
    if info is not None:
        info.update(
            route=route, iterations=iterations, residual=residual,
            threshold=threshold,
        )
    s = _unvec(x, liou.dim)
    return DensityMatrix(0.5 * (s + s.conj().T))


def evolve(
    rho0: DensityMatrix,
    liou: Liouvillian,
    t_end: float,
    tol: float = 1e-9,
    info: dict | None = None,
) -> DensityMatrix:
    """Propagate a state to ``t_end`` with adaptive stepping.

    The state is re-hermitized after every accepted step; the hermiticity
    and trace drift are tracked (available through ``info``) and a trace
    drift beyond 1e-9 is an error.  Local error per step is controlled by
    ``tol`` (relative) with an absolute floor 1e-4*tol.
    """
    from scipy.integrate import RK45

    if not t_end > 0:
        raise DomainError(f"t_end must be > 0, got {t_end!r}")
    if not 0 < tol <= 1e-2:
        raise DomainError(f"tol must lie in (0, 1e-2], got {tol!r}")

    mat = liou.matrix
    solver = RK45(
        lambda t, y: mat @ y,
        0.0,
        _vec(rho0.matrix),
        t_end,
        rtol=tol,
        atol=tol * 1e-4,
    )
    herm_drift = 0.0
    trace_drift = 0.0
    n_steps = 0
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise StiffnessError("adaptive step failed during evolution")
        n_steps += 1
        s = _unvec(solver.y, liou.dim)
        herm_drift = max(herm_drift, float(np.max(np.abs(s - s.conj().T))))
        trace_drift = max(trace_drift, abs(s.trace() - 1.0))
        s = 0.5 * (s + s.conj().T)
        solver.y = _vec(s)
        solver.f = mat @ solver.y  # refresh the FSAL cache after projection

    log.debug(
        "evolve: %d steps, herm drift %.3e, trace drift %.3e",
        n_steps, herm_drift, trace_drift,
    )
    if info is not None:
        info.update(
            n_steps=n_steps, herm_drift=herm_drift, trace_drift=trace_drift
        )
    if trace_drift > TRACE_DRIFT_MAX:
        raise SolverError(f"trace drift {trace_drift:.3e} exceeds {TRACE_DRIFT_MAX:g}")
    return DensityMatrix(_unvec(solver.y, liou.dim))


def trace_distance(r1, r2) -> float:
    """T(r1, r2) = (1/2) sum |eig(r1 - r2)|."""
    m1 = r1.matrix if isinstance(r1, DensityMatrix) else r1
    m2 = r2.matrix if isinstance(r2, DensityMatrix) else r2
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m1 - m2))))


def rwa_error_probe(
    sys: SystemParams,
    spec: HilbertSpec,
    omega_sum: float,
    t_end: float = 2.0,
) -> float:
    """Size of the dropped counter-rotating terms at carrier scale omega_sum.

    Evolves the vacuum under the plain generator and under the generator
    with the fast terms reinstated,

        H_cr(t) = e^{-i omega_sum t} X + e^{+i omega_sum t} X^dag,
        X = -lam a b + g sigma_- b,

    and returns the largest trace distance between the two states over the
    run.  The distance shrinks as omega_sum grows (first-order averaging).
    Step underflow at extreme omega_sum is reported as a warning, not an
    error, and the scan up to that point is used.
    """
    from scipy.integrate import solve_ivp

    if not omega_sum > 0:
        raise DomainError(f"omega_sum must be > 0, got {omega_sum!r}")
    liou = build_liouvillian(sys, spec)
    ops = build_operators(spec)
    ident = ops.identity
    x = (-sys.lam * (ops.a @ ops.b) + sys.g * (ops.sigma_minus @ ops.b)).tocsr()
    s_lo = -1j * (_lmul(x, ident) - _rmul(x, ident))
    xd = x.conj().T.tocsr()
    s_hi = -1j * (_lmul(xd, ident) - _rmul(xd, ident))

    n2 = liou.dim2
    lmat = liou.matrix
    v0 = _vec(vacuum_state(spec).matrix)
    w0 = np.concatenate([v0, v0])

    def deriv(t, w):
        plain, full = w[:n2], w[n2:]
        ph = np.exp(-1j * omega_sum * t)
        out = np.empty_like(w)
        out[:n2] = lmat @ plain
        out[n2:] = lmat @ full + ph * (s_lo @ full) + np.conj(ph) * (s_hi @ full)
        return out

    sol = solve_ivp(
        deriv,
        (0.0, t_end),
        w0,
        method="RK45",
        t_eval=np.linspace(0.0, t_end, _PROBE_SAMPLES),
        rtol=_PROBE_TOL,
        atol=_PROBE_TOL * 1e-3,
    )
    if not sol.success:
        warnings.warn(
            f"probe integration stopped early ({sol.message}); "
            "using the partial scan",
            stacklevel=2,
        )
    worst = 0.0
    for j in range(sol.y.shape[1]):
        r_plain = _unvec(sol.y[:n2, j], liou.dim)
        r_full = _unvec(sol.y[n2:, j], liou.dim)
        worst = max(worst, trace_distance(r_plain, r_full))
    return worst
