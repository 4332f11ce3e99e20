"""Full master-equation route on a truncated Hilbert space.

Basis order is qubit (x) Fock(a) (x) Fock(b), with qubit basis {|g>, |e>}
and sigma_z|e> = +|e>.  Density matrices are column-vectorized, so
vec(A rho B) = S(A, B) vec(rho) with S(A, B) = kron(B^T, A).  The generator
splits into the effective Hamiltonian K and the jumps,

    L rho = -i(K rho - rho K^dag) + sum_k 2 c_k B_k rho B_k^dag,
    K = H - i sum_k c_k B_k^dag B_k,

so that L = -i S(K, I) + i S(I, K^dag) + sum_k 2 c_k S(B_k, B_k^dag),
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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import (
    DegenerateSteadyStateError,
    DomainError,
    SolverError,
    StiffnessError,
)
# HilbertSpec and DIM2_CAP live in model, so a config can name a truncation
# without loading numpy; both stay importable from here
from .model import DIM2_CAP, HilbertSpec, SystemParams

# scipy is imported inside the functions that solve the master equation, so
# the analytic and mean-field commands never pay for loading it.
if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

log = logging.getLogger(__name__)

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-8
RESIDUAL_TOL = 1e-10
SOLVE_RTOL = 1e-13
SOLVE_MAXITER = 50  # BiCGSTAB iterations (two preconditioner solves each)
_ODE_TOL = 1e-9  # evolve, rwa_error_probe: RK45 relative tolerance, absolute 1e-4 of it
_PROBE_T_END = 2.0  # rwa_error_probe: integration horizon
_PROBE_SAMPLES = 81  # evenly spaced times at which it compares the states


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Embedded single-subsystem operators as plain csr matrices."""

    a: sp.csr_matrix
    b: sp.csr_matrix
    sigma_minus: sp.csr_matrix
    sigma_z: sp.csr_matrix
    identity: sp.csr_matrix


@lru_cache(maxsize=None)
def build_operators(spec: HilbertSpec) -> OperatorSet:
    """Embedded single-subsystem operators, built once per truncation.

    State (q, i, j) of qubit, mode a and mode b sits at basis index
    k = (q*n_a + i)*n_b + j.  Each operator moves state k to k - step with
    amplitude amp[k] and stores no zeros.
    """
    import scipy.sparse as sp

    q, i, j = np.indices((2, spec.n_a, spec.n_b)).reshape(3, -1)

    def op(amp, step):
        src = np.flatnonzero(amp)
        return sp.csr_matrix((amp[src].astype(float), (src - step, src)), shape=(spec.dim,) * 2)

    return OperatorSet(
        a=op(np.sqrt(i), spec.n_b),
        b=op(np.sqrt(j), 1),
        sigma_minus=op(q, spec.n_a * spec.n_b),
        sigma_z=op(2 * q - 1, 0),
        identity=op(np.ones(spec.dim), 0),
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
    """Sparse generator acting on column-vectorized density matrices.

    ``matrix``, of any sparse format, is made here, in one copy, a canonical
    complex csr whose diagonal is stored in full, explicit zeros included
    (with no qubit damping an n1 != n2 entry can vanish), so that L +
    shift*D has the sparsity of L for every shift.
    The steady-state ``pieces`` (see ``_build_pieces``) are built on first
    use: a generator that is only evolved never pays for them.
    """

    matrix: sp.csr_matrix
    spec: HilbertSpec

    def __post_init__(self):
        n = self.spec.dim**2
        if self.matrix.shape != (n, n):
            raise DomainError(f"generator is {self.matrix.shape}, truncation needs {(n, n)}")
        m = self.matrix.tocsr(copy=True).astype(complex, copy=False)
        m.sum_duplicates()
        m.setdiag(m.diagonal())
        object.__setattr__(self, "matrix", m)

    @cached_property
    def pieces(self) -> _Pieces:
        return _build_pieces(self.matrix, self.spec)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is rejected below
def build_liouvillian(sys: SystemParams, spec: HilbertSpec) -> Liouvillian:
    """Assemble the vectorized generator from the effective Hamiltonian K and
    the jumps (see the module docstring) in one pass over their nonzeros.

    Every B_k^dag B_k is diagonal, so K is H off its diagonal, and each B_k
    is diagonal or zero there, so the kron products of L meet only on its
    diagonal.  Each entry is laid out by index arithmetic and its value
    formed, and on the diagonal summed, as the sum of the kron products
    would form it: L equals that sum entry for entry.  A generator that
    overflows a double (a rate, the drive or an offset near 1e308) raises
    DomainError.
    """
    import scipy.sparse as sp

    ops = build_operators(spec)
    h = build_hamiltonian(sys, spec)
    d, n = spec.dim, np.int64(spec.dim) ** 2

    def kron(x, y, scale):  # row * n + col and value of each entry of scale * kron(x, y)
        (xr, xc, xv), (yr, yc, yv) = sp.find(x), sp.find(y)
        key = (yr + d * xr[:, None]) * n + yc + d * xc[:, None]
        return key.ravel(), (scale * np.multiply.outer(xv, yv)).ravel()

    k_diag, k_off = h.diagonal(), h - sp.diags(h.diagonal())
    # -i S(K, I) + i S(I, K^dag) off the diagonal, then sum_k 2 c_k S(B_k, B_k^dag)
    terms = [kron(ops.identity, k_off, -1j), kron(k_off.conj(), ops.identity, 1j)]
    channels = ((0.5 * sys.gamma, ops.sigma_minus), (0.25 * sys.gamma_phi, ops.sigma_z),
                (0.5 * sys.kappa_a, ops.a), (0.5 * sys.kappa_b, ops.b))
    for rate, op in channels:
        if rate == 0.0:
            continue
        k_diag = k_diag - 1j * rate * (op.conj().T @ op).diagonal()
        terms.append(kron(op.conj(), op, 2.0 * rate))
    on_diag = (-1j * k_diag + (1j * k_diag.conj())[:, None]).ravel()
    keys, values = [np.arange(n) * (n + 1)], [on_diag]
    # each place of the coo below is filled once, so the csr that Liouvillian
    # makes of it has no duplicates to sum and arrays exactly nnz long
    for key, value in terms:
        diagonal = key % (n + 1) == 0  # sigma_z's jump only
        on_diag[key[diagonal] // (n + 1)] += value[diagonal]
        keys.append(key[~diagonal])
        values.append(value[~diagonal])
    key = np.concatenate(keys)
    gen = sp.coo_matrix((np.concatenate(values), (key // n, key % n)), shape=(n, n))
    liou = Liouvillian(gen, spec)
    if not np.isfinite(liou.matrix.data).all():
        raise DomainError("the master-equation generator overflows a double")
    # the trace functional applied to every column of the generator
    defect = float(np.max(np.abs(_trace_row(spec.dim) @ liou.matrix)))
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


def _computed_dm(s: np.ndarray) -> DensityMatrix:
    """The hermitian part of a state a solver computed.  A state that fails
    the DensityMatrix checks is the solver's failure, a SolverError with
    the same message, not a DomainError of the caller's input."""
    try:
        return DensityMatrix(0.5 * (s + s.conj().T))
    except DomainError as exc:
        raise SolverError(str(exc)) from exc


def vacuum_state(spec: HilbertSpec) -> DensityMatrix:
    """|g, 0, 0><g, 0, 0|."""
    m = np.zeros((spec.dim, spec.dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(m)


def _vec(m: np.ndarray) -> np.ndarray:
    return m.ravel(order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim, order="F")


def _trace_row(dim: int) -> np.ndarray:
    """Row functional t with t . vec(rho) = trace(rho)."""
    return _vec(np.eye(dim))


def expectation(op: sp.spmatrix, rho) -> complex:
    """trace(op . rho) for a sparse operator and a DensityMatrix or ndarray."""
    if isinstance(rho, DensityMatrix):
        rho = rho.matrix
    return complex(op.multiply(rho.T).sum())


@dataclass(frozen=True, eq=False)
class _Pieces:
    """What the steady state of L + shift*D needs that no shift changes (see
    ``_build_pieces``).  Each entry of ``a`` and ``pre_plus`` is the position
    in L.data of the value it takes."""

    order: np.ndarray  # vec(rho) index of the vacuum, then of each unknown
    a: sp.csr_matrix  # the generator on the unknowns
    rhs: np.ndarray  # minus the vacuum column
    d: np.ndarray  # D's diagonal, -i(n1 - n2), in vec order
    diag: np.ndarray  # where L's diagonal sits in L.data, in vec order
    k0: int  # the m = 0 unknowns are 0..k0-1
    k1: int  # the m > 0 unknowns are k0..k1-1, their transposes k1..
    lu0: spla.SuperLU | None  # natural-order LU of pre's m = 0 block, None if singular
    pre_plus: sp.csc_matrix  # pre's m > 0 blocks, on the m > 0 unknowns


def _build_pieces(matrix: sp.csr_matrix, spec: HilbertSpec) -> _Pieces:
    """Split the generator for the vacuum-fixed solve in coherence blocks.

    |i><j| carries the excitation pair (n1, n2), n = qubit + n_a + n_b.
    Apart from the probe, the generator conserves the coherence order
    m = n1 - n2 and its jumps lower n1 + n2, so its probe-free part ``pre``
    is block diagonal in m, and in (n1 + n2, n1) order block triangular: LU
    in that natural order fills in only inside the (n1, n2) blocks.  Inside
    a manifold the states run by (n_b, qubit), where a b^dag and sigma_+ b
    couple near neighbours, so each block's LU stays banded.  One key sorts
    the entries, in priority order: the run (m = 0, m > 0, m < 0), n1 + n2,
    n1, (n_b, qubit) of j, (n_b, qubit) of i, an m < 0 entry taking the key
    of its vec-transpose |j><i|.  The vacuum comes first, and the m < 0 run
    is the m > 0 run transposed.  D vanishes at m = 0, so that block
    (``lu0``) is factored once per generator.  L preserves hermiticity, so
    the vec-transpose maps L + shift*D onto its conjugate and m onto -m:
    the m < 0 run is solved with the conjugated m > 0 factor.
    rho[0, 0] = 1 replaces the vacuum row (redundant by trace preservation)
    and unknown; the vacuum column becomes the source.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    q, na, nb = np.indices((2, spec.n_a, spec.n_b)).reshape(3, -1)
    n = q + na + nb
    j, i = np.indices((spec.dim, spec.dim)).reshape(2, -1)  # |i><j| at vec index j*dim + i
    coherence = n[i] - n[j]
    run = np.sign(coherence) % 3  # 0 for m = 0, 1 for m > 0, 2 for m < 0
    i, j = np.where(coherence < 0, j, i), np.where(coherence < 0, i, j)  # keys of |j><i|
    order = np.lexsort((q[i], nb[i], q[j], nb[j], n[i], n[i] + n[j], run))  # last key first
    k0, k1 = (np.cumsum(np.bincount(run))[:2] - 1).tolist()  # the vacuum is no unknown

    at = sp.csr_matrix((np.arange(matrix.nnz), matrix.indices, matrix.indptr))
    a = at[order[1:]][:, order[1:]]  # positions in L.data of the unknowns' entries
    a.sort_indices()
    rhs = -matrix[:, [0]].toarray().ravel()[order[1:]]  # minus the vacuum column
    rows = np.repeat(np.arange(order.size), np.diff(matrix.indptr))
    diag = np.flatnonzero(rows == matrix.indices)
    same = (coherence[rows] == coherence[matrix.indices])[a.data]
    indptr = np.concatenate(([0], np.cumsum(same)))[a.indptr]
    pre = sp.csr_matrix((a.data[same], a.indices[same], indptr), shape=a.shape)  # keeps m

    try:  # no shift enters the m = 0 block, so L.data holds its values
        lu0 = spla.splu(_gather(pre[:k0, :k0].tocsc(), matrix.data), permc_spec="NATURAL")
    except RuntimeError:  # singular: the undriven generator has no unique fixed point
        lu0 = None
    return _Pieces(
        order=order, a=a, rhs=rhs, d=-1j * coherence, diag=diag,
        k0=k0, k1=k1, lu0=lu0, pre_plus=pre[k0:k1, k0:k1].tocsc(),
    )


def _gather(pattern: sp.spmatrix, data: np.ndarray) -> sp.spmatrix:
    """``pattern``, a csr or csc matrix of positions in ``data``, with the
    values found there."""
    return type(pattern)(
        (data[pattern.data], pattern.indices, pattern.indptr), shape=pattern.shape
    )


def _shifted(liou: Liouvillian, shift: float) -> sp.csr_matrix:
    """L + shift*D as one csr matrix with the sparsity of L; DomainError
    for a shift that is not finite or at which it overflows a double."""
    if not math.isfinite(shift):
        raise DomainError(f"shift must be finite, got {shift!r}")
    if not shift:
        return liou.matrix
    m = liou.matrix.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        m.data[liou.pieces.diag] += shift * liou.pieces.d
    if not np.isfinite(m.data).all():
        raise DomainError(f"the generator L + shift*D overflows a double at shift={shift!r}")
    return m


def _preconditioner(
    p: _Pieces, m: sp.csr_matrix
) -> Callable[[np.ndarray], np.ndarray] | None:
    """v -> pre^-1 v for the probe-free part of ``m`` = L + shift*D, or None
    when a block is singular.  With v = [v0, v+, v-] split at ``k0`` and
    ``k1``: y0 = F0^-1 v0 with the generator's m = 0 factor, and
    [y+, conj(y-)] = F+^-1 [v+, conj(v-)] in one call to the natural-order
    LU of the m > 0 blocks."""
    import scipy.sparse.linalg as spla

    if p.lu0 is None:
        return None
    try:
        lu = spla.splu(_gather(p.pre_plus, m.data), permc_spec="NATURAL")
    except RuntimeError:
        return None

    def apply(v: np.ndarray) -> np.ndarray:
        w = lu.solve(np.column_stack((v[p.k0:p.k1], v[p.k1:].conj())))
        return np.concatenate((p.lu0.solve(v[:p.k0]), w[:, 0], w[:, 1].conj()))

    return apply


def _solve_structured(
    liou: Liouvillian, m: sp.csr_matrix
) -> tuple[np.ndarray | None, int, bool]:
    """Vacuum-fixed BiCGSTAB for the fixed point of ``m`` = L + shift*D:
    (trace-normalized vec(rho), iterations begun, converged), or
    (None, 0, False) when the preconditioner is singular.

    The LU of the probe-free part preconditions it (``_preconditioner``).
    scipy's gmres would spin idle OpenBLAS threads (its Krylov update is a
    BLAS gemv); bicgstab uses only level-1 operations, and numpy's vdot and
    norm stay on one thread up to 10000 elements, truncation (7, 7).
    """
    import scipy.sparse.linalg as spla

    p = liou.pieces
    apply = _preconditioner(p, m)
    if apply is None:  # the undriven generator has no unique fixed point
        return None, 0, False
    a = _gather(p.a, m.data)
    solves = 0

    def precondition(v):
        nonlocal solves
        solves += 1
        return apply(v)

    # a huge drive overflows the iteration; its non-finite result is no
    # converged one, and the caller's residual check sends it to LU
    with np.errstate(all="ignore"):
        y, status = spla.bicgstab(
            a, p.rhs, rtol=SOLVE_RTOL, atol=0.0, maxiter=SOLVE_MAXITER,
            M=spla.LinearOperator(a.shape, precondition, dtype=complex),
        )
        x = np.empty(p.order.size, dtype=complex)
        x[p.order] = np.concatenate(([1.0], y))
        # an iteration solves twice, but may converge after its first solve
        return x / (_trace_row(liou.spec.dim) @ x), (solves + 1) // 2, status == 0


def _solve_lu(matrix: sp.spmatrix) -> np.ndarray:
    """Reference route: LU of the generator ``matrix`` with row 0 (a
    diagonal-element row, hence redundant by trace preservation) swapped for
    the trace functional, plus iterative refinement.  Returns vec(rho); the
    caller checks its residual."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = matrix.shape[0]
    m = sp.vstack([sp.csr_matrix(_trace_row(math.isqrt(n))), matrix[1:]], format="csc")
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
    with np.errstate(all="ignore"):  # an overflow fails the caller's residual check
        x = lu.solve(rhs_)
        for _ in range(2):
            r = rhs_ - m @ x
            if np.linalg.norm(r) <= 1e-14 * np.linalg.norm(x):
                break
            x = x + lu.solve(r)
    return x


def _threshold(m: sp.csr_matrix) -> float:
    """Largest residual ||m vec(rho)||_2 a fixed point of ``m`` may leave:
    1e-10 * max|entries of m|."""
    return RESIDUAL_TOL * float(np.abs(m.data).max())


def _residual(m: sp.csr_matrix, x: np.ndarray) -> float:
    """||m x||_2: inf or nan, with no warning, where it overflows."""
    with np.errstate(all="ignore"):
        return float(np.linalg.norm(m @ x))


def _certify(m: sp.csr_matrix, x: np.ndarray, threshold: float) -> float:
    """||m x||_2, or SolverError if it exceeds ``threshold``."""
    residual = _residual(m, x)
    if not residual <= threshold:  # also catches a non-finite solution
        raise SolverError(f"steady-state residual {residual:.3e} exceeds {threshold:.3e}")
    return residual


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

    Runs ``_solve_structured``.  If its preconditioner is singular, BiCGSTAB
    does not converge, or the residual ||(L + shift*D) vec(rho)||_2 exceeds
    1e-10 * max|entries of L + shift*D|, it falls back to the LU of the
    trace-replaced generator, held to the same bound.  Rank deficiency
    beyond the trace direction raises DegenerateSteadyStateError; a missed
    residual, or a state that fails the DensityMatrix checks, SolverError.
    ``info``, if given, receives the route taken
    ("structured" or "lu"), the BiCGSTAB iterations begun (half the
    preconditioner solves, rounded up), the residual and its threshold.
    """
    m = _shifted(liou, shift)
    threshold = _threshold(m)
    route = "structured"
    x, iterations, converged = _solve_structured(liou, m)
    residual = np.inf if x is None else _residual(m, x)
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
        residual = _certify(m, x, threshold)

    log.debug("steady_state_dm: %s route, %d iterations, residual %.3e of %.3e",
              route, iterations, residual, threshold)
    if info is not None:
        info.update(route=route, iterations=iterations, residual=residual, threshold=threshold)
    return _computed_dm(_unvec(x, liou.spec.dim))


def mirror_dm(liou: Liouvillian, rho: DensityMatrix, shift: float) -> DensityMatrix:
    """U conj(rho) U with U = diag((-1)^(qubit + n_a)): from the fixed point
    of L - shift*D, the fixed point of L + shift*D.

    With real drive and no offsets, H(delta_p) is real, and U flips a and
    sigma_-, so U H(delta_p) U = -H(-delta_p) while every dissipator (real
    jump operators, each even or odd under U) is unchanged.  The map is a
    sign pattern and a conjugation, so it is exact in floating point.  The
    result is held to the residual bound of ``steady_state_dm`` at ``shift``,
    which also rejects a generator the identity does not hold for.
    """
    q, na, _ = np.indices((2, liou.spec.n_a, liou.spec.n_b)).reshape(3, -1)
    u = 1.0 - 2.0 * ((q + na) % 2)
    out = DensityMatrix(np.outer(u, u) * rho.matrix.conj())
    m = _shifted(liou, shift)
    _certify(m, _vec(out.matrix), _threshold(m))
    return out


def _integrate(rhs: Callable, y0: np.ndarray, times) -> np.ndarray:
    """The states y(t) at ``times``, one column each, of y' = rhs(t, y) with
    y(0) = ``y0``, by one adaptive RK45 integration (relative tolerance
    1e-9, absolute 1e-13).  A failed integration is a StiffnessError."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(  # t_eval: without it every accepted state is kept
        rhs, (0.0, times[-1]), y0, method="RK45", t_eval=times,
        rtol=_ODE_TOL, atol=_ODE_TOL * 1e-4,
    )
    if not sol.success:
        raise StiffnessError(f"integration failed: {sol.message}")
    return sol.y


def evolve(
    rho0: DensityMatrix, liou: Liouvillian, t_end: float, info: dict | None = None
) -> DensityMatrix:
    """Propagate a state to ``t_end`` with ``_integrate``.

    The final state is certified once: its hermiticity defect and trace
    drift go to ``info``; a trace drift beyond 1e-10, or a state that fails
    the DensityMatrix checks, is a SolverError and a failed integration a
    StiffnessError.  Returns its hermitian part.
    """
    if not 0 < t_end < math.inf:
        raise DomainError(f"t_end must be finite and > 0, got {t_end!r}")
    dim = liou.spec.dim
    if rho0.matrix.shape != (dim, dim):
        raise DomainError(f"state is {rho0.matrix.shape}, generator acts on {(dim, dim)}")

    s = _unvec(_integrate(lambda t, y: liou.matrix @ y, _vec(rho0.matrix), (t_end,))[:, 0], dim)
    herm_drift = float(np.max(np.abs(s - s.conj().T)))
    trace_drift = float(abs(s.trace() - 1.0))
    log.debug("evolve: herm drift %.3e, trace drift %.3e", herm_drift, trace_drift)
    if info is not None:
        info.update(herm_drift=herm_drift, trace_drift=trace_drift)
    if not trace_drift <= TRACE_TOL:  # also catches a non-finite state
        raise SolverError(f"trace drift {trace_drift:.3e} exceeds {TRACE_TOL:g}")
    return _computed_dm(s)


def trace_distance(r1, r2) -> float:
    """T(r1, r2) = (1/2) sum |eig(r1 - r2)|."""
    m1 = r1.matrix if isinstance(r1, DensityMatrix) else r1
    m2 = r2.matrix if isinstance(r2, DensityMatrix) else r2
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m1 - m2))))


def rwa_error_probe(sys: SystemParams, spec: HilbertSpec, omega_sum: float) -> float:
    """Size of the dropped counter-rotating terms at carrier scale omega_sum.

    Evolves the vacuum with ``_integrate`` under the plain generator and
    under the generator with the fast terms reinstated,

        H_cr(t) = e^{-i omega_sum t} X + e^{+i omega_sum t} X^dag,
        X = -lam a b + g sigma_- b,

    and returns the largest trace distance between the two states at
    _PROBE_SAMPLES (81) even times in [0, _PROBE_T_END] (2.0).  The distance
    shrinks as omega_sum grows (first-order averaging).  The steps follow
    the carrier period, so the cost grows about linearly with omega_sum; a
    failed integration is a StiffnessError.
    """
    import scipy.sparse as sp

    if not 0 < omega_sum < math.inf:
        raise DomainError(f"omega_sum must be finite and > 0, got {omega_sum!r}")
    lmat = build_liouvillian(sys, spec).matrix
    ops = build_operators(spec)
    x = (-sys.lam * (ops.a @ ops.b) + sys.g * (ops.sigma_minus @ ops.b)).tocsr()
    s_lo, s_hi = (  # -i(S(X, I) - S(I, X)), S(A, B) = kron(B^T, A)
        -1j * (sp.kron(ops.identity, op, format="csr") - sp.kron(op.T, ops.identity, format="csr"))
        for op in (x, x.conj().T)
    )

    def full(t, y):
        ph = np.exp(-1j * omega_sum * t)
        return lmat @ y + ph * (s_lo @ y) + np.conj(ph) * (s_hi @ y)

    v0 = _vec(vacuum_state(spec).matrix)
    times = np.linspace(0.0, _PROBE_T_END, _PROBE_SAMPLES)
    pairs = zip(_integrate(lambda t, y: lmat @ y, v0, times).T, _integrate(full, v0, times).T)
    return max(trace_distance(_unvec(p, spec.dim), _unvec(f, spec.dim)) for p, f in pairs)
