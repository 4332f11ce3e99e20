"""Closed-form steady state, checked against an independent linear solve."""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from nit_sim import (
    DomainError,
    SingularityError,
    SystemParams,
    effective_detunings,
    steady_state,
)

from conftest import damped_systems, decoupled_system, matched_system


def stationarity_solution(sys: SystemParams) -> np.ndarray:
    """Oracle: solve the 3x3 stationarity system directly.

    Setting the three time derivatives to zero and dividing out -i gives

        Da*a - lam*b          = -eps
        -lam*a + Db*b + g*s   = 0
        g*b + Dq*s            = 0
    """
    d = effective_detunings(sys)
    m = np.array(
        [
            [d.a, -sys.lam, 0.0],
            [-sys.lam, d.b, sys.g],
            [0.0, sys.g, d.q],
        ],
        dtype=complex,
    )
    rhs = np.array([-sys.epsilon, 0.0, 0.0], dtype=complex)
    return np.linalg.solve(m, rhs)


class TestAgainstLinearSolve:
    @pytest.mark.parametrize("delta_p", [0.0, 0.3, -0.7, 1.2])
    def test_reference_points(self, delta_p):
        sys = matched_system(delta_p=delta_p)
        ss = steady_state(sys)
        a, b, sm = stationarity_solution(sys)
        assert ss.a == pytest.approx(a, rel=1e-12)
        assert ss.b == pytest.approx(b, rel=1e-12)
        assert ss.sigma_minus == pytest.approx(sm, rel=1e-12)

    @given(sys=damped_systems())
    def test_random_damped_systems(self, sys):
        d = effective_detunings(sys)
        m = np.array(
            [[d.a, -sys.lam, 0.0], [-sys.lam, d.b, sys.g], [0.0, sys.g, d.q]],
            dtype=complex,
        )
        # keep the comparison away from near-singular corners, where both
        # routes are dominated by conditioning rather than formula errors
        assume(abs(np.linalg.det(m)) > 1e-6)
        ss = steady_state(sys)
        a, b, sm = stationarity_solution(sys)
        scale = max(abs(sys.epsilon), 1e-30)
        assert ss.a == pytest.approx(a, rel=1e-6, abs=1e-9 * scale)
        assert ss.b == pytest.approx(b, rel=1e-6, abs=1e-9 * scale)
        assert ss.sigma_minus == pytest.approx(sm, rel=1e-6, abs=1e-9 * scale)


class TestFrozenValues:
    def test_matched_center(self):
        ss = steady_state(matched_system())
        assert ss.a == pytest.approx(-0.05982053892161838j, rel=1e-14)
        assert ss.b == pytest.approx(0.00017946107838162 + 0j, rel=1e-13)
        assert ss.sigma_minus == pytest.approx(-0.059820359460540005j, rel=1e-14)
        assert ss.absorption == pytest.approx(0.05982053892161838, rel=1e-14)
        assert ss.delta_p == 0.0

    def test_matched_off_center(self):
        ss = steady_state(matched_system(delta_p=0.3))
        assert ss.a == pytest.approx(
            -0.027290084501256893 - 0.0178956572087357j, rel=1e-13
        )
        assert ss.b == pytest.approx(
            0.025730292090510167 + 0.016552690176015468j, rel=1e-13
        )
        assert ss.sigma_minus == pytest.approx(
            -0.04274481244573901 - 0.027801541022254475j, rel=1e-13
        )


class TestStationarityRelations:
    @given(sys=damped_systems())
    def test_drive_balance(self, sys):
        # Da*<a> - lam*<b> + eps = 0
        ss = steady_state(sys)
        d = effective_detunings(sys)
        lhs = d.a * ss.a - sys.lam * ss.b + sys.epsilon
        scale = max(abs(d.a * ss.a), abs(sys.lam * ss.b), abs(sys.epsilon), 1e-30)
        assert abs(lhs) <= 1e-12 * scale

    @given(sys=damped_systems())
    def test_qubit_balance(self, sys):
        # Dq*<sigma_-> + g*<b> = 0
        ss = steady_state(sys)
        d = effective_detunings(sys)
        lhs = d.q * ss.sigma_minus + sys.g * ss.b
        scale = max(abs(d.q * ss.sigma_minus), abs(sys.g * ss.b), 1e-30)
        assert abs(lhs) <= 1e-12 * scale


class TestSymmetryAndLimits:
    @given(delta=st.floats(1e-3, 3.0, allow_nan=False, allow_infinity=False))
    def test_conjugation_mirror_is_bitwise(self, delta):
        # real drive, no offsets: <a>(-d) = -conj(<a>(d)), exactly
        base = matched_system()
        plus = steady_state(replace(base, delta_p=delta)).a
        minus = steady_state(replace(base, delta_p=-delta)).a
        assert minus == -plus.conjugate()

    def test_zero_drive_means_zero_response(self):
        ss = steady_state(matched_system(epsilon=0.0))
        assert ss.a == 0 and ss.b == 0 and ss.sigma_minus == 0

    def test_decoupled_mode_is_bare_lorentzian(self):
        # lam = 0 sends the driven mode to -eps/Da regardless of g
        sys = matched_system(lam=0.0)
        d = effective_detunings(sys)
        ss = steady_state(sys)
        assert ss.a == pytest.approx(-sys.epsilon / d.a, rel=1e-12)
        assert ss.b == 0 and ss.sigma_minus == 0
        assert ss.absorption == pytest.approx(0.06, rel=1e-12)

    def test_qubit_decoupled_reduction(self):
        # g = 0: <a> = eps*Db / (lam^2 - Da*Db), qubit rates drop out
        sys = matched_system(g=0.0, delta_p=0.2)
        d = effective_detunings(sys)
        expected = sys.epsilon * d.b / (sys.lam**2 - d.a * d.b)
        assert steady_state(sys).a == pytest.approx(expected, rel=1e-12)
        other = matched_system(g=0.0, delta_p=0.2, gamma_phi=0.7)
        assert steady_state(other).a == pytest.approx(steady_state(sys).a, rel=1e-12)

    def test_linear_in_drive(self):
        full = steady_state(matched_system(delta_p=0.4, epsilon=0.03)).a
        half = steady_state(matched_system(delta_p=0.4, epsilon=0.015)).a
        assert full == pytest.approx(2.0 * half, rel=1e-14)


class TestEffectiveDetunings:
    def test_matched_values(self):
        d = effective_detunings(matched_system())
        assert d.a == complex(0.0, -0.5)
        assert d.b == complex(0.0, -0.5e-3)
        assert d.q == complex(0.0, -0.0015)

    def test_offsets_shift_real_parts(self):
        d = effective_detunings(
            matched_system(delta_p=1.0, delta_b_offset=0.2, delta_q_offset=-0.1)
        )
        assert d.a == complex(1.0, -0.5)
        assert d.b == complex(1.2, -0.5e-3)
        assert d.q == complex(0.9, -0.0015)

    def test_qubit_width_uses_combined_linewidth(self):
        d = effective_detunings(matched_system(gamma=0.4, gamma_phi=0.3))
        assert d.q.imag == -0.5 * (2 * 0.3 + 0.4)


class TestSingularity:
    def test_undamped_pole_raises(self):
        sys = SystemParams(
            delta_p=0.0,
            lam=0.0,
            g=0.0,
            epsilon=0.03,
            kappa_a=1.0,
            kappa_b=0.0,
            gamma=0.0,
            gamma_phi=0.0,
        )
        with pytest.raises(SingularityError) as err:
            steady_state(sys)
        assert err.value.delta_p == 0.0

    def test_any_damping_keeps_it_finite(self):
        sys = matched_system(kappa_b=0.0, gamma=0.0, gamma_phi=0.0)
        assert abs(steady_state(sys).a) < 1.0


class TestOverflow:
    @pytest.mark.parametrize(
        "overrides",
        [dict(delta_p=6e102), dict(delta_p=-1e200), dict(epsilon=1e308)],
        ids=["denominator", "far-detuning", "drive"],
    )
    def test_what_a_double_cannot_hold_is_a_domain_error(self, overrides):
        # once -0+0j past |delta_p| ~ 5.6e102, nan+nanj further out, and inf
        sys = matched_system(**overrides)
        where = re.escape(repr(sys.delta_p))
        with pytest.raises(DomainError, match=rf"overflows? at delta_p={where}$"):
            steady_state(sys)

    def test_far_tail_just_inside_the_range(self):
        # <a> -> -eps / delta_p once the detuning dwarfs every coupling
        ss = steady_state(matched_system(delta_p=5e102))
        assert ss.a == pytest.approx(-0.03 / 5e102, rel=1e-12)
