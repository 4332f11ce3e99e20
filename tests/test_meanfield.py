"""Mean-field flow: the dynamical route must land on the closed form."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from nit_sim import (
    ConvergenceError,
    DomainError,
    MeanFieldState,
    StiffnessError,
    SystemParams,
    ZERO_STATE,
    integrate,
    meanfield,
    relax_many,
    relax_to_steady_state,
    steady_state,
)
from nit_sim.meanfield import drift, slowest_decay_rate

from conftest import damped_systems, decoupled_system, matched_system


def as_state(ss) -> MeanFieldState:
    return MeanFieldState(ss.a, ss.b, ss.sigma_minus, 0.0)


class TestDrift:
    def test_zero_state_feels_only_the_drive(self):
        J, c = drift(matched_system())
        out = J @ ZERO_STATE.vector + c
        assert out[0] == -1j * 0.03
        assert out[1] == 0 and out[2] == 0

    @given(sys=damped_systems())
    def test_vanishes_at_the_closed_form_fixed_point(self, sys):
        J, c = drift(sys)
        out = J @ as_state(steady_state(sys)).vector + c
        assert np.linalg.norm(out) <= 1e-12 * max(abs(sys.epsilon), 1e-30)

    @given(sys=damped_systems())
    @settings(max_examples=50)
    def test_fully_damped_spectrum(self, sys):
        assert slowest_decay_rate(sys) > 0.0

    def test_matched_bottleneck_rate(self):
        assert slowest_decay_rate(matched_system()) == pytest.approx(
            0.108264568105085, rel=1e-9
        )


class TestIntegrate:
    def test_decoupled_closed_form_transient(self):
        # lam = g = 0: a(t) = a_inf * (1 - exp(-i*Da*t)), b and sigma stay 0
        sys = decoupled_system()
        traj = integrate(ZERO_STATE, sys, t_end=4.0)
        d_a = complex(sys.delta_p, -0.5 * sys.kappa_a)
        a_inf = -sys.epsilon / d_a
        for st_ in traj:
            expected = a_inf * (1.0 - np.exp(-1j * d_a * st_.t))
            assert st_.a == pytest.approx(expected, rel=1e-6, abs=1e-12)
            assert st_.b == 0 and st_.sigma_minus == 0

    def test_trajectory_bookkeeping(self):
        traj = integrate(ZERO_STATE, matched_system(), t_end=10.0)
        times = [s.t for s in traj]
        assert traj[0] is ZERO_STATE
        assert times[-1] == 10.0
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))

    def test_long_horizon_reaches_the_closed_form(self):
        # the slowest closed-loop mode decays at 0.108/kappa_a, so 150 time
        # units shrink the O(|eps|) transient to a few 1e-9 absolute; <b> is
        # suppressed to 1.8e-4 at the center, so it gets an absolute floor
        sys = matched_system()
        final = integrate(ZERO_STATE, sys, t_end=150.0)[-1]
        ss = steady_state(sys)
        assert final.a == pytest.approx(ss.a, rel=1e-6)
        assert final.b == pytest.approx(ss.b, rel=1e-6, abs=1e-8)
        assert final.sigma_minus == pytest.approx(ss.sigma_minus, rel=1e-6)

    def test_fixed_point_stays_put(self):
        sys = matched_system(delta_p=0.3)
        ss = steady_state(sys)
        traj = integrate(as_state(ss), sys, t_end=20.0)
        dev = max(np.linalg.norm(s.vector - traj[0].vector) for s in traj)
        assert dev <= 1e-6 * abs(sys.epsilon)

    def test_fixed_point_independent_of_start(self):
        sys = matched_system(delta_p=-0.6)
        target = steady_state(sys).a
        rng = np.random.default_rng(7)
        for _ in range(2):
            z = rng.standard_normal(6) * 0.2
            s0 = MeanFieldState(
                complex(z[0], z[1]), complex(z[2], z[3]), complex(z[4], z[5]), 0.0
            )
            final = integrate(s0, sys, t_end=200.0)[-1]
            assert final.a == pytest.approx(target, rel=1e-6)

    def test_oscillation_fast_beyond_budget_raises(self):
        with pytest.raises(StiffnessError):
            integrate(ZERO_STATE, matched_system(delta_p=1e16), t_end=150.0)

    def test_rejects_bad_arguments(self):
        sys = matched_system()
        with pytest.raises(DomainError):
            integrate(ZERO_STATE, sys, t_end=0.0)


class TestRelax:
    def test_matches_closed_form(self):
        sys = matched_system(delta_p=0.3)
        out = relax_to_steady_state(sys)
        ss = steady_state(sys)
        assert out.a == pytest.approx(ss.a, rel=1e-7)
        assert out.b == pytest.approx(ss.b, rel=1e-7)
        assert out.sigma_minus == pytest.approx(ss.sigma_minus, rel=1e-7)
        assert out.t > 0.0

    def test_batch_equals_singles_bitwise(self):
        systems = [matched_system(delta_p=d) for d in (-1.5, -0.5, 0.0, 0.5, 1.5)]
        batch = relax_many(systems)
        for i, s in enumerate(systems):
            single = relax_many([s])
            assert np.array_equal(batch[:, i], single[:, 0])

    def test_batch_order_is_immaterial(self):
        systems = [matched_system(delta_p=d) for d in (-1.0, 0.2, 0.9)]
        fwd = relax_many(systems)
        rev = relax_many(systems[::-1])
        assert np.array_equal(fwd, rev[:, ::-1])

    def test_time_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(meanfield, "MAX_TIME", 1.0)
        with pytest.raises(ConvergenceError, match="slowest decay rate"):
            relax_to_steady_state(matched_system())

    def test_step_underflow_names_its_detuning(self):
        with pytest.raises(StiffnessError, match=r"at delta_p=1e\+16: step size"):
            relax_many([matched_system(), matched_system(delta_p=1e16)])

    def test_undamped_amplitudes_are_rejected(self):
        with pytest.raises(DomainError, match="kappa_q"):
            relax_to_steady_state(matched_system(gamma=0.0, gamma_phi=0.0))
        with pytest.raises(DomainError, match="kappa_b"):
            relax_to_steady_state(matched_system(kappa_b=0.0))


def strong_drive_system(epsilon: float) -> SystemParams:
    return SystemParams(delta_p=0.5, lam=1.0, g=1.0, epsilon=epsilon, kappa_a=1.0,
                        kappa_b=0.1, gamma=0.1, gamma_phi=0.0)


class TestOverflow:
    """Past about 1e154 the squares in the residual norm overflow, while the
    flow and its fixed point stay finite; pyproject turns the overflow
    RuntimeWarning into an error."""

    @pytest.mark.parametrize("eps", [1e160, 1e170, 1e300])
    def test_strong_drive_relaxes_to_the_closed_form(self, eps):
        sys = strong_drive_system(eps)
        out = relax_to_steady_state(sys)
        ss = steady_state(sys)
        assert out.a == pytest.approx(ss.a, rel=1e-7)
        assert out.b == pytest.approx(ss.b, rel=1e-7)
        assert out.sigma_minus == pytest.approx(ss.sigma_minus, rel=1e-7)
        assert out.t < 1e3

    def test_trajectory_past_the_squares_scales_with_the_drive(self):
        """The flow from the zero state is linear in the drive."""
        big = integrate(ZERO_STATE, strong_drive_system(1e300), t_end=50.0)
        unit = integrate(ZERO_STATE, strong_drive_system(1.0), t_end=50.0)
        assert all(np.isfinite(s.vector).all() for s in big)
        assert big[-1].t == unit[-1].t == 50.0
        for name in ("a", "b", "sigma_minus"):
            ref = 1e300 * getattr(unit[-1], name)
            assert getattr(big[-1], name) == pytest.approx(ref, rel=1e-9)
