"""Parameter layer: validation, normalization, SI coupling derivations."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nit_sim import (
    DomainError,
    PhysicalParams,
    SystemParams,
    derive_lambda,
    lamb_dicke,
    normalize,
)
from nit_sim.model import LAMB_DICKE_WARN

from conftest import matched_system

TWO_PI = 2.0 * math.pi
ATOMIC_MASS = 1.66053906892e-27  # kg


def device_params(**overrides) -> PhysicalParams:
    """Reference device: biased electrode 1.5 um above a Cd-112 ion."""
    base = dict(
        d=1.5e-6,
        V0=20.0,
        C0=1.9e-16,
        M=1e-15,
        m=112 * ATOMIC_MASS,
        omega=TWO_PI * 10e6,
        nu=TWO_PI * 10e6,
        k_l=TWO_PI / 214.5e-9,
        Omega=TWO_PI * 5e6,
    )
    base.update(overrides)
    return PhysicalParams(**base)


class TestSystemParams:
    def test_rejects_nonpositive_kappa_a(self):
        with pytest.raises(DomainError, match="kappa_a"):
            matched_system(kappa_a=0.0)
        with pytest.raises(DomainError, match="kappa_a"):
            matched_system(kappa_a=-1.0)

    @pytest.mark.parametrize("name", ["lam", "g", "kappa_b", "gamma", "gamma_phi"])
    def test_rejects_negative_rates(self, name):
        with pytest.raises(DomainError, match=name):
            matched_system(**{name: -1e-3})

    @pytest.mark.parametrize(
        "name", ["kappa_a", "lam", "g", "kappa_b", "gamma", "gamma_phi"]
    )
    def test_rejects_nan_rates(self, name):
        with pytest.raises(DomainError, match=name):
            matched_system(**{name: math.nan})

    def test_epsilon_coerced_to_complex(self):
        s = matched_system(epsilon=0.03)
        assert isinstance(s.epsilon, complex)
        assert s.epsilon == 0.03 + 0j

    def test_kappa_q_combines_dephasing_and_relaxation(self):
        s = matched_system(gamma=0.25, gamma_phi=0.5)
        assert s.kappa_q == 1.25
        assert matched_system().kappa_q == 2e-3 + 1e-3


class TestNormalize:
    def test_kappa_a_becomes_exactly_one(self):
        raw = matched_system(kappa_a=3.7, lam=1.85, epsilon=0.111)
        assert normalize(raw).kappa_a == 1.0

    def test_identity_on_normalized_sets(self):
        s = matched_system()
        assert normalize(s) == s

    @given(scale=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
    def test_idempotent(self, scale):
        raw = matched_system(kappa_a=scale, lam=0.5 * scale, g=0.4 * scale)
        once = normalize(raw)
        assert normalize(once) == once

    @given(scale=st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))
    def test_rate_ratios_preserved(self, scale):
        raw = matched_system(
            kappa_a=scale,
            lam=0.5 * scale,
            g=0.4 * scale,
            epsilon=0.03 * scale,
            kappa_b=1e-3 * scale,
            gamma=1e-3 * scale,
            gamma_phi=2e-3 * scale,
            delta_p=0.3 * scale,
        )
        norm = normalize(raw)
        assert norm.lam == pytest.approx(raw.lam / raw.kappa_a, rel=1e-15)
        assert norm.g == pytest.approx(raw.g / raw.kappa_a, rel=1e-15)
        assert norm.delta_p == pytest.approx(raw.delta_p / raw.kappa_a, rel=1e-15)
        assert norm.kappa_b / norm.gamma == pytest.approx(
            raw.kappa_b / raw.gamma, rel=1e-12
        )


class TestDeriveLambda:
    def test_against_zero_point_assembly(self):
        # independent route: bilinear Coulomb coefficient times the two
        # zero-point amplitudes, divided by hbar
        p = device_params()
        chi = 2.0 * p.k_c * p.q_e * p.V0 * p.C0 / p.d**3
        x_a = math.sqrt(p.hbar / (2.0 * p.M * p.omega))
        x_b = math.sqrt(p.hbar / (2.0 * p.m * p.nu))
        assert derive_lambda(p) == pytest.approx(chi * x_a * x_b / p.hbar, rel=1e-12)

    def test_reference_device_rate(self):
        lam = derive_lambda(device_params())
        assert lam == pytest.approx(1892117.882424536, rel=1e-12)
        # ~300 kHz, comfortably in the hundreds-of-kHz regime
        assert 2.5e5 < lam / TWO_PI < 3.5e5

    def test_gap_cubed_suppression(self):
        p = device_params()
        assert derive_lambda(device_params(d=2 * p.d)) == pytest.approx(
            derive_lambda(p) / 8.0, rel=1e-12
        )

    def test_mass_square_root_suppression(self):
        p = device_params()
        assert derive_lambda(device_params(M=4 * p.M)) == pytest.approx(
            derive_lambda(p) / 2.0, rel=1e-12
        )

    def test_linear_in_bias_voltage(self):
        p = device_params()
        assert derive_lambda(device_params(V0=3 * p.V0)) == pytest.approx(
            3.0 * derive_lambda(p), rel=1e-12
        )


class TestLambDicke:
    def test_recoil_to_trap_ratio_identity(self):
        p = device_params()
        eta = lamb_dicke(p)
        recoil = p.hbar * p.k_l**2 / (2.0 * p.m)
        assert eta**2 == pytest.approx(recoil / p.nu, rel=1e-12)

    def test_reference_device_value(self):
        eta = lamb_dicke(device_params())
        assert eta == pytest.approx(0.06222317390287065, rel=1e-12)
        assert eta < LAMB_DICKE_WARN

    def test_scaling_in_mass_and_wavenumber(self):
        p = device_params()
        eta = lamb_dicke(p)
        assert lamb_dicke(device_params(m=4 * p.m)) == pytest.approx(
            eta / 2.0, rel=1e-12
        )
        with pytest.warns(UserWarning):
            assert lamb_dicke(device_params(k_l=2 * p.k_l)) == pytest.approx(
                2.0 * eta, rel=1e-12
            )

    def test_warns_outside_lamb_dicke_regime(self):
        p = device_params()
        k_marginal = LAMB_DICKE_WARN / math.sqrt(p.hbar / (2.0 * p.m * p.nu))
        with pytest.warns(UserWarning, match="Lamb-Dicke"):
            lamb_dicke(device_params(k_l=k_marginal))

    def test_silent_in_lamb_dicke_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lamb_dicke(device_params())


class TestPhysicalParams:
    @pytest.mark.parametrize("name", ["d", "V0", "C0", "M", "m", "omega", "nu", "k_l", "Omega"])
    def test_rejects_nonpositive(self, name):
        with pytest.raises(DomainError, match=name):
            device_params(**{name: 0.0})

    def test_constants_overridable(self):
        p = device_params(hbar=1.0, q_e=1.0, k_c=1.0)
        assert p.hbar == 1.0 and p.q_e == 1.0 and p.k_c == 1.0
