"""Detuning sweeps, window metrics, dephasing scan, determinism."""

from __future__ import annotations

import io
import logging
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nit_sim import (
    ConfigError,
    DegenerateSteadyStateError,
    DomainError,
    SingularityError,
    SolverError,
    SweepConfig,
    SystemParams,
    analyze_windows,
    dephasing_scan,
    detuning_grid,
    spectra,
    steady_state,
    sweep,
    to_csv_text,
)
from nit_sim.quantum import (
    HilbertSpec,
    build_liouvillian,
    build_operators,
    expectation,
    steady_state_dm,
)
from nit_sim.spectra import (
    CSV_HEADER,
    MIN_WINDOW_POINTS,
    quantum_expectations,
    worker_count,
)

from conftest import (
    decoupled_system,
    matched_system,
    unbalanced_system,
    weak_drive_system,
)


def matched_sweep(n_points=1501, **kwargs) -> SweepConfig:
    return SweepConfig(matched_system(), -1.5, 1.5, n_points, **kwargs)


class TestDetuningGrid:
    def test_symmetric_request_mirrors_bitwise(self):
        grid = detuning_grid(-1.5, 1.5, 1501)
        assert grid.shape == (1501,)
        assert np.array_equal(grid, -grid[::-1])
        assert grid[750] == 0.0
        assert grid[0] == -1.5 and grid[-1] == 1.5

    def test_general_request_is_plain_linspace(self):
        assert np.array_equal(detuning_grid(-1.0, 2.0, 7), np.linspace(-1.0, 2.0, 7))


class TestWorkerCount:
    def test_defaults_to_one(self, monkeypatch):
        monkeypatch.delenv("NIT_SIM_THREADS", raising=False)
        assert worker_count() == 1

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv("NIT_SIM_THREADS", "4")
        assert worker_count() == 4

    @pytest.mark.parametrize("bad", ["zero?", "0", "-2"])
    def test_rejects_bad_values(self, monkeypatch, bad):
        monkeypatch.setenv("NIT_SIM_THREADS", bad)
        with pytest.raises(ConfigError):
            worker_count()

    def test_read_before_the_generator_is_built(self, monkeypatch):
        # a bad count once surfaced only after the generator was assembled
        monkeypatch.setenv("NIT_SIM_THREADS", "0")
        monkeypatch.setattr(spectra, "build_liouvillian", unselected_build)
        spec = HilbertSpec(2, 2)
        with pytest.raises(ConfigError, match="NIT_SIM_THREADS"):
            quantum_expectations(weak_drive_system(), [0.0], spec, [build_operators(spec).a])


def unselected_build(*args, **kwargs):
    raise AssertionError("assembled a generator before reading NIT_SIM_THREADS")


class TestSweep:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            SweepConfig(matched_system(), 1.0, -1.0, 11)
        with pytest.raises(DomainError):
            SweepConfig(matched_system(), -1.0, 1.0, 1)
        with pytest.raises(DomainError, match="backend"):
            SweepConfig(matched_system(), -1.0, 1.0, 11, backend="exact")
        with pytest.raises(DomainError, match="integer"):
            SweepConfig(matched_system(), -1.0, 1.0, 5.0)
        for lo, hi in [(-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(DomainError, match="finite"):
                SweepConfig(matched_system(), lo, hi, 5)
        with pytest.raises(DomainError, match=r"grid span .* got \[-1e\+308, 1\.5e\+308\]"):
            SweepConfig(matched_system(), -1e308, 1.5e308, 5)  # finite bounds, infinite span
        assert SweepConfig(matched_system(), -1e308, 7e307, 5).n_points == 5
        assert SweepConfig(matched_system(), -1.0, 1.0, np.int64(5)).n_points == 5

    def test_arrays_are_frozen(self):
        spectrum = sweep(matched_sweep(61))
        for name in ("detunings", "a", "a_re", "a_im", "absorption"):
            with pytest.raises(ValueError):
                getattr(spectrum, name)[0] = 1.0

    def test_backends_agree_on_a_coarse_grid(self):
        cfg_a = matched_sweep(51)
        cfg_m = matched_sweep(51, backend="meanfield")
        assert np.max(np.abs(sweep(cfg_a).a - sweep(cfg_m).a)) < 1e-6

    def test_quantum_backend_tracks_the_closed_form(self):
        base = weak_drive_system()
        cfg_q = SweepConfig(
            base, -0.6, 0.6, 3, backend="quantum", quantum_spec=HilbertSpec(4, 4)
        )
        cfg_a = SweepConfig(base, -0.6, 0.6, 3)
        s_q = sweep(cfg_q)
        a_ref = sweep(cfg_a).a
        assert np.max(np.abs(s_q.a - a_ref) / np.abs(a_ref)) < 0.02
        assert s_q.backend == "quantum"

    def test_quantum_sweep_reports_its_default_truncation(self):
        cfg = SweepConfig(weak_drive_system(), -0.6, 0.6, 3, backend="quantum")
        assert cfg.quantum_spec == HilbertSpec(5, 5)
        s = sweep(cfg)
        explicit = replace(cfg, quantum_spec=HilbertSpec(5, 5))
        assert s.a.tobytes() == sweep(explicit).a.tobytes()

    @pytest.mark.parametrize("backend", ["analytic", "meanfield"])
    def test_other_backends_carry_no_truncation(self, backend):
        cfg = SweepConfig(
            weak_drive_system(), -0.6, 0.6, 3, backend=backend,
            quantum_spec=HilbertSpec(4, 4),
        )
        assert cfg.quantum_spec is None

    def test_normalizes_the_base_parameters(self):
        scaled = matched_system(
            kappa_a=2.0, lam=1.0, g=1.0, epsilon=0.06,
            kappa_b=2e-3, gamma=2e-3, gamma_phi=2e-3,
        )
        s1 = sweep(SweepConfig(scaled, -1.5, 1.5, 61))
        s2 = sweep(matched_sweep(61))
        assert np.max(np.abs(s1.a - s2.a)) < 1e-15

    def test_single_singular_point_aborts(self):
        bare = SystemParams(
            delta_p=0.0, lam=0.0, g=0.0, epsilon=0.03,
            kappa_a=1.0, kappa_b=0.0, gamma=0.0, gamma_phi=0.0,
        )
        with pytest.raises(SingularityError) as err:
            sweep(SweepConfig(bare, -1.0, 1.0, 3))
        assert err.value.delta_p == 0.0

    def test_quantum_failure_names_the_detuning(self):
        undamped = SystemParams(
            delta_p=0.0, lam=0.0, g=0.0, epsilon=0.0,
            kappa_a=1.0, kappa_b=0.0, gamma=0.0, gamma_phi=0.0,
        )
        cfg = SweepConfig(
            undamped, -1.0, 1.0, 3, backend="quantum", quantum_spec=HilbertSpec(2, 2)
        )
        with pytest.raises(DegenerateSteadyStateError, match="at delta_p="):
            sweep(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_point_cancels_the_points_not_started(self, monkeypatch, workers):
        monkeypatch.setenv("NIT_SIM_THREADS", str(workers))
        calls = []
        real = spectra.steady_state_dm

        def first_fails(liou, shift=0.0, **kwargs):
            calls.append(shift)
            if shift == -1.5:
                raise SolverError("injected")
            time.sleep(0.2)  # time for the sweep to cancel the rest
            return real(liou, shift=shift, **kwargs)

        monkeypatch.setattr(spectra, "steady_state_dm", first_fails)
        cfg = SweepConfig(weak_drive_system(), -1.5, 1.5, 11, backend="quantum",
                          quantum_spec=HilbertSpec(3, 3))
        with pytest.raises(SolverError, match=r"^at delta_p=-1\.5: injected$"):
            sweep(cfg)
        assert -1.5 in calls
        assert len(calls) <= workers + 1

    def test_unmirrored_sweep_is_identical_across_thread_counts(self, monkeypatch):
        """Every point is solved, each worker with the one m = 0 factor that
        the shared generator carries."""
        cfg = SweepConfig(weak_drive_system(delta_b_offset=0.07), -1.5, 1.5, 21,
                          backend="quantum", quantum_spec=HilbertSpec(4, 4))
        texts = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for threads in ("1", "8"):
                monkeypatch.setenv("NIT_SIM_THREADS", threads)
                texts.append(to_csv_text(sweep(cfg)))
        finally:
            sys.setswitchinterval(interval)
        assert texts[0] == texts[1]

    def test_pieces_are_built_before_the_workers_start(self, monkeypatch):
        """The generator makes its steady-state pieces on first use; the
        sweep makes them on its own thread, so no two workers build them."""
        import threading

        from nit_sim import quantum

        builders = []
        real = quantum._build_pieces

        def recording(*args):
            builders.append(threading.current_thread())
            return real(*args)

        monkeypatch.setattr(quantum, "_build_pieces", recording)
        monkeypatch.setenv("NIT_SIM_THREADS", "2")
        sweep(SweepConfig(weak_drive_system(delta_b_offset=0.07), -1.5, 1.5, 5,
                          backend="quantum", quantum_spec=HilbertSpec(3, 3)))
        assert builders == [threading.current_thread()]

    def test_no_points_build_no_generator(self, monkeypatch):
        def must_not_build(*args):
            raise AssertionError("generator built for an empty point list")

        monkeypatch.setattr(spectra, "build_liouvillian", must_not_build)
        ops = build_operators(HilbertSpec(2, 2))
        vals = quantum_expectations(weak_drive_system(), [], HilbertSpec(2, 2), [ops.a, ops.b])
        assert vals.shape == (2, 0) and vals.dtype == complex

    def test_backends_look_up_their_solvers_at_call_time(self, monkeypatch):
        """Per-layer profilers wrap these module-level names of
        nit_sim.spectra; a name bound anywhere else would bypass them."""
        calls = {}
        for name in ("steady_state", "build_liouvillian", "steady_state_dm",
                     "expectation"):
            def counting(*args, _fn=getattr(spectra, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(spectra, name, counting)

        sweep(matched_sweep(5))
        assert calls == {"steady_state": 5}
        dephasing_scan(matched_system(), [1e-3, 1e-1, 1.0])
        assert calls == {"steady_state": 8}
        calls.clear()
        sweep(SweepConfig(weak_drive_system(), -0.6, 0.6, 3, backend="quantum",
                          quantum_spec=HilbertSpec(3, 3)))
        # one generator per sweep, shifted to -0.6 and 0; +0.6 is mirrored
        assert calls == {"build_liouvillian": 1, "steady_state_dm": 2, "expectation": 3}
        calls.clear()
        sweep(SweepConfig(weak_drive_system(), -0.2, 1.0, 3, backend="quantum",
                          quantum_spec=HilbertSpec(3, 3)))
        # no point of [-0.2, 0.4, 1.0] is another's negation: three solves
        assert calls == {"build_liouvillian": 1, "steady_state_dm": 3, "expectation": 3}


class TestMirroredPoints:
    """A point whose negation is also a point is built from that point's
    state by the exact conjugation symmetry (see ``quantum.mirror_dm``)."""

    @staticmethod
    def sweep_and_direct(monkeypatch, base, spec, grid):
        """<a>, <b>, <b sz> and <sigma_-> from quantum_expectations, the same
        from steady_state_dm(liou, shift=d) at every point, and the sweep's
        solves.  sigma_- alone sees the qubit's sign in the mirror."""
        calls = []
        real = spectra.steady_state_dm

        def recording(liou, shift=0.0, **kwargs):
            calls.append((shift, real(liou, shift=shift, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(spectra, "steady_state_dm", recording)
        o = build_operators(spec)
        ops = [o.a, o.b, o.b @ o.sigma_z, o.sigma_minus]
        got = quantum_expectations(base, grid, spec, ops)
        solved = dict(calls)
        liou = build_liouvillian(base, spec)
        rhos = [solved.get(d) or steady_state_dm(liou, shift=float(d)) for d in grid]
        want = np.array([[expectation(op, rho) for op in ops] for rho in rhos]).T
        return got, want, len(calls)

    @pytest.mark.parametrize(
        "base, n, grid, solves",
        [
            (weak_drive_system(), 5, detuning_grid(-1.5, 1.5, 11), 6),
            (weak_drive_system(lam=1.0, g=0.15), 5, detuning_grid(-1.5, 1.5, 7), 4),
            (weak_drive_system(gamma=0.0, gamma_phi=0.0), 4, detuning_grid(-1.5, 1.5, 7), 4),
            (weak_drive_system(epsilon=1.0), 4, detuning_grid(-1.5, 1.5, 5), 3),  # all LU
            (weak_drive_system(epsilon=0.3), 6, detuning_grid(-1.5, 1.5, 5), 3),
            # pairs +-0.5 and +-1 of [-1, -0.5, 0, 0.5, 1, 1.5, 2]
            (weak_drive_system(), 4, np.linspace(-1.0, 2.0, 7), 5),
        ],
        ids=["criterion02", "unbalanced", "undamped-qubit", "eps1", "eps0.3", "asymmetric"],
    )
    def test_bytes_match_a_direct_solve_at_every_point(
        self, monkeypatch, base, n, grid, solves
    ):
        got, want, made = self.sweep_and_direct(monkeypatch, base, HilbertSpec(n, n), grid)
        assert got.tobytes() == want.tobytes()
        assert made == solves

    @pytest.mark.parametrize(
        "overrides",
        [dict(delta_b_offset=0.07, delta_q_offset=-0.05), dict(epsilon=0.01 + 0.005j)],
        ids=["offsets", "complex-drive"],
    )
    def test_broken_symmetry_solves_every_point(self, monkeypatch, overrides):
        grid = detuning_grid(-1.5, 1.5, 11)
        got, want, solves = self.sweep_and_direct(
            monkeypatch, weak_drive_system(**overrides), HilbertSpec(3, 3), grid
        )
        assert got.tobytes() == want.tobytes()
        assert solves == 11

    def test_repeated_points_match_a_direct_solve(self, monkeypatch):
        """The last -0.6 is paired with the last 0.6; the other copies are solved."""
        grid = [-0.6, -0.6, 0.0, 0.6, 0.6]
        got, want, solves = self.sweep_and_direct(
            monkeypatch, weak_drive_system(), HilbertSpec(3, 3), grid
        )
        assert got.tobytes() == want.tobytes()
        assert solves == 4

    def test_logs_points_solves_and_mirrored(self, caplog):
        spec = HilbertSpec(3, 3)
        grid = detuning_grid(-1.0, 1.0, 5)
        with caplog.at_level(logging.DEBUG, logger="nit_sim.spectra"):
            quantum_expectations(weak_drive_system(), grid, spec, [build_operators(spec).a])
        assert "quantum_expectations: 5 points, 3 solves, 2 mirrored" in caplog.messages


class TestCsv:
    def test_round_trips_every_bit(self):
        spectrum = sweep(matched_sweep(61))
        text = to_csv_text(spectrum)
        assert text.startswith(CSV_HEADER + "\n")
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], spectrum.detunings)
        assert np.array_equal(data[:, 1], spectrum.a_re)
        assert np.array_equal(data[:, 2], spectrum.a_im)
        assert np.array_equal(data[:, 3], spectrum.absorption)

    def test_repeated_sweeps_are_byte_identical(self):
        cfg = matched_sweep(201, backend="meanfield")
        assert to_csv_text(sweep(cfg)) == to_csv_text(sweep(cfg))


class TestWindows:
    def test_decoupled_lorentzian_metrics(self):
        spectrum = sweep(SweepConfig(decoupled_system(), -3.0, 3.0, 601))
        report = analyze_windows(spectrum)
        assert len(report.peaks) == 1 and not report.dips
        peak = report.peaks[0]
        assert peak.detuning == 0.0
        assert peak.height == pytest.approx(0.06, rel=1e-12)
        # half-width crossings sit 2 grid steps (0.02) from the exact kappa_a
        assert abs(peak.fwhm - 1.0) <= 0.02

    def test_matched_coupling_window_structure(self):
        report = analyze_windows(sweep(matched_sweep()))
        assert len(report.peaks) == 3
        assert len(report.dips) == 2
        central = report.peaks[1]
        assert central.detuning == 0.0
        assert central.height == pytest.approx(0.05982053892161838, rel=1e-12)
        assert central.fwhm == pytest.approx(0.4460944657675985, rel=1e-12)
        for dip in report.dips:
            assert dip.depth > 0.9

    def test_dips_sit_at_the_numerator_roots(self):
        base = matched_system()
        grid_step = 3.0 / 1500
        report = analyze_windows(sweep(matched_sweep()))

        def numerator_magnitude(d):
            db = complex(d, -0.5 * base.kappa_b)
            dq = complex(d, -0.5 * base.kappa_q)
            return abs(db * dq - base.g**2)

        root = minimize_scalar(
            numerator_magnitude, bounds=(0.3, 0.7), method="bounded",
            options={"xatol": 1e-12},
        ).x
        assert root == pytest.approx(0.5, abs=1e-5)
        for dip in report.dips:
            assert abs(abs(dip.detuning) - root) <= 2 * grid_step
            assert abs(abs(dip.detuning) - 0.5) <= 0.02

    def test_mirror_symmetry_is_exact(self):
        spectrum = sweep(matched_sweep())
        assert np.array_equal(spectrum.absorption, spectrum.absorption[::-1])
        report = analyze_windows(spectrum)
        assert report.asymmetry == 0.0
        assert report.peaks[0].detuning == pytest.approx(
            -report.peaks[2].detuning, rel=1e-12
        )

    def test_detuned_qubit_breaks_the_symmetry(self):
        spectrum = sweep(
            SweepConfig(matched_system(delta_q_offset=0.3), -1.5, 1.5, 1501)
        )
        assert analyze_windows(spectrum).asymmetry > 0.05

    def test_grid_refinement_pins_the_extrema(self):
        coarse = analyze_windows(sweep(matched_sweep(801)))
        fine = analyze_windows(sweep(matched_sweep(1601)))
        step = 3.0 / 800
        for p_c, p_f in zip(coarse.peaks, fine.peaks):
            assert abs(p_c.detuning - p_f.detuning) < step
        for d_c, d_f in zip(coarse.dips, fine.dips):
            assert abs(d_c.detuning - d_f.detuning) < step

    def test_even_grid_keeps_the_central_window(self):
        # an even symmetric grid puts the central peak between two samples
        # of equal absorption; that run of equal samples is one extremum.
        # The unbalanced window is only 12 steps wide at 1500 points, so its
        # parabola vertex is 3.5e-4 low there (2e-9 for the matched one).
        for system, height_rel, fwhm_rel in (
            (matched_system(), 1e-6, 1e-4),
            (unbalanced_system(), 1e-3, 1e-2),
        ):
            odd = analyze_windows(sweep(SweepConfig(system, -1.5, 1.5, 1501)))
            for n in (68, 200, 1500, 1502):
                report = analyze_windows(sweep(SweepConfig(system, -1.5, 1.5, n)))
                assert len(report.peaks) == 3 and len(report.dips) == 2
                central = report.peaks[1]
                assert abs(central.detuning) < 1e-12
                if n >= 1500:
                    assert central.height == pytest.approx(odd.peaks[1].height, rel=height_rel)
                    assert central.fwhm == pytest.approx(odd.peaks[1].fwhm, rel=fwhm_rel)
        bare = analyze_windows(sweep(SweepConfig(decoupled_system(), -3.0, 3.0, 600)))
        assert len(bare.peaks) == 1 and not bare.dips
        # 2 |epsilon| / kappa_a, and a width of kappa_a
        assert bare.peaks[0].height == pytest.approx(0.06, rel=1e-6)
        assert abs(bare.peaks[0].fwhm - 1.0) <= 1e-3

    def test_window_contrast_fades_with_damping(self):
        contrasts = []
        for rate in (1e-3, 0.1, 0.5):
            base = matched_system(kappa_b=rate, gamma=rate, gamma_phi=rate)
            spectrum = sweep(SweepConfig(base, -1.5, 1.5, 601))
            i_dip = int(np.argmin(np.abs(spectrum.detunings - 0.5)))
            contrasts.append(
                1.0 - spectrum.absorption[i_dip] / spectrum.absorption.max()
            )
        assert contrasts[0] > contrasts[1] > contrasts[2]

    def test_needs_enough_points(self):
        with pytest.raises(DomainError, match=str(MIN_WINDOW_POINTS)):
            analyze_windows(sweep(matched_sweep(50)))

    def test_flat_response_warns(self):
        spectrum = sweep(SweepConfig(matched_system(epsilon=0.0), -1.5, 1.5, 61))
        with pytest.warns(UserWarning, match="degenerate"):
            report = analyze_windows(spectrum)
        assert not report.peaks
        assert math.isnan(report.asymmetry)

    def test_strong_drive_refines_to_finite_extrema(self):
        # past about 1e154 the squared difference in the parabola vertex
        # overflows; the response is linear in epsilon, so the refined
        # extrema only scale and the depths stay put
        weak, strong = (
            analyze_windows(sweep(SweepConfig(matched_system(epsilon=eps), -1.5, 1.5, 61)))
            for eps in (0.03, 1e160)
        )
        assert (len(strong.peaks), len(strong.dips)) == (3, 2)
        for w, s in zip(weak.peaks, strong.peaks):
            assert s.height == pytest.approx(w.height * (1e160 / 0.03), rel=1e-12)
            assert s.detuning == pytest.approx(w.detuning, rel=1e-12)
        for w, s in zip(weak.dips, strong.dips):
            assert s.depth == pytest.approx(w.depth, rel=1e-12)
            assert s.detuning == pytest.approx(w.detuning, rel=1e-12)

    def test_report_serializes(self):
        d = analyze_windows(sweep(matched_sweep(201))).to_dict()
        assert set(d) == {"peaks", "dips", "asymmetry"}
        assert all(set(p) == {"detuning", "height", "fwhm"} for p in d["peaks"])


class TestDephasingScan:
    def test_frozen_reference_heights(self):
        heights = dephasing_scan(matched_system(), [1e-3, 1e-1, 1.0])
        assert heights[0] == pytest.approx(0.05982053892161838, rel=1e-12)
        assert heights[1] == pytest.approx(0.04996004831830809, rel=1e-12)
        assert heights[2] == pytest.approx(0.020019993333335553, rel=1e-12)
        assert heights[0] > heights[1] > heights[2]

    def test_single_value_matches_direct_evaluation(self):
        height = dephasing_scan(matched_system(), [0.7])[0]
        direct = steady_state(matched_system(gamma_phi=0.7)).absorption
        assert height == pytest.approx(direct, rel=1e-14)

    def test_strong_dephasing_limit(self):
        s = matched_system()
        limit = abs(s.epsilon) * (s.kappa_b / 2) / (s.lam**2 + s.kappa_a * s.kappa_b / 4)
        assert dephasing_scan(s, [1e7])[0] == pytest.approx(limit, rel=1e-3)

    def test_warns_off_the_matched_regime(self):
        with pytest.warns(UserWarning, match="lam == g"):
            dephasing_scan(unbalanced_system(), [1e-3])
