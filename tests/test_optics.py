"""Unit tests for the forward optical model and its noise behavior.

The prebuilt grid, base emission and per-kappa exponent are held to the
per-call formula bit for bit, on the aoi sets of the default flat and convex
(R = 25 mm) sweeps.
"""

import dataclasses
import math

import numpy as np
import pytest

from lumispec.engine import default_plan, derive_trial_seed
from lumispec.errors import AoiOutOfRangeError
from lumispec.geometry import FlatSurface, PivotGeometry, SphereSurface, solve_incidence
from lumispec.optics import (
    _BASE_EMISSION,
    _GRID_NM,
    _exponent_on_grid,
    DEFAULT_KAPPA,
    OpticalConfig,
    Rng,
    angular_attenuation,
    base_emission,
    dichroic_transmittance,
    synthesize_spectrum,
)
from lumispec.spectral import run_pipeline

# The instrument grid as the model promises it: 400 + i * 0.5 nm, i < 801.
GRID_NM = 400.0 + np.arange(801) * 0.5


class TestTypes:
    def test_angular_validation(self):
        for bad in (-1.0, 10**400, -(10**400)):
            with pytest.raises(ValueError, match="kappa must be finite and non-negative"):
                OpticalConfig(kappa=bad)
        assert OpticalConfig(kappa=0.0).kappa == 0.0

    def test_config_has_only_the_recorded_settings(self):
        # Exactly the two settings a run's meta.txt records (kappa, noise_sigma).
        assert [f.name for f in dataclasses.fields(OpticalConfig)] == ["kappa", "noise_sigma"]
        with pytest.raises(ValueError):
            OpticalConfig(noise_sigma=-0.01)

    @pytest.mark.parametrize(
        "sigma",
        [
            float("inf"),
            float("nan"),
            -1.0,
            pytest.param(10**400, id="1e400"),
            pytest.param(-(10**400), id="-1e400"),
        ],
    )
    def test_noise_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite and non-negative"):
            OpticalConfig(noise_sigma=sigma)

    def test_grid_values_by_index(self):
        v = synthesize_spectrum(OpticalConfig(), 0.0, Rng(0)).wavelengths_nm
        assert v.tobytes() == GRID_NM.tobytes()
        assert v.size == 801
        assert v[0] == 400.0
        assert v[-1] == 800.0
        assert v[100] == 450.0


class TestDichroicTransmittance:
    def test_midpoint_at_cutoff(self):
        assert dichroic_transmittance(450.0) == 0.5

    def test_excitation_blocked(self):
        assert dichroic_transmittance(405.0) < 1e-9

    def test_passband_open(self):
        assert dichroic_transmittance(470.0) > 0.9999

    def test_monotone_and_bounded(self):
        w = np.linspace(350.0, 850.0, 2001)
        t = dichroic_transmittance(w)
        # Non-decreasing everywhere; float saturation flattens the far tails,
        # so strictness is only checkable through the transition region.
        assert np.all(np.diff(t) >= 0.0)
        assert t.min() >= 0.0 and t.max() <= 1.0
        w_mid = np.linspace(430.0, 470.0, 401)
        assert np.all(np.diff(dichroic_transmittance(w_mid)) > 0.0)

    def test_matches_logistic_form(self):
        # Cutoff 450 nm, transition width 2 nm.
        for lam in (445.0, 449.0, 451.0, 455.0, 470.0):
            expected = 1.0 / (1.0 + math.exp(-(lam - 450.0) / 2.0))
            assert dichroic_transmittance(lam) == pytest.approx(expected, rel=1e-12)


def two_line_emission(lam):
    """NADH (460 nm, sigma 15, amplitude 1) plus FAD (525 nm, sigma 20, 0.8),
    times the logistic dichroic at 450 nm, evaluated in closed form."""
    return (
        math.exp(-((lam - 460.0) ** 2) / (2.0 * 15.0**2)) * 1.0
        + math.exp(-((lam - 525.0) ** 2) / (2.0 * 20.0**2)) * 0.8
    ) * (1.0 / (1.0 + math.exp(-(lam - 450.0) / 2.0)))


class TestBaseEmission:
    def test_single_peak_center_value(self):
        # At 460 nm the NADH line is at its unit peak; FAD adds its tail.
        expected = (
            1.0 + 0.8 * math.exp(-(65.0**2) / (2.0 * 20.0**2))
        ) * dichroic_transmittance(460.0)
        assert base_emission(460.0) == pytest.approx(expected, rel=1e-12)

    def test_two_peak_value_at_525(self):
        assert base_emission(525.0) == pytest.approx(two_line_emission(525.0), rel=1e-12)

    def test_closed_form_across_the_grid(self):
        expected = np.array([two_line_emission(lam) for lam in GRID_NM.tolist()])
        # Far below the cutoff the tanh form and the logistic differ by
        # rounding on values under 1e-17, hence the absolute floor.
        np.testing.assert_allclose(base_emission(GRID_NM), expected, rtol=1e-12, atol=1e-15)


class TestAngularAttenuation:
    def test_normal_incidence_is_unity(self):
        for kappa in (0.0, 1.0, DEFAULT_KAPPA):
            assert angular_attenuation(600.0, 0.0, kappa) == 1.0

    def test_pure_cosine_when_kappa_zero(self):
        w = np.linspace(400.0, 800.0, 801)
        att = angular_attenuation(w, math.radians(60.0), 0.0)
        assert np.allclose(att, 0.5, rtol=1e-12)

    def test_exponent_two_at_band_top(self):
        got = angular_attenuation(750.0, math.radians(60.0), 1.0)
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_exponent_clamped_below_anchor(self):
        # Wavelengths below 450 nm use exponent 1, never less.
        got = angular_attenuation(400.0, math.radians(60.0), 2.0)
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_aoi(self):
        for lam in (450.0, 600.0, 750.0):
            aois = np.linspace(0.0, 1.4, 50)
            vals = np.array([angular_attenuation(lam, x, DEFAULT_KAPPA) for x in aois])
            assert np.all(np.diff(vals) < 0.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(AoiOutOfRangeError):
            angular_attenuation(600.0, math.pi / 2.0, DEFAULT_KAPPA)
        with pytest.raises(AoiOutOfRangeError):
            angular_attenuation(600.0, -0.01, DEFAULT_KAPPA)


class TestSynthesizeSpectrum:
    def test_cosine_scaling_when_kappa_zero(self):
        cfg = OpticalConfig(noise_sigma=0.0, kappa=0.0)
        s0 = synthesize_spectrum(cfg, 0.0, Rng(1))
        s30 = synthesize_spectrum(cfg, math.radians(30.0), Rng(1))
        assert np.allclose(
            s30.intensities, s0.intensities * math.cos(math.radians(30.0)),
            rtol=1e-12, atol=0.0,
        )

    def test_deterministic_for_fixed_seed(self):
        cfg = OpticalConfig()
        a = synthesize_spectrum(cfg, 0.1, Rng(42))
        b = synthesize_spectrum(cfg, 0.1, Rng(42))
        assert np.array_equal(a.intensities, b.intensities)
        assert np.array_equal(a.wavelengths_nm, b.wavelengths_nm)

    def test_different_seeds_differ(self):
        cfg = OpticalConfig()
        a = synthesize_spectrum(cfg, 0.1, Rng(1))
        b = synthesize_spectrum(cfg, 0.1, Rng(2))
        assert not np.array_equal(a.intensities, b.intensities)

    def test_argmax_at_nadh_peak(self):
        cfg = OpticalConfig(noise_sigma=0.0)
        s = synthesize_spectrum(cfg, 0.0, Rng(0))
        peak_nm = s.wavelengths_nm[int(np.argmax(s.intensities))]
        assert abs(peak_nm - 460.0) <= 0.5

    def test_output_on_declared_grid(self):
        cfg = OpticalConfig()
        s = synthesize_spectrum(cfg, 0.2, Rng(9))
        assert np.array_equal(s.wavelengths_nm, GRID_NM)

    def test_draw_count_independent_of_sigma(self):
        # The noiseless path consumes the same RNG stream, so toggling
        # noise_sigma never shifts later draws.
        quiet = OpticalConfig(noise_sigma=0.0)
        noisy = OpticalConfig(noise_sigma=0.01)
        r1, r2 = Rng(77), Rng(77)
        synthesize_spectrum(quiet, 0.1, r1)
        synthesize_spectrum(noisy, 0.1, r2)
        assert np.array_equal(r1.standard_normal(5), r2.standard_normal(5))

    def test_auc_strictly_decreasing_with_kappa(self):
        # Noiseless, calibrated kappa: pipeline AUC must fall as |angle|
        # grows across the sweep grid magnitudes 0, 1.8, ..., 18 deg.
        cfg = OpticalConfig(noise_sigma=0.0)
        aucs = []
        for i in range(11):
            aoi = math.radians(i * 1.8)
            aucs.append(run_pipeline(synthesize_spectrum(cfg, aoi, Rng(0))))
        diffs = np.diff(aucs)
        assert np.all(diffs < 0.0)

    def test_noise_mean_converges_to_noiseless(self):
        # Mean over 1000 fixed seeds of every grid intensity stays within
        # 3 sigma / sqrt(1000) of the noiseless spectrum. The seed block
        # 11000..11999 is frozen: the bound is a ~3-sigma event per point
        # across 801 points, so an arbitrary block can fail by chance
        # while any real bias would overshoot the bound hugely.
        sigma = 0.01
        cfg = OpticalConfig(noise_sigma=sigma)
        quiet = synthesize_spectrum(
            OpticalConfig(noise_sigma=0.0), 0.3, Rng(0)
        ).intensities
        acc = np.zeros_like(quiet)
        n = 1000
        for seed in range(11000, 11000 + n):
            acc += synthesize_spectrum(cfg, 0.3, Rng(seed)).intensities
        worst = np.abs(acc / n - quiet).max()
        assert worst <= 3.0 * sigma / math.sqrt(n)


def reference_spectrum(cfg, aoi_rad, rng):
    """The whole model evaluated per call, as synthesize_spectrum promises."""
    lam = GRID_NM
    signal = base_emission(lam) * angular_attenuation(lam, aoi_rad, cfg.kappa)
    return lam, signal + cfg.noise_sigma * rng.standard_normal(lam.size)


def sweep_aois(surface):
    plan = default_plan()
    return [solve_incidence(a, PivotGeometry(), surface).aoi_rad for a in plan.angles()]


class TestForwardModelCache:
    @pytest.mark.parametrize("kappa", [DEFAULT_KAPPA, 0.0])
    @pytest.mark.parametrize(
        "surface", [FlatSurface(), SphereSurface(radius_mm=25.0)], ids=["flat", "convex"]
    )
    def test_bit_equal_to_per_call_formula(self, surface, kappa):
        cfg = OpticalConfig(kappa=kappa)
        aois = sweep_aois(surface)
        for trial in range(default_plan().trials):
            seed = derive_trial_seed(7, trial)
            got_rng, ref_rng = Rng(seed), Rng(seed)
            for aoi in aois:
                got = synthesize_spectrum(cfg, aoi, got_rng)
                lam, ref = reference_spectrum(cfg, aoi, ref_rng)
                assert got.wavelengths_nm.tobytes() == lam.tobytes()
                assert got.intensities.tobytes() == ref.tobytes()

    def test_alternating_configs_keep_their_own_models(self):
        configs = [
            OpticalConfig(),
            OpticalConfig(kappa=0.0),
            OpticalConfig(kappa=1.25, noise_sigma=0.2),
        ]
        aoi = math.radians(12.6)
        for _ in range(2):
            for cfg in configs:
                got = synthesize_spectrum(cfg, aoi, Rng(7))
                lam, ref = reference_spectrum(cfg, aoi, Rng(7))
                assert got.wavelengths_nm.tobytes() == lam.tobytes()
                assert got.intensities.tobytes() == ref.tobytes()
        kappas = [cfg.kappa for cfg in configs]
        exponents = [_exponent_on_grid(kappa) for kappa in kappas]
        assert all(k is _exponent_on_grid(kappa) for k, kappa in zip(exponents, kappas))
        assert len({id(k) for k in exponents}) == len(configs)

    def test_cached_arrays_are_read_only(self):
        synthesize_spectrum(OpticalConfig(), 0.1, Rng(0))
        for arr in (_GRID_NM, _BASE_EMISSION, _exponent_on_grid(DEFAULT_KAPPA)):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("aoi", [math.pi / 2.0, -0.01, math.nan], ids=["pi/2", "negative", "nan"])
    def test_out_of_range_aoi_raises_before_drawing(self, aoi):
        rng = Rng(7)
        with pytest.raises(AoiOutOfRangeError):
            synthesize_spectrum(OpticalConfig(), aoi, rng)
        assert np.array_equal(rng.standard_normal(4), Rng(7).standard_normal(4))


class TestRng:
    def test_stream_reproducible(self):
        assert np.array_equal(Rng(123).standard_normal(16), Rng(123).standard_normal(16))

    def test_streams_independent_of_chunking(self):
        a = Rng(5)
        first = np.concatenate([a.standard_normal(3), a.standard_normal(5)])
        b = Rng(5)
        assert np.array_equal(first, b.standard_normal(8))

    def test_seed_masked_to_64_bits(self):
        big = Rng(2**64 + 9)
        small = Rng(9)
        assert np.array_equal(big.standard_normal(4), small.standard_normal(4))
