"""Unit tests for the forward optical model and its noise behavior."""

import math

import numpy as np
import pytest

from lumispec.errors import AoiOutOfRangeError
from lumispec.optics import (
    DEFAULT_KAPPA,
    AngularResponse,
    DichroicCurve,
    Fluorophore,
    OpticalConfig,
    Rng,
    WavelengthGrid,
    angular_attenuation,
    base_emission,
    dichroic_transmittance,
    synthesize_spectrum,
)
from lumispec.spectral import run_pipeline


class TestTypes:
    def test_fluorophore_validation(self):
        with pytest.raises(ValueError):
            Fluorophore("x", center_nm=500.0, sigma_nm=0.0, amplitude=1.0)
        with pytest.raises(ValueError):
            Fluorophore("x", center_nm=500.0, sigma_nm=10.0, amplitude=-0.1)

    def test_dichroic_validation(self):
        with pytest.raises(ValueError):
            DichroicCurve(cutoff_nm=450.0, transition_width_nm=0.0)

    def test_angular_validation(self):
        with pytest.raises(ValueError):
            AngularResponse(kappa=-1.0)
        assert AngularResponse(kappa=0.0).kappa == 0.0

    def test_grid_values_by_index(self):
        g = WavelengthGrid(400.0, 800.0, 0.5)
        v = g.values()
        assert v.size == 801
        assert v[0] == 400.0
        assert v[-1] == 800.0
        assert v[100] == 450.0

    def test_config_grid_must_cover_band(self):
        with pytest.raises(ValueError):
            OpticalConfig(grid=WavelengthGrid(500.0, 800.0, 0.5))


class TestDichroicTransmittance:
    def test_midpoint_at_cutoff(self):
        assert dichroic_transmittance(450.0, DichroicCurve()) == 0.5

    def test_excitation_blocked(self):
        assert dichroic_transmittance(405.0, DichroicCurve()) < 1e-9

    def test_passband_open(self):
        assert dichroic_transmittance(470.0, DichroicCurve()) > 0.9999

    def test_monotone_and_bounded(self):
        w = np.linspace(350.0, 850.0, 2001)
        t = dichroic_transmittance(w, DichroicCurve())
        # Non-decreasing everywhere; float saturation flattens the far tails,
        # so strictness is only checkable through the transition region.
        assert np.all(np.diff(t) >= 0.0)
        assert t.min() >= 0.0 and t.max() <= 1.0
        w_mid = np.linspace(430.0, 470.0, 401)
        assert np.all(np.diff(dichroic_transmittance(w_mid, DichroicCurve())) > 0.0)

    def test_matches_logistic_form(self):
        d = DichroicCurve(cutoff_nm=450.0, transition_width_nm=2.0)
        for lam in (445.0, 449.0, 451.0, 455.0, 470.0):
            expected = 1.0 / (1.0 + math.exp(-(lam - 450.0) / 2.0))
            assert dichroic_transmittance(lam, d) == pytest.approx(expected, rel=1e-12)


class TestBaseEmission:
    def test_no_fluorophores_is_dark(self):
        cfg = OpticalConfig(fluorophores=())
        w = cfg.grid.values()
        assert np.all(base_emission(w, cfg) == 0.0)

    def test_single_peak_center_value(self):
        f = Fluorophore("NADH", center_nm=460.0, sigma_nm=30.0, amplitude=1.0)
        cfg = OpticalConfig(fluorophores=(f,))
        expected = dichroic_transmittance(460.0, cfg.dichroic)
        assert base_emission(460.0, cfg) == pytest.approx(expected, rel=1e-12)

    def test_two_peak_value_at_525(self):
        # Direct formula evaluation for an explicit two-Gaussian config.
        fl = (
            Fluorophore("NADH", center_nm=460.0, sigma_nm=30.0, amplitude=1.0),
            Fluorophore("FAD", center_nm=525.0, sigma_nm=35.0, amplitude=0.8),
        )
        cfg = OpticalConfig(fluorophores=fl)
        lam = 525.0
        expected = (
            math.exp(-((lam - 460.0) ** 2) / (2.0 * 30.0**2)) * 1.0
            + math.exp(-((lam - 525.0) ** 2) / (2.0 * 35.0**2)) * 0.8
        ) * (1.0 / (1.0 + math.exp(-(lam - 450.0) / 2.0)))
        assert base_emission(lam, cfg) == pytest.approx(expected, rel=1e-12)

    def test_baseline_added_before_dichroic(self):
        cfg = OpticalConfig(fluorophores=(), baseline=0.25)
        expected = 0.25 * dichroic_transmittance(600.0, cfg.dichroic)
        assert base_emission(600.0, cfg) == pytest.approx(expected, rel=1e-12)


class TestAngularAttenuation:
    def test_normal_incidence_is_unity(self):
        for kappa in (0.0, 1.0, DEFAULT_KAPPA):
            a = AngularResponse(kappa=kappa)
            assert angular_attenuation(600.0, 0.0, a) == 1.0

    def test_pure_cosine_when_kappa_zero(self):
        a = AngularResponse(kappa=0.0)
        w = np.linspace(400.0, 800.0, 801)
        att = angular_attenuation(w, math.radians(60.0), a)
        assert np.allclose(att, 0.5, rtol=1e-12)

    def test_exponent_two_at_band_top(self):
        a = AngularResponse(kappa=1.0)
        got = angular_attenuation(750.0, math.radians(60.0), a)
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_exponent_clamped_below_anchor(self):
        # Wavelengths below 450 nm use exponent 1, never less.
        a = AngularResponse(kappa=2.0)
        got = angular_attenuation(400.0, math.radians(60.0), a)
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_monotone_in_aoi(self):
        a = AngularResponse()
        for lam in (450.0, 600.0, 750.0):
            aois = np.linspace(0.0, 1.4, 50)
            vals = np.array([angular_attenuation(lam, x, a) for x in aois])
            assert np.all(np.diff(vals) < 0.0)

    def test_rejects_out_of_range(self):
        a = AngularResponse()
        with pytest.raises(AoiOutOfRangeError):
            angular_attenuation(600.0, math.pi / 2.0, a)
        with pytest.raises(AoiOutOfRangeError):
            angular_attenuation(600.0, -0.01, a)


class TestSynthesizeSpectrum:
    def test_cosine_scaling_when_kappa_zero(self):
        cfg = OpticalConfig(noise_sigma=0.0, angular=AngularResponse(kappa=0.0))
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
        assert np.array_equal(s.wavelengths_nm, cfg.grid.values())

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
