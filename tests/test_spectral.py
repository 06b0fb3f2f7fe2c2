"""Unit tests for the spectral pipeline: types, steps, profile statistics."""

import numpy as np
import pytest

from lumispec import spectral
from lumispec.errors import (
    EmptyBandError,
    LengthMismatchError,
    NonPositiveAucError,
    NonPositiveMaxError,
    NoSampleAboveCutoffError,
)
from lumispec.spectral import (
    AucProfile,
    PipelineConfig,
    Spectrum,
    auc_profile,
    normalize_above_cutoff,
    profile_stats,
    run_pipeline,
    smooth_window2,
    trapz_band,
)

from _oracles import gaussian_band_integral

# Frozen oracle values (math.erf evaluation, see _oracles.py).
GAUSS_525_30_BAND_INTEGRAL = 74.73188855848002


def grid(lo=400.0, hi=800.0, step=0.5):
    n = int(round((hi - lo) / step)) + 1
    return lo + np.arange(n) * step


def spectrum(w, i):
    return Spectrum(np.asarray(w, dtype=float), np.asarray(i, dtype=float))


class TestSpectrumType:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            spectrum([500.0], [1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            spectrum([500.0, 501.0], [1.0, 2.0, 3.0])

    def test_rejects_non_increasing_wavelengths(self):
        with pytest.raises(ValueError):
            spectrum([500.0, 500.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            spectrum([500.0, 499.0], [1.0, 2.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectrum([500.0, 501.0], [1.0, np.nan])
        with pytest.raises(ValueError):
            spectrum([500.0, np.inf], [1.0, 2.0])

    def test_arrays_are_immutable(self):
        s = spectrum([500.0, 501.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            s.intensities[0] = 5.0

    def test_constructor_copies_input(self):
        raw = np.array([1.0, 2.0])
        s = spectrum([500.0, 501.0], raw)
        raw[0] = 99.0
        assert s.intensities[0] == 1.0


def read_only(values):
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


class TestGridTrust:
    """A Spectrum holds its grid as a view over bytes and registers it, so a
    later Spectrum on it and the pipeline skip the checks and masks."""

    def test_caller_arrays_do_not_reach_the_spectrum(self):
        w, i = grid(), np.ones(801)
        s = Spectrum(w, i)
        w[:] = 0.0
        i[:] = 5.0
        assert s.wavelengths_nm.tolist() == grid().tolist()
        assert s.intensities.tolist() == [1.0] * 801

    def test_grid_cannot_be_made_writeable(self):
        from lumispec.optics import OpticalConfig, Rng, synthesize_spectrum

        mine = Spectrum(grid(), np.ones(801))
        for s in (mine, Spectrum(mine.wavelengths_nm, np.zeros(801)),
                  synthesize_spectrum(OpticalConfig(), 0.1, Rng(0))):
            with pytest.raises(ValueError):
                s.wavelengths_nm.setflags(write=True)
            with pytest.raises(ValueError):
                s.wavelengths_nm[0] = 0.0

    @pytest.mark.parametrize("values, message", [
        ([500.0, 500.0], "wavelengths_nm must be strictly increasing"),
        ([501.0, 500.0], "wavelengths_nm must be strictly increasing"),
        ([500.0, np.nan], "wavelengths_nm must be finite"),
        ([500.0, np.inf], "wavelengths_nm must be finite"),
        ([500.0], "a spectrum needs at least 2 samples"),
    ])
    def test_read_only_caller_grid_is_checked(self, values, message):
        owning = read_only(values)
        over_bytes = np.frombuffer(np.array(values, dtype=float).tobytes())
        for w in (owning, over_bytes, owning):
            with pytest.raises(ValueError, match=f"^{message}$"):
                Spectrum(w, np.ones(len(values)))

    def test_registry_and_derived_data_stay_bounded(self):
        for k in range(50):
            s = Spectrum(grid() + k / 1024, np.ones(801))
            for cutoff in range(450, 462):
                normalize_above_cutoff(s.wavelengths_nm, s.intensities, float(cutoff))
                trapz_band(s.wavelengths_nm, s.intensities, float(cutoff), 750.0)
            assert len(spectral._TRUSTED) <= spectral._TRUSTED_GRIDS
            for _, derived in spectral._TRUSTED.values():
                assert len(derived) <= spectral._DERIVED_PER_GRID

    def test_evicted_grid_is_registered_again_as_itself(self):
        from lumispec.optics import _GRID_NM

        for k in range(spectral._TRUSTED_GRIDS + 1):
            Spectrum(grid() + k / 1024, np.ones(801))
        assert spectral._derived(_GRID_NM) is None
        s = Spectrum(_GRID_NM, np.ones(801))
        assert s.wavelengths_nm is _GRID_NM
        assert spectral._derived(_GRID_NM) is not None


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.norm_cutoff_nm == 450.0
        assert cfg.auc_lo_nm == 450.0
        assert cfg.auc_hi_nm == 750.0

    def test_band_must_be_ordered(self):
        with pytest.raises(ValueError):
            PipelineConfig(auc_lo_nm=750.0, auc_hi_nm=450.0)
        # Every bound must be finite, even where the order would hold.
        for name in ("norm_cutoff_nm", "auc_lo_nm", "auc_hi_nm"):
            for value in (float("inf"), float("-inf"), float("nan"), 10**400, -(10**400)):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    PipelineConfig(**{name: value})


class TestNormalizeAboveCutoff:
    def test_basic_division(self):
        s = spectrum([440.0, 460.0, 525.0], [0.2, 2.0, 1.0])
        out = normalize_above_cutoff(s.wavelengths_nm, s.intensities, 450.0)
        assert np.array_equal(out, [0.1, 1.0, 0.5])
        assert out.shape == s.wavelengths_nm.shape

    def test_idempotent_when_already_normalized(self):
        s = spectrum([440.0, 460.0, 525.0], [0.05, 1.0, 0.5])
        out = normalize_above_cutoff(s.wavelengths_nm, s.intensities, 450.0)
        assert np.array_equal(out, s.intensities)

    def test_no_sample_above_cutoff(self):
        s = spectrum([400.0, 420.0], [1.0, 2.0])
        with pytest.raises(NoSampleAboveCutoffError):
            normalize_above_cutoff(s.wavelengths_nm, s.intensities, 450.0)

    def test_cutoff_is_strict(self):
        # A sample exactly at the cutoff does not count as above it.
        s = spectrum([400.0, 450.0], [1.0, 2.0])
        with pytest.raises(NoSampleAboveCutoffError):
            normalize_above_cutoff(s.wavelengths_nm, s.intensities, 450.0)

    def test_non_positive_max(self):
        s = spectrum([460.0, 470.0], [-1.0, 0.0])
        with pytest.raises(NonPositiveMaxError):
            normalize_above_cutoff(s.wavelengths_nm, s.intensities, 450.0)

    def test_non_positive_max_names_row(self):
        w = np.array([440.0, 460.0, 470.0])
        stack = np.array([[1.0, 2.0, 1.0], [1.0, 1.0, 1.0], [5.0, -1.0, 0.0]])
        with pytest.raises(NonPositiveMaxError) as info:
            normalize_above_cutoff(w, stack, 450.0)
        assert info.value.row == 2

    def test_fixed_point_is_exact(self):
        rng = np.random.default_rng(101)
        w = grid(440.0, 600.0, 1.0)
        for _ in range(50):
            s = spectrum(w, rng.uniform(0.1, 9.0, size=w.size))
            out = normalize_above_cutoff(s.wavelengths_nm, s.intensities, 450.0)
            assert out[s.wavelengths_nm > 450.0].max() == 1.0


class TestSmoothWindow2:
    def test_constants_preserved(self):
        s = spectrum([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(smooth_window2(s.intensities), [1, 1, 1, 1])

    def test_pair_average_with_tail_passthrough(self):
        s = spectrum([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 5.0, 7.0])
        assert np.array_equal(smooth_window2(s.intensities), [2, 4, 6, 7])

    def test_spike_spreads_forward(self):
        s = spectrum([1.0, 2.0, 3.0, 4.0], [0.0, 4.0, 0.0, 0.0])
        assert np.array_equal(smooth_window2(s.intensities), [2, 2, 0, 0])

    def test_length_and_wavelengths_preserved(self):
        w = grid(450.0, 460.0, 0.5)
        s = spectrum(w, np.sin(w))
        out = smooth_window2(s.intensities)
        assert out.size == s.intensities.size
        assert out.shape == w.shape

    def test_total_variation_never_grows(self):
        rng = np.random.default_rng(202)
        w = grid(450.0, 550.0, 1.0)
        for _ in range(100):
            x = rng.normal(size=w.size)
            y = smooth_window2(spectrum(w, x).intensities)
            tv = lambda v: np.abs(np.diff(v)).sum()
            assert tv(y) <= tv(x) + 1e-12


class TestTrapzBand:
    def test_constant_rectangle(self):
        w = grid(450.0, 750.0, 0.5)
        s = spectrum(w, np.ones(w.size))
        assert trapz_band(w, s.intensities, 450.0, 750.0) == pytest.approx(300.0, abs=1e-9)

    def test_linear_ramp_triangle(self):
        w = grid(450.0, 750.0, 0.5)
        s = spectrum(w, (w - 450.0) / 300.0)
        assert trapz_band(w, s.intensities, 450.0, 750.0) == pytest.approx(150.0, abs=1e-9)

    def test_gaussian_matches_erf_oracle(self):
        w = grid()
        s = spectrum(w, np.exp(-((w - 525.0) ** 2) / (2.0 * 30.0**2)))
        got = trapz_band(s.wavelengths_nm, s.intensities, 450.0, 750.0)
        oracle = gaussian_band_integral(525.0, 30.0, 1.0, 450.0, 750.0)
        assert oracle == pytest.approx(GAUSS_525_30_BAND_INTEGRAL, rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-3)

    def test_band_endpoints_inclusive(self):
        w = np.array([449.5, 450.0, 450.5, 451.0])
        s = spectrum(w, np.ones(4))
        # Samples at exactly 450.0 and 451.0 are inside the band.
        assert trapz_band(w, s.intensities, 450.0, 451.0) == pytest.approx(1.0, abs=1e-12)

    def test_empty_band(self):
        s = spectrum([400.0, 410.0, 420.0], [1.0, 1.0, 1.0])
        with pytest.raises(EmptyBandError):
            trapz_band(s.wavelengths_nm, s.intensities, 700.0, 750.0)
        with pytest.raises(EmptyBandError):
            trapz_band(s.wavelengths_nm, s.intensities, 405.0, 415.0)  # single enclosed sample

    def test_additive_at_grid_point(self):
        rng = np.random.default_rng(303)
        w = grid(450.0, 750.0, 0.5)
        for _ in range(20):
            s = spectrum(w, rng.uniform(0.0, 2.0, size=w.size))
            whole = trapz_band(w, s.intensities, 450.0, 750.0)
            parts = (trapz_band(w, s.intensities, 450.0, 600.0)
                     + trapz_band(w, s.intensities, 600.0, 750.0))
            assert parts == pytest.approx(whole, rel=1e-12)


class TestRunPipeline:
    def test_scale_invariance_single(self):
        w = grid()
        s = spectrum(w, np.exp(-((w - 500.0) ** 2) / 800.0) + 0.01)
        a = run_pipeline(s)
        b = run_pipeline(s.scaled(3.7))
        assert b == pytest.approx(a, rel=1e-12)

    def test_constant_five_gives_band_width(self):
        w = grid()
        s = spectrum(w, np.full(w.size, 5.0))
        assert run_pipeline(s) == pytest.approx(300.0, abs=1e-9)

    def test_matches_scalar_reference(self):
        # Two-peak noiseless synthetic spectrum checked against the
        # from-scratch scalar pipeline in _oracles.py.
        from _oracles import pipeline_reference
        from lumispec.optics import OpticalConfig, Rng, synthesize_spectrum

        cfg = OpticalConfig(noise_sigma=0.0)
        s = synthesize_spectrum(cfg, 0.0, Rng(0))
        got = run_pipeline(s)
        ref = pipeline_reference(
            s.wavelengths_nm, s.intensities, 450.0, 450.0, 750.0
        )
        assert got > 0.0
        assert got == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("radius_mm", [None, 25.0], ids=["flat", "convex"])
    def test_stack_equals_each_spectrum_bitwise(self, radius_mm):
        from lumispec.engine import SimulatedPort, default_plan, run_triplicate
        from lumispec.geometry import SphereSurface

        surface = SphereSurface(radius_mm=radius_mm) if radius_mm else None
        records = run_triplicate(
            default_plan(), lambda t, seed: SimulatedPort(surface=surface, seed=seed), 7
        )
        for record in records:
            stacked = run_pipeline(record.spectra)
            alone = [run_pipeline(s) for _, s in record.entries]
            assert stacked.shape == (21,)
            assert stacked.tolist() == alone

    def test_custom_config_changes_band(self):
        w = grid()
        s = spectrum(w, np.ones(w.size))
        cfg = PipelineConfig(auc_lo_nm=500.0, auc_hi_nm=600.0)
        assert run_pipeline(s, cfg) == pytest.approx(100.0, abs=1e-9)


# The default, then a second cutoff and band, then the first band on the
# second cutoff, so that a mixed-up cache key changes some AUC.
CACHE_CONFIGS = (
    PipelineConfig(),
    PipelineConfig(norm_cutoff_nm=500.0, auc_lo_nm=460.0, auc_hi_nm=700.0),
    PipelineConfig(norm_cutoff_nm=500.0, auc_lo_nm=450.0, auc_hi_nm=750.0),
)


def pipeline_on_copy(w, intensities, cfg):
    """run_pipeline's steps on a writeable copy of the grid, which is never
    registered, so every mask is computed afresh."""
    w = w.copy()
    normalized = normalize_above_cutoff(w, intensities, cfg.norm_cutoff_nm)
    return trapz_band(w, smooth_window2(normalized), cfg.auc_lo_nm, cfg.auc_hi_nm)


class TestCachedMasks:
    @pytest.fixture(scope="class", params=[None, 25.0], ids=["flat", "convex"])
    def records(self, request):
        from lumispec.engine import SimulatedPort, default_plan, run_triplicate
        from lumispec.geometry import SphereSurface

        surface = SphereSurface(radius_mm=request.param) if request.param else None
        return run_triplicate(
            default_plan(), lambda t, seed: SimulatedPort(surface=surface, seed=seed), 7
        )

    def test_aucs_bit_equal_on_registered_grid_and_copy(self, records):
        for cfg in CACHE_CONFIGS + CACHE_CONFIGS[::-1]:
            for record in records:
                stack = record.spectra
                assert spectral._derived(stack.wavelengths_nm) is not None
                expected = pipeline_on_copy(stack.wavelengths_nm, stack.intensities, cfg)
                assert run_pipeline(stack, cfg).tobytes() == expected.tobytes()
                alone = [run_pipeline(s, cfg) for _, s in record.entries]
                assert np.array(alone).tobytes() == expected.tobytes()

    def test_default_config_is_the_default(self, records):
        s = records[0].entries[5][1]
        assert run_pipeline(s) == run_pipeline(s, PipelineConfig())

    @staticmethod
    def raised(call):
        with pytest.raises(Exception) as info:
            call()
        return type(info.value), str(info.value), getattr(info.value, "row", None)

    @pytest.mark.parametrize("case", ["cutoff", "max", "band", "empty"])
    def test_errors_unchanged_on_registered_grid(self, case):
        s = Spectrum(grid(), np.ones((3, 801)))
        w, copy = s.wavelengths_nm, s.wavelengths_nm.copy()
        stack = np.ones((3, 801))
        stack[1] = -1.0
        calls = {
            "cutoff": lambda g: normalize_above_cutoff(g, s.intensities, 800.0),
            "max": lambda g: normalize_above_cutoff(g, stack, 450.0),
            "band": lambda g: trapz_band(g, s.intensities, 400.1, 400.4),
            "empty": lambda g: trapz_band(g, s.intensities, 700.0, 700.0),
        }
        expected = {
            "cutoff": (NoSampleAboveCutoffError,
                       "no sample above cutoff 800 nm (grid ends at 800 nm)", None),
            "max": (NonPositiveMaxError,
                    "max intensity above 450 nm is -1; cannot normalize", 1),
            "band": (EmptyBandError,
                     "band [400.1, 400.4] nm contains fewer than 2 samples", None),
            "empty": (EmptyBandError, "band [700, 700] nm is empty", None),
        }[case]
        call = calls[case]
        assert spectral._derived(w) is not None
        assert self.raised(lambda: call(copy)) == expected
        # Twice: once filling the grid's cache, once reading it.
        assert self.raised(lambda: call(w)) == expected
        assert self.raised(lambda: call(w)) == expected

    def test_non_positive_max_message_keeps_the_sign_of_zero(self):
        # The slice and the mask reduce a stack in different orders, which can
        # pick a different zero; the message must not depend on which.
        w = Spectrum(grid(), np.ones(801)).wavelengths_nm
        rng = np.random.default_rng(11)
        for _ in range(200):
            stack = rng.choice([-0.0, 0.0, -1.0], size=(3, 801))
            found = [self.raised(lambda g=g: normalize_above_cutoff(g, stack, 450.0))
                     for g in (w.copy(), w, w)]
            assert found[0][0] is NonPositiveMaxError
            assert found[1] == found[0] and found[2] == found[0]


    def test_non_positive_max_message_same_for_a_row_alone_and_in_its_stack(self):
        # Every row of these stacks has a max <= 0; draw 141 has a row whose
        # max reads "-0" alone and "0" in its stack without the + 0.0.
        w = Spectrum(grid(), np.ones(801)).wavelengths_nm
        rng = np.random.default_rng(11)
        for _ in range(300):
            stack = rng.choice([-0.0, 0.0, -1.0], size=(3, 801))
            for g in (w.copy(), w):
                for i in range(3):
                    kind, message, row = self.raised(
                        lambda: normalize_above_cutoff(g, stack[i:], 450.0)
                    )
                    assert (kind, row) == (NonPositiveMaxError, 0)
                    alone = self.raised(lambda: normalize_above_cutoff(g, stack[i], 450.0))
                    assert alone == (kind, message, 0)


class TestAucProfile:
    def test_basic_normalization(self):
        p = auc_profile([300.0, 285.0, 270.0], [-1.8, 0.0, 1.8])
        assert np.array_equal(p.auc_norm, [1.0, 0.95, 0.9])
        assert np.array_equal(p.auc_raw, [300.0, 285.0, 270.0])

    def test_identical_values_all_one(self):
        p = auc_profile([7.0, 7.0, 7.0], [-1.0, 0.0, 1.0])
        assert np.array_equal(p.auc_norm, [1.0, 1.0, 1.0])

    def test_single_element(self):
        p = auc_profile([42.0], [0.0])
        assert np.array_equal(p.auc_norm, [1.0])

    def test_max_is_exactly_one(self):
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = rng.integers(1, 40)
            raw = rng.uniform(1e-6, 1e6, size=n)
            p = auc_profile(raw, np.arange(n, dtype=float))
            assert p.auc_norm.max() == 1.0

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveAucError):
            auc_profile([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(NonPositiveAucError):
            auc_profile([1.0, -2.0], [0.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            auc_profile([1.0, 2.0], [0.0])
        with pytest.raises(LengthMismatchError):
            auc_profile([], [])

    def test_rejects_unsorted_angles(self):
        with pytest.raises(ValueError):
            auc_profile([1.0, 2.0], [1.0, 0.0])


class TestProfileStats:
    def test_three_point_profile(self):
        p = auc_profile([0.95, 1.0, 0.95], [-1.8, 0.0, 1.8])
        st = profile_stats(p)
        assert st.mean_auc == pytest.approx(0.9667, abs=1e-4)
        assert st.span95_deg == 1.8

    def test_all_ones_default_grid(self):
        angles = -18.0 + np.arange(21) * 1.8
        p = auc_profile(np.ones(21), angles)
        st = profile_stats(p)
        assert st.mean_auc == 1.0
        assert st.std_auc == 0.0
        assert st.span95_deg == 18.0

    def test_neighbors_below_threshold(self):
        p = auc_profile([0.9, 1.0, 0.9], [-1.8, 0.0, 1.8])
        assert profile_stats(p).span95_deg == 0.0

    def test_span_is_contiguous_about_zero(self):
        # A distant angle above threshold must not extend the span past a gap.
        angles = np.array([-3.6, -1.8, 0.0, 1.8, 3.6])
        p = auc_profile([0.96, 0.90, 1.0, 0.90, 0.96], angles)
        assert profile_stats(p).span95_deg == 0.0

    def test_population_std(self):
        p = auc_profile([0.9, 1.0], [0.0, 1.0])
        st = profile_stats(p)
        assert st.std_auc == pytest.approx(0.05, abs=1e-12)

    def test_scale_invariance_of_stats(self):
        angles = np.array([-1.8, 0.0, 1.8])
        a = profile_stats(auc_profile([3.0, 4.0, 3.5], angles))
        b = profile_stats(auc_profile([300.0, 400.0, 350.0], angles))
        assert a == b

    def test_threshold_validation(self):
        p = auc_profile([1.0], [0.0])
        with pytest.raises(ValueError):
            profile_stats(p, threshold=0.0)
        with pytest.raises(ValueError):
            profile_stats(p, threshold=1.5)

    def test_angles_must_cover_zero(self):
        p = auc_profile([1.0, 1.0], [5.0, 6.0])
        with pytest.raises(ValueError):
            profile_stats(p)
