"""Spectrum domain types and the angle-sweep analysis pipeline.

The pipeline applied to every acquired spectrum is fixed:

1. max-normalize against the largest intensity above the 450 nm cutoff
   (the dichroic mirror suppresses everything below it),
2. smooth by averaging each sample with its right neighbor (window of two,
   last sample passed through so length is preserved),
3. trapezoidal integration over the 450-750 nm emission band.

Per-angle AUC values are then max-normalized across the sweep to form an
:class:`AucProfile`, summarized by :func:`profile_stats`.

All operations are pure; :class:`Spectrum` and :class:`AucProfile` are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    EmptyBandError,
    LengthMismatchError,
    NonPositiveAucError,
    NonPositiveMaxError,
    NoSampleAboveCutoffError,
)

_DENOMINATOR_EPS = 1e-12

_trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


def _frozen_array(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Spectrum:
    """A sampled emission spectrum on a strictly increasing wavelength grid.

    Intensities are in arbitrary units and may be negative (instrument
    baseline subtraction is allowed to undershoot); only the normalizing
    maximum is required to be positive, and only at normalization time.
    """

    wavelengths_nm: np.ndarray
    intensities: np.ndarray

    def __post_init__(self) -> None:
        w = _frozen_array(self.wavelengths_nm, "wavelengths_nm")
        i = _frozen_array(self.intensities, "intensities")
        if w.size != i.size:
            raise ValueError("wavelengths_nm and intensities must have equal length")
        if w.size < 2:
            raise ValueError("a spectrum needs at least 2 samples")
        if not np.all(np.diff(w) > 0):
            raise ValueError("wavelengths_nm must be strictly increasing")
        object.__setattr__(self, "wavelengths_nm", w)
        object.__setattr__(self, "intensities", i)

    def __len__(self) -> int:
        return int(self.wavelengths_nm.size)

    def scaled(self, factor: float) -> "Spectrum":
        """Pointwise intensity scaling; wavelengths unchanged."""
        return Spectrum(self.wavelengths_nm, self.intensities * factor)


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the per-spectrum analysis pipeline."""

    norm_cutoff_nm: float = 450.0
    auc_lo_nm: float = 450.0
    auc_hi_nm: float = 750.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.norm_cutoff_nm):
            raise ValueError("norm_cutoff_nm must be finite")
        if not self.auc_lo_nm < self.auc_hi_nm:
            raise ValueError("auc_lo_nm must be below auc_hi_nm")


@dataclass(frozen=True)
class AucProfile:
    """Per-angle AUC values with their max-normalized counterpart.

    ``auc_norm`` always has maximum exactly 1 (the element at the argmax is
    divided by itself).
    """

    angles_deg: np.ndarray
    auc_raw: np.ndarray
    auc_norm: np.ndarray

    def __post_init__(self) -> None:
        ang = _frozen_array(self.angles_deg, "angles_deg")
        raw = _frozen_array(self.auc_raw, "auc_raw")
        norm = _frozen_array(self.auc_norm, "auc_norm")
        if not (ang.size == raw.size == norm.size):
            raise ValueError("profile sequences must have equal length")
        if ang.size == 0:
            raise ValueError("profile must not be empty")
        if ang.size > 1 and not np.all(np.diff(ang) > 0):
            raise ValueError("angles_deg must be strictly increasing")
        if norm.max() != 1.0:
            raise ValueError("auc_norm maximum must be exactly 1")
        if np.any(norm <= 0.0):
            raise ValueError("auc_norm values must be positive")
        object.__setattr__(self, "angles_deg", ang)
        object.__setattr__(self, "auc_raw", raw)
        object.__setattr__(self, "auc_norm", norm)

    def __len__(self) -> int:
        return int(self.angles_deg.size)


@dataclass(frozen=True)
class SweepStats:
    """Summary statistics of a normalized AUC profile.

    ``span95_deg`` is the half-width of the contiguous angular region about
    0 degrees whose normalized AUC stays at or above the threshold.
    """

    mean_auc: float
    std_auc: float
    span95_deg: float


def normalize_above_cutoff(s: Spectrum, cutoff_nm: float = 450.0) -> Spectrum:
    """Divide intensities by the largest intensity at wavelengths > cutoff.

    The returned spectrum has max-above-cutoff exactly 1. Raises
    ``NoSampleAboveCutoffError`` when no sample lies above the cutoff and
    ``NonPositiveMaxError`` when the would-be normalizer is <= 0.
    """
    mask = s.wavelengths_nm > cutoff_nm
    if not mask.any():
        raise NoSampleAboveCutoffError(
            f"no sample above cutoff {cutoff_nm:g} nm "
            f"(grid ends at {s.wavelengths_nm[-1]:g} nm)"
        )
    peak = float(s.intensities[mask].max())
    if peak <= 0.0:
        raise NonPositiveMaxError(
            f"max intensity above {cutoff_nm:g} nm is {peak:g}; cannot normalize"
        )
    return Spectrum(s.wavelengths_nm, s.intensities / peak)


def smooth_window2(s: Spectrum) -> Spectrum:
    """Forward pair-average smoothing, length preserving.

    y[i] = (x[i] + x[i+1]) / 2 for all but the last sample, which is passed
    through unchanged. Constant signals are preserved exactly.
    """
    x = s.intensities
    y = x.copy()
    y[:-1] = 0.5 * (x[:-1] + x[1:])
    return Spectrum(s.wavelengths_nm, y)


def trapz_band(s: Spectrum, lo_nm: float, hi_nm: float) -> float:
    """Trapezoidal integral over grid samples with lo_nm <= wavelength <= hi_nm.

    Integration runs on the native grid: band edges snap to the enclosed
    samples, with no sub-sample interpolation. Raises ``EmptyBandError`` when
    fewer than two samples fall inside the band.
    """
    if not lo_nm < hi_nm:
        raise EmptyBandError(f"band [{lo_nm:g}, {hi_nm:g}] nm is empty")
    mask = (s.wavelengths_nm >= lo_nm) & (s.wavelengths_nm <= hi_nm)
    if int(mask.sum()) < 2:
        raise EmptyBandError(
            f"band [{lo_nm:g}, {hi_nm:g}] nm contains fewer than 2 samples"
        )
    return float(_trapz(s.intensities[mask], s.wavelengths_nm[mask]))


def run_pipeline(s: Spectrum, cfg: PipelineConfig | None = None) -> float:
    """Full per-spectrum pipeline: normalize, smooth, integrate.

    Invariant under positive pointwise scaling of the input, since the
    normalization step cancels any common factor.
    """
    cfg = cfg if cfg is not None else PipelineConfig()
    normalized = normalize_above_cutoff(s, cfg.norm_cutoff_nm)
    smoothed = smooth_window2(normalized)
    return trapz_band(smoothed, cfg.auc_lo_nm, cfg.auc_hi_nm)


def auc_profile(
    aucs_raw: Sequence[float], angles_deg: Sequence[float]
) -> AucProfile:
    """Max-normalize per-angle AUC values into an :class:`AucProfile`."""
    raw = np.asarray(aucs_raw, dtype=float)
    ang = np.asarray(angles_deg, dtype=float)
    if raw.size != ang.size or raw.size == 0:
        raise LengthMismatchError(
            f"got {raw.size} AUC values for {ang.size} angles"
        )
    if np.any(raw <= 0.0) or not np.all(np.isfinite(raw)):
        raise NonPositiveAucError("raw AUC values must all be positive and finite")
    norm = raw / raw.max()
    return AucProfile(ang, raw, norm)


def profile_stats(p: AucProfile, threshold: float = 0.95) -> SweepStats:
    """Mean, population std, and threshold span of a normalized profile.

    The span is evaluated contiguously about 0 degrees on the measured grid:
    it is the largest |angle| such that every grid angle no farther from zero
    stays at or above the threshold. An isolated distant angle above the
    threshold does not extend the span.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    ang = p.angles_deg
    if not (np.any(ang == 0.0) or (ang.min() < 0.0 < ang.max())):
        raise ValueError("profile angles must include or straddle 0 degrees")

    v = p.auc_norm
    abs_ang = np.abs(ang)
    span = 0.0
    for a in abs_ang:
        if float(v[abs_ang <= a].min()) >= threshold:
            span = max(span, float(a))
    return SweepStats(
        mean_auc=float(v.mean()),
        std_auc=float(v.std()),
        span95_deg=span,
    )


def band_ratio(
    s: Spectrum,
    band_a: tuple[float, float] = (450.0, 500.0),
    band_b: tuple[float, float] = (500.0, 570.0),
) -> float:
    """Ratio of band integrals, the tissue-signature discriminant.

    Defaults split the emission range at 500 nm: band A captures the short
    fluorophore peak, band B the long one. Raises
    ``DegenerateDenominatorError`` when band B integrates to ~zero.
    """
    numerator = trapz_band(s, band_a[0], band_a[1])
    denominator = trapz_band(s, band_b[0], band_b[1])
    if denominator <= _DENOMINATOR_EPS:
        raise DegenerateDenominatorError(
            f"band {band_b} integral {denominator:g} is not above {_DENOMINATOR_EPS:g}"
        )
    return numerator / denominator
