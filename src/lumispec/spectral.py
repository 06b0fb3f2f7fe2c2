"""Spectrum domain types and the angle-sweep analysis pipeline.

The pipeline applied to every acquired spectrum, or to a stack of them, is fixed:

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

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyBandError,
    LengthMismatchError,
    NonPositiveAucError,
    NonPositiveMaxError,
    NoSampleAboveCutoffError,
)

def _frozen_array(values, name: str, max_ndim: int = 1) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not 1 <= arr.ndim <= max_ndim:
        raise ValueError(f"{name} must have 1 to {max_ndim} dimensions, got {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Spectrum:
    """A sampled emission spectrum, or a 2-D stack of them (one per row), on
    one strictly increasing wavelength grid.

    Intensities are in arbitrary units and may be negative (instrument
    baseline subtraction is allowed to undershoot); only the normalizing
    maximum must be positive, and only at normalization time.
    """

    wavelengths_nm: np.ndarray
    intensities: np.ndarray

    def __post_init__(self) -> None:
        w = _frozen_array(self.wavelengths_nm, "wavelengths_nm")
        i = _frozen_array(self.intensities, "intensities", max_ndim=2)
        if w.size != i.shape[-1]:
            raise ValueError("wavelengths_nm and intensities must have equal length")
        if w.size < 2:
            raise ValueError("a spectrum needs at least 2 samples")
        if not (w[1:] > w[:-1]).all():
            raise ValueError("wavelengths_nm must be strictly increasing")
        object.__setattr__(self, "wavelengths_nm", w)
        object.__setattr__(self, "intensities", i)

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
        for name in ("norm_cutoff_nm", "auc_lo_nm", "auc_hi_nm"):
            if not abs(getattr(self, name)) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite")
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


@dataclass(frozen=True)
class SweepStats:
    """Summary statistics of a normalized AUC profile.

    ``span95_deg`` is the half-width of the contiguous angular region about
    0 degrees whose normalized AUC stays at or above the threshold.
    """

    mean_auc: float
    std_auc: float
    span95_deg: float


def normalize_above_cutoff(
    wavelengths_nm: np.ndarray, intensities: np.ndarray, cutoff_nm: float = 450.0
) -> np.ndarray:
    """Divide each spectrum (last axis) by its largest intensity at wavelengths > cutoff.

    Each result has max-above-cutoff exactly 1. Raises
    ``NoSampleAboveCutoffError`` when no sample lies above the cutoff and
    ``NonPositiveMaxError`` when a would-be normalizer is <= 0; its ``row``
    is the flat index of the first such spectrum (0 for one spectrum).
    """
    mask = wavelengths_nm > cutoff_nm
    if not mask.any():
        raise NoSampleAboveCutoffError(
            f"no sample above cutoff {cutoff_nm:g} nm "
            f"(grid ends at {wavelengths_nm[-1]:g} nm)"
        )
    peak = intensities[..., mask].max(axis=-1, keepdims=True)
    bad = np.flatnonzero(peak <= 0.0)
    if bad.size:
        raise NonPositiveMaxError(
            f"max intensity above {cutoff_nm:g} nm is {peak.flat[bad[0]]:g}; "
            "cannot normalize",
            row=int(bad[0]),
        )
    return intensities / peak


def smooth_window2(intensities: np.ndarray) -> np.ndarray:
    """Forward pair-average smoothing along the last axis, length preserving.

    y[i] = (x[i] + x[i+1]) / 2 for all but the last sample, which is passed
    through unchanged. Constant signals are preserved exactly.
    """
    y = intensities.copy()
    y[..., :-1] = 0.5 * (intensities[..., :-1] + intensities[..., 1:])
    return y


def trapz_band(
    wavelengths_nm: np.ndarray, intensities: np.ndarray, lo_nm: float, hi_nm: float
) -> float | np.ndarray:
    """Trapezoidal integral over grid samples with lo_nm <= wavelength <= hi_nm.

    Integrates along the last axis: a float for one spectrum, an array for
    a stack. Band edges snap to the enclosed grid samples, with no
    sub-sample interpolation. Raises ``EmptyBandError`` when fewer than two
    samples fall inside the band.
    """
    if not lo_nm < hi_nm:
        raise EmptyBandError(f"band [{lo_nm:g}, {hi_nm:g}] nm is empty")
    mask = (wavelengths_nm >= lo_nm) & (wavelengths_nm <= hi_nm)
    if int(mask.sum()) < 2:
        raise EmptyBandError(
            f"band [{lo_nm:g}, {hi_nm:g}] nm contains fewer than 2 samples"
        )
    # A masked stack is not C-contiguous; summing strided rows would lose
    # np.trapezoid's pairwise summation and drift ~1e-13 from one spectrum alone.
    y = np.ascontiguousarray(intensities[..., mask])
    area = (np.diff(wavelengths_nm[mask]) * (y[..., 1:] + y[..., :-1]) / 2.0).sum(axis=-1)
    return float(area) if area.ndim == 0 else area


def run_pipeline(s: Spectrum, cfg: PipelineConfig | None = None) -> float | np.ndarray:
    """Full pipeline: normalize, smooth, integrate each spectrum of ``s``.

    Returns a float for one spectrum and an array of AUCs for a stack.
    Invariant under positive pointwise scaling of the input, since the
    normalization step cancels any common factor.
    """
    cfg = cfg if cfg is not None else PipelineConfig()
    w = s.wavelengths_nm
    normalized = normalize_above_cutoff(w, s.intensities, cfg.norm_cutoff_nm)
    return trapz_band(w, smooth_window2(normalized), cfg.auc_lo_nm, cfg.auc_hi_nm)


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
