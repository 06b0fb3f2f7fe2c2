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

A grid is copied and checked once: every :class:`Spectrum` holds its grid as
a float64 view over ``bytes``, which numpy will not make writeable, and a
small bounded registry of such grids lets a later :class:`Spectrum` skip the
checks, and the pipeline keep its cutoff and band selections, by identity.
"""

from __future__ import annotations

import sys
import threading
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


def _over_bytes(values) -> bool:
    """Whether ``values`` is a float64 array over ``bytes``. numpy refuses to
    make such a view writeable, so its values can never change; an owning
    array with ``write=False`` can be flipped back."""
    return (isinstance(values, np.ndarray) and type(values.base) is bytes
            and values.dtype == np.float64 and values.flags.c_contiguous)


def _frozen_array(values, name: str, max_ndim: int = 1) -> np.ndarray:
    arr = values if _over_bytes(values) else np.array(values, dtype=float)
    if not 1 <= arr.ndim <= max_ndim:
        raise ValueError(f"{name} must have 1 to {max_ndim} dimensions, got {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


# Grids already checked to be 1-D, finite, strictly increasing and at least 2
# samples long, by id, each with what the pipeline derived from it: the
# samples above each cutoff, and the samples and widths of each band. Each
# grid is over bytes, so it cannot change while it is held here, and holding
# it keeps its id from being reused. The oldest grid is evicted first, with
# its derived data.
_TRUSTED: dict[int, tuple[np.ndarray, dict]] = {}
_TRUSTED_GRIDS = 8
_DERIVED_PER_GRID = 8
_TRUST_LOCK = threading.Lock()


def _trust(grid: np.ndarray) -> np.ndarray:
    """Register a grid already checked as above; return the registered array:
    ``grid`` itself when it is over bytes, else a copy that is."""
    if not _over_bytes(grid):
        grid = np.frombuffer(np.ascontiguousarray(grid, np.float64).tobytes())
    with _TRUST_LOCK:
        _TRUSTED[id(grid)] = (grid, {})
        while len(_TRUSTED) > _TRUSTED_GRIDS:
            del _TRUSTED[next(iter(_TRUSTED))]
    return grid


def _derived(grid, *key) -> dict | None:
    """The derived data of ``grid`` when it is a registered grid and every
    part of ``key`` is a plain number, else None."""
    entry = _TRUSTED.get(id(grid))
    if entry is None or entry[0] is not grid:
        return None
    for part in key:
        if not isinstance(part, (int, float)):
            return None
    return entry[1]


def _run(mask: np.ndarray) -> slice:
    """The samples a mask selects on a registered grid, where they form one
    run, as a slice: indexing by it makes a view, not a copy."""
    at = np.flatnonzero(mask)
    return slice(int(at[0]), int(at[-1]) + 1)


def _remember(derived: dict, key, value):
    """Store ``value`` under ``key``, evicting the oldest key at the bound."""
    with _TRUST_LOCK:
        if len(derived) >= _DERIVED_PER_GRID:
            del derived[next(iter(derived))]
        derived[key] = value
    return value


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
        w = self.wavelengths_nm
        trusted = _derived(w) is not None
        if not trusted:
            w = _frozen_array(w, "wavelengths_nm")
        i = _frozen_array(self.intensities, "intensities", max_ndim=2)
        if w.size != i.shape[-1]:
            raise ValueError("wavelengths_nm and intensities must have equal length")
        if not trusted:
            if w.size < 2:
                raise ValueError("a spectrum needs at least 2 samples")
            if not (w[1:] > w[:-1]).all():
                raise ValueError("wavelengths_nm must be strictly increasing")
            w = _trust(w)
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


_DEFAULT_PIPELINE = PipelineConfig()


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
    derived = _derived(wavelengths_nm, cutoff_nm)
    above = derived.get(cutoff_nm) if derived is not None else None
    if above is None:
        above = wavelengths_nm > cutoff_nm
        if not above.any():
            raise NoSampleAboveCutoffError(
                f"no sample above cutoff {cutoff_nm:g} nm "
                f"(grid ends at {wavelengths_nm[-1]:g} nm)"
            )
        if derived is not None:
            above = _remember(derived, cutoff_nm, _run(above))
    peak = intensities[..., above].max(axis=-1, keepdims=True)
    bad = np.flatnonzero(peak <= 0.0)
    if bad.size:
        # + 0.0 turns -0.0 into 0.0: the order of the reduction can set the
        # sign of a zero max, and a row must read the same alone and in a stack.
        raise NonPositiveMaxError(
            f"max intensity above {cutoff_nm:g} nm is {peak.flat[bad[0]] + 0.0:g}; "
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
    derived = _derived(wavelengths_nm, lo_nm, hi_nm)
    band = derived.get((lo_nm, hi_nm)) if derived is not None else None
    if band is None:
        mask = (wavelengths_nm >= lo_nm) & (wavelengths_nm <= hi_nm)
        if int(mask.sum()) < 2:
            raise EmptyBandError(
                f"band [{lo_nm:g}, {hi_nm:g}] nm contains fewer than 2 samples"
            )
        band = (mask, np.diff(wavelengths_nm[mask]))
        if derived is not None:
            band = _remember(derived, (lo_nm, hi_nm), (_run(mask), band[1]))
    part, widths = band
    # A masked stack is not C-contiguous; summing strided rows would lose
    # np.trapezoid's pairwise summation and drift ~1e-13 from one spectrum alone.
    # The copy also gives a slice's values the masked copy's layout.
    y = np.ascontiguousarray(intensities[..., part])
    area = (widths * (y[..., 1:] + y[..., :-1]) / 2.0).sum(axis=-1)
    return float(area) if area.ndim == 0 else area


def run_pipeline(s: Spectrum, cfg: PipelineConfig | None = None) -> float | np.ndarray:
    """Full pipeline: normalize, smooth, integrate each spectrum of ``s``.

    Returns a float for one spectrum and an array of AUCs for a stack.
    Invariant under positive pointwise scaling of the input, since the
    normalization step cancels any common factor.
    """
    cfg = cfg if cfg is not None else _DEFAULT_PIPELINE
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
