"""Forward synthesis of emission spectra.

The model describes one scanner, with its optics fixed: two Gaussian
emission lines (NADH at 460 nm, FAD at 525 nm) multiplied by a logistic
dichroic transmittance edge at 450 nm, sampled on a 400-800 nm grid in
0.5 nm steps, then by an angle-of-incidence attenuation, plus seeded
Gaussian instrument noise. Its only settings, the attenuation slope
kappa and the noise sigma, are the two that a run's meta.txt records, so a
run directory holds everything needed to synthesize it again.

The attenuation is a chromatic cosine power, ``cos(aoi) ** k(lambda)`` with
``k`` rising linearly across the emission band. With slope 0 it degenerates
to a pure Lambert cosine, which the per-spectrum max normalization cancels
exactly; a positive slope tilts the spectrum with angle and is the one free
parameter that produces a normalized-AUC falloff. It is a calibrated
surrogate for the device's defocus/specularity behavior, not asserted
physics (see :mod:`lumispec.calibration`).

Everything but the cosine power is independent of the angle: the grid and
the base emission are built once at import, and the exponent k(lambda) once
per kappa, all as read-only arrays. Each acquisition then costs one
``cos(aoi) ** k``, one product and one noise draw, and its output is
bit-identical to the per-call formula
``base_emission(lam) * angular_attenuation(lam, aoi, cfg.kappa)`` plus
``noise_sigma`` times the draw.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AoiOutOfRangeError
from .spectral import Spectrum, _trust

# Frozen output of lumispec.calibration.calibrate_kappa() with all-default
# geometry and optics; see that module for the procedure.
DEFAULT_KAPPA = 3.4595534925174434

# Chosen well below the deterministic span margins so seed-averaged sweep
# statistics stay stable; see lumispec.calibration.
DEFAULT_NOISE_SIGMA = 0.01

# Anchors of the linear chromatic exponent: k(lambda) ramps from 1 at the
# dichroic cutoff to 1 + kappa at the top of the integration band.
_EXPONENT_ANCHOR_NM = 450.0
_EXPONENT_SPAN_NM = 300.0

# Emission lines as (center_nm, sigma_nm, amplitude): a dominant NADH peak
# at 460 nm and a weaker FAD peak at 525 nm. Widths are set so the 460 nm
# line is the global maximum above the 450 nm cutoff (broader lines merge
# into a single hump peaking between the centers, which would break the
# normalization convention).
_LINES = ((460.0, 15.0, 1.0), (525.0, 20.0, 0.8))

# Logistic transmittance edge of the dichroic mirror.
_DICHROIC_CUTOFF_NM = 450.0
_DICHROIC_WIDTH_NM = 2.0


@dataclass(frozen=True)
class OpticalConfig:
    """The settings of the forward model, both recorded in a run's meta.txt:
    the attenuation's chromatic slope kappa (0 = pure Lambert) and the noise."""

    kappa: float = DEFAULT_KAPPA
    noise_sigma: float = DEFAULT_NOISE_SIGMA

    def __post_init__(self) -> None:
        for name in ("kappa", "noise_sigma"):
            value = getattr(self, name)
            if not 0 <= value <= sys.float_info.max:
                raise ValueError(f"{name} must be finite and non-negative")


class Rng:
    """Deterministic counter-based random stream (Philox) under a 64-bit seed.

    Identical seeds yield identical streams on every platform and thread
    count. Instances are cheap. Trial t of a run is seeded ``master_seed ^ t``:
    distinct within a run, though seed 6's trial 1 is seed 7's trial 0.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def standard_normal(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)


def dichroic_transmittance(wavelength_nm):
    """Transmittance in [0, 1], monotone increasing, exactly 0.5 at the cutoff.

    Implemented via tanh for overflow-free evaluation far below the edge.
    """
    lam = np.asarray(wavelength_nm, dtype=float)
    x = (lam - _DICHROIC_CUTOFF_NM) / _DICHROIC_WIDTH_NM
    t = 0.5 * (1.0 + np.tanh(0.5 * x))
    return float(t) if np.ndim(wavelength_nm) == 0 else t


def base_emission(wavelength_nm):
    """Angle-independent emission: the two Gaussian lines times the dichroic."""
    lam = np.asarray(wavelength_nm, dtype=float)
    lines = sum(a * np.exp(-((lam - c) ** 2) / (2.0 * s**2)) for c, s, a in _LINES)
    out = lines * dichroic_transmittance(lam)
    return float(out) if np.ndim(wavelength_nm) == 0 else out


def _check_aoi(aoi_rad: float) -> None:
    if not (0.0 <= aoi_rad < np.pi / 2.0):
        raise AoiOutOfRangeError(
            f"angle of incidence {aoi_rad:g} rad outside [0, pi/2)"
        )


def _exponent(lam: np.ndarray, kappa: float) -> np.ndarray:
    return np.maximum(
        1.0, 1.0 + kappa * (lam - _EXPONENT_ANCHOR_NM) / _EXPONENT_SPAN_NM
    )


def angular_attenuation(wavelength_nm, aoi_rad: float, kappa: float):
    """cos(aoi) ** k(lambda) with k = max(1, 1 + kappa * (lambda - 450) / 300).

    Equals 1 at normal incidence for every wavelength and decreases
    monotonically in the angle of incidence.
    """
    _check_aoi(aoi_rad)
    lam = np.asarray(wavelength_nm, dtype=float)
    out = np.cos(aoi_rad) ** _exponent(lam, kappa)
    return float(out) if np.ndim(wavelength_nm) == 0 else out


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# The grid by index arithmetic, not accumulation, so its values are
# bit-stable, registered so that each Spectrum on it skips the grid checks;
# and the base emission on it.
_GRID_NM = _trust(400.0 + np.arange(801) * 0.5)
_BASE_EMISSION = _read_only(base_emission(_GRID_NM))


@functools.lru_cache(maxsize=16)
def _exponent_on_grid(kappa: float) -> np.ndarray:
    """k(lambda) on the grid, built once per kappa."""
    return _read_only(_exponent(_GRID_NM, kappa))


def synthesize_spectrum(cfg: OpticalConfig, aoi_rad: float, rng: Rng) -> Spectrum:
    """One simulated acquisition at the given angle of incidence.

    Deterministic for a fixed seed. Noise draws are taken even when
    noise_sigma is zero so a config's draw count does not depend on it; an
    out-of-range angle raises before any draw.
    """
    _check_aoi(aoi_rad)
    k = _exponent_on_grid(cfg.kappa)
    signal = _BASE_EMISSION * (np.cos(aoi_rad) ** k)
    noise = rng.standard_normal(_GRID_NM.size)
    return Spectrum(_GRID_NM, signal + cfg.noise_sigma * noise)
