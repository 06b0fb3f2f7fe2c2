"""Forward synthesis of emission spectra.

The emission model is deliberately small: Gaussian fluorophore lines on a
flat baseline, multiplied by a logistic dichroic transmittance edge, then by
an angle-of-incidence attenuation, plus seeded Gaussian instrument noise.

The attenuation is a chromatic cosine power, ``cos(aoi) ** k(lambda)`` with
``k`` rising linearly across the emission band. With slope 0 it degenerates
to a pure Lambert cosine, which the per-spectrum max normalization cancels
exactly; a positive slope tilts the spectrum with angle and is the one free
parameter that produces a normalized-AUC falloff. It is a calibrated
surrogate for the device's defocus/specularity behavior, not asserted
physics (see :mod:`lumispec.calibration`).

Everything but the cosine power is independent of the angle, so the model
is split once per :class:`OpticalConfig`: the grid, the base emission and
the exponent k(lambda) are built on the config's first synthesis and kept
as read-only arrays in a small cache keyed on the (frozen, hashable)
config. Each acquisition then costs one ``cos(aoi) ** k``, one product and
one noise draw, and its output is bit-identical to the per-call formula
``base_emission(lam, cfg) * angular_attenuation(lam, aoi, cfg.angular)``
plus ``noise_sigma`` times the draw.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import AoiOutOfRangeError
from .spectral import Spectrum

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


@dataclass(frozen=True)
class Fluorophore:
    """One Gaussian emission line."""

    name: str
    center_nm: float
    sigma_nm: float
    amplitude: float

    def __post_init__(self) -> None:
        if not self.sigma_nm > 0:
            raise ValueError("sigma_nm must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        if not np.isfinite(self.center_nm):
            raise ValueError("center_nm must be finite")


# Default two-fluorophore signature: a dominant short peak at 460 nm and a
# weaker long peak at 525 nm. Widths are set so the 460 nm line is the global
# maximum above the 450 nm cutoff (broader lines merge into a single hump
# peaking between the centers, which would break the normalization
# convention).
NADH_DEFAULT = Fluorophore("NADH", center_nm=460.0, sigma_nm=15.0, amplitude=1.0)
FAD_DEFAULT = Fluorophore("FAD", center_nm=525.0, sigma_nm=20.0, amplitude=0.8)


@dataclass(frozen=True)
class DichroicCurve:
    """Logistic transmittance edge of the dichroic mirror."""

    cutoff_nm: float = 450.0
    transition_width_nm: float = 2.0

    def __post_init__(self) -> None:
        if not self.transition_width_nm > 0:
            raise ValueError("transition_width_nm must be positive")


@dataclass(frozen=True)
class AngularResponse:
    """Chromatic exponent slope of the cosine attenuation (0 = pure Lambert)."""

    kappa: float = DEFAULT_KAPPA

    def __post_init__(self) -> None:
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError("kappa must be finite and non-negative")


@dataclass(frozen=True)
class WavelengthGrid:
    """Uniform instrument wavelength grid; samples are lo + i * step."""

    lo_nm: float = 400.0
    hi_nm: float = 800.0
    step_nm: float = 0.5

    def __post_init__(self) -> None:
        if not self.step_nm > 0:
            raise ValueError("step_nm must be positive")
        if not self.lo_nm < self.hi_nm:
            raise ValueError("lo_nm must be below hi_nm")

    @property
    def n_points(self) -> int:
        return int(round((self.hi_nm - self.lo_nm) / self.step_nm)) + 1

    def values(self) -> np.ndarray:
        # Index arithmetic, not accumulation: keeps grid values bit-stable.
        return self.lo_nm + np.arange(self.n_points) * self.step_nm


@dataclass(frozen=True)
class OpticalConfig:
    """Everything the forward model needs to synthesize one spectrum."""

    fluorophores: tuple[Fluorophore, ...] = (NADH_DEFAULT, FAD_DEFAULT)
    dichroic: DichroicCurve = DichroicCurve()
    angular: AngularResponse = AngularResponse()
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    baseline: float = 0.0
    grid: WavelengthGrid = WavelengthGrid()

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.baseline < 0:
            raise ValueError("baseline must be non-negative")
        if self.grid.lo_nm > 450.0 or self.grid.hi_nm < 750.0:
            raise ValueError("grid must cover the 450-750 nm integration band")


class Rng:
    """Deterministic counter-based random stream (Philox) under a 64-bit seed.

    Identical seeds yield identical streams on every platform and thread
    count. Instances are cheap; derive independent per-trial streams by
    seeding with ``master_seed ^ trial_index``.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def standard_normal(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)


def dichroic_transmittance(wavelength_nm, d: DichroicCurve):
    """Transmittance in [0, 1], monotone increasing, exactly 0.5 at the cutoff.

    Implemented via tanh for overflow-free evaluation far below the edge.
    """
    lam = np.asarray(wavelength_nm, dtype=float)
    x = (lam - d.cutoff_nm) / d.transition_width_nm
    t = 0.5 * (1.0 + np.tanh(0.5 * x))
    return float(t) if np.ndim(wavelength_nm) == 0 else t


def base_emission(wavelength_nm, cfg: OpticalConfig):
    """Angle-independent emission: Gaussian lines plus baseline, times dichroic."""
    lam = np.asarray(wavelength_nm, dtype=float)
    total = np.full(lam.shape, float(cfg.baseline))
    for f in cfg.fluorophores:
        total = total + f.amplitude * np.exp(
            -((lam - f.center_nm) ** 2) / (2.0 * f.sigma_nm**2)
        )
    out = total * dichroic_transmittance(lam, cfg.dichroic)
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


def angular_attenuation(wavelength_nm, aoi_rad: float, a: AngularResponse):
    """cos(aoi) ** k(lambda) with k = max(1, 1 + kappa * (lambda - 450) / 300).

    Equals 1 at normal incidence for every wavelength and decreases
    monotonically in the angle of incidence.
    """
    _check_aoi(aoi_rad)
    lam = np.asarray(wavelength_nm, dtype=float)
    out = np.cos(aoi_rad) ** _exponent(lam, a.kappa)
    return float(out) if np.ndim(wavelength_nm) == 0 else out


@functools.lru_cache(maxsize=16)
def _forward_model(cfg: OpticalConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The angle-independent part of the model: (grid, base emission, k).

    Configs that compare equal share one model, so the per-call formula's
    bits hold for all but a zero baseline: after an equal config with
    ``baseline=0.0``, ``baseline=-0.0`` yields +0.0 where it would give -0.0.
    """
    lam = cfg.grid.values()
    model = (lam, base_emission(lam, cfg), _exponent(lam, cfg.angular.kappa))
    for arr in model:
        arr.setflags(write=False)
    return model


def synthesize_spectrum(cfg: OpticalConfig, aoi_rad: float, rng: Rng) -> Spectrum:
    """One simulated acquisition at the given angle of incidence.

    Deterministic for a fixed seed. Noise draws are taken even when
    noise_sigma is zero so a config's draw count does not depend on it; an
    out-of-range angle raises before any draw.
    """
    _check_aoi(aoi_rad)
    lam, base, k = _forward_model(cfg)
    signal = base * (np.cos(aoi_rad) ** k)
    noise = rng.standard_normal(lam.size)
    return Spectrum(lam, signal + cfg.noise_sigma * noise)
