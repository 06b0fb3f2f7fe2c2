"""Angle-sweep fluorescence scanner: simulator and analysis toolkit.

The package synthesizes angle-dependent emission spectra for flat and
convex phantoms, replays the motorized sweep protocol as a state machine,
persists runs in byte-stable text formats, and reduces them to normalized
AUC-vs-angle profiles with summary statistics.
"""

from .charts import render_line_chart
from .dataio import (
    read_run,
    read_run_header,
    read_spectrum,
    write_run,
    write_spectrum,
)
from .engine import (
    AcquisitionPort,
    ReplayPort,
    RunMeta,
    ScanPhase,
    ScanState,
    ScanStateMachine,
    SimulatedPort,
    SweepPlan,
    SweepRecord,
    default_plan,
    derive_trial_seed,
    is_legal_transition,
    run_sweep,
    run_triplicate,
)
from .errors import (
    AoiOutOfRangeError,
    DataIoError,
    EmptyBandError,
    IllegalTransitionError,
    LayoutError,
    LengthMismatchError,
    LumispecError,
    MalformedHeaderError,
    MetaError,
    NoIntersectionError,
    NonMonotonicWavelengthError,
    NonPositiveAucError,
    NonPositiveMaxError,
    NoSampleAboveCutoffError,
    PortError,
    PortFaultError,
    SpectrumParseError,
)
from .geometry import (
    FlatSurface,
    IncidenceSolution,
    PivotGeometry,
    SphereSurface,
    SurfaceModel,
    incidence_flat,
    incidence_sphere,
    solve_incidence,
)
from .optics import (
    DEFAULT_KAPPA,
    DEFAULT_NOISE_SIGMA,
    AngularResponse,
    OpticalConfig,
    Rng,
    angular_attenuation,
    base_emission,
    dichroic_transmittance,
    synthesize_spectrum,
)
from .spectral import (
    AucProfile,
    PipelineConfig,
    Spectrum,
    SweepStats,
    auc_profile,
    normalize_above_cutoff,
    profile_stats,
    run_pipeline,
    smooth_window2,
    trapz_band,
)

__version__ = "0.1.0"

# calibration loads on first use, so that `python -m lumispec.calibration`
# runs the module once, as __main__, and not also as a submodule (PEP 562).
_CALIBRATION = ("calibrate_kappa", "crossing_target_aoi_rad", "falloff_ratio")


def __getattr__(name: str):
    if name in _CALIBRATION:
        from . import calibration

        return getattr(calibration, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AcquisitionPort",
    "AngularResponse",
    "AoiOutOfRangeError",
    "AucProfile",
    "DEFAULT_KAPPA",
    "DEFAULT_NOISE_SIGMA",
    "DataIoError",
    "EmptyBandError",
    "FlatSurface",
    "IllegalTransitionError",
    "IncidenceSolution",
    "LayoutError",
    "LengthMismatchError",
    "LumispecError",
    "MalformedHeaderError",
    "MetaError",
    "NoIntersectionError",
    "NoSampleAboveCutoffError",
    "NonMonotonicWavelengthError",
    "NonPositiveAucError",
    "NonPositiveMaxError",
    "OpticalConfig",
    "PipelineConfig",
    "PivotGeometry",
    "PortError",
    "PortFaultError",
    "ReplayPort",
    "Rng",
    "RunMeta",
    "ScanPhase",
    "ScanState",
    "ScanStateMachine",
    "SimulatedPort",
    "Spectrum",
    "SpectrumParseError",
    "SphereSurface",
    "SurfaceModel",
    "SweepPlan",
    "SweepRecord",
    "SweepStats",
    "angular_attenuation",
    "auc_profile",
    "base_emission",
    "calibrate_kappa",
    "crossing_target_aoi_rad",
    "default_plan",
    "derive_trial_seed",
    "dichroic_transmittance",
    "falloff_ratio",
    "incidence_flat",
    "incidence_sphere",
    "is_legal_transition",
    "normalize_above_cutoff",
    "profile_stats",
    "read_run",
    "read_run_header",
    "read_spectrum",
    "render_line_chart",
    "run_pipeline",
    "run_sweep",
    "run_triplicate",
    "smooth_window2",
    "solve_incidence",
    "synthesize_spectrum",
    "trapz_band",
    "write_run",
    "write_spectrum",
]
