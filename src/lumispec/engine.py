"""Sweep protocol: plan, state machine, acquisition ports, and trial runners.

A sweep is a sequence of motor angles visited in ascending order. The
protocol is an explicit state machine (Idle, Homing, Moving, Acquiring,
Complete, Faulted) driving an abstract :class:`AcquisitionPort`, so a
hardware port can replace :class:`SimulatedPort` without touching the
protocol logic. One machine owns one port for the duration of a trial;
trials share nothing mutable.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    IllegalTransitionError,
    LumispecError,
    PortError,
    PortFaultError,
)
from .geometry import (
    FlatSurface,
    IncidenceSolution,
    PivotGeometry,
    SphereSurface,
    SurfaceModel,
    solve_incidence,
)
from .optics import OpticalConfig, Rng, synthesize_spectrum
from .spectral import Spectrum


def _check_int(name: str, value, least: int) -> None:
    # A bool is an int, but meta.txt would spell it "True" or "False".
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class SweepPlan:
    """Angular sampling plan for one run.

    Angles are always generated as ``start_deg + i * step_deg`` by index;
    they are never accumulated, so the grid carries no floating-point
    drift regardless of step count. ``settle_s`` is the dwell between a
    move and the following acquisition; simulation treats it as a logical
    annotation and does not sleep.
    """

    start_deg: float = -18.0
    step_deg: float = 1.8
    n_steps: int = 21
    trials: int = 3
    settle_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("start_deg", "step_deg", "settle_s"):
            value = getattr(self, name)
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{name} must be finite, got {value!r}")
        _check_int("n_steps", self.n_steps, 1)
        _check_int("trials", self.trials, 1)
        if not self.step_deg > 0:
            raise ValueError(f"step_deg must be > 0, got {self.step_deg!r}")
        if self.settle_s < 0:
            raise ValueError(f"settle_s must be >= 0, got {self.settle_s!r}")

    def angle(self, i: int) -> float:
        """Motor angle of step ``i``, exact by index arithmetic."""
        if not 0 <= i < self.n_steps:
            raise IndexError(f"step index {i} outside [0, {self.n_steps})")
        return self.start_deg + i * self.step_deg

    def angles(self) -> tuple[float, ...]:
        return tuple(self.angle(i) for i in range(self.n_steps))


def default_plan() -> SweepPlan:
    """The standard sweep: -18 to +18 deg in 1.8 deg steps, triplicate."""
    return SweepPlan()


class ScanPhase(Enum):
    IDLE = "idle"
    HOMING = "homing"
    MOVING = "moving"
    ACQUIRING = "acquiring"
    COMPLETE = "complete"
    FAULTED = "faulted"

    # Members are singletons compared by identity, so identity hashing is
    # consistent with equality and costs no Python-level call per lookup.
    __hash__ = object.__hash__


# The payload field each phase requires; the others carry none.
_PAYLOAD_FIELDS = ("target_deg", "index", "cause")
_PAYLOAD_OF = {
    ScanPhase.MOVING: "target_deg",
    ScanPhase.ACQUIRING: "index",
    ScanPhase.FAULTED: "cause",
}


@dataclass(frozen=True)
class ScanState:
    """One protocol state with its phase-specific payload."""

    phase: ScanPhase
    target_deg: Optional[float] = None
    index: Optional[int] = None
    cause: Optional[str] = None

    def __post_init__(self) -> None:
        want = _PAYLOAD_OF.get(self.phase)
        for field in _PAYLOAD_FIELDS:
            value = getattr(self, field)
            if field == want and value is None:
                raise ValueError(f"{self.phase.value} state requires {field}")
            if field != want and value is not None:
                raise ValueError(f"{self.phase.value} state cannot carry {field}")

    @classmethod
    def idle(cls) -> "ScanState":
        return cls(ScanPhase.IDLE)

    @classmethod
    def homing(cls) -> "ScanState":
        return cls(ScanPhase.HOMING)

    @classmethod
    def moving(cls, target_deg: float) -> "ScanState":
        return cls(ScanPhase.MOVING, target_deg=target_deg)

    @classmethod
    def acquiring(cls, index: int) -> "ScanState":
        return cls(ScanPhase.ACQUIRING, index=index)

    @classmethod
    def complete(cls) -> "ScanState":
        return cls(ScanPhase.COMPLETE)

    @classmethod
    def faulted(cls, cause: str) -> "ScanState":
        return cls(ScanPhase.FAULTED, cause=cause)


# Complete transition relation. Complete and Faulted are absorbing, so a
# finished or failed trial can never be silently resumed.
_LEGAL: dict[ScanPhase, frozenset[ScanPhase]] = {
    ScanPhase.IDLE: frozenset({ScanPhase.HOMING, ScanPhase.FAULTED}),
    ScanPhase.HOMING: frozenset({ScanPhase.MOVING, ScanPhase.FAULTED}),
    ScanPhase.MOVING: frozenset({ScanPhase.ACQUIRING, ScanPhase.FAULTED}),
    ScanPhase.ACQUIRING: frozenset(
        {ScanPhase.MOVING, ScanPhase.COMPLETE, ScanPhase.FAULTED}
    ),
    ScanPhase.COMPLETE: frozenset(),
    ScanPhase.FAULTED: frozenset(),
}


def is_legal_transition(frm: ScanPhase, to: ScanPhase) -> bool:
    return to in _LEGAL[frm]


class ScanStateMachine:
    """Enforces the sweep protocol's transition relation."""

    def __init__(self) -> None:
        self._state = ScanState.idle()

    @property
    def state(self) -> ScanState:
        return self._state

    def transition(self, new: ScanState) -> ScanState:
        if not is_legal_transition(self._state.phase, new.phase):
            raise IllegalTransitionError(
                f"illegal transition {self._state.phase.value} -> {new.phase.value}"
            )
        self._state = new
        return new


SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunMeta:
    """Configuration snapshot sufficient to reproduce a run bit-for-bit; its
    values are valid when they build the optics, pivot and surface they name."""

    geometry: str
    sphere_radius_mm: Optional[float]
    working_distance_mm: float
    seed: int
    noise_sigma: float
    kappa: float
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.geometry not in ("flat", "convex"):
            raise ValueError(f"geometry must be 'flat' or 'convex', got {self.geometry!r}")
        if self.geometry == "convex":
            if self.sphere_radius_mm is None:
                raise ValueError("convex geometry requires sphere_radius_mm")
            SphereSurface(self.sphere_radius_mm)
        elif self.sphere_radius_mm is not None:
            raise ValueError("flat geometry must not carry a sphere radius")
        _check_int("seed", self.seed, 0)
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {self.schema_version!r} "
                             f"(expected {SCHEMA_VERSION})")
        OpticalConfig(self.kappa, self.noise_sigma)
        PivotGeometry(self.working_distance_mm)


@dataclass(frozen=True)
class SweepRecord:
    """One completed trial: the plan, meta, and its spectra as one stack on
    one grid, whose row i was acquired at ``plan.angle(i)``."""

    plan: SweepPlan
    trial_index: int
    spectra: Spectrum
    meta: RunMeta

    def __post_init__(self) -> None:
        if self.trial_index < 0:
            raise ValueError(f"trial_index must be >= 0, got {self.trial_index}")
        shape = self.spectra.intensities.shape
        if len(shape) != 2 or shape[0] != self.plan.n_steps:
            raise ValueError(f"spectra of shape {shape} for a {self.plan.n_steps}-step plan")

    @property
    def entries(self) -> tuple[tuple[float, Spectrum], ...]:
        """(angle, spectrum) per step, derived from the plan and ``spectra``."""
        grid = self.spectra.wavelengths_nm
        spectra = [Spectrum(grid, y) for y in self.spectra.intensities]
        return tuple(zip(self.plan.angles(), spectra))


class AcquisitionPort(ABC):
    """Motor-plus-spectrometer abstraction driven by the state machine.

    ``acquire`` is only valid after a successful ``move_to``; a failed move
    invalidates the position. ``snapshot`` reports the port's reproducibility
    meta, or None for ports that have none (the caller must then supply it).
    """

    @abstractmethod
    def move_to(self, angle_deg: float) -> None: ...

    @abstractmethod
    def acquire(self) -> Spectrum: ...

    def snapshot(self) -> Optional[RunMeta]:
        return None


class SimulatedPort(AcquisitionPort):
    """Forward-model port: ray geometry plus spectrum synthesis."""

    def __init__(
        self,
        config: Optional[OpticalConfig] = None,
        pivot: Optional[PivotGeometry] = None,
        surface: Optional[SurfaceModel] = None,
        seed: int = 0,
    ) -> None:
        self._config = config if config is not None else OpticalConfig()
        self._pivot = pivot if pivot is not None else PivotGeometry()
        self._surface = surface if surface is not None else FlatSurface()
        self._seed = int(seed)
        self._rng = Rng(self._seed)
        self._current: Optional[IncidenceSolution] = None

    def move_to(self, angle_deg: float) -> None:
        self._current = None
        self._current = solve_incidence(angle_deg, self._pivot, self._surface)

    def acquire(self) -> Spectrum:
        if self._current is None:
            raise PortError("acquire() requires a successful move_to() first")
        return synthesize_spectrum(self._config, self._current.aoi_rad, self._rng)

    def snapshot(self) -> RunMeta:
        if isinstance(self._surface, SphereSurface):
            geometry = "convex"
            radius: Optional[float] = self._surface.radius_mm
        else:
            geometry = "flat"
            radius = None
        return RunMeta(
            geometry=geometry,
            sphere_radius_mm=radius,
            working_distance_mm=self._pivot.working_distance_mm,
            seed=self._seed,
            noise_sigma=self._config.noise_sigma,
            kappa=self._config.kappa,
        )


class ReplayPort(AcquisitionPort):
    """Serves one trial's spectra back out of a recorded run directory."""

    _ANGLE_TOL_DEG = 1e-6

    def __init__(self, run_dir, trial: int = 0) -> None:
        from . import dataio  # deferred: dataio imports this module

        records = dataio.read_run(run_dir)
        if not 0 <= trial < len(records):
            raise PortError(f"recorded run has no trial {trial}")
        self._record = records[trial]
        self._entries = self._record.entries
        self._pending: Optional[int] = None

    def move_to(self, angle_deg: float) -> None:
        self._pending = None
        for i, (angle, _) in enumerate(self._entries):
            if abs(angle - angle_deg) <= self._ANGLE_TOL_DEG:
                self._pending = i
                return
        raise PortError(
            f"recorded run has no angle within {self._ANGLE_TOL_DEG:g} deg "
            f"of {angle_deg!r}"
        )

    def acquire(self) -> Spectrum:
        if self._pending is None:
            raise PortError("acquire() requires a successful move_to() first")
        return self._entries[self._pending][1]

    def snapshot(self) -> RunMeta:
        return self._record.meta


def run_sweep(
    plan: SweepPlan,
    port: AcquisitionPort,
    trial_index: int = 0,
    meta: Optional[RunMeta] = None,
    machine: Optional[ScanStateMachine] = None,
) -> SweepRecord:
    """Execute one trial of ``plan`` against ``port``.

    Drives Homing, then Moving/Acquiring per step in ascending angle order,
    ending in Complete. Any port failure moves the machine to Faulted and
    raises :class:`PortFaultError` carrying the failing step; no partial
    record escapes, and a spectrum off the grid of step 0 is such a
    failure. Pass ``machine`` to observe the protocol from outside.
    """
    machine = machine if machine is not None else ScanStateMachine()
    machine.transition(ScanState.homing())

    spectra: list[Spectrum] = []
    for i in range(plan.n_steps):
        angle = plan.angle(i)
        machine.transition(ScanState.moving(angle))
        try:
            port.move_to(angle)
        except LumispecError as exc:
            machine.transition(ScanState.faulted(str(exc)))
            raise PortFaultError(
                f"move_to failed at step {i} ({angle:+.1f} deg): {exc}", step=i
            ) from exc
        machine.transition(ScanState.acquiring(i))
        try:
            spectrum = port.acquire()
            grid = spectrum.wavelengths_nm
            if spectra and grid is not spectra[0].wavelengths_nm and not np.array_equal(
                    grid, spectra[0].wavelengths_nm):
                raise PortError("spectrum is not on the wavelength grid of step 0")
        except LumispecError as exc:
            machine.transition(ScanState.faulted(str(exc)))
            raise PortFaultError(
                f"acquire failed at step {i} ({angle:+.1f} deg): {exc}", step=i
            ) from exc
        spectra.append(spectrum)
    machine.transition(ScanState.complete())

    if meta is None:
        meta = port.snapshot()
    if meta is None:
        raise PortError(
            "port provides no run meta snapshot; pass meta= explicitly"
        )
    stack = Spectrum(spectra[0].wavelengths_nm, [s.intensities for s in spectra])
    return SweepRecord(plan=plan, trial_index=trial_index, spectra=stack, meta=meta)


def derive_trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial RNG seed: master XOR trial index."""
    return master_seed ^ trial


PortFactory = Callable[[int, int], AcquisitionPort]


def run_triplicate(
    plan: SweepPlan,
    port_factory: PortFactory,
    master_seed: int,
) -> list[SweepRecord]:
    """Run ``plan.trials`` independent trials and collect them in order.

    ``port_factory(trial, seed)`` builds a fresh port per trial with the
    derived seed, so trials are independent of one another. Each record's
    meta carries the master seed (the per-trial seed is recoverable from
    it). Port failures propagate as :class:`PortFaultError` tagged with the
    trial index.
    """

    def one(trial: int) -> SweepRecord:
        seed = derive_trial_seed(master_seed, trial)
        port = port_factory(trial, seed)
        try:
            record = run_sweep(plan, port, trial_index=trial)
        except PortFaultError as exc:
            raise PortFaultError(
                f"trial {trial}: {exc}", step=exc.step, trial=trial
            ) from exc
        return replace(record, meta=replace(record.meta, seed=master_seed))

    return [one(t) for t in range(plan.trials)]
