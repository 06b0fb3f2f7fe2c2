"""Unit tests for the sweep plan, state machine, ports, and trial runners."""

import math
import pickle
import sys

import numpy as np
import pytest

from lumispec.engine import (
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
from lumispec.errors import IllegalTransitionError, PortError, PortFaultError
from lumispec.geometry import PivotGeometry, SphereSurface
from lumispec.optics import OpticalConfig
from lumispec.spectral import Spectrum


class TestSweepPlan:
    def test_defaults(self):
        plan = default_plan()
        assert plan.start_deg == -18.0
        assert plan.step_deg == 1.8
        assert plan.n_steps == 21
        assert plan.trials == 3

    def test_angles_by_index_arithmetic(self):
        plan = default_plan()
        angles = plan.angles()
        assert len(angles) == 21
        assert angles[0] == -18.0
        assert angles[10] == 0.0
        assert angles[20] == 18.0
        for i, a in enumerate(angles):
            assert a == -18.0 + i * 1.8

    def test_no_accumulation_drift(self):
        # A long fine-stepped plan still lands exactly on start + i*step.
        plan = SweepPlan(start_deg=-30.0, step_deg=0.1, n_steps=601, trials=1)
        assert plan.angle(600) == -30.0 + 600 * 0.1

    def test_angle_index_bounds(self):
        plan = default_plan()
        with pytest.raises(IndexError):
            plan.angle(21)
        with pytest.raises(IndexError):
            plan.angle(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepPlan(n_steps=0)
        with pytest.raises(ValueError):
            SweepPlan(step_deg=0.0)
        with pytest.raises(ValueError):
            SweepPlan(step_deg=-1.8)
        with pytest.raises(ValueError):
            SweepPlan(trials=0)
        with pytest.raises(ValueError):
            SweepPlan(settle_s=-0.5)
        for name in ("start_deg", "step_deg", "settle_s"):
            for bad in (float("inf"), float("-inf"), float("nan"), 10**400, -(10**400)):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    SweepPlan(**{name: bad})
        for bad in (21.0, True):
            with pytest.raises(ValueError, match="n_steps must be an integer"):
                SweepPlan(n_steps=bad)

    def test_single_step_plan(self):
        plan = SweepPlan(start_deg=0.0, n_steps=1, trials=1)
        assert plan.angles() == (0.0,)


class TestScanState:
    def test_factories(self):
        assert ScanState.idle().phase is ScanPhase.IDLE
        assert ScanState.homing().phase is ScanPhase.HOMING
        mv = ScanState.moving(3.6)
        assert mv.phase is ScanPhase.MOVING and mv.target_deg == 3.6
        ac = ScanState.acquiring(4)
        assert ac.phase is ScanPhase.ACQUIRING and ac.index == 4
        assert ScanState.complete().phase is ScanPhase.COMPLETE
        fl = ScanState.faulted("motor stall")
        assert fl.phase is ScanPhase.FAULTED and fl.cause == "motor stall"

    def test_payload_required(self):
        with pytest.raises(ValueError):
            ScanState(ScanPhase.MOVING)
        with pytest.raises(ValueError):
            ScanState(ScanPhase.ACQUIRING)
        with pytest.raises(ValueError):
            ScanState(ScanPhase.FAULTED)

    def test_stray_payload_rejected(self):
        with pytest.raises(ValueError):
            ScanState(ScanPhase.IDLE, target_deg=1.0)
        with pytest.raises(ValueError):
            ScanState(ScanPhase.COMPLETE, cause="nope")

    def test_payload_messages(self):
        with pytest.raises(ValueError, match="^moving state requires target_deg$"):
            ScanState(ScanPhase.MOVING)
        with pytest.raises(ValueError, match="^faulted state cannot carry index$"):
            ScanState(ScanPhase.FAULTED, index=2, cause="x")
        with pytest.raises(ValueError, match="^idle state cannot carry target_deg$"):
            ScanState(ScanPhase.IDLE, target_deg=1.0)


LEGAL = {
    (ScanPhase.IDLE, ScanPhase.HOMING),
    (ScanPhase.IDLE, ScanPhase.FAULTED),
    (ScanPhase.HOMING, ScanPhase.MOVING),
    (ScanPhase.HOMING, ScanPhase.FAULTED),
    (ScanPhase.MOVING, ScanPhase.ACQUIRING),
    (ScanPhase.MOVING, ScanPhase.FAULTED),
    (ScanPhase.ACQUIRING, ScanPhase.MOVING),
    (ScanPhase.ACQUIRING, ScanPhase.COMPLETE),
    (ScanPhase.ACQUIRING, ScanPhase.FAULTED),
}


class TestTransitions:
    def test_exhaustive_enumeration(self):
        for frm in ScanPhase:
            for to in ScanPhase:
                assert is_legal_transition(frm, to) == ((frm, to) in LEGAL)

    def test_terminal_states_absorbing(self):
        for frm in (ScanPhase.COMPLETE, ScanPhase.FAULTED):
            for to in ScanPhase:
                assert not is_legal_transition(frm, to)

    def test_machine_happy_path(self):
        m = ScanStateMachine()
        assert m.state.phase is ScanPhase.IDLE
        m.transition(ScanState.homing())
        m.transition(ScanState.moving(-18.0))
        m.transition(ScanState.acquiring(0))
        m.transition(ScanState.moving(-16.2))
        m.transition(ScanState.acquiring(1))
        m.transition(ScanState.complete())
        assert m.state.phase is ScanPhase.COMPLETE

    def test_machine_rejects_and_keeps_state(self):
        m = ScanStateMachine()
        with pytest.raises(IllegalTransitionError):
            m.transition(ScanState.moving(0.0))
        assert m.state.phase is ScanPhase.IDLE

    def test_phases_are_singletons_that_pickle_to_themselves(self):
        for phase in ScanPhase:
            assert pickle.loads(pickle.dumps(phase)) is phase
            assert ScanPhase(phase.value) is phase
        assert len({*ScanPhase, *ScanPhase}) == len(ScanPhase)

    def test_transition_runs_no_python_level_hash(self):
        calls = []

        def record(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        m = ScanStateMachine()
        sys.setprofile(record)
        try:
            m.transition(ScanState.homing())
            m.transition(ScanState.moving(0.0))
            m.transition(ScanState.acquiring(0))
            m.transition(ScanState.complete())
        finally:
            sys.setprofile(None)
        assert m.state.phase is ScanPhase.COMPLETE
        assert "__hash__" not in calls

    def test_machine_faulted_is_terminal(self):
        m = ScanStateMachine()
        m.transition(ScanState.faulted("injected"))
        with pytest.raises(IllegalTransitionError):
            m.transition(ScanState.homing())
        assert m.state.cause == "injected"


class TestRunMeta:
    def test_flat_meta(self):
        meta = RunMeta(
            geometry="flat", sphere_radius_mm=None, working_distance_mm=17.0,
            seed=7, noise_sigma=0.01, kappa=3.5,
        )
        assert meta.schema_version == 1

    def test_validation(self):
        good = dict(
            geometry="convex", sphere_radius_mm=25.0, working_distance_mm=17.0,
            seed=0, noise_sigma=0.0, kappa=0.0,
        )
        RunMeta(**good)
        with pytest.raises(ValueError):
            RunMeta(**{**good, "geometry": "concave"})
        with pytest.raises(ValueError):
            RunMeta(**{**good, "sphere_radius_mm": None})
        with pytest.raises(ValueError):
            RunMeta(**{**good, "geometry": "flat"})
        for bad in (-1, False):
            with pytest.raises(ValueError, match="seed must be an integer"):
                RunMeta(**{**good, "seed": bad})
        with pytest.raises(ValueError, match="kappa must be finite and non-negative"):
            RunMeta(**{**good, "kappa": -1.0})
        for bad in (float("inf"), 10**400):
            with pytest.raises(ValueError, match="working_distance_mm must be finite"):
                RunMeta(**{**good, "working_distance_mm": bad})
        with pytest.raises(ValueError, match="radius_mm must be finite"):
            RunMeta(**{**good, "sphere_radius_mm": float("inf")})
        with pytest.raises(ValueError, match="unsupported schema_version 2"):
            RunMeta(**good, schema_version=2)


class TestSimulatedPort:
    def test_acquire_requires_move(self):
        port = SimulatedPort(seed=1)
        with pytest.raises(PortError):
            port.acquire()

    def test_move_then_acquire(self):
        port = SimulatedPort(seed=1)
        port.move_to(0.0)
        s = port.acquire()
        assert s.wavelengths_nm.size == 801

    def test_failed_move_invalidates_position(self):
        port = SimulatedPort(surface=SphereSurface(radius_mm=25.0), seed=1)
        port.move_to(0.0)
        with pytest.raises(Exception):
            port.move_to(80.0)  # beyond the tangent angle
        with pytest.raises(PortError):
            port.acquire()

    def test_snapshot_flat(self):
        port = SimulatedPort(seed=9)
        meta = port.snapshot()
        assert meta.geometry == "flat"
        assert meta.sphere_radius_mm is None
        assert meta.seed == 9
        assert meta.working_distance_mm == 17.0

    def test_snapshot_convex(self):
        port = SimulatedPort(surface=SphereSurface(radius_mm=25.0), seed=2)
        meta = port.snapshot()
        assert meta.geometry == "convex"
        assert meta.sphere_radius_mm == 25.0


class FaultyPort(AcquisitionPort):
    """Delegates to a SimulatedPort but fails a chosen operation once."""

    def __init__(self, fail_step, fail_op="move_to"):
        self._inner = SimulatedPort(seed=0)
        self._fail_step = fail_step
        self._fail_op = fail_op
        self._moves = 0

    def move_to(self, angle_deg):
        step = self._moves
        self._moves += 1
        if self._fail_op == "move_to" and step == self._fail_step:
            raise PortError("injected move fault")
        self._inner.move_to(angle_deg)

    def acquire(self):
        if self._fail_op == "acquire" and self._moves - 1 == self._fail_step:
            raise PortError("injected acquire fault")
        return self._inner.acquire()

    def snapshot(self):
        return self._inner.snapshot()


class TestRunSweep:
    def test_full_sweep_records_plan_angles(self):
        plan = default_plan()
        port = SimulatedPort(config=OpticalConfig(noise_sigma=0.0), seed=0)
        machine = ScanStateMachine()
        record = run_sweep(plan, port, machine=machine)
        assert machine.state.phase is ScanPhase.COMPLETE
        assert len(record.entries) == 21
        for i, (angle, spectrum) in enumerate(record.entries):
            assert angle == plan.angle(i)
            assert spectrum.intensities.size == 801

    def test_single_step_plan(self):
        plan = SweepPlan(start_deg=0.0, n_steps=1, trials=1)
        record = run_sweep(plan, SimulatedPort(seed=3))
        assert len(record.entries) == 1
        assert record.entries[0][0] == 0.0

    def test_move_fault_surfaces_step(self):
        machine = ScanStateMachine()
        with pytest.raises(PortFaultError) as info:
            run_sweep(default_plan(), FaultyPort(fail_step=5), machine=machine)
        assert info.value.step == 5
        assert machine.state.phase is ScanPhase.FAULTED

    def test_acquire_fault_surfaces_step(self):
        machine = ScanStateMachine()
        with pytest.raises(PortFaultError) as info:
            run_sweep(
                default_plan(),
                FaultyPort(fail_step=7, fail_op="acquire"),
                machine=machine,
            )
        assert info.value.step == 7
        assert machine.state.phase is ScanPhase.FAULTED

    def test_spectrum_off_grid_becomes_port_fault(self):
        class ShiftingPort(FaultyPort):
            def acquire(self):
                s = super().acquire()
                shift = 0.25 if self._moves - 1 == 3 else 0.0
                return Spectrum(s.wavelengths_nm + shift, s.intensities)

        machine = ScanStateMachine()
        with pytest.raises(PortFaultError, match="grid") as info:
            run_sweep(default_plan(), ShiftingPort(fail_step=None), machine=machine)
        assert info.value.step == 3
        assert machine.state.phase is ScanPhase.FAULTED

    def test_geometry_miss_becomes_port_fault(self):
        # Sweeping a small sphere past its tangent angle faults the trial.
        plan = SweepPlan(start_deg=0.0, step_deg=10.0, n_steps=5, trials=1)
        port = SimulatedPort(surface=SphereSurface(radius_mm=25.0), seed=0)
        with pytest.raises(PortFaultError) as info:
            run_sweep(plan, port)
        assert info.value.step == 4  # 40 deg > asin(25/42) = 36.53 deg

    def test_port_without_meta_requires_explicit(self):
        plan = SweepPlan(start_deg=0.0, n_steps=1, trials=1)

        class MinimalPort(AcquisitionPort):
            def __init__(self):
                self._inner = SimulatedPort(seed=0)

            def move_to(self, angle_deg):
                self._inner.move_to(angle_deg)

            def acquire(self):
                return self._inner.acquire()

        with pytest.raises(PortError):
            run_sweep(plan, MinimalPort())
        meta = SimulatedPort(seed=0).snapshot()
        record = run_sweep(plan, MinimalPort(), meta=meta)
        assert record.meta == meta


class TestSweepRecord:
    def test_entry_count_enforced(self):
        plan = SweepPlan(start_deg=0.0, n_steps=2, trials=1)
        port = SimulatedPort(seed=0)
        record = run_sweep(plan, port)
        one_row = Spectrum(record.spectra.wavelengths_nm, record.spectra.intensities[:1])
        with pytest.raises(ValueError):
            SweepRecord(
                plan=plan, trial_index=0,
                spectra=one_row, meta=record.meta,
            )


def simulated_factory(**port_kwargs):
    def factory(trial, seed):
        return SimulatedPort(seed=seed, **port_kwargs)

    return factory


class TestRunTriplicate:
    def test_three_records_sixty_three_spectra(self):
        records = run_triplicate(default_plan(), simulated_factory(), master_seed=7)
        assert len(records) == 3
        assert sum(len(r.entries) for r in records) == 63
        assert [r.trial_index for r in records] == [0, 1, 2]

    def test_derived_seeds(self):
        assert derive_trial_seed(7, 0) == 7
        assert derive_trial_seed(7, 1) == 6
        assert derive_trial_seed(7, 2) == 5

    def test_meta_carries_master_seed(self):
        records = run_triplicate(default_plan(), simulated_factory(), master_seed=7)
        assert all(r.meta.seed == 7 for r in records)

    def test_reproducible_bit_for_bit(self):
        a = run_triplicate(default_plan(), simulated_factory(), master_seed=11)
        b = run_triplicate(default_plan(), simulated_factory(), master_seed=11)
        for ra, rb in zip(a, b):
            for (ang_a, sa), (ang_b, sb) in zip(ra.entries, rb.entries):
                assert ang_a == ang_b
                assert np.array_equal(sa.intensities, sb.intensities)

    def test_trials_differ_from_each_other(self):
        records = run_triplicate(default_plan(), simulated_factory(), master_seed=11)
        first = records[0].entries[0][1].intensities
        second = records[1].entries[0][1].intensities
        assert not np.array_equal(first, second)

    def test_single_trial_matches_run_sweep(self):
        plan = SweepPlan(trials=1)
        via_trip = run_triplicate(plan, simulated_factory(), master_seed=5)
        direct = run_sweep(plan, SimulatedPort(seed=5))
        assert len(via_trip) == 1
        for (ang_a, sa), (ang_b, sb) in zip(via_trip[0].entries, direct.entries):
            assert ang_a == ang_b
            assert np.array_equal(sa.intensities, sb.intensities)

    def test_fault_tagged_with_trial(self):
        def factory(trial, seed):
            if trial == 1:
                return FaultyPort(fail_step=2)
            return SimulatedPort(seed=seed)

        with pytest.raises(PortFaultError) as info:
            run_triplicate(default_plan(), factory, master_seed=0)
        assert info.value.trial == 1
        assert info.value.step == 2


class TestReplayPort:
    def test_replay_round_trip(self, tmp_path):
        from lumispec import dataio

        records = run_triplicate(default_plan(), simulated_factory(), master_seed=4)
        run_dir = tmp_path / "run"
        dataio.write_run(records, run_dir)

        port = ReplayPort(run_dir, trial=1)
        replayed = run_sweep(default_plan(), port, trial_index=1)
        stored = dataio.read_run(run_dir)[1]
        for (ang_a, sa), (ang_b, sb) in zip(replayed.entries, stored.entries):
            assert ang_a == ang_b
            assert np.array_equal(sa.intensities, sb.intensities)
        assert replayed.meta == stored.meta

    def test_unknown_trial_rejected(self, tmp_path):
        from lumispec import dataio

        records = run_triplicate(default_plan(), simulated_factory(), master_seed=4)
        run_dir = tmp_path / "run"
        dataio.write_run(records, run_dir)
        with pytest.raises(PortError):
            ReplayPort(run_dir, trial=5)

    def test_unknown_angle_rejected(self, tmp_path):
        from lumispec import dataio

        records = run_triplicate(default_plan(), simulated_factory(), master_seed=4)
        run_dir = tmp_path / "run"
        dataio.write_run(records, run_dir)
        port = ReplayPort(run_dir, trial=0)
        with pytest.raises(PortError):
            port.move_to(2.5)
        with pytest.raises(PortError):
            port.acquire()
