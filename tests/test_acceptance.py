"""Acceptance gate: eight end-to-end criteria at their stated tolerances.

Every test prints one ``acceptance N (name): PASS|FAIL`` line; run with
``pytest tests/test_acceptance.py -s`` to see the lines as they happen.
"""

import contextlib
import io
import math
import shutil
import time

import numpy as np
import pytest

from _oracles import brute_force_sphere, gaussian_band_integral
from lumispec import (
    IllegalTransitionError,
    LumispecError,
    OpticalConfig,
    PivotGeometry,
    ScanPhase,
    ScanState,
    ScanStateMachine,
    SimulatedPort,
    Spectrum,
    SphereSurface,
    SweepPlan,
    auc_profile,
    default_plan,
    incidence_flat,
    incidence_sphere,
    profile_stats,
    read_run,
    run_pipeline,
    run_sweep,
    run_triplicate,
    trapz_band,
    write_run,
)
from lumispec.cli import main


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nacceptance {number} ({name}): FAIL")
        raise
    print(f"\nacceptance {number} ({name}): PASS")


def simulated_factory(**port_kwargs):
    def factory(trial, seed):
        return SimulatedPort(seed=seed, **port_kwargs)

    return factory


def test_criterion_1_scale_invariance():
    """1000 random spectra: the pipeline AUC is scale-invariant to 1e-12."""
    with criterion(1, "pipeline scale invariance"):
        rng = np.random.default_rng(20260819)
        start = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(51, 802))
            w = np.linspace(400.0, 800.0, n)
            i = rng.uniform(1e-3, 10.0, size=n)
            factor = 10.0 ** rng.uniform(-8.0, 8.0)
            s = Spectrum(w, i)
            auc = run_pipeline(s)
            auc_scaled = run_pipeline(s.scaled(factor))
            assert abs(auc_scaled - auc) / auc <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"


def test_criterion_2_achromatic_cancellation():
    """kappa=0, noiseless: normalization cancels the angular falloff exactly."""
    with criterion(2, "achromatic cancellation"):
        cfg = OpticalConfig(noise_sigma=0.0, kappa=0.0)
        plan = default_plan()
        angles = np.asarray(plan.angles())
        for surface in (None, SphereSurface(radius_mm=25.0)):
            port = SimulatedPort(config=cfg, surface=surface, seed=0)
            record = run_sweep(plan, port)
            raw = np.asarray([run_pipeline(s) for _, s in record.entries])
            profile = auc_profile(raw, angles)
            assert np.max(np.abs(profile.auc_norm - 1.0)) <= 1e-9


def seed_profile(surface, master_seed, plan, angles):
    """One seed's mean profile: per-trial normalization, then trial average."""
    records = run_triplicate(
        plan, simulated_factory(surface=surface), master_seed=master_seed
    )
    rows = []
    for record in records:
        raw = np.asarray([run_pipeline(s) for _, s in record.entries])
        rows.append(auc_profile(raw, angles).auc_norm)
    mean = np.vstack(rows).mean(axis=0)
    return mean / mean.max()


def test_criterion_3_calibrated_spans():
    """Flat keeps the full +/-18 deg 95% span; a 25 mm sphere narrows it."""
    with criterion(3, "calibrated spans"):
        start = time.perf_counter()
        plan = default_plan()
        angles = np.asarray(plan.angles())
        n_seeds = 30

        def grand_stats(surface):
            profiles = np.vstack(
                [seed_profile(surface, seed, plan, angles) for seed in range(n_seeds)]
            )
            grand = profiles.mean(axis=0)
            return profile_stats(auc_profile(grand, angles))

        flat = grand_stats(None)
        convex = grand_stats(SphereSurface(radius_mm=25.0))

        assert flat.span95_deg == 18.0
        assert 0.96 <= flat.mean_auc <= 1.00
        assert flat.std_auc <= 0.02

        assert convex.span95_deg <= 14.4
        assert convex.span95_deg < flat.span95_deg
        assert 0.94 <= convex.mean_auc <= 1.00
        assert convex.std_auc <= 0.04

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"


def test_criterion_4_quadrature_convergence():
    """Band integral vs closed form: 1e-3 at 0.5 nm, 4e-5 at 0.1 nm, order 2."""
    with criterion(4, "quadrature convergence"):
        center, sigma, amplitude = 525.0, 20.0, 0.8
        exact = gaussian_band_integral(center, sigma, amplitude, 450.0, 750.0)

        def rel_err(step):
            n = round((800.0 - 400.0) / step) + 1
            w = 400.0 + step * np.arange(n)
            i = amplitude * np.exp(-((w - center) ** 2) / (2.0 * sigma**2))
            return abs(trapz_band(w, i, 450.0, 750.0) - exact) / exact

        err_coarse = rel_err(0.5)
        err_fine = rel_err(0.1)
        assert err_coarse <= 1e-3
        assert err_fine <= 4e-5
        order = math.log(err_coarse / err_fine) / math.log(5.0)
        assert 1.7 <= order <= 2.3, f"observed order {order:.3f}"


def test_criterion_5_sphere_against_brute_force():
    """Closed-form sphere incidence vs iterative ray tracer, 20k probes."""
    with criterion(5, "sphere incidence oracle"):
        rng = np.random.default_rng(42)
        pairs = [
            (float(rng.uniform(5.0, 60.0)), float(rng.uniform(2.0, 120.0)))
            for _ in range(20)
        ]
        for wd, radius in pairs:
            pivot = PivotGeometry(working_distance_mm=wd)
            boundary_deg = math.degrees(math.asin(radius / (wd + radius)))
            thetas = rng.uniform(-89.9, 89.9, size=1000)
            for theta in thetas:
                oracle = brute_force_sphere(float(theta), wd, radius)
                try:
                    sol = incidence_sphere(float(theta), pivot, radius)
                except LumispecError:
                    assert oracle is None, (wd, radius, theta)
                    continue
                assert oracle is not None, (wd, radius, theta)
                assert abs(sol.aoi_rad - oracle[0]) <= 1e-9
                assert abs(sol.path_mm - oracle[1]) / oracle[1] <= 1e-9
            # Hit/miss verdicts flip together at the tangent boundary.
            for theta, hits in (
                (boundary_deg - 1e-3, True),
                (boundary_deg + 1e-6, False),
            ):
                closed_hits = True
                try:
                    incidence_sphere(theta, pivot, radius)
                except LumispecError:
                    closed_hits = False
                assert closed_hits == hits
                assert (brute_force_sphere(theta, wd, radius) is not None) == hits

        # Large radius converges to the flat plate.
        pivot = PivotGeometry()
        for theta in np.asarray(default_plan().angles()):
            flat_aoi = incidence_flat(float(theta), pivot).aoi_rad
            sphere_aoi = incidence_sphere(float(theta), pivot, 1e6).aoi_rad
            assert abs(sphere_aoi - flat_aoi) <= 1e-4


LEGAL_TABLE = {
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

_PATH_TO = {
    ScanPhase.IDLE: (),
    ScanPhase.HOMING: (ScanState.homing(),),
    ScanPhase.MOVING: (ScanState.homing(), ScanState.moving(0.0)),
    ScanPhase.ACQUIRING: (
        ScanState.homing(), ScanState.moving(0.0), ScanState.acquiring(0),
    ),
    ScanPhase.COMPLETE: (
        ScanState.homing(), ScanState.moving(0.0), ScanState.acquiring(0),
        ScanState.complete(),
    ),
    ScanPhase.FAULTED: (ScanState.faulted("probe"),),
}

_STATE_FOR = {
    ScanPhase.IDLE: ScanState.idle(),
    ScanPhase.HOMING: ScanState.homing(),
    ScanPhase.MOVING: ScanState.moving(1.8),
    ScanPhase.ACQUIRING: ScanState.acquiring(1),
    ScanPhase.COMPLETE: ScanState.complete(),
    ScanPhase.FAULTED: ScanState.faulted("probe"),
}


def machine_in(phase):
    machine = ScanStateMachine()
    for state in _PATH_TO[phase]:
        machine.transition(state)
    assert machine.state.phase is phase
    return machine


def test_criterion_6_sweep_protocol():
    """Full triplicate sweep plus exhaustive transition-table enforcement."""
    with criterion(6, "sweep protocol"):
        plan = default_plan()
        machine = ScanStateMachine()
        run_sweep(plan, SimulatedPort(seed=0), machine=machine)
        assert machine.state.phase is ScanPhase.COMPLETE

        records = run_triplicate(plan, simulated_factory(), master_seed=7)
        assert len(records) == 3
        assert sum(len(r.entries) for r in records) == 63
        for record in records:
            for i, (angle, _) in enumerate(record.entries):
                assert angle == -18.0 + i * 1.8  # bit-exact grid angles

        # Every one of the 36 phase pairs behaves exactly per the table.
        for frm in ScanPhase:
            for to in ScanPhase:
                machine = machine_in(frm)
                if (frm, to) in LEGAL_TABLE:
                    machine.transition(_STATE_FOR[to])
                    assert machine.state.phase is to
                else:
                    with pytest.raises(IllegalTransitionError):
                        machine.transition(_STATE_FOR[to])
                    assert machine.state.phase is frm


def test_criterion_7_round_trip_and_fuzz(tmp_path):
    """Write/read identity, AUC drift below 1e-8, corruption stays typed."""
    with criterion(7, "round trip and fuzz"):
        records = run_triplicate(default_plan(), simulated_factory(), master_seed=7)
        dir_a = tmp_path / "a"
        write_run(records, dir_a)
        back = read_run(dir_a)

        for orig, rb in zip(records, back):
            assert rb.plan == orig.plan
            assert rb.meta == orig.meta
            for (ang_o, so), (ang_b, sb) in zip(orig.entries, rb.entries):
                assert ang_b == ang_o
                auc_o = run_pipeline(so)
                auc_b = run_pipeline(sb)
                assert abs(auc_b - auc_o) / auc_o < 1e-8

        # Canonical form: rewriting what was read is byte-identical.
        dir_b = tmp_path / "b"
        write_run(back, dir_b)
        for path_a in sorted(dir_a.iterdir()):
            assert path_a.read_bytes() == (dir_b / path_a.name).read_bytes()

        # Seeded corruption: failures must stay inside the error hierarchy.
        small = run_triplicate(
            SweepPlan(start_deg=-1.8, step_deg=1.8, n_steps=3, trials=2),
            simulated_factory(),
            master_seed=1,
        )
        pristine = tmp_path / "pristine"
        write_run(small, pristine)
        names = sorted(p.name for p in pristine.iterdir())
        rng = np.random.default_rng(99)
        for case in range(100):
            work = tmp_path / f"fuzz{case}"
            shutil.copytree(pristine, work)
            target = work / names[rng.integers(len(names))]
            data = target.read_bytes()
            mutation = rng.integers(5)
            if mutation == 0 and data:
                target.write_bytes(data[: rng.integers(len(data))])
            elif mutation == 1:
                target.unlink()
            elif mutation == 2 and data:
                pos = int(rng.integers(len(data)))
                target.write_bytes(
                    data[:pos] + bytes([int(rng.integers(256))]) + data[pos + 1:]
                )
            elif mutation == 3:
                lines = data.split(b"\n")
                lines.insert(int(rng.integers(len(lines))), b"junk,row")
                target.write_bytes(b"\n".join(lines))
            else:
                target.write_bytes(
                    bytes(rng.integers(0, 256, size=48, dtype=np.uint8))
                )
            try:
                read_run(work)
            except LumispecError:
                pass  # typed failure is the contract; anything else fails


def test_criterion_8_deterministic_cli_chain(tmp_path):
    """simulate/analyze/report reproduce bytes and the headline statistics."""
    with criterion(8, "deterministic cli chain"):
        def cli(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(list(argv))
            return rc, out.getvalue()

        start = time.perf_counter()
        run_a = tmp_path / "a"
        rc, _ = cli("simulate", "--geometry", "flat", "--seed", "7",
                    "--out", str(run_a))
        assert rc == 0
        rc, _ = cli("analyze", "--run", str(run_a))
        assert rc == 0
        rc, report = cli("report", "--profile", str(run_a / "profile.csv"))
        assert rc == 0
        assert report == "mean=0.98 std=0.01 span95=±18.0deg\n"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"

        run_b = tmp_path / "b"
        rc, _ = cli("simulate", "--geometry", "flat", "--seed", "7",
                    "--out", str(run_b))
        assert rc == 0
        names_a = sorted(p.name for p in run_a.iterdir())
        names_b = sorted(p.name for p in run_b.iterdir())
        assert names_b == [n for n in names_a if n != "profile.csv"]
        for name in names_b:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
