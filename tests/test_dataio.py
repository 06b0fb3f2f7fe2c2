"""Unit tests for spectrum files and run directories.

Round-trip fidelity, typed parse failures with file/line context, a corpus
holding read_spectrum to the column loop it falls back to and read_run to
file-by-file reads through that loop, a seeded fuzz loop asserting corrupt
inputs never escape the package's own error hierarchy, and the run lock:
it names its writer, a lock left by a killed writer is broken, and every
other lock still refuses the write.
"""

import hashlib
import os
import shutil
import socket
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import lumispec
from lumispec import dataio
from lumispec.cli import SEED_ENV_VAR, main
from lumispec.dataio import (
    _SPECTRUM_CSV,
    MANIFEST_FILE,
    META_FIELDS,
    META_FILE,
    PROFILE_FILE,
    PROFILE_HEADER,
    read_profile,
    read_run,
    read_run_header,
    read_spectrum,
    _decode_spectra,
    _encode_spectra,
    _parse_rows,
    spectrum_filename,
    write_profile,
    write_run,
    write_spectrum,
)
from lumispec.engine import (
    RunMeta,
    SimulatedPort,
    SweepPlan,
    SweepRecord,
    run_triplicate,
)
from lumispec.errors import (
    DataIoError,
    LayoutError,
    LumispecError,
    MalformedHeaderError,
    MetaError,
    NonMonotonicWavelengthError,
    SpectrumParseError,
)
from lumispec.geometry import FlatSurface, PivotGeometry, SphereSurface
from lumispec.optics import OpticalConfig
from lumispec.spectral import Spectrum, run_pipeline
from test_golden import GOLDEN


def make_records(plan):
    return run_triplicate(
        plan, lambda trial, seed: SimulatedPort(seed=seed), master_seed=7
    )


@pytest.fixture(scope="module")
def small_plan():
    return SweepPlan(start_deg=-1.8, step_deg=1.8, n_steps=3, trials=2)


@pytest.fixture(scope="module")
def small_records(small_plan):
    return make_records(small_plan)


@pytest.fixture()
def small_run(small_records, tmp_path):
    run_dir = tmp_path / "run"
    write_run(small_records, run_dir)
    return run_dir


class TestSpectrumFiles:
    def test_filename_format(self):
        assert spectrum_filename(0, 0) == "t0_s00.csv"
        assert spectrum_filename(2, 7) == "t2_s07.csv"
        assert spectrum_filename(1, 20) == "t1_s20.csv"

    def test_written_format(self, tmp_path):
        s = Spectrum(np.array([400.0, 400.5]), np.array([1.0, 0.125]))
        path = tmp_path / "s.csv"
        write_spectrum(s, path)
        text = path.read_bytes().decode()
        assert text == (
            "wavelength_nm,intensity\n"
            "400.000000,1.000000000e+00\n"
            "400.500000,1.250000000e-01\n"
        )

    def test_round_trip_within_format_precision(self, tmp_path):
        rng = np.random.default_rng(5)
        w = 400.0 + np.sort(rng.uniform(0.0, 400.0, size=200))
        i = rng.uniform(1e-6, 10.0, size=200)
        s = Spectrum(w, i)
        path = tmp_path / "s.csv"
        write_spectrum(s, path)
        back = read_spectrum(path)
        np.testing.assert_allclose(back.wavelengths_nm, w, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(back.intensities, i, rtol=1e-9, atol=0.0)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength,intensity\n400.0,1.0\n410.0,2.0\n")
        with pytest.raises(MalformedHeaderError):
            read_spectrum(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(MalformedHeaderError, match="empty"):
            read_spectrum(path)

    def test_field_count_error_carries_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,intensity\n400.0,1.0\n410.0,1.0,9.0\n")
        with pytest.raises(SpectrumParseError) as info:
            read_spectrum(path)
        assert info.value.line == 3

    def test_garbage_float(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,intensity\n400.0,abc\n")
        with pytest.raises(SpectrumParseError) as info:
            read_spectrum(path)
        assert info.value.line == 2

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,intensity\n400.0,1.0\n410.0,nan\n")
        with pytest.raises(SpectrumParseError) as info:
            read_spectrum(path)
        assert info.value.line == 3

    def test_non_monotonic_carries_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "wavelength_nm,intensity\n400.0,1.0\n410.0,1.0\n405.0,1.0\n"
        )
        with pytest.raises(NonMonotonicWavelengthError) as info:
            read_spectrum(path)
        assert info.value.line == 4

    def test_duplicate_wavelength_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,intensity\n400.0,1.0\n400.0,2.0\n")
        with pytest.raises(NonMonotonicWavelengthError):
            read_spectrum(path)

    def test_single_sample_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("wavelength_nm,intensity\n400.0,1.0\n")
        with pytest.raises(SpectrumParseError, match="at least 2"):
            read_spectrum(path)

    def test_binary_garbage_is_typed_error(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x9C]) * 16)
        with pytest.raises(DataIoError):
            read_spectrum(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIoError):
            read_spectrum(tmp_path / "nope.csv")


def reference_cells(values):
    return [("%.9e" % v).encode() for v in np.asarray(values, float).tolist()]


def encoded_cells(values):
    """The intensity cells the encoder writes for ``values``, one file."""
    values = np.asarray(values, float)
    (data,) = _encode_spectra(np.arange(values.size, dtype=float), values[None])
    assert data.startswith(b"wavelength_nm,intensity\n") and data.endswith(b"\n")
    return [line.split(b",")[1] for line in data.splitlines()[1:]]


def half_way_neighbours(rng, n):
    """Values next to the decimal ties (D + 0.5) * 10**k of a 10-digit D,
    where only exact rounding writes the right last digit."""
    mantissa = rng.integers(10**9, 10**10, n).astype(float) + 0.5
    ties = mantissa * 10.0 ** rng.integers(-25, 16, n)
    return np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])


SPECIAL_VALUES = [0.0, -0.0, -1e-5, 5e-324, 1e-100, 1e300, -1e300,
                  9.9999999995e-3, 0.99999999995, 1234567890.5, 2.5e-13, 1e32]


@pytest.mark.filterwarnings("error")
class TestEncoder:
    """_encode_spectra writes every cell byte for byte as "%.9e" does."""

    def test_random_mantissas_over_60_decades(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(1, 10, 20_000) * 10.0 ** rng.integers(-30, 31, 20_000)
        values *= rng.choice([-1.0, 1.0], values.size)
        assert encoded_cells(values) == reference_cells(values)

    @pytest.mark.parametrize("value", SPECIAL_VALUES)
    def test_special_values(self, value):
        assert encoded_cells([value, -value]) == reference_cells([value, -value])

    @pytest.mark.parametrize("value, cell", [
        (9.9999999995e-3, b"1.000000000e-02"),
        (0.99999999995, b"9.999999999e-01"),  # just below the tie as a float64
        (np.nextafter(0.99999999995, 1), b"1.000000000e+00"),
        (9.99999999951e4, b"1.000000000e+05"),
    ])
    def test_rounding_next_to_a_decade(self, value, cell):
        assert encoded_cells([value]) == reference_cells([value]) == [cell]

    def test_powers_of_ten_and_their_neighbours(self):
        powers = 10.0 ** np.arange(-40, 41)
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        assert encoded_cells(values) == reference_cells(values)

    @pytest.mark.parametrize("error", [-1.0, 1.0])
    def test_misjudged_exponent_falls_back_to_the_reference(self, error, monkeypatch):
        """A log10 that floors one decade off leaves y outside [1e9, 1e10):
        such cells are written by "%.9e" itself."""
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + error)
        values = [0.123456789, -3.3, 7.77e-5, 0.999999999951, 9.9999999995e-3]
        assert encoded_cells(values) == reference_cells(values)

    def test_neighbours_of_half_way_values(self):
        values = half_way_neighbours(np.random.default_rng(11), 5_000)
        assert encoded_cells(values) == reference_cells(values)

    def test_files_of_a_chunk(self):
        rng = np.random.default_rng(12)
        grid = np.array([0.5, 99.25, 400.0, 12345.678901])
        rows = rng.normal(0.0, 1.0, (5, grid.size)) * 10.0 ** rng.integers(-8, 8, (5, grid.size))
        got = _encode_spectra(grid, rows)
        text = "\n".join(["wavelength_nm,intensity", *(f"{w:.6f},%.9e" for w in grid)]) + "\n"
        assert got == [(text % tuple(row)).encode() for row in rows.tolist()]

    def test_write_spectrum_reads_back_bit_equal(self, tmp_path):
        rng = np.random.default_rng(13)
        values = np.concatenate([half_way_neighbours(rng, 300), SPECIAL_VALUES,
                                 rng.uniform(-1, 1, 300) * 10.0 ** rng.integers(-30, 31, 300)])
        path = tmp_path / "s.csv"
        write_spectrum(Spectrum(400.0 + 0.5 * np.arange(values.size), values), path)
        expected = np.array([float(cell) for cell in reference_cells(values)])
        assert read_spectrum(path).intensities.tobytes() == expected.tobytes()

    def test_memory_peak_of_a_wide_run(self, tmp_path):
        """write_run streams chunks: a 3x61 run peaks under 4 MB."""
        records = read_run(simulate_run(tmp_path / "run", *WIDE_PLAN_ARGV))
        tracemalloc.start()
        try:
            write_run(records, tmp_path / "copy")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert {p.name: p.read_bytes() for p in (tmp_path / "copy").iterdir()} == {
            p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()
        }


class TestRunRoundTrip:
    def test_layout(self, small_run, small_plan):
        names = sorted(p.name for p in small_run.iterdir())
        expected = sorted(
            [META_FILE, MANIFEST_FILE]
            + [
                spectrum_filename(t, s)
                for t in range(small_plan.trials)
                for s in range(small_plan.n_steps)
            ]
        )
        assert names == expected

    def test_header_round_trip(self, small_run, small_records):
        plan, meta = read_run_header(small_run)
        assert plan == small_records[0].plan
        assert meta == small_records[0].meta

    def test_records_round_trip(self, small_run, small_records):
        back = read_run(small_run)
        assert [r.trial_index for r in back] == [0, 1]
        for orig, rb in zip(small_records, back):
            assert rb.plan == orig.plan
            assert rb.meta == orig.meta
            for (ang_o, so), (ang_b, sb) in zip(orig.entries, rb.entries):
                assert ang_b == ang_o  # bit-exact: angles come from the plan
                np.testing.assert_allclose(
                    sb.wavelengths_nm, so.wavelengths_nm, rtol=0.0, atol=1e-6
                )
                np.testing.assert_allclose(
                    sb.intensities, so.intensities, rtol=1e-9, atol=0.0
                )

    def test_auc_drift_below_1e8(self, small_run, small_records):
        back = read_run(small_run)
        for orig, rb in zip(small_records, back):
            for (_, so), (_, sb) in zip(orig.entries, rb.entries):
                a0 = run_pipeline(so)
                a1 = run_pipeline(sb)
                assert abs(a1 - a0) / a0 < 1e-8

    def test_second_read_identical(self, small_run):
        first = read_run(small_run)
        second = read_run(small_run)
        for ra, rb in zip(first, second):
            for (_, sa), (_, sb) in zip(ra.entries, rb.entries):
                assert np.array_equal(sa.intensities, sb.intensities)

    def test_byte_deterministic(self, small_records, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        write_run(small_records, dir_a)
        write_run(small_records, dir_b)
        names = sorted(p.name for p in dir_a.iterdir())
        assert names == sorted(p.name for p in dir_b.iterdir())
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_rebuilt_from_meta_reproduces_every_byte(self, tmp_path):
        # meta.txt is the whole recipe of a run: every non-default setting it
        # records must come back, and nothing it does not record may matter.
        config = OpticalConfig(kappa=2.718281828459045, noise_sigma=0.03)
        pivot = PivotGeometry(working_distance_mm=21.5)
        surface = SphereSurface(radius_mm=40.0)
        plan = SweepPlan(start_deg=-12.0, step_deg=2.4, n_steps=11, trials=2)
        original = tmp_path / "original"
        write_run(run_triplicate(
            plan, lambda t, seed: SimulatedPort(config, pivot, surface, seed), master_seed=1234
        ), original)

        plan, meta = read_run_header(original)
        assert (meta.kappa, meta.noise_sigma) == (2.718281828459045, 0.03)
        assert (meta.working_distance_mm, meta.sphere_radius_mm) == (21.5, 40.0)
        config = OpticalConfig(kappa=meta.kappa, noise_sigma=meta.noise_sigma)
        pivot = PivotGeometry(meta.working_distance_mm)
        surface = (
            SphereSurface(meta.sphere_radius_mm) if meta.geometry == "convex" else FlatSurface()
        )
        rebuilt = tmp_path / "rebuilt"
        write_run(run_triplicate(
            plan, lambda t, seed: SimulatedPort(config, pivot, surface, seed), meta.seed
        ), rebuilt)
        names = sorted(p.name for p in original.iterdir())
        assert names == sorted(p.name for p in rebuilt.iterdir())
        assert len(names) == 2 + 2 * 11
        for name in names:
            assert (rebuilt / name).read_bytes() == (original / name).read_bytes(), name

    def test_lf_endings(self, small_run):
        for path in small_run.iterdir():
            assert b"\r" not in path.read_bytes()

    def test_lock_released_after_write(self, small_run):
        assert not (small_run / ".lock").exists()

    def test_lock_blocks_concurrent_writer(self, small_records, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / ".lock").touch()
        with pytest.raises(DataIoError, match="locked"):
            write_run(small_records, run_dir)

    def test_manifest_angle_is_informational(self, small_run, small_plan):
        # A sub-tolerance perturbation in the angle column is accepted and
        # the reconstructed angle still comes from the plan, bit-exact.
        manifest = small_run / MANIFEST_FILE
        lines = manifest.read_text().splitlines()
        fields = lines[1].split(",")
        fields[2] = "%.6f" % (float(fields[2]) + 4e-7)
        lines[1] = ",".join(fields)
        manifest.write_text("\n".join(lines) + "\n")
        back = read_run(small_run)
        assert back[0].entries[0][0] == small_plan.angle(0)


# Runs `simulate` and dies, as a killed process does, on its 5th file write.
_DYING_WRITER = """
import os, sys
from lumispec import cli, dataio
write_text, calls = dataio._write_text, []
def dying_write(path, text):
    calls.append(path)
    if len(calls) == 5:
        os._exit(9)
    write_text(path, text)
dataio._write_text = dying_write
cli.main(["simulate", "--geometry", "flat", "--seed", "7", "--out", sys.argv[1]])
"""


def _run_child(*args):
    """Run a Python child process on this package; return it once reaped."""
    env = dict(os.environ)
    env.pop(SEED_ENV_VAR, None)
    src = str(Path(lumispec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = subprocess.Popen([sys.executable, *args], env=env)
    child.wait(timeout=60)
    return child


@pytest.fixture(scope="module")
def dead_pid():
    return _run_child("-c", "pass").pid


def _lock_text(pid, host):
    return f"pid={pid}\nhost={host}\n"


class TestLockOwner:
    def test_lock_names_its_writer(self, small_records, tmp_path, monkeypatch):
        seen = []
        write_text = dataio._write_text

        def peeking_write(path, text):
            seen.append((path.parent / ".lock").read_text(encoding="utf-8"))
            write_text(path, text)

        monkeypatch.setattr(dataio, "_write_text", peeking_write)
        write_run(small_records, tmp_path / "run")
        assert set(seen) == {_lock_text(os.getpid(), socket.gethostname())}
        assert not (tmp_path / "run" / ".lock").exists()

    @pytest.mark.skipif(os.name != "posix", reason="dead writers are detected on POSIX only")
    def test_killed_writer_lock_broken_by_force(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        run = tmp_path / "run"
        child = _run_child("-c", _DYING_WRITER, str(run))
        assert child.returncode == 9
        assert (run / ".lock").read_text(encoding="utf-8") == _lock_text(
            child.pid, socket.gethostname()
        )
        argv = ["simulate", *GOLDEN["flat7"]["argv"], "--seed", "7", "--force", "--out", str(run)]
        assert main(argv) == 0
        capsys.readouterr()
        pinned = {k: v for k, v in GOLDEN["flat7"]["files"].items() if k != "profile.csv"}
        assert {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in run.iterdir()
        } == pinned

    @pytest.mark.skipif(os.name != "posix", reason="dead writers are detected on POSIX only")
    def test_dead_writer_lock_on_this_host_is_broken(self, small_records, tmp_path, dead_pid):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / ".lock").write_text(_lock_text(dead_pid, socket.gethostname()))
        write_run(small_records, run_dir)
        assert not (run_dir / ".lock").exists()
        assert len(read_run(run_dir)) == len(small_records)

    @pytest.mark.parametrize(
        "lock",
        [
            pytest.param("pid={live}\nhost={host}\n", id="live-pid"),
            pytest.param("pid={dead}\nhost={host}-other\n", id="other-host"),
            pytest.param("pid={dead}\n", id="no-host"),
            pytest.param("pid=x\nhost={host}\n", id="bad-pid"),
            pytest.param("pid=-{dead}\nhost={host}\n", id="negative-pid"),
            pytest.param(f"pid={2**64}\nhost={{host}}\n", id="huge-pid"),
            pytest.param("garbage", id="garbage"),
        ],
    )
    def test_other_locks_still_refuse(self, small_records, tmp_path, dead_pid, lock):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        text = lock.format(live=os.getpid(), dead=dead_pid, host=socket.gethostname())
        (run_dir / ".lock").write_text(text)
        with pytest.raises(DataIoError, match="locked"):
            write_run(small_records, run_dir)
        assert (run_dir / ".lock").read_text() == text
        assert [p.name for p in run_dir.iterdir()] == [".lock"]


class TestWriteRunValidation:
    def test_empty_records(self, tmp_path):
        with pytest.raises(ValueError):
            write_run([], tmp_path / "run")

    def test_missing_trial(self, small_records, tmp_path):
        with pytest.raises(ValueError, match="trial indices"):
            write_run(small_records[:1], tmp_path / "run")

    def test_duplicate_trial(self, small_records, tmp_path):
        with pytest.raises(ValueError, match="trial indices"):
            write_run([small_records[0], small_records[0]], tmp_path / "run")

    def test_records_on_two_grids(self, small_records, tmp_path):
        first = small_records[0].spectra
        shifted = Spectrum(first.wavelengths_nm + 0.5, first.intensities)
        records = [replace(small_records[0], spectra=shifted), *small_records[1:]]
        with pytest.raises(ValueError, match="one wavelength grid"):
            write_run(records, tmp_path / "run")
        assert not (tmp_path / "run").exists()


def edit_lines(path, fn):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


class TestRewrite:
    def test_removes_stale_layout_files_only(self, small_records, small_plan, tmp_path):
        run_dir = tmp_path / "run"
        write_run(small_records, run_dir)
        write_profile(run_dir / PROFILE_FILE, np.array([0.0]), np.array([1.0]),
                      np.array([0.0]), 2)
        (run_dir / "keep.txt").write_text("precious\n")
        (run_dir / "t1_s02.csv.orig").write_text("not a spectrum\n")

        one_plan = replace(small_plan, trials=1)
        write_run([replace(small_records[0], plan=one_plan)], run_dir)

        assert sorted(p.name for p in run_dir.iterdir()) == sorted([
            MANIFEST_FILE, META_FILE, "keep.txt",
            "t0_s00.csv", "t0_s01.csv", "t0_s02.csv", "t1_s02.csv.orig",
        ])
        assert (run_dir / "keep.txt").read_text() == "precious\n"
        records = read_run(run_dir)
        assert [r.trial_index for r in records] == [0]


def tiny_records(plan, meta):
    spectra = Spectrum(np.array([400.0, 500.0]), np.array([[1.0, 2.0]] * plan.n_steps))
    return [
        SweepRecord(plan=plan, trial_index=t, spectra=spectra, meta=meta)
        for t in range(plan.trials)
    ]


class TestMetaTable:
    # Int-valued floats are spelled like floats and an absent radius is
    # "none"; each expected text is the exact meta.txt of the case.
    @pytest.mark.parametrize(
        "plan, meta, expected",
        [
            (
                SweepPlan(start_deg=-18, step_deg=2, n_steps=3, trials=1, settle_s=0),
                RunMeta(geometry="flat", sphere_radius_mm=None,
                        working_distance_mm=17, seed=7, noise_sigma=0, kappa=3),
                "schema_version=1\ngeometry=flat\nsphere_radius_mm=none\n"
                "working_distance_mm=17.0\nseed=7\nnoise_sigma=0.0\nkappa=3.0\n"
                "start_deg=-18.0\nstep_deg=2.0\nn_steps=3\ntrials=1\nsettle_s=0.0\n",
            ),
            (
                SweepPlan(start_deg=0.5, step_deg=0.1, n_steps=2, trials=2, settle_s=1e-3),
                RunMeta(geometry="convex", sphere_radius_mm=25,
                        working_distance_mm=17.5, seed=12345678901234567890,
                        noise_sigma=0.015, kappa=1 / 3),
                "schema_version=1\ngeometry=convex\nsphere_radius_mm=25.0\n"
                "working_distance_mm=17.5\nseed=12345678901234567890\n"
                "noise_sigma=0.015\nkappa=0.3333333333333333\n"
                "start_deg=0.5\nstep_deg=0.1\nn_steps=2\ntrials=2\nsettle_s=0.001\n",
            ),
        ],
        ids=["flat-int-valued", "convex"],
    )
    def test_written_text_and_round_trip(self, plan, meta, expected, tmp_path):
        write_run(tiny_records(plan, meta), tmp_path)
        assert (tmp_path / META_FILE).read_bytes() == expected.encode()
        assert read_run_header(tmp_path) == (plan, meta)

    @pytest.mark.parametrize("key", [key for key, _, _ in META_FIELDS])
    def test_write_refuses_what_read_refuses(self, key, tmp_path):
        # Each value is refused when its record is built, and then refused in
        # meta.txt too; or it is written and reads back equal.
        base = {
            SweepPlan: asdict(SweepPlan(start_deg=-1.8, step_deg=1.8, n_steps=2, trials=1)),
            RunMeta: asdict(RunMeta(geometry="convex", sphere_radius_mm=25.0,
                                    working_distance_mm=17.0, seed=7,
                                    noise_sigma=0.01, kappa=3.0)),
        }
        write_run(tiny_records(SweepPlan(**base[SweepPlan]), RunMeta(**base[RunMeta])),
                  tmp_path / "base")
        base_lines = (tmp_path / "base" / META_FILE).read_text().splitlines()
        owner = next(owner for k, owner, _ in META_FIELDS if k == key)
        for i, value in enumerate([float("inf"), float("-inf"), float("nan"), 0, -1, 1e300]):
            fields = {**base, owner: {**base[owner], key: value}}
            try:
                plan, meta = SweepPlan(**fields[SweepPlan]), RunMeta(**fields[RunMeta])
            except ValueError:
                (tmp_path / "base" / META_FILE).write_text("\n".join(
                    f"{key}={value!r}" if line.startswith(f"{key}=") else line
                    for line in base_lines
                ) + "\n")
                with pytest.raises(MetaError, match=f"describes an invalid run|key '{key}'"):
                    read_run_header(tmp_path / "base")
                continue
            run_dir = tmp_path / f"run{i}"
            write_run(tiny_records(plan, meta), run_dir)
            assert read_run_header(run_dir) == (plan, meta), (key, value)
            assert [(r.plan, r.meta) for r in read_run(run_dir)] == [(plan, meta)]

    def test_none_rejected_for_plain_float(self, small_run):
        edit_lines(
            small_run / META_FILE,
            lambda ls: ["kappa=none" if l.startswith("kappa=") else l for l in ls],
        )
        with pytest.raises(MetaError, match="kappa"):
            read_run_header(small_run)


class TestReadRunErrors:
    def test_missing_meta(self, small_run):
        (small_run / META_FILE).unlink()
        with pytest.raises(LayoutError, match=META_FILE):
            read_run(small_run)

    def test_missing_manifest(self, small_run):
        (small_run / MANIFEST_FILE).unlink()
        with pytest.raises(LayoutError, match=MANIFEST_FILE):
            read_run(small_run)

    def test_missing_spectrum_named(self, small_run):
        (small_run / "t1_s02.csv").unlink()
        with pytest.raises(LayoutError, match="t1_s02.csv"):
            read_run(small_run)

    def test_corrupt_spectrum_named_with_line(self, small_run):
        path = small_run / "t0_s01.csv"
        edit_lines(path, lambda ls: ls[:5] + ["garbage row"] + ls[5:])
        with pytest.raises(SpectrumParseError, match="t0_s01.csv: line 6: ") as info:
            read_run(small_run)
        assert info.value.line == 6

    def test_meta_missing_key(self, small_run):
        edit_lines(
            small_run / META_FILE,
            lambda ls: [l for l in ls if not l.startswith("kappa=")],
        )
        with pytest.raises(MetaError, match="kappa"):
            read_run(small_run)

    def test_meta_duplicate_key(self, small_run):
        edit_lines(small_run / META_FILE, lambda ls: ls + ["seed=9"])
        with pytest.raises(MetaError, match="duplicate"):
            read_run(small_run)

    def test_meta_unexpected_key(self, small_run):
        edit_lines(small_run / META_FILE, lambda ls: ls + ["operator=me"])
        with pytest.raises(MetaError, match="unexpected"):
            read_run(small_run)

    def test_meta_bad_schema(self, small_run):
        edit_lines(
            small_run / META_FILE,
            lambda ls: ["schema_version=2" if l.startswith("schema_version") else l for l in ls],
        )
        with pytest.raises(MetaError, match="schema_version"):
            read_run(small_run)

    def test_meta_invalid_field_combination(self, small_run):
        # Flat geometry with a sphere radius is self-contradictory.
        edit_lines(
            small_run / META_FILE,
            lambda ls: ["sphere_radius_mm=25.0" if l.startswith("sphere_radius_mm") else l for l in ls],
        )
        with pytest.raises(MetaError, match="invalid run"):
            read_run(small_run)

    def test_meta_garbage_value(self, small_run):
        edit_lines(
            small_run / META_FILE,
            lambda ls: ["noise_sigma=loud" if l.startswith("noise_sigma") else l for l in ls],
        )
        with pytest.raises(MetaError, match="noise_sigma"):
            read_run(small_run)

    def test_manifest_wrong_header(self, small_run):
        edit_lines(
            small_run / MANIFEST_FILE, lambda ls: ["a,b,c,d"] + ls[1:]
        )
        with pytest.raises(LayoutError, match="header"):
            read_run(small_run)

    def test_manifest_dropped_row(self, small_run):
        edit_lines(small_run / MANIFEST_FILE, lambda ls: ls[:-1])
        with pytest.raises(LayoutError, match="entries"):
            read_run(small_run)

    def test_manifest_duplicate_row(self, small_run):
        edit_lines(small_run / MANIFEST_FILE, lambda ls: ls + [ls[-1]])
        with pytest.raises(LayoutError, match="duplicate"):
            read_run(small_run)

    def test_manifest_angle_out_of_tolerance(self, small_run):
        def bump(ls):
            fields = ls[1].split(",")
            fields[2] = "%.6f" % (float(fields[2]) + 1e-3)
            return [ls[0], ",".join(fields)] + ls[2:]

        edit_lines(small_run / MANIFEST_FILE, bump)
        with pytest.raises(LayoutError, match="angle"):
            read_run(small_run)

        def nan_angle(ls):
            fields = ls[1].split(",")
            fields[2] = "nan"
            return [ls[0], ",".join(fields)] + ls[2:]

        edit_lines(small_run / MANIFEST_FILE, nan_angle)
        with pytest.raises(LayoutError, match="manifest.csv line 2: ") as info:
            read_run(small_run)
        assert info.value.line == 2

    def test_manifest_trial_out_of_range(self, small_run):
        def bump(ls):
            fields = ls[1].split(",")
            fields[0] = "5"
            return [ls[0], ",".join(fields)] + ls[2:]

        edit_lines(small_run / MANIFEST_FILE, bump)
        with pytest.raises(LayoutError, match="trial"):
            read_run(small_run)

    @pytest.mark.parametrize(
        "lineno, name",
        [(3, "t0_s00.csv"), (2, "../outside.csv")],
        ids=["other-step", "outside-run"],
    )
    def test_manifest_spectrum_file_must_be_canonical(self, small_run, lineno, name):
        # Both targets exist and parse, so only the name check can refuse them.
        shutil.copy(small_run / "t0_s00.csv", small_run.parent / "outside.csv")

        def repoint(ls):
            fields = ls[lineno - 1].split(",")
            fields[3] = name
            return ls[:lineno - 1] + [",".join(fields)] + ls[lineno:]

        edit_lines(small_run / MANIFEST_FILE, repoint)
        with pytest.raises(LayoutError, match=f"manifest.csv line {lineno}: ") as info:
            read_run(small_run)
        assert info.value.line == lineno

    def test_spectrum_on_other_grid_named(self, small_run):
        path = small_run / "t1_s02.csv"
        s = read_spectrum(path)
        write_spectrum(Spectrum(s.wavelengths_nm + 0.25, s.intensities), path)
        with pytest.raises(LayoutError, match="t1_s02.csv: wavelength grid"):
            read_run(small_run)


class TestProfileFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "profile.csv"
        angles = np.array([-1.8, 0.0, 1.8])
        mean = np.array([0.951234567, 1.0, 0.949999999])
        std = np.array([0.01, 0.0, 0.02])
        write_profile(path, angles, mean, std, 3)
        a, m, s, n = read_profile(path)
        assert n == 3
        np.testing.assert_allclose(a, angles, atol=1e-6)
        np.testing.assert_allclose(m, mean, atol=1e-9)
        np.testing.assert_allclose(s, std, atol=1e-9)

    def test_header_line(self, tmp_path):
        path = tmp_path / "profile.csv"
        write_profile(path, np.array([0.0]), np.array([1.0]), np.array([0.0]), 1)
        assert path.read_text().splitlines()[0] == PROFILE_HEADER

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("angle,auc\n0.0,1.0\n")
        with pytest.raises(MalformedHeaderError):
            read_profile(path)

    def test_inconsistent_trials(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(
            PROFILE_HEADER + "\n0.000000,1.0,0.0,3\n1.800000,0.9,0.0,2\n"
        )
        with pytest.raises(DataIoError, match="n_trials"):
            read_profile(path)

    def test_no_rows(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(PROFILE_HEADER + "\n")
        with pytest.raises(DataIoError, match="no data"):
            read_profile(path)

    def test_non_finite_cell_names_line(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text(PROFILE_HEADER + "\n0.000000,1.0,0.0,3\n1.800000,nan,0.0,3\n")
        with pytest.raises(DataIoError, match="profile line 3: ") as info:
            read_profile(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("second", ["-1.800000", "0.000000"], ids=["falls", "repeats"])
    def test_angles_must_increase(self, tmp_path, second):
        path = tmp_path / "profile.csv"
        path.write_text(
            PROFILE_HEADER + f"\n0.000000,1.0,0.0,3\n{second},0.9,0.0,3\n"
        )
        with pytest.raises(
            DataIoError, match=f"profile line 3: angle {float(second)!r} does not "
            "increase past 0.0"
        ) as info:
            read_profile(path)
        assert info.value.line == 3

    def test_not_utf8_names_path(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_bytes(b"\xff\xfe" + PROFILE_HEADER.encode() + b"\n")
        with pytest.raises(DataIoError) as info:
            read_profile(path)
        assert str(path) in str(info.value)


def reference_read_spectrum(text):
    """The column loop alone: ``_parse_rows`` plus the size and order checks."""
    wavelengths, intensities = map(np.asarray, _parse_rows(text, _SPECTRUM_CSV))
    if wavelengths.size < 2:
        raise SpectrumParseError(
            f"spectrum needs at least 2 samples, found {wavelengths.size}"
        )
    _SPECTRUM_CSV.require_increasing(wavelengths, "wavelength", NonMonotonicWavelengthError)
    return wavelengths, intensities


def assert_reads_like_reference(text, path):
    """read_spectrum accepts exactly what the reference accepts, with the
    same float64 bits, and fails with the same type, message and line."""
    path.write_text(text, encoding="utf-8", newline="")
    try:
        wavelengths, intensities = reference_read_spectrum(text)
    except LumispecError as expected:
        with pytest.raises(LumispecError) as info:
            read_spectrum(path)
        got = info.value
        assert (type(got), str(got), got.line) == (type(expected), str(expected), expected.line)
        return False
    got = read_spectrum(path)
    assert got.wavelengths_nm.tobytes() == wavelengths.tobytes()
    assert got.intensities.tobytes() == intensities.tobytes()
    return True


SPECTRUM_TEXT = (
    "wavelength_nm,intensity\n"
    "400.000000,1.000000000e+00\n"
    "400.500000,-2.500000000e-01\n"
    "401.000000,3.000000000e+00\n"
)
HEADER = "wavelength_nm,intensity\n"


def body(*rows):
    return HEADER + "".join(f"{row}\n" for row in rows)


# Files in the exact form write_run writes, at the edges of what the
# canonical decoder takes: |exponent - 9| <= 22 and wavelength cells of one
# width with at most 15 digits.
CANONICAL_EDGES = {
    "negative-zero": ["400.000000,-0.000000000e+00", "400.500000,0.000000000e+00"],
    "negatives": ["400.000000,-9.999999999e+31", "400.500000,-1.000000001e-13"],
    "exponent-e+13": ["400.000000,1.234567891e+13", "400.500000,9.876543219e-13"],
    "exponent-e+31": ["400.000000,9.999999999e+31", "400.500000,1.000000001e+31"],
    "exponent-e-13": ["400.000000,1.000000001e-13", "400.500000,9.999999999e-13"],
    "exponent-e-00": ["400.000000,5.000000000e-00", "400.500000,5.000000000e+00"],
    "mantissa-leading-zero": ["400.000000,0.123456789e+05", "400.500000,0.000000001e-13"],
    "wavelength-15-digits": ["123456789.000000,1.000000000e+00",
                             "123456789.000001,2.000000000e+00"],
    "wavelength-one-digit": ["1.000000,1.000000000e+00", "9.999999,2.000000000e+00"],
}
# Files the reference reads that the decoder leaves to it.
NEAR_CANONICAL = {
    "exponent-e+32": ["400.000000,1.234567891e+32", "400.500000,1.000000000e+00"],
    "exponent-e-14": ["400.000000,1.234567891e-14", "400.500000,1.000000000e+00"],
    "exponent-3-digits": ["400.000000,1.000000000e-100", "400.500000,1.000000000e+00"],
    "capital-e": ["400.000000,1.0E+00", "400.500000,1.000000000E+00"],
    "plus-mantissa": ["400.000000,+1.000000000e+00", "400.500000,1.000000000e+00"],
    "grid-crossing-1000nm": ["999.500000,1.000000000e+00", "1000.000000,2.000000000e+00",
                             "1000.500000,3.000000000e+00"],
    "5-decimals": ["400.00000,1.000000000e+00", "400.50000,2.000000000e+00"],
    "7-decimals": ["400.0000000,1.000000000e+00", "400.5000000,2.000000000e+00"],
    "wavelength-16-digits": ["1234567890.000000,1.000000000e+00",
                             "1234567890.000001,2.000000000e+00"],
    "short-mantissa": ["400.000000,1.00000000e+00", "400.500000,1.000000000e+00"],
}


@pytest.mark.filterwarnings("error")
class TestSpectrumParseEquivalence:
    """Every spectrum text reads as the column loop reads it, without warnings."""

    @pytest.mark.parametrize("text", [
        pytest.param(SPECTRUM_TEXT, id="canonical"),
        pytest.param(SPECTRUM_TEXT.rstrip("\n"), id="no-final-newline"),
        pytest.param(body("400.0,1.0", "", "401.0,2.0"), id="blank-line-middle"),
        pytest.param(SPECTRUM_TEXT + "\n", id="blank-line-end"),
        pytest.param(HEADER + "\n\n", id="blank-lines-only"),
        pytest.param(body("400.0,1.0", "# note", "401.0,2.0"), id="hash-line"),
        pytest.param(body("400.0,1.0#", "401.0,2.0"), id="hash-in-cell"),
        pytest.param(SPECTRUM_TEXT.replace("\n", "\r\n"), id="crlf"),
        pytest.param(SPECTRUM_TEXT.replace("\n", "\r", 2), id="lone-cr"),
        pytest.param(SPECTRUM_TEXT.replace("\n", "\x0c"), id="form-feed-lines"),
        pytest.param(body("400.0,1.0\x0c", "401.0,2.0"), id="form-feed-end-of-row"),
        pytest.param(body("400.0,1_0", "401.0,2.0"), id="underscore"),
        pytest.param(body(" 400.0 , 1.0 ", "\t401.0,2.0\t"), id="spaces"),
        pytest.param(body("+400.0,+1.0", "401.0,-2.0"), id="plus"),
        pytest.param(body("400.0,1.0", "\uff14\uff10\uff11,2.0"), id="full-width-digits"),
        pytest.param(body("400.0,1.0", "401.0,\u30002.0"), id="ideographic-space"),
        pytest.param(body("400.0,nan", "401.0,2.0"), id="nan"),
        pytest.param(body("400.0,1.0", "401.0,-inf"), id="inf"),
        pytest.param(body("400.0,1.0", "Infinity,2.0"), id="infinity"),
        pytest.param(body("400.0,1e999", "401.0,2.0"), id="overflow"),
        pytest.param(body("400.0,1.0", "401.0"), id="one-field"),
        pytest.param(body("400.0", "401.0"), id="one-field-every-row"),
        pytest.param(body("400.0,1.0", "401.0,2.0,3.0"), id="three-fields"),
        pytest.param(body("400.0,1.0,3.0", "401.0,2.0,3.0"), id="three-fields-every-row"),
        pytest.param(body("400.0,1.0,", "401.0,2.0,"), id="trailing-comma"),
        pytest.param(body("400.0,1.0", "401.0,2.0", "402.0,"), id="empty-cell"),
        pytest.param(body('400.0,"1.0"', "401.0,2.0"), id="quoted-cell"),
        pytest.param(body("400.0,1.0", "401.0,2.0\x00"), id="nul"),
        pytest.param(body("400.0,0x1p3", "401.0,2.0"), id="hex-float"),
        pytest.param(HEADER, id="header-only"),
        pytest.param(body("400.0,1.0"), id="one-row"),
        pytest.param("", id="empty-file"),
        pytest.param(SPECTRUM_TEXT.replace("wavelength_nm", "wavelength"), id="wrong-header"),
        pytest.param(body("400.0,1.0", "400.0,2.0"), id="duplicate-wavelength"),
        pytest.param(body("400.0,1.0", "401.0,2.0", "400.5,3.0"), id="decreasing-wavelength"),
        pytest.param(body("401.0,1.0", "400.0,x"), id="garbage-after-decrease"),
        *(pytest.param(body(*rows), id=name) for name, rows in CANONICAL_EDGES.items()),
        *(pytest.param(body(*rows), id=name) for name, rows in NEAR_CANONICAL.items()),
        pytest.param(SPECTRUM_TEXT.replace("e+00\n", "e+00 \n"), id="trailing-space"),
        pytest.param(body("400.000000,1.000000000e,00", "400.500000,1.000000000e+00"),
                     id="comma-for-exponent-sign"),
        pytest.param(body("400.0000000-1.000000000e+00", "400.500000,1.000000000e+00"),
                     id="minus-for-comma"),
    ])
    def test_named_case(self, text, tmp_path):
        assert_reads_like_reference(text, tmp_path / "s.csv")

    @pytest.mark.parametrize("name", sorted(CANONICAL_EDGES))
    def test_canonical_edges_are_decoded(self, name):
        assert _decode_spectra([body(*CANONICAL_EDGES[name]).encode()]) is not None

    @pytest.mark.parametrize("text", [
        *(pytest.param(body(*rows), id=name) for name, rows in NEAR_CANONICAL.items()),
        pytest.param(SPECTRUM_TEXT.replace("\n", "\r\n"), id="crlf"),
        pytest.param(SPECTRUM_TEXT.rstrip("\n"), id="no-final-newline"),
        pytest.param(SPECTRUM_TEXT.replace("e+00\n", "e+00 \n"), id="trailing-space"),
    ])
    def test_other_forms_are_left_to_the_reference(self, text):
        assert _decode_spectra([text.encode()]) is None

    def test_random_tokens_decode_like_float(self):
        """Every in-range ``%.9e`` token, random digits included, decodes to
        the bits ``float()`` gives."""
        rng = np.random.default_rng(8)
        n = 20_000
        digits = rng.integers(0, 10, size=(n, 10))
        exponents = rng.integers(-13, 32, size=n)
        signs = rng.choice(["", "-"], size=n)
        tokens = [
            f"{sign}{d[0]}.{''.join(map(str, d[1:]))}e{e:+03d}"
            for sign, d, e in zip(signs, digits, exponents)
        ]
        grid = [f"{400 + i / 1000:.6f}" for i in range(n)]
        text = HEADER + "".join(f"{w},{t}\n" for w, t in zip(grid, tokens))
        decoded = _decode_spectra([text.encode()])
        assert decoded is not None
        wavelengths, (intensities,) = decoded
        assert wavelengths.tobytes() == np.array([float(w) for w in grid]).tobytes()
        assert intensities.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    def test_seeded_mutations(self, tmp_path):
        rng = np.random.default_rng(20261018)
        alphabet = list("0123456789.,-+eE _#\"nafiINF\t\n\r\x0b\x0c\x00\x85\u2028\u3000\uff10")
        lines = SPECTRUM_TEXT.splitlines(keepends=True)
        accepted = 0
        for case in range(240):
            text = list("".join(lines))
            for _ in range(int(rng.integers(1, 4))):
                op = int(rng.integers(5))
                pos = int(rng.integers(len(text) + 1))
                if op == 0:  # insert a character
                    text.insert(pos, alphabet[rng.integers(len(alphabet))])
                elif op == 1 and pos < len(text):  # delete a character
                    del text[pos]
                elif op == 2 and pos < len(text):  # replace a character
                    text[pos] = alphabet[rng.integers(len(alphabet))]
                elif op == 3:  # repeat a data line
                    text[pos:pos] = lines[int(rng.integers(1, len(lines)))]
                elif op == 4:  # drop a line
                    kept = "".join(text).splitlines(keepends=True)
                    if kept:
                        del kept[int(rng.integers(len(kept)))]
                    text = list("".join(kept))
            accepted += assert_reads_like_reference("".join(text), tmp_path / f"m{case}.csv")
        # Both outcomes must be well represented for the corpus to mean much.
        assert 20 <= accepted <= 220

    def test_byte_mutations_of_a_written_file(self, tmp_path):
        """Flip a bit of, insert or delete one byte of a written 801-line
        file: the decoder takes what it can, the reference the rest."""
        rng = np.random.default_rng(801)
        grid = np.linspace(400.0, 800.0, 801)
        intensities = rng.standard_normal(801) * 10.0 ** rng.integers(-8, 25, size=801)
        write_spectrum(Spectrum(grid, intensities), tmp_path / "written.csv")
        written = (tmp_path / "written.csv").read_bytes()
        alphabet = b"0123456789.,-+eE \t\n\r"
        accepted = decoded = 0
        for case in range(360):
            data = bytearray(written)
            op, pos = case % 3, int(rng.integers(len(data)))
            if op == 0:  # flip one of the low 7 bits, so the file stays ASCII
                data[pos] ^= 1 << int(rng.integers(7))
            elif op == 1:
                data.insert(pos, alphabet[rng.integers(len(alphabet))])
            else:
                del data[pos]
            decoded += _decode_spectra([bytes(data)]) is not None
            accepted += assert_reads_like_reference(data.decode("ascii"), tmp_path / f"b{case}.csv")
        # Both outcomes, and both readers, must be well represented.
        assert 20 <= decoded <= accepted <= 300


def reference_read_run(run_dir):
    """The spectra of a run read file by file through the column loop:
    ``(grid, intensities)`` with one row per file in trial, step order."""
    plan, _ = read_run_header(run_dir)
    grid, rows = None, []
    for trial in range(plan.trials):
        for step in range(plan.n_steps):
            name = spectrum_filename(trial, step)
            try:
                text = dataio._read_text(run_dir / name, "spectrum file")
                wavelengths, intensities = reference_read_spectrum(text)
            except LumispecError as exc:
                raise type(exc)(f"{name}: {exc}", line=exc.line) from exc
            if grid is None:
                grid = wavelengths
            elif not np.array_equal(wavelengths, grid):
                raise LayoutError(f"{name}: wavelength grid differs from t0_s00.csv")
            rows.append(intensities)
    return grid, np.array(rows)


def assert_run_reads_like_reference(run_dir):
    """read_run accepts exactly the runs the per-file reference accepts,
    with the same float64 bits, and fails with the same type, message and
    line."""
    try:
        grid, intensities = reference_read_run(run_dir)
    except LumispecError as expected:
        with pytest.raises(LumispecError) as info:
            read_run(run_dir)
        got = info.value
        assert (type(got), str(got), got.line) == (type(expected), str(expected), expected.line)
        return expected
    records = read_run(run_dir)
    for record in records:
        assert record.spectra.wavelengths_nm.tobytes() == grid.tobytes()
    got = np.concatenate([record.spectra.intensities for record in records])
    assert got.tobytes() == intensities.tobytes()
    return None


def simulate_run(run_dir, *argv):
    assert main(["simulate", "--seed", "7", *argv, "--out", str(run_dir)]) == 0
    return run_dir


WIDE_PLAN_ARGV = ["--geometry", "flat", "--n-steps", "61", "--step-deg", "0.6"]


# The files of the last chunk that read_run decodes in a 3x21 run.
FLAT_NAMES = [spectrum_filename(t, s) for t in range(3) for s in range(21)]
LAST_CHUNK = FLAT_NAMES[(len(FLAT_NAMES) - 1) // dataio._CHUNK_FILES * dataio._CHUNK_FILES:]


def rewrite_rows(path, fn):
    """Rewrite the data rows of a spectrum file, keeping its header."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([header, *fn(rows)]) + "\n", encoding="utf-8")


def one_decimal(path):
    cells = [row.split(",") for row in path.read_text(encoding="utf-8").splitlines()[1:]]
    rewrite_rows(path, lambda _: [f"{float(w):.1f},{float(y):.4f}" for w, y in cells])


def bad_cell_on_line_40(path):
    rewrite_rows(path, lambda rows: [*rows[:38], rows[38].split(",")[0] + ",1.0x0e+00",
                                     *rows[39:]])


def off_grid(path):
    s = read_spectrum(path)
    write_spectrum(Spectrum(s.wavelengths_nm + 0.25, s.intensities), path)


def not_utf8(path):
    data = path.read_bytes()
    path.write_bytes(data[:500] + b"\xff" + data[500:])


@pytest.mark.filterwarnings("error")
class TestReadRunEquivalence:
    """read_run, which decodes files in chunks, reads every run as the
    per-file column loop reads it."""

    @pytest.mark.parametrize("argv", [
        pytest.param(GOLDEN["flat7"]["argv"], id="flat7"),
        pytest.param(GOLDEN["convex7"]["argv"], id="convex7"),
        pytest.param(WIDE_PLAN_ARGV, id="flat7-3x61"),
    ])
    def test_written_runs(self, argv, tmp_path):
        assert assert_run_reads_like_reference(simulate_run(tmp_path / "run", *argv)) is None

    def test_valid_file_in_another_form_is_accepted(self, tmp_path):
        run = simulate_run(tmp_path / "run", "--geometry", "flat")
        one_decimal(run / "t1_s05.csv")
        assert _decode_spectra([(run / "t1_s05.csv").read_bytes()]) is None
        assert assert_run_reads_like_reference(run) is None

    @pytest.mark.parametrize("edits, error, message", [
        pytest.param({"t2_s13.csv": bad_cell_on_line_40}, SpectrumParseError,
                     "t2_s13.csv: line 40: could not convert string to float: '1.0x0e+00'",
                     id="bad-cell"),
        pytest.param({"t1_s07.csv": off_grid}, LayoutError,
                     "t1_s07.csv: wavelength grid differs from t0_s00.csv", id="off-grid"),
        pytest.param({"t0_s17.csv": not_utf8}, DataIoError,
                     "t0_s17.csv: cannot read spectrum file ", id="not-utf8"),
        pytest.param(dict.fromkeys(LAST_CHUNK, off_grid), LayoutError,
                     f"{LAST_CHUNK[0]}: wavelength grid differs from t0_s00.csv",
                     id="off-grid-chunk"),
        pytest.param({"t2_s13.csv": bad_cell_on_line_40, "t1_s07.csv": off_grid},
                     LayoutError, "t1_s07.csv: wavelength grid differs", id="first-error-wins"),
    ])
    def test_bad_runs(self, edits, error, message, tmp_path):
        run = simulate_run(tmp_path / "run", "--geometry", "flat")
        for name, edit in edits.items():
            edit(run / name)
        expected = assert_run_reads_like_reference(run)
        assert type(expected) is error and str(expected).startswith(message)

    def test_lines_are_counted_per_file(self):
        """Two files whose lines, run together, repeat one grid are still two
        files: the first goes back to 400.0, the second has one sample."""
        first = body("400.000000,1.000000000e+00", "400.500000,2.000000000e+00",
                     "400.000000,3.000000000e+00")
        second = body("400.500000,4.000000000e+00")
        assert _decode_spectra([first.encode(), second.encode()]) is None

    def test_memory_peak_of_a_wide_run(self, tmp_path):
        """The chunks stream: a 3x61 run (1.2 MB of float64 intensities,
        held twice while records are built) peaks under 4 MB."""
        run = simulate_run(tmp_path / "run", *WIDE_PLAN_ARGV)
        tracemalloc.start()
        try:
            read_run(run)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestFuzz:
    def test_random_corruption_never_escapes_error_hierarchy(
        self, small_records, tmp_path
    ):
        pristine = tmp_path / "pristine"
        write_run(small_records, pristine)
        file_names = sorted(p.name for p in pristine.iterdir())
        rng = np.random.default_rng(1234)
        printable = np.frombuffer(
            bytes(range(32, 127)) + b"\n", dtype=np.uint8
        )

        for case in range(120):
            work = tmp_path / f"case{case}"
            shutil.copytree(pristine, work)
            target = work / file_names[rng.integers(len(file_names))]
            mutation = rng.integers(6)
            data = target.read_bytes()
            if mutation == 0 and len(data) > 0:  # truncate
                target.write_bytes(data[: rng.integers(len(data))])
            elif mutation == 1:  # delete
                target.unlink()
            elif mutation == 2:  # overwrite one byte
                if len(data) > 0:
                    pos = int(rng.integers(len(data)))
                    byte = bytes([int(rng.integers(256))])
                    target.write_bytes(data[:pos] + byte + data[pos + 1:])
            elif mutation == 3:  # insert a random printable line
                lines = data.split(b"\n")
                junk = bytes(rng.choice(printable, size=rng.integers(1, 40)))
                pos = int(rng.integers(len(lines)))
                lines.insert(pos, junk.replace(b"\n", b" "))
                target.write_bytes(b"\n".join(lines))
            elif mutation == 4:  # swap two fields on a random line
                lines = data.split(b"\n")
                pos = int(rng.integers(len(lines)))
                fields = lines[pos].split(b",")
                if len(fields) >= 2:
                    fields[0], fields[-1] = fields[-1], fields[0]
                    lines[pos] = b",".join(fields)
                target.write_bytes(b"\n".join(lines))
            else:  # replace with binary noise
                target.write_bytes(bytes(rng.integers(0, 256, size=64, dtype=np.uint8)))

            try:
                read_run(work)
            except LumispecError:
                pass  # typed failure is the contract
            # A benign mutation (e.g. digit swapped for digit) may still
            # parse; success is acceptable, foreign exceptions are not.
