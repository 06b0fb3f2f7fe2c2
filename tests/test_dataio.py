"""Unit tests for spectrum files and run directories.

Round-trip fidelity, typed parse failures with file/line context, and a
seeded fuzz loop asserting corrupt inputs never escape the package's own
error hierarchy.
"""

import shutil
from dataclasses import replace

import numpy as np
import pytest

from lumispec.dataio import (
    MANIFEST_FILE,
    META_FILE,
    PROFILE_FILE,
    PROFILE_HEADER,
    read_profile,
    read_run,
    read_run_header,
    read_spectrum,
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
from lumispec.spectral import Spectrum, run_pipeline


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
