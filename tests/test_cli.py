"""End-to-end tests for the command line, run in process via main()."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from lumispec.cli import SEED_ENV_VAR, build_parser, main
from lumispec.dataio import read_profile, write_profile


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def count_tags(svg_path, tag):
    root = ET.fromstring(svg_path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    return sum(1 for _ in root.iter(f"{ns}{tag}"))


def simulate_flat(capsys, out, *extra):
    return run_cli(
        capsys, "simulate", "--geometry", "flat", "--out", str(out), *extra
    )


class TestSimulate:
    def test_writes_full_run(self, capsys, tmp_path):
        out = tmp_path / "run"
        rc, stdout, _ = simulate_flat(capsys, out, "--seed", "7")
        assert rc == 0
        assert "wrote" in stdout
        spectra = sorted(p.name for p in out.glob("t*_s*.csv"))
        assert len(spectra) == 63
        assert (out / "meta.txt").is_file()
        assert (out / "manifest.csv").is_file()

    def test_convex_requires_radius(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "simulate", "--geometry", "convex",
            "--out", str(tmp_path / "run"),
        )
        assert rc == 2
        assert "sphere-radius" in err

    def test_flat_rejects_radius(self, capsys, tmp_path):
        rc, _, _ = simulate_flat(
            capsys, tmp_path / "run", "--sphere-radius-mm", "25.0"
        )
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ("--geometry", "convex"),
        ("--geometry", "flat", "--sphere-radius-mm", "25.0"),
    ], ids=["convex-without-radius", "flat-with-radius"])
    def test_radius_errors_print_simulate_usage(self, capsys, tmp_path, flags):
        rc, _, err = run_cli(capsys, "simulate", *flags, "--out", str(tmp_path / "run"))
        assert rc == 2
        assert err.startswith("usage: lumispec simulate ")
        assert "--sphere-radius-mm" in err.splitlines()[-1]
        assert not (tmp_path / "run").exists()

    def test_unknown_flag(self, capsys, tmp_path):
        rc, _, _ = simulate_flat(capsys, tmp_path / "run", "--turbo")
        assert rc == 2

    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_bad_seed_value(self, capsys, tmp_path):
        rc, _, _ = simulate_flat(capsys, tmp_path / "run", "--seed", "-3")
        assert rc == 2

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert simulate_flat(capsys, a, "--seed", "7")[0] == 0
        assert simulate_flat(capsys, b, "--seed", "7")[0] == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_different_seed_differs(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        simulate_flat(capsys, a, "--seed", "7")
        simulate_flat(capsys, b, "--seed", "8")
        assert dir_bytes(a) != dir_bytes(b)

    def test_refuses_non_empty_dir(self, capsys, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "keep.txt").write_text("precious\n")
        rc, _, err = simulate_flat(capsys, out, "--seed", "7")
        assert rc == 1
        assert "not empty" in err
        assert (out / "keep.txt").read_text() == "precious\n"

    def test_force_overwrites(self, capsys, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "keep.txt").write_text("precious\n")
        rc, _, _ = simulate_flat(capsys, out, "--seed", "7", "--force")
        assert rc == 0
        assert len(list(out.glob("t*_s*.csv"))) == 63
        assert (out / "keep.txt").read_text() == "precious\n"

    def test_force_leaves_no_stale_run_files(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        run_cli(capsys, "analyze", "--run", str(out))
        rc, _, _ = run_cli(
            capsys, "simulate", "--force", "--geometry", "convex",
            "--sphere-radius-mm", "25", "--trials", "2", "--seed", "7",
            "--out", str(out),
        )
        assert rc == 0
        # 2 trials x 21 spectra, meta.txt and manifest.csv; no old profile.
        assert len(list(out.iterdir())) == 44
        rc, _, err = run_cli(
            capsys, "report", "--profile", str(out / "profile.csv")
        )
        assert rc == 1
        assert "error:" in err

    def test_out_path_is_file(self, capsys, tmp_path):
        out = tmp_path / "file"
        out.write_text("x")
        rc, _, err = simulate_flat(capsys, out)
        assert rc == 1
        assert "not a directory" in err

    def test_env_seed_fallback(self, capsys, tmp_path, monkeypatch):
        explicit = tmp_path / "explicit"
        simulate_flat(capsys, explicit, "--seed", "42")
        monkeypatch.setenv(SEED_ENV_VAR, "42")
        from_env = tmp_path / "env"
        assert simulate_flat(capsys, from_env)[0] == 0
        assert dir_bytes(explicit) == dir_bytes(from_env)

    def test_env_seed_invalid(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "lots")
        rc, _, _ = simulate_flat(capsys, tmp_path / "run")
        assert rc == 2

    def test_env_seed_negative(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "-3")
        rc, _, err = simulate_flat(capsys, tmp_path / "run")
        assert rc == 2
        assert f"${SEED_ENV_VAR} must be >= 0, got -3" in err
        assert not (tmp_path / "run").exists()

    def test_explicit_seed_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        assert b"seed=7" in (out / "meta.txt").read_bytes()

    def test_seed_at_or_above_2_64_refused(self, capsys, tmp_path):
        # Rng keeps a seed's low 64 bits, so this one would write seed 7's spectra.
        out = tmp_path / "run"
        rc, _, err = simulate_flat(capsys, out, "--seed", str(2**64 + 7),
                                   "--trials", "1", "--n-steps", "2")
        assert rc == 1
        assert err == f"error: seed must be below 2**64, got {2**64 + 7}\n"
        assert not out.exists()

    def test_custom_plan_flags(self, capsys, tmp_path):
        out = tmp_path / "run"
        rc, _, _ = simulate_flat(
            capsys, out,
            "--trials", "2", "--start-deg", "-9.0",
            "--step-deg", "0.9", "--n-steps", "5",
        )
        assert rc == 0
        assert len(list(out.glob("t*_s*.csv"))) == 10


class TestAnalyze:
    def test_kappa_zero_noiseless_profile_is_flat_one(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(
            capsys, out, "--seed", "0", "--kappa", "0", "--noise-sigma", "0"
        )
        rc, stdout, _ = run_cli(capsys, "analyze", "--run", str(out))
        assert rc == 0
        assert "profile.csv" in stdout
        angles, mean, std, n_trials = read_profile(out / "profile.csv")
        assert n_trials == 3
        assert angles.size == 21
        np.testing.assert_allclose(mean, 1.0, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(std, 0.0, rtol=0.0, atol=1e-9)

    def test_pooled_equals_per_trial_when_noiseless(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(
            capsys, out, "--seed", "0", "--kappa", "0", "--noise-sigma", "0"
        )
        run_cli(capsys, "analyze", "--run", str(out))
        per_trial = (out / "profile.csv").read_bytes()
        run_cli(capsys, "analyze", "--run", str(out), "--pooling", "pooled")
        assert (out / "profile.csv").read_bytes() == per_trial

    def test_calibrated_flat_profile(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        rc, _, _ = run_cli(capsys, "analyze", "--run", str(out))
        assert rc == 0
        angles, mean, std, _ = read_profile(out / "profile.csv")
        assert angles.size == 21
        assert mean.max() == 1.0
        assert np.all(mean > 0.9)  # calibrated flat sweep stays near unity
        assert angles[0] == -18.0 and angles[-1] == 18.0

    def test_missing_run_dir(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "analyze", "--run", str(tmp_path / "no"))
        assert rc == 1
        assert "error:" in err

    def test_corrupt_spectrum_names_file(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        victim = out / "t1_s07.csv"
        victim.write_text(victim.read_text() + "not,a,row\n")
        rc, _, err = run_cli(capsys, "analyze", "--run", str(out))
        assert rc == 1
        assert "t1_s07.csv: line 803: expected 2 comma-separated fields, got 3" in err
        victim = out / "t0_s01.csv"
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:5] + ["garbage row\n"] + lines[5:]))
        rc, _, err = run_cli(capsys, "analyze", "--run", str(out))
        assert rc == 1
        assert "t0_s01.csv: line 6:" in err

    def test_non_positive_spectrum_names_trial_and_angle(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        victim = out / "t1_s05.csv"
        lines = victim.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        victim.write_text("\n".join(
            [lines[0]] + [w + "," + ("-1.0" if float(w) > 450.0 else i) for w, i in rows]
        ) + "\n")
        rc, _, err = run_cli(capsys, "analyze", "--run", str(out))
        assert rc == 1
        assert err.startswith("error: trial 1, angle -9.0 deg: max intensity above 450 nm")

    @pytest.mark.parametrize("pooling", ["per-trial", "pooled"])
    def test_non_positive_auc_names_trial_and_angle(self, capsys, tmp_path, pooling):
        # Near the top of the grid the signal is noise about zero, so the
        # first trial's first step already integrates to a negative AUC.
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        rc, _, err = run_cli(
            capsys, "analyze", "--run", str(out),
            "--auc-lo", "790", "--auc-hi", "800", "--pooling", pooling,
        )
        assert rc == 1
        assert err.startswith("error: trial 0, angle -18.0 deg: raw AUC -")
        assert "is not positive and finite" in err
        assert not (out / "profile.csv").exists()

    def test_custom_band(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        rc, _, _ = run_cli(
            capsys, "analyze", "--run", str(out),
            "--auc-lo", "450", "--auc-hi", "600",
        )
        assert rc == 0
        angles, mean, _, _ = read_profile(out / "profile.csv")
        assert mean.max() == 1.0


class TestReport:
    def write_profile_rows(self, path, angles, mean):
        write_profile(path, np.asarray(angles), np.asarray(mean),
                      np.zeros(len(angles)), 3)

    def test_all_ones(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        angles = [-18.0 + 1.8 * i for i in range(21)]
        self.write_profile_rows(path, angles, [1.0] * 21)
        rc, stdout, _ = run_cli(capsys, "report", "--profile", str(path))
        assert rc == 0
        assert stdout == "mean=1.00 std=0.00 span95=±18.0deg\n"

    def test_center_only_span_zero(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        self.write_profile_rows(path, [-1.8, 0.0, 1.8], [0.9, 1.0, 0.9])
        rc, stdout, _ = run_cli(capsys, "report", "--profile", str(path))
        assert rc == 0
        assert "span95=±0.0deg" in stdout

    def test_full_chain_flat_seed7(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        run_cli(capsys, "analyze", "--run", str(out))
        rc, stdout, _ = run_cli(
            capsys, "report", "--profile", str(out / "profile.csv")
        )
        assert rc == 0
        assert stdout == "mean=0.98 std=0.01 span95=±18.0deg\n"

    def test_unordered_profile_angles_named(self, capsys, tmp_path):
        path = tmp_path / "profile.csv"
        self.write_profile_rows(path, [-1.8, 0.0, 1.8], [0.9, 1.0, 0.9])
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2], lines[1], lines[3]]) + "\n")
        rc, _, err = run_cli(capsys, "report", "--profile", str(path))
        assert rc == 1
        assert "profile line 3: angle -1.8 does not increase past 0.0" in err
        rc, _, err = run_cli(
            capsys, "export-svg", "--profile", str(path), "--which", "profile",
            "--out", str(tmp_path / "p.svg"),
        )
        assert rc == 1
        assert "profile line 3:" in err

    def test_missing_profile(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "report", "--profile", str(tmp_path / "no.csv")
        )
        assert rc == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "data, locus",
        [
            (b"\xff\xfe" + b"\x00" * 16, "{path}"),
            (b"angle_deg,auc_norm_mean,auc_norm_std,n_trials\n"
             b"0.000000,1.0,0.0,3\n1.800000,nan,0.0,3\n", "profile line 3:"),
        ],
        ids=["not-utf8", "nan-cell"],
    )
    def test_corrupt_profile_named(self, capsys, tmp_path, data, locus):
        path = tmp_path / "profile.csv"
        path.write_bytes(data)
        rc, _, err = run_cli(capsys, "report", "--profile", str(path))
        assert rc == 1
        assert locus.format(path=path) in err


class TestExportSvg:
    @pytest.fixture()
    def flat_run(self, capsys, tmp_path):
        out = tmp_path / "run"
        simulate_flat(capsys, out, "--seed", "7")
        run_cli(capsys, "analyze", "--run", str(out))
        capsys.readouterr()
        return out

    def test_spectra_has_21_polylines(self, capsys, tmp_path, flat_run):
        svg = tmp_path / "spectra.svg"
        rc, _, _ = run_cli(
            capsys, "export-svg", "--run", str(flat_run),
            "--which", "spectra", "--out", str(svg),
        )
        assert rc == 0
        assert count_tags(svg, "polyline") == 21

    def test_smoothed_spectra_has_21_polylines(self, capsys, tmp_path, flat_run):
        svg = tmp_path / "smoothed.svg"
        rc, _, _ = run_cli(
            capsys, "export-svg", "--run", str(flat_run),
            "--which", "spectra-smoothed", "--out", str(svg),
        )
        assert rc == 0
        assert count_tags(svg, "polyline") == 21

    def test_profile_chart(self, capsys, tmp_path, flat_run):
        svg = tmp_path / "profile.svg"
        rc, _, _ = run_cli(
            capsys, "export-svg", "--profile", str(flat_run / "profile.csv"),
            "--which", "profile", "--out", str(svg),
        )
        assert rc == 0
        assert count_tags(svg, "polyline") == 1
        assert count_tags(svg, "circle") == 21
        assert "stroke-dasharray" in svg.read_text()

    def test_run_off_one_grid_refused(self, capsys, tmp_path, flat_run):
        victim = flat_run / "t2_s13.csv"
        lines = victim.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        victim.write_text("\n".join(
            [lines[0]] + ["%.6f,%s" % (float(w) + 0.25, i) for w, i in rows]
        ) + "\n")
        rc, _, err = run_cli(capsys, "analyze", "--run", str(flat_run))
        assert rc == 1
        assert "t2_s13.csv: wavelength grid" in err
        for which in ("spectra", "spectra-smoothed"):
            rc, _, err = run_cli(
                capsys, "export-svg", "--run", str(flat_run),
                "--which", which, "--out", str(tmp_path / "x.svg"),
            )
            assert rc == 1
            assert "t2_s13.csv: wavelength grid" in err

    def test_spectra_without_run(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "export-svg", "--which", "spectra",
            "--out", str(tmp_path / "x.svg"),
        )
        assert rc == 2
        assert "--run" in err

    def test_profile_without_profile(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "export-svg", "--which", "profile",
            "--out", str(tmp_path / "x.svg"),
        )
        assert rc == 2
        assert "--profile" in err

    @pytest.mark.parametrize("which, needs", [
        ("spectra", "--which spectra requires --run"),
        ("spectra-smoothed", "--which spectra-smoothed requires --run"),
        ("profile", "--which profile requires --profile"),
    ], ids=["spectra", "spectra-smoothed", "profile"])
    def test_paired_flag_errors_print_export_svg_usage(self, capsys, tmp_path, which, needs):
        rc, _, err = run_cli(
            capsys, "export-svg", "--which", which, "--out", str(tmp_path / "x.svg"),
        )
        assert rc == 2
        assert err.startswith("usage: lumispec export-svg ")
        assert err.splitlines()[-1] == f"lumispec export-svg: error: {needs}"
        assert not (tmp_path / "x.svg").exists()

    def test_out_in_missing_directory(self, capsys, tmp_path, flat_run):
        svg = tmp_path / "no-such-dir" / "x.svg"
        rc, _, err = run_cli(
            capsys, "export-svg", "--profile", str(flat_run / "profile.csv"),
            "--which", "profile", "--out", str(svg),
        )
        assert rc == 1
        assert f"error: cannot write SVG {svg}:" in err
        assert not svg.parent.exists()

    def test_missing_out_flag(self, capsys, flat_run):
        rc, _, _ = run_cli(
            capsys, "export-svg", "--run", str(flat_run), "--which", "spectra"
        )
        assert rc == 2

    def test_bad_which_value(self, capsys, tmp_path, flat_run):
        rc, _, _ = run_cli(
            capsys, "export-svg", "--run", str(flat_run),
            "--which", "histogram", "--out", str(tmp_path / "x.svg"),
        )
        assert rc == 2


BOUNDARY_VALUES = ("x", "nan", "inf", "-inf", "-1", "0", "1.5")

# Exit code per BOUNDARY_VALUES entry: 2 = rejected while parsing flags,
# 1 = parsed but a domain error (the beam misses the sphere, the AUC band
# is empty), 0 = ran.
BOUNDARY_EXIT_CODES = {
    "--sphere-radius-mm": (2, 2, 2, 2, 2, 2, 1),
    "--trials": (2, 2, 2, 2, 2, 2, 2),
    "--seed": (2, 2, 2, 2, 2, 0, 2),
    "--noise-sigma": (2, 2, 2, 2, 2, 0, 0),
    "--kappa": (2, 2, 2, 2, 2, 0, 0),
    "--start-deg": (2, 2, 2, 2, 0, 0, 0),
    "--step-deg": (2, 2, 2, 2, 2, 2, 0),
    "--n-steps": (2, 2, 2, 2, 2, 2, 2),
    "--cutoff-nm": (2, 2, 2, 2, 0, 0, 0),
    "--auc-lo": (2, 2, 2, 2, 0, 0, 0),
    "--auc-hi": (2, 2, 2, 2, 1, 1, 1),
}
ANALYZE_FLAGS = ("--cutoff-nm", "--auc-lo", "--auc-hi")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny") / "run"
    argv = ["simulate", "--geometry", "flat", "--seed", "0",
            "--trials", "1", "--n-steps", "3", "--out", str(out)]
    assert main(argv) == 0
    return out


@pytest.mark.parametrize(
    "flag, value, code",
    [
        (flag, value, code)
        for flag, codes in BOUNDARY_EXIT_CODES.items()
        for value, code in zip(BOUNDARY_VALUES, codes)
    ],
    ids=lambda v: str(v),
)
def test_numeric_flag_boundaries(capsys, tmp_path, tiny_run, flag, value, code):
    if flag in ANALYZE_FLAGS:
        argv = ["analyze", "--run", str(tiny_run)]
    else:
        argv = ["simulate", "--geometry", "convex", "--sphere-radius-mm", "25",
                "--trials", "1", "--n-steps", "3", "--out", str(tmp_path / "run")]
    rc, _, err = run_cli(capsys, *argv, f"{flag}={value}")
    assert rc == code
    if code == 2:
        assert f"argument {flag}: " in err


class TestOneParserPerProcess:
    """main() parses with one parser per process; no call leaks into the next."""

    def test_usage_error_after_a_successful_command(self, capsys, tmp_path):
        out = tmp_path / "run"
        assert simulate_flat(capsys, out, "--trials", "1", "--n-steps", "2")[0] == 0
        rc, _, err = run_cli(capsys, "export-svg", "--which", "spectra",
                             "--out", str(tmp_path / "x.svg"))
        assert rc == 2
        assert err.startswith("usage: lumispec export-svg ")
        assert err.splitlines()[-1] == "lumispec export-svg: error: --which spectra requires --run"

    def test_env_seed_read_on_each_call(self, capsys, tmp_path, monkeypatch):
        for seed in ("5", "6"):
            monkeypatch.setenv(SEED_ENV_VAR, seed)
            assert simulate_flat(capsys, tmp_path / seed, "--trials", "1", "--n-steps", "2")[0] == 0
        for seed in ("5", "6"):
            assert f"\nseed={seed}\n" in (tmp_path / seed / "meta.txt").read_text()

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
