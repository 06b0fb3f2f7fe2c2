"""Package-level checks: public API surface and the frozen calibration."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lumispec
from lumispec import calibration
from lumispec.calibration import (
    calibrate_kappa,
    crossing_target_aoi_rad,
    falloff_ratio,
    noiseless_auc,
)
from lumispec.optics import DEFAULT_KAPPA, OpticalConfig


class TestPublicApi:
    def test_version(self):
        assert lumispec.__version__ == "0.1.0"

    def test_all_sorted_and_resolvable(self):
        assert list(lumispec.__all__) == sorted(lumispec.__all__)
        for name in lumispec.__all__:
            assert getattr(lumispec, name) is not None

    def test_calibration_names_load_lazily(self):
        from lumispec import calibrate_kappa as imported

        assert imported is calibrate_kappa
        assert lumispec.falloff_ratio is calibration.falloff_ratio
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            lumispec.no_such_name

    def test_key_names_exported(self):
        for name in (
            "Spectrum", "run_pipeline", "auc_profile", "profile_stats",
            "OpticalConfig", "synthesize_spectrum", "DEFAULT_KAPPA",
            "SweepPlan", "run_sweep", "run_triplicate", "SimulatedPort",
            "solve_incidence", "write_run", "read_run",
            "render_line_chart", "LumispecError",
        ):
            assert name in lumispec.__all__


class TestCalibration:
    def test_frozen_kappa_matches_procedure(self):
        # DEFAULT_KAPPA is the frozen output of this exact call.
        assert calibrate_kappa() == DEFAULT_KAPPA

    def test_crossing_target(self):
        target = crossing_target_aoi_rad()
        assert math.degrees(target) == pytest.approx(26.3230, abs=5e-4)

    def test_falloff_hits_threshold_at_target(self):
        ratio = falloff_ratio(OpticalConfig(), crossing_target_aoi_rad())
        assert abs(ratio - 0.95) < 1e-9

    def test_falloff_monotone_in_angle(self):
        cfg = OpticalConfig()
        angles = [math.radians(d) for d in (0.0, 10.0, 20.0, 30.0, 40.0)]
        ratios = [falloff_ratio(cfg, a) for a in angles]
        assert ratios[0] == 1.0
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_flat_edge_stays_above_threshold(self):
        # At the flat sweep's extreme angle the falloff must clear 0.95,
        # otherwise the flat span could not cover the full grid.
        ratio = falloff_ratio(OpticalConfig(), math.radians(18.0))
        assert ratio > 0.95

    def test_noiseless_auc_positive(self):
        assert noiseless_auc(OpticalConfig(), 0.0) > 0.0

    def test_unbracketable_threshold_rejected(self):
        with pytest.raises(ValueError):
            calibrate_kappa(kappa_hi=1e-6, threshold=0.5)


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with this checkout's package on its path."""
    env = dict(os.environ)
    src = str(Path(lumispec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_calibration_runs_once_as_a_module():
    """``python -m lumispec.calibration`` prints the kappa, with no warning
    that the package imported the module before it ran as __main__."""
    done = run_fresh("-W", "error", "-m", "lumispec.calibration")
    assert (done.returncode, done.stderr) == (0, "")
    assert f"calibrated kappa:    {DEFAULT_KAPPA!r}" in done.stdout.splitlines()


def test_cli_import_loads_no_xml_or_network_modules():
    """Every CLI command is a fresh interpreter, so ``import lumispec.cli``
    must not drag in the XML and network stack (``xml.sax.saxutils`` alone
    loads ``urllib.request``, ``http.client`` and ``ssl``)."""
    done = run_fresh("-c", "import sys, lumispec.cli; print(sorted(m for m in "
                     "('xml.sax', 'urllib.request', 'http.client', 'ssl') "
                     "if m in sys.modules))")
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
