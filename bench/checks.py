"""Output checks for the benchmark, kept apart from the timed code.

The reference arithmetic here is written from first principles with plain
Python floats and text parsing. It shares no code with ``lumispec``, so an
agreement between the two means something. ``golden.json`` pins the bytes
of two seed-7 default runs; run this file as a script to write it again
(only when a change of the run format is intended).
"""

from __future__ import annotations

import hashlib
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

# The two README runs, pinned by the sha256 of every file and the report line.
GOLDEN_RUNS = {
    "flat7": ["--geometry", "flat", "--seed", "7"],
    "convex7": ["--geometry", "convex", "--sphere-radius-mm", "25", "--seed", "7"],
}

# Analysis settings of `lumispec analyze` and `report` at their defaults.
CUTOFF_NM = 450.0
AUC_LO_NM = 450.0
AUC_HI_NM = 750.0
SPAN_THRESHOLD = 0.95

REPORT_RE = re.compile(
    r"mean=(?P<mean>\d+\.\d\d) std=(?P<std>\d+\.\d\d) span95=±(?P<span>\d+\.\d)deg\n\Z"
)

# profile.csv stores means and stds with 9 decimals.
PROFILE_ABS_TOL = 2e-9
AUC_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An output differs from its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- reference arithmetic ---------------------------------------------------

def reference_auc(wavelengths, intensities) -> float:
    """Normalize above the cutoff, pair-average smooth, trapezoid the band."""
    w = [float(v) for v in wavelengths]
    x = [float(v) for v in intensities]
    peak = max(v for lam, v in zip(w, x) if lam > CUTOFF_NM)
    x = [v / peak for v in x]
    y = [(a + b) / 2.0 for a, b in zip(x[:-1], x[1:])] + [x[-1]]
    idx = [i for i, lam in enumerate(w) if AUC_LO_NM <= lam <= AUC_HI_NM]
    return sum(
        0.5 * (y[a] + y[b]) * (w[b] - w[a]) for a, b in zip(idx[:-1], idx[1:])
    )


def reference_norm(values) -> list[float]:
    peak = max(values)
    return [v / peak for v in values]


def reference_trial_mean(trial_aucs) -> tuple[list[float], list[float]]:
    """Per-trial max normalization, then trial mean and population std,
    both rescaled so the mean peaks at 1 (the `analyze` per-trial rule)."""
    rows = [reference_norm(row) for row in trial_aucs]
    n = len(rows)
    cols = list(zip(*rows))
    mean = [sum(c) / n for c in cols]
    std = [(sum((v - m) ** 2 for v in c) / n) ** 0.5 for c, m in zip(cols, mean)]
    scale = max(mean)
    return [m / scale for m in mean], [s / scale for s in std]


def reference_stats(angles, norm) -> tuple[float, float, float]:
    """Mean, population std, and the contiguous span about 0 at >= 0.95."""
    n = len(norm)
    mean = sum(norm) / n
    std = (sum((v - mean) ** 2 for v in norm) / n) ** 0.5
    span = 0.0
    for a in sorted({abs(x) for x in angles}):
        if any(v < SPAN_THRESHOLD for x, v in zip(angles, norm) if abs(x) <= a):
            break
        span = a
    return mean, std, span


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- checks on the in-memory seed study --------------------------------------

def check_seed_study(records, aucs, trial_norms, stats, angles) -> None:
    """Check one seed-study operation against the reference arithmetic.

    ``aucs[t][s]`` are the package's pipeline AUCs, ``trial_norms[t]`` its
    per-trial normalized profiles and ``stats`` the profile_stats of the
    trial mean.
    """
    ref_aucs = []
    for t, record in enumerate(records):
        row = []
        for s, (_angle, spectrum) in enumerate(record.entries):
            ref = reference_auc(spectrum.wavelengths_nm, spectrum.intensities)
            _require(
                _close(aucs[t][s], ref, AUC_REL_TOL),
                f"trial {t} step {s}: AUC {aucs[t][s]!r} vs reference {ref!r}",
            )
            row.append(ref)
        ref_aucs.append(row)
        for s, (got, want) in enumerate(zip(trial_norms[t], reference_norm(row))):
            _require(
                _close(float(got), want, AUC_REL_TOL),
                f"trial {t} step {s}: normalized AUC {got!r} vs reference {want!r}",
            )
    mean, _std = reference_trial_mean(ref_aucs)
    ref_mean, ref_std, ref_span = reference_stats(angles, mean)
    _require(
        _close(stats.mean_auc, ref_mean, AUC_REL_TOL)
        and abs(stats.std_auc - ref_std) <= 1e-9
        and stats.span95_deg == ref_span,
        f"stats {stats} vs reference mean={ref_mean} std={ref_std} span={ref_span}",
    )


def check_grand_spans(flat_span: float, convex_span: float) -> None:
    """Acceptance criterion 3 on the seed-averaged profiles."""
    _require(flat_span == 18.0, f"flat grand span95 {flat_span} != 18.0")
    _require(convex_span <= 14.4, f"convex grand span95 {convex_span} > 14.4")


# --- checks on run directories -------------------------------------------------

def _read_csv_rows(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    _require(lines and lines[0] == header, f"{path.name}: bad header")
    return [line.split(",") for line in lines[1:]]


def check_run_dir(run: Path, trials: int, n_steps: int, start_deg: float,
                  step_deg: float) -> None:
    """Recompute profile.csv from the raw spectrum files and compare."""
    trial_aucs = []
    for t in range(trials):
        row = []
        for s in range(n_steps):
            rows = _read_csv_rows(run / f"t{t}_s{s:02}.csv", "wavelength_nm,intensity")
            row.append(reference_auc([r[0] for r in rows], [r[1] for r in rows]))
        trial_aucs.append(row)
    mean, std = reference_trial_mean(trial_aucs)

    rows = _read_csv_rows(run / "profile.csv", "angle_deg,auc_norm_mean,auc_norm_std,n_trials")
    _require(len(rows) == n_steps, f"profile.csv has {len(rows)} rows, want {n_steps}")
    for s, row in enumerate(rows):
        angle = start_deg + s * step_deg
        _require(abs(float(row[0]) - angle) <= 1e-6, f"profile row {s}: angle {row[0]}")
        _require(abs(float(row[1]) - mean[s]) <= PROFILE_ABS_TOL,
                 f"profile row {s}: mean {row[1]} vs reference {mean[s]!r}")
        _require(abs(float(row[2]) - std[s]) <= PROFILE_ABS_TOL,
                 f"profile row {s}: std {row[2]} vs reference {std[s]!r}")
        _require(int(row[3]) == trials, f"profile row {s}: n_trials {row[3]}")


def check_report_format(line: str) -> None:
    _require(REPORT_RE.fullmatch(line) is not None, f"report line {line!r} is malformed")


def check_report(line: str, run: Path) -> None:
    """The report line matches the statistics of profile.csv."""
    check_report_format(line)
    m = REPORT_RE.fullmatch(line)
    rows = _read_csv_rows(run / "profile.csv", "angle_deg,auc_norm_mean,auc_norm_std,n_trials")
    angles = [float(r[0]) for r in rows]
    means = [float(r[1]) for r in rows]
    mean, std, span = reference_stats(angles, reference_norm(means))
    _require(abs(float(m["mean"]) - mean) <= 0.0051, f"report mean {m['mean']} vs {mean}")
    _require(abs(float(m["std"]) - std) <= 0.0051, f"report std {m['std']} vs {std}")
    _require(abs(float(m["span"]) - span) <= 0.051, f"report span {m['span']} vs {span}")


def check_svg(path: Path, polylines: int, circles: int) -> None:
    """Well-formed SVG with one polyline per series (and markers if asked)."""
    root = ET.fromstring(path.read_bytes())
    ns = "{http://www.w3.org/2000/svg}"
    _require(root.tag == ns + "svg", f"{path.name}: root is {root.tag}")
    got_lines = len(root.findall(f".//{ns}polyline"))
    got_circles = len(root.findall(f".//{ns}circle"))
    _require(got_lines == polylines, f"{path.name}: {got_lines} polylines, want {polylines}")
    _require(got_circles == circles, f"{path.name}: {got_circles} circles, want {circles}")


# --- golden digests ---------------------------------------------------------------

def digest_dir(run: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run.iterdir())
    }


def make_golden(cli_call, work: Path) -> dict[str, dict]:
    """Simulate, analyze and report each golden run; digest its directory.

    ``cli_call(argv)`` runs one command in-process, returns its stdout and
    raises on a non-zero exit code.
    """
    out = {}
    for name, sim_args in GOLDEN_RUNS.items():
        run = work / name
        cli_call(["simulate", *sim_args, "--out", str(run)])
        cli_call(["analyze", "--run", str(run)])
        report = cli_call(["report", "--profile", str(run / "profile.csv")])
        out[name] = {"report": report, "files": digest_dir(run)}
    return out


def check_golden(cli_call, work: Path) -> None:
    pinned = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    got = make_golden(cli_call, work)
    for name in GOLDEN_RUNS:
        want = pinned[name]
        _require(got[name]["report"] == want["report"],
                 f"golden {name}: report {got[name]['report']!r} != {want['report']!r}")
        diff = sorted(
            f for f in set(want["files"]) | set(got[name]["files"])
            if want["files"].get(f) != got[name]["files"].get(f)
        )
        _require(not diff, f"golden {name}: files differ from the pin: {', '.join(diff)}")


if __name__ == "__main__":
    from run import cli_call, import_lumispec, scratch_dir

    import_lumispec()
    with scratch_dir() as tmp:
        golden = make_golden(cli_call, tmp)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_FILE}")
