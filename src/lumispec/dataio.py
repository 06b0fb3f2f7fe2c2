"""Byte-stable file formats for spectra, sweep runs and AUC profiles.

Plain-text formats, chosen so files are inspectable, diffable, and easy
for external spectrometer-export tooling to produce:

* Spectrum file: UTF-8, LF endings, header ``wavelength_nm,intensity``,
  then one ``%.6f,%.9e`` row per sample in ascending wavelength order.
* Run directory: ``meta.txt`` (``key=value`` lines in a fixed order),
  ``manifest.csv`` (``trial,step_index,motor_angle_deg,spectrum_file``),
  and one spectrum file per acquisition named ``t{trial}_s{step:02}.csv``.
* Profile file (``profile.csv``, written into the run directory by
  analysis): header ``angle_deg,auc_norm_mean,auc_norm_std,n_trials``, then
  one ``%.6f,%.9f,%.9f,%d`` row per sweep angle.

Serialization is deterministic: the same records always produce byte-
identical directories. Sweep angles are reconstructed from the stored plan
by index arithmetic on read; the manifest's angle column is validated
against the plan within 1e-6 deg but never used as the value of record;
its spectrum_file must be the canonical name, and all spectra of a run
share one wavelength grid. Profile angles increase strictly.
"""

from __future__ import annotations

import math
import os
import re
from pathlib import Path
from typing import NamedTuple, Optional, Union

import numpy as np

from .engine import RunMeta, SweepPlan, SweepRecord
from .errors import (
    DataIoError,
    LayoutError,
    LumispecError,
    MalformedHeaderError,
    MetaError,
    NonMonotonicWavelengthError,
    SpectrumParseError,
)
from .spectral import Spectrum

PathLike = Union[str, os.PathLike]

SPECTRUM_HEADER = "wavelength_nm,intensity"
MANIFEST_HEADER = "trial,step_index,motor_angle_deg,spectrum_file"
PROFILE_HEADER = "angle_deg,auc_norm_mean,auc_norm_std,n_trials"
META_FILE = "meta.txt"
MANIFEST_FILE = "manifest.csv"
PROFILE_FILE = "profile.csv"
LOCK_FILE = ".lock"

# meta.txt lines in file order as (key, owning class, kind). Files are
# byte-stable only if this order and the spelling of each kind never vary:
# floats are written with repr(float(v)), so an int-valued 3 becomes "3.0",
# and a float-or-none value is "none" when absent.
_FLOAT_OR_NONE = "float-or-none"
META_FIELDS = (
    ("schema_version", RunMeta, int),
    ("geometry", RunMeta, str),
    ("sphere_radius_mm", RunMeta, _FLOAT_OR_NONE),
    ("working_distance_mm", RunMeta, float),
    ("seed", RunMeta, int),
    ("noise_sigma", RunMeta, float),
    ("kappa", RunMeta, float),
    ("start_deg", SweepPlan, float),
    ("step_deg", SweepPlan, float),
    ("n_steps", SweepPlan, int),
    ("trials", SweepPlan, int),
    ("settle_s", SweepPlan, float),
)

SCHEMA_VERSION = 1

_MANIFEST_ANGLE_TOL_DEG = 1e-6

# Files of a run directory that write_run owns; spectrum files are the
# names spectrum_filename() produces.
_LAYOUT_FILES = (META_FILE, MANIFEST_FILE, PROFILE_FILE)
_SPECTRUM_NAME = re.compile(r"t[0-9]+_s[0-9]{2,}\.csv")


class _CsvFormat(NamedTuple):
    """One CSV file format: header line, printf row format, column types.

    Parse failures raise ``error`` (``header_error`` for a wrong header)
    with a message that starts ``{where}line N:``.
    """

    header: str
    row: str
    types: tuple[type, ...]
    where: str
    error: type[LumispecError]
    header_error: type[LumispecError] = MalformedHeaderError

    def fail(self, lineno: int, message: str, error: Optional[type] = None) -> LumispecError:
        return (error or self.error)(f"{self.where}line {lineno}: {message}", line=lineno)

    def require_increasing(self, column: np.ndarray, what: str, error=None) -> None:
        """Fail on the first row of a parsed column that is not above the row before it."""
        falls = np.flatnonzero(column[1:] <= column[:-1])
        if falls.size:
            i = int(falls[0])
            v0, v1 = column[i:i + 2].tolist()
            raise self.fail(i + 3, f"{what} {v1!r} does not increase past {v0!r}", error)


_SPECTRUM_CSV = _CsvFormat(SPECTRUM_HEADER, "%.6f,%.9e", (float, float),
                           "", SpectrumParseError)
_MANIFEST_CSV = _CsvFormat(MANIFEST_HEADER, "%d,%d,%.6f,%s", (int, int, float, str),
                           "manifest.csv ", LayoutError, LayoutError)
_PROFILE_CSV = _CsvFormat(PROFILE_HEADER, "%.6f,%.9f,%.9f,%d", (float, float, float, int),
                          "profile ", DataIoError)


def spectrum_filename(trial: int, step: int) -> str:
    return f"t{trial}_s{step:02}.csv"


def _write_text(path: Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataIoError(f"cannot write {path}: {exc}") from exc


def _read_text(path: Path, what: str, missing: type[LumispecError] = DataIoError) -> str:
    if not path.is_file():
        raise missing(f"missing {what}: {path}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataIoError(f"cannot read {what} {path}: {exc}") from exc


def _write_csv(path: PathLike, fmt: _CsvFormat, rows) -> None:
    lines = [fmt.header]
    lines.extend(fmt.row % row for row in rows)
    _write_text(Path(path), "\n".join(lines) + "\n")


def _parse_rows(text: str, fmt: _CsvFormat) -> list[list]:
    """The columns of a ``fmt`` file, each cell converted to its column type.

    Float cells must be finite. The header is line 1, so the cell in row i
    of a column sits on line i + 2.
    """
    lines = text.splitlines()
    got = lines[0] if lines else "<empty file>"
    if got != fmt.header:
        raise fmt.fail(1, f"expected header {fmt.header!r}, got {got!r}", fmt.header_error)
    rows = [line.split(",") for line in lines[1:]]
    width = len(fmt.types)
    for lineno, fields in enumerate(rows, start=2):
        if len(fields) != width:
            raise fmt.fail(
                lineno, f"expected {width} comma-separated fields, got {len(fields)}"
            )
    columns = []
    for kind, cells in zip(fmt.types, zip(*rows) if rows else [()] * width):
        values = []
        for lineno, cell in enumerate(cells, start=2):
            try:
                value = kind(cell)
            except ValueError as exc:
                raise fmt.fail(lineno, str(exc)) from exc
            if kind is float and not math.isfinite(value):
                raise fmt.fail(lineno, f"non-finite value {cell!r}")
            values.append(value)
        columns.append(values)
    return columns


# --- spectrum files ---------------------------------------------------------

def write_spectrum(spectrum: Spectrum, path: PathLike) -> None:
    """Write one spectrum in the canonical text format."""
    _write_csv(path, _SPECTRUM_CSV, zip(spectrum.wavelengths_nm, spectrum.intensities))


def read_spectrum(path: PathLike) -> Spectrum:
    """Parse a canonical spectrum file back into a Spectrum.

    Failures carry a 1-based line number where applicable (line 1 is the
    header).
    """
    columns = _parse_rows(_read_text(Path(path), "spectrum file"), _SPECTRUM_CSV)
    wavelengths, intensities = map(np.asarray, columns)
    if wavelengths.size < 2:
        raise SpectrumParseError(
            f"spectrum needs at least 2 samples, found {wavelengths.size}"
        )
    _SPECTRUM_CSV.require_increasing(wavelengths, "wavelength", NonMonotonicWavelengthError)
    return Spectrum(wavelengths, intensities)


# --- run directories --------------------------------------------------------

def _format_meta_value(kind, value) -> str:
    if kind is _FLOAT_OR_NONE and value is None:
        return "none"
    if kind in (float, _FLOAT_OR_NONE):
        return repr(float(value))
    return str(value)


def write_run(records: list[SweepRecord], run_dir: PathLike) -> None:
    """Persist a full run (all trials) as a canonical run directory.

    All records must share one plan and one meta block, with distinct trial
    indices covering 0..trials-1. A best-effort ``.lock`` file guards
    against concurrent writers; it is removed when the write finishes.
    Files the layout owns from an earlier run (meta, manifest, profile and
    spectrum files) are removed first; any other file is left alone.
    """
    if not records:
        raise ValueError("write_run requires at least one record")
    plan = records[0].plan
    meta = records[0].meta
    for record in records[1:]:
        if record.plan != plan:
            raise ValueError("all records in a run must share one plan")
        if record.meta != meta:
            raise ValueError("all records in a run must share one meta block")
    trials = sorted(record.trial_index for record in records)
    if trials != list(range(plan.trials)):
        raise ValueError(
            f"records must cover trial indices 0..{plan.trials - 1} exactly, "
            f"got {trials}"
        )

    out = Path(run_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataIoError(f"cannot create run directory {out}: {exc}") from exc

    lock = out / LOCK_FILE
    try:
        lock_fh = open(lock, "x", encoding="utf-8")
    except FileExistsError:
        raise DataIoError(
            f"run directory {out} is locked by another writer ({lock} exists)"
        ) from None
    except OSError as exc:
        raise DataIoError(f"cannot create lock file {lock}: {exc}") from exc

    try:
        lock_fh.close()
        for path in out.iterdir():
            if path.name in _LAYOUT_FILES or _SPECTRUM_NAME.fullmatch(path.name):
                try:
                    path.unlink()
                except OSError as exc:
                    raise DataIoError(f"cannot remove stale {path}: {exc}") from exc
        owners = {RunMeta: meta, SweepPlan: plan}
        meta_lines = [
            f"{key}={_format_meta_value(kind, getattr(owners[owner], key))}"
            for key, owner, kind in META_FIELDS
        ]
        _write_text(out / META_FILE, "\n".join(meta_lines) + "\n")

        manifest_rows = []
        for record in sorted(records, key=lambda r: r.trial_index):
            for step, (angle, spectrum) in enumerate(record.entries):
                name = spectrum_filename(record.trial_index, step)
                manifest_rows.append((record.trial_index, step, angle, name))
                write_spectrum(spectrum, out / name)
        _write_csv(out / MANIFEST_FILE, _MANIFEST_CSV, manifest_rows)
    finally:
        try:
            lock.unlink()
        except OSError:
            pass


def _parse_meta_value(key: str, kind, text: str):
    if kind is str:
        return text
    if kind is _FLOAT_OR_NONE and text == "none":
        return None
    try:
        value = int(text) if kind is int else float(text)
    except ValueError as exc:
        raise MetaError(f"meta.txt key {key!r}: {exc}") from exc
    if kind is not int and not math.isfinite(value):
        raise MetaError(f"meta.txt key {key!r} is not finite")
    return value


def read_run_header(run_dir: PathLike) -> tuple[SweepPlan, RunMeta]:
    """Parse only meta.txt, returning the run's plan and meta block."""
    text = _read_text(Path(run_dir) / META_FILE, META_FILE, LayoutError)
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw == "":
            continue
        key, sep, value = raw.partition("=")
        if not sep:
            raise MetaError(f"meta.txt line {lineno}: expected key=value, got {raw!r}",
                            line=lineno)
        if key in values:
            raise MetaError(f"meta.txt line {lineno}: duplicate key {key!r}", line=lineno)
        values[key] = value

    fields: dict[type, dict] = {RunMeta: {}, SweepPlan: {}}
    for key, owner, kind in META_FIELDS:
        if key not in values:
            raise MetaError(f"meta.txt is missing key {key!r}")
        fields[owner][key] = _parse_meta_value(key, kind, values.pop(key))
    if values:
        raise MetaError(f"meta.txt has unexpected key {next(iter(values))!r}")

    schema = fields[RunMeta]["schema_version"]
    if schema != SCHEMA_VERSION:
        raise MetaError(f"unsupported schema_version {schema} (expected {SCHEMA_VERSION})")
    try:
        return SweepPlan(**fields[SweepPlan]), RunMeta(**fields[RunMeta])
    except ValueError as exc:
        raise MetaError(f"meta.txt describes an invalid run: {exc}") from exc


def _check_manifest(text: str, plan: SweepPlan) -> None:
    """Require one manifest row per (trial, step), at its angle and canonical name."""
    fail = _MANIFEST_CSV.fail
    seen: set[tuple[int, int]] = set()
    for lineno, (trial, step, angle, name) in enumerate(
        zip(*_parse_rows(text, _MANIFEST_CSV)), start=2
    ):
        if not (0 <= trial < plan.trials):
            raise fail(lineno, f"trial {trial} outside 0..{plan.trials - 1}")
        if not (0 <= step < plan.n_steps):
            raise fail(lineno, f"step {step} outside 0..{plan.n_steps - 1}")
        if (trial, step) in seen:
            raise fail(lineno, f"duplicate entry for trial {trial} step {step}")
        if abs(angle - plan.angle(step)) > _MANIFEST_ANGLE_TOL_DEG:
            raise fail(
                lineno,
                f"angle {angle!r} deviates from plan angle {plan.angle(step)!r} "
                f"by more than {_MANIFEST_ANGLE_TOL_DEG:g} deg",
            )
        if name != spectrum_filename(trial, step):
            raise fail(lineno, f"spectrum file {name!r} is not the canonical "
                               f"{spectrum_filename(trial, step)!r}")
        seen.add((trial, step))

    expected = plan.trials * plan.n_steps
    if len(seen) != expected:
        raise LayoutError(
            f"manifest.csv has {len(seen)} entries, expected {expected} "
            f"({plan.trials} trials x {plan.n_steps} steps)"
        )


def read_run(run_dir: PathLike) -> list[SweepRecord]:
    """Load a run directory back into SweepRecords ordered by trial index.

    Angles come from the stored plan by index arithmetic, so a write/read
    cycle reproduces them bit-for-bit. Spectrum parse failures are re-raised
    as the same error type with the offending filename prefixed; a file off
    the grid of ``t0_s00.csv`` is a ``LayoutError`` naming it.
    """
    out = Path(run_dir)
    plan, meta = read_run_header(out)
    _check_manifest(_read_text(out / MANIFEST_FILE, MANIFEST_FILE, LayoutError), plan)

    names = [[spectrum_filename(t, s) for s in range(plan.n_steps)]
             for t in range(plan.trials)]
    missing = sorted(n for row in names for n in row if not (out / n).is_file())
    if missing:
        raise LayoutError(
            f"run directory {out} is missing spectrum files: {', '.join(missing)}"
        )

    records = []
    grid = None
    for trial, row_names in enumerate(names):
        rows = []
        for name in row_names:
            try:
                spectrum = read_spectrum(out / name)
            except LumispecError as exc:
                raise type(exc)(f"{name}: {exc}", line=exc.line) from exc
            if grid is None:
                grid = spectrum.wavelengths_nm
            elif not np.array_equal(spectrum.wavelengths_nm, grid):
                raise LayoutError(f"{name}: wavelength grid differs from {names[0][0]}")
            rows.append(spectrum.intensities)
        records.append(SweepRecord(plan, trial, Spectrum(grid, rows), meta))
    return records


# --- profile files ----------------------------------------------------------

def write_profile(
    path: PathLike, angles_deg: np.ndarray, mean: np.ndarray, std: np.ndarray, n_trials: int
) -> None:
    """Write a normalized AUC profile in the canonical text format."""
    _write_csv(path, _PROFILE_CSV, ((*row, n_trials) for row in zip(angles_deg, mean, std)))


def read_profile(path: PathLike) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Parse profile.csv into (angles, mean, std, n_trials)."""
    *values, counts = _parse_rows(_read_text(Path(path), "profile"), _PROFILE_CSV)
    if not counts:
        raise DataIoError(f"profile {path} has no data rows")
    for lineno, n in enumerate(counts, start=2):
        if n != counts[0]:
            raise _PROFILE_CSV.fail(lineno, f"inconsistent n_trials {n} vs {counts[0]}")
    angles, means, stds = map(np.asarray, values)
    _PROFILE_CSV.require_increasing(angles, "angle")
    return angles, means, stds, counts[0]
