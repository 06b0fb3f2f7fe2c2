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

Spectrum files are written by one encoder, ``_encode_spectra``, which
``write_run`` feeds a chunk of files at a time and ``write_spectrum`` one
file. It writes each ``%.9e`` cell with exact float arithmetic, so its
bytes are those %-formatting writes; a cell it cannot prove so (next to a
decimal tie or a misjudged decade, zero, or outside 1e-13..1e32) is
written by ``"%.9e" % v`` itself.

Spectrum files in the exact form ``write_run`` writes are decoded with
exact integer arithmetic, ``read_run`` taking them a chunk of files at a
time. Any other file, valid or not, is parsed line by line by the
reference parser ``_parse_rows``, which gives every error its message and
line; a valid file in another form (``%.1f,%.4f``, say) reads to the same
values in ~2x the time of a canonical one.
"""

from __future__ import annotations

import functools
import math
import os
import re
import socket
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
from .spectral import Spectrum, _trust

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


def _write_text(path: Path, text: Union[str, bytes]) -> None:
    """Write ``text`` (UTF-8 when a str; LF endings as given) to ``path``."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    try:
        with open(path, "wb") as fh:
            fh.write(data)
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

# Spectrum files per _encode_spectra call in write_run and per
# _decode_spectra call in read_run: fixed numpy call costs dominate one
# 801-sample file, and a whole run at once is slower.
_CHUNK_FILES = 16


# The canonical decoder. A line that write_run writes is "%.6f,%.9e\n":
# a wavelength cell of digits with a "." before its last 6, a ",", then an
# intensity of 15 fixed-place bytes "D.DDDDDDDDDe±DD" after an optional "-".
# So the 17 bytes before each "\n" are a last wavelength digit and ",", or
# "," and "-", then the fixed places. From the second on, each byte lies
# between the bytes at its place in _TAIL_LOW and _TAIL_HIGH, except that
# a "," at the exponent sign (between "+" and "-") is not one. So tail
# places 2 and 4-12 are the mantissa digits, 14 the exponent sign and
# 15-16 the exponent digits.
_HEAD = (SPECTRUM_HEADER + "\n").encode("ascii")
_TAIL_LOW, _TAIL_HIGH = b",0.000000000e+00", b"-9.999999999e-99"
_TAIL = 1 + len(_TAIL_LOW)
_MIN_LINE = len("0.000000,0.000000000e+00")
_MAX_WAVELENGTH_CELL = 16  # 15 digits: every such integer is exact in float64
# 10**0 .. 10**22, each exact in float64 (5**22 < 2**53).
_POW10 = np.array([float(10 ** i) for i in range(23)])


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``buf`` from each of ``starts``, one byte place
    per row: ``out[i, j] == buf[starts[j] + i]``."""
    items = np.ndarray((buf.size - width + 1,), f"V{width}", buf, strides=(1,))
    return np.ascontiguousarray(items[starts].view(np.uint8).reshape(-1, width).T)


def _places_fit(places: np.ndarray, low: bytes, high: bytes) -> bool:
    """Whether every byte in row i of ``places`` lies in ``low[i]..high[i]``."""
    low_col = np.frombuffer(low, np.uint8)[:, None]
    span = np.frombuffer(high, np.uint8)[:, None] - low_col
    return not ((places - low_col) > span).any()


def _integers(ascii_rows: np.ndarray) -> np.ndarray:
    """The integers written in decimal by rows of ASCII digits, most
    significant first; exact while they stay below 2**53."""
    value = np.zeros(ascii_rows.shape[1])
    for row in ascii_rows:
        value *= 10
        value += row
    value -= ord("0") * ((10 ** len(ascii_rows) - 1) // 9)
    return value


def _decode_spectra(files: list[bytes]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``(grid, intensities)`` of spectrum files in the exact form write_run
    writes, with one row of intensities per file, or None.

    None unless every byte of every line fits ``%.6f,%.9e``, every file has
    the wavelength cells of the first byte for byte, and those increase
    strictly. Values come from exact integer arithmetic, so their bits are
    those ``float(cell)`` gives: a wavelength is an integer below 10**15
    divided by 10**6, and an intensity an integer mantissa below 10**10
    times or divided by 10**k, k <= 22; both operands are exact in float64,
    so one IEEE operation rounds correctly. Any other exponent, a 3-digit
    one, "E", "+", CR, a missing final newline or wavelength cells of
    mixed width give None.
    """
    if not files or not all(len(f) > len(_HEAD) and f.startswith(_HEAD)
                            and f.endswith(b"\n") for f in files):
        return None
    buf = np.frombuffer(b"".join(memoryview(f)[len(_HEAD):] for f in files), np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    n = newlines.size // len(files)
    ends = np.cumsum([len(f) - len(_HEAD) for f in files]) - 1
    if n < 2 or newlines.size != n * len(files) or (newlines[n - 1::n] != ends).any():
        return None
    starts = np.concatenate(([0], newlines[:-1] + 1))
    if (newlines - starts).min() < _MIN_LINE:
        return None

    tail = _windows(buf, newlines - _TAIL, _TAIL)
    negative = tail[1] == ord("-")
    if (not _places_fit(tail[1:], _TAIL_LOW, _TAIL_HIGH) or (tail[14] == ord(",")).any()
            or (negative & (tail[0] != ord(","))).any()):
        return None
    widths = newlines - starts - (_TAIL - 1) - negative
    width = int(widths[0])
    if not 8 <= width <= _MAX_WAVELENGTH_CELL or (widths != width).any():
        return None
    cells = _windows(buf, starts, width)
    first = cells[:, :n]
    if ((cells.reshape(width, len(files), n) != first[:, None]).any()
            or not _places_fit(first, b"0" * (width - 7) + b".000000",
                               b"9" * (width - 7) + b".999999")):
        return None
    grid = _integers(np.delete(first, width - 7, axis=0)) / _POW10[6]
    if not (grid[1:] > grid[:-1]).all():
        return None
    del newlines, starts, widths, cells, first  # keep the peak low: only tail is left to use

    power = _integers(tail[15:])
    power[tail[14] == ord("-")] *= -1
    power -= 9
    size = np.abs(power).astype(np.intp)
    if size.max() > 22:
        return None
    values = _integers(tail[[2, *range(4, 13)]])
    scale = _POW10[size]
    np.divide(values, scale, out=values, where=power < 0)
    np.multiply(values, scale, out=values, where=power > 0)
    np.negative(values, out=values, where=negative)
    return grid, values.reshape(len(files), n)


# The canonical encoder, the mirror of _decode_spectra. A file is built as
# one byte row per line: its "%.6f," wavelength cell, right-aligned, then an
# 18-byte slot for the intensity, written as nine uint16 places
#   [NUL, "-" or NUL] [D0 "."] [D1 D2] [D3 D4] [D5 D6] [D7 D8] [D9 "e"] [± E] [E "\n"],
# and the NUL pad bytes are dropped when the file is joined. The mantissa
# D0..D9 is D = round(|v| * 10**(9 - e)) with e the decimal exponent. For
# 1e-13 <= |v| < 1e32 the power 10**|9 - e| is exact in float64 (see
# _POW10), so y = |v| * 10**(9 - e), or |v| / 10**(e - 9), is one IEEE
# operation on exact operands and within half an ulp (< 1e-6) of the true
# product; floor(y + 0.5) is then the correctly rounded mantissa that
# "%.9e" writes unless y lies within _NEAR_HALF of a half-integer. Those
# cells, and every other value (zero, subnormal, huge, non-finite), are
# written from the reference "%.9e" itself.
def _u16(cells) -> np.ndarray:
    """Two-byte ASCII cells, one uint16 each in memory order."""
    return np.frombuffer(b"".join(cells), np.uint16)


_SLOT = 18  # "-D.DDDDDDDDDe+DDD\n": room for a 3-digit exponent
_NEAR_HALF = 0.5 - 1e-5
_MINUS = _u16([b"\0-"])[0]
_LEAD = _u16(b"%d." % d for d in range(10))
_PAIRS = _u16(b"%02d" % d for d in range(100))
_LAST = _u16(b"%de" % d for d in range(10))
_EXPONENTS = _u16(b"%+03d\n" % k for k in range(-99, 100))  # k at 2 * (k + 99)
# |v| * _SCALE_UP[32 - e] / _SCALE_DOWN[32 - e] is |v| * 10**(9 - e) for
# e in -13..31, the floor of log10 of 1e-13 <= |v| < 1e32 give or take one:
# one factor is 1.0, so each value meets one rounding.
_SCALE_UP = np.array([_POW10[min(max(9 - e, 0), 22)] for e in range(32, -15, -1)])
_SCALE_DOWN = np.array([_POW10[min(max(e - 9, 0), 22)] for e in range(32, -15, -1)])


@functools.lru_cache(maxsize=4)
def _wavelength_cells(grid: bytes) -> np.ndarray:
    """The "%.6f," cell of each point of a float64 grid, right-aligned in a
    row of even width and followed by an empty slot."""
    cells = [b"%.6f," % w for w in np.frombuffer(grid).tolist()]
    width = max(map(len, cells)) + 1 & ~1
    rows = b"".join(cell.rjust(width, b"\0") + bytes(_SLOT) for cell in cells)
    return np.frombuffer(rows, np.uint8).reshape(len(cells), width + _SLOT)


def _encode_spectra(grid: np.ndarray, rows: np.ndarray) -> list[bytes]:
    """The bytes of the canonical spectrum file of each row of intensities
    on ``grid``: the header, then one "%.6f,%.9e" line per sample, each
    byte for byte what %-formatting writes."""
    template = _wavelength_cells(np.ascontiguousarray(grid, np.float64).tobytes())
    width = template.shape[1]
    rows = np.asarray(rows, np.float64)
    values = rows.reshape(-1)
    magnitude = np.abs(values)
    exact = (magnitude >= 1e-13) & (magnitude < 1e32)  # False for nan
    magnitude[~exact] = 1.0
    exponent = np.floor(np.log10(magnitude))
    index = (32 - exponent).astype(np.intp)
    y = magnitude * _SCALE_UP.take(index) / _SCALE_DOWN.take(index)
    mantissa = np.floor(y + 0.5)
    # Next to a power of ten, log10 can floor to the wrong e: y then falls
    # outside [1e9, 1e10), and the reference writes the cell.
    unproven = (~exact | (y < 1e9) | (y >= 1e10) | (np.abs(y - mantissa) > _NEAR_HALF)
                | (np.abs(exponent - 9) > 22))
    carry = mantissa == 1e10  # 9.9999999995 rounds up to 1.000000000e(e+1)
    if carry.any():
        mantissa[carry] = 1e9
        exponent[carry] += 1

    out = np.empty((len(rows), *template.shape), np.uint8)
    out[:] = template
    out = out.reshape(-1, width)
    slot = out[:, width - _SLOT:].view(np.uint16)
    slot[:, 0] = np.signbit(values).view(np.uint8) * _MINUS
    high = np.floor(mantissa / 10)
    slot[:, 6] = _LAST.take((mantissa - 10 * high).astype(np.intp))
    for place in range(5, 1, -1):
        low, high = high, np.floor(high / 100)
        slot[:, place] = _PAIRS.take((low - 100 * high).astype(np.intp))
    # A lead above 9 is an unproven cell's (y >= 1e10), written over below.
    slot[:, 1] = _LEAD.take(high.astype(np.intp), mode="clip")
    index = (2 * exponent).astype(np.intp) + 2 * 99
    slot[:, 7] = _EXPONENTS.take(index)
    slot[:, 8] = _EXPONENTS.take(index + 1)
    where = np.flatnonzero(unproven)
    for i, value in zip(where.tolist(), values[where].tolist()):
        cell = (b"%.9e" % value).rjust(_SLOT - 1, b"\0")
        out[i, width - _SLOT:-1] = np.frombuffer(cell, np.uint8)
    return [_HEAD + f[f != 0].tobytes() for f in out.reshape(len(rows), -1)]


def write_spectrum(spectrum: Spectrum, path: PathLike) -> None:
    """Write one spectrum in the canonical text format."""
    (text,) = _encode_spectra(spectrum.wavelengths_nm, spectrum.intensities[None])
    _write_text(Path(path), text)


def read_spectrum(path: PathLike) -> Spectrum:
    """Parse a canonical spectrum file back into a Spectrum.

    A file in the exact form write_run writes is decoded by
    ``_decode_spectra``. Any other file is parsed by ``_parse_rows``, whose
    failures carry a 1-based line number where applicable (line 1 is the
    header).
    """
    text = _read_text(Path(path), "spectrum file")
    decoded = _decode_spectra([text.encode()])
    if decoded is not None:
        grid, (intensities,) = decoded
        return Spectrum(grid, intensities)
    wavelengths, intensities = map(np.asarray, _parse_rows(text, _SPECTRUM_CSV))
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


def _lock_is_stale(lock: Path) -> bool:
    """True only if ``lock`` names a process of this host that has exited.

    An empty, unreadable or foreign lock, a live pid, and any lock on a
    non-POSIX system (where ``os.kill(pid, 0)`` is no probe) count as live.
    """
    if os.name != "posix":
        return False
    try:
        owner = dict(line.split("=", 1) for line in lock.read_text(encoding="utf-8").splitlines())
        pid, host = int(owner["pid"]), owner["host"]
    except (OSError, ValueError, KeyError):
        return False
    if pid <= 0 or host != socket.gethostname():
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # alive under another user, or no pid at all
        pass
    return False


def write_run(records: list[SweepRecord], run_dir: PathLike) -> None:
    """Persist a full run (all trials) as a canonical run directory.

    All records must share one plan, one meta block and one wavelength
    grid, with distinct trial indices covering 0..trials-1. A best-effort
    ``.lock`` file, holding the writer's pid and host, guards against
    concurrent writers; it is removed when the write finishes. A lock whose
    writer died without removing it is broken (see :func:`_lock_is_stale`);
    any other lock refuses the write.
    Files the layout owns from an earlier run (meta, manifest, profile and
    spectrum files) are removed first; any other file is left alone.
    """
    if not records:
        raise ValueError("write_run requires at least one record")
    plan = records[0].plan
    meta = records[0].meta
    grid = records[0].spectra.wavelengths_nm
    for record in records[1:]:
        if record.plan != plan:
            raise ValueError("all records in a run must share one plan")
        if record.meta != meta:
            raise ValueError("all records in a run must share one meta block")
        if not np.array_equal(record.spectra.wavelengths_nm, grid):
            raise ValueError("all records in a run must share one wavelength grid")
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
    if _lock_is_stale(lock):
        try:
            lock.unlink(missing_ok=True)
        except OSError as exc:
            raise DataIoError(f"cannot remove stale lock file {lock}: {exc}") from exc
    try:
        lock_fh = open(lock, "x", encoding="utf-8")
    except FileExistsError:
        raise DataIoError(
            f"run directory {out} is locked by another writer ({lock} exists)"
        ) from None
    except OSError as exc:
        raise DataIoError(f"cannot create lock file {lock}: {exc}") from exc

    try:
        try:
            with lock_fh:
                lock_fh.write(f"pid={os.getpid()}\nhost={socket.gethostname()}\n")
        except OSError as exc:
            raise DataIoError(f"cannot write lock file {lock}: {exc}") from exc
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

        angles = plan.angles()
        manifest_rows = []
        for record in sorted(records, key=lambda r: r.trial_index):
            rows = record.spectra.intensities
            for start in range(0, len(rows), _CHUNK_FILES):
                files = _encode_spectra(grid, rows[start:start + _CHUNK_FILES])
                for step, text in enumerate(files, start):
                    name = spectrum_filename(record.trial_index, step)
                    manifest_rows.append((record.trial_index, step, angles[step], name))
                    _write_text(out / name, text)
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
        return int(text) if kind is int else float(text)
    except ValueError as exc:
        raise MetaError(f"meta.txt key {key!r}: {exc}") from exc


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


def _read_chunk(out: Path, names: list[str]) -> list[bytes]:
    """The bytes of each named file, or no files when one cannot be read."""
    files = []
    try:
        for name in names:
            with open(os.path.join(out, name), "rb") as fh:
                files.append(fh.read())
    except OSError:
        return []
    return files


def read_run(run_dir: PathLike) -> list[SweepRecord]:
    """Load a run directory back into SweepRecords ordered by trial index.

    Angles come from the stored plan by index arithmetic, so a write/read
    cycle reproduces them bit-for-bit. Spectrum files are decoded
    ``_CHUNK_FILES`` at a time; a chunk that ``_decode_spectra`` refuses, or
    whose grid is not the run's, is read again file by file with
    ``read_spectrum``. Spectrum parse failures are re-raised as the same
    error type with the offending filename prefixed; a file off the grid of
    ``t0_s00.csv`` is a ``LayoutError`` naming it.
    """
    out = Path(run_dir)
    plan, meta = read_run_header(out)
    _check_manifest(_read_text(out / MANIFEST_FILE, MANIFEST_FILE, LayoutError), plan)

    names = [spectrum_filename(t, s) for t in range(plan.trials) for s in range(plan.n_steps)]
    missing = sorted(n for n in names if not os.path.isfile(os.path.join(out, n)))
    if missing:
        raise LayoutError(
            f"run directory {out} is missing spectrum files: {', '.join(missing)}"
        )

    grid = None
    rows: list[np.ndarray] = []
    for start in range(0, len(names), _CHUNK_FILES):
        chunk = names[start:start + _CHUNK_FILES]
        decoded = _decode_spectra(_read_chunk(out, chunk))
        if decoded is not None and (grid is None or np.array_equal(decoded[0], grid)):
            # The decoder proved the grid finite and strictly increasing.
            grid = _trust(decoded[0]) if grid is None else grid
            rows.extend(decoded[1])
            continue
        # Read the chunk again file by file, as the reference does, so a bad
        # chunk fails with the first error, message and line of its files.
        for name in chunk:
            try:
                spectrum = read_spectrum(out / name)
            except LumispecError as exc:
                raise type(exc)(f"{name}: {exc}", line=exc.line) from exc
            if grid is None:
                grid = spectrum.wavelengths_nm
            elif not np.array_equal(spectrum.wavelengths_nm, grid):
                raise LayoutError(f"{name}: wavelength grid differs from {names[0]}")
            rows.append(spectrum.intensities)
    steps = plan.n_steps
    return [SweepRecord(plan, t, Spectrum(grid, rows[t * steps:(t + 1) * steps]), meta)
            for t in range(plan.trials)]


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
