"""Exception hierarchy for the lumispec package.

Every domain failure raised by this package derives from ``LumispecError``,
so callers (and the CLI) can catch one base class. Parsing errors carry a
``line`` attribute locating the failure in the offending file.
"""

from __future__ import annotations


class LumispecError(Exception):
    """Base class for all lumispec domain errors.

    ``line`` is the 1-based line of the offending file, or None; ``row``
    is the index of the offending spectrum in a stack, or None.
    """

    def __init__(self, message="", *, line: int | None = None, row: int | None = None):
        super().__init__(message)
        self.line = line
        self.row = row


# --- spectral pipeline ------------------------------------------------------

class NoSampleAboveCutoffError(LumispecError):
    """No wavelength sample lies above the normalization cutoff."""


class NonPositiveMaxError(LumispecError):
    """The normalizing maximum above the cutoff is zero or negative."""


class EmptyBandError(LumispecError):
    """Fewer than two samples fall inside the requested integration band."""


class NonPositiveAucError(LumispecError):
    """A raw AUC value is zero or negative; the profile cannot be normalized."""


class LengthMismatchError(LumispecError):
    """Paired sequences have different (or zero) lengths."""


# --- optics -----------------------------------------------------------------

class AoiOutOfRangeError(LumispecError):
    """Angle of incidence outside the valid [0, pi/2) range."""


# --- scan geometry ----------------------------------------------------------

class NoIntersectionError(LumispecError):
    """The beam does not intersect the surface at this motor angle."""


# --- scan engine ------------------------------------------------------------

class IllegalTransitionError(LumispecError):
    """Attempted scan-state transition is not permitted."""


class PortError(LumispecError):
    """An acquisition port rejected or failed an operation."""


class PortFaultError(LumispecError):
    """A sweep aborted because the port faulted at a specific step."""

    def __init__(self, message: str, *, step: int, trial: int | None = None):
        super().__init__(message)
        self.step = step
        self.trial = trial


# --- data I/O ---------------------------------------------------------------

class DataIoError(LumispecError):
    """File could not be read or written."""


class MalformedHeaderError(LumispecError):
    """A file's header line does not match the required format."""


class SpectrumParseError(LumispecError):
    """A spectrum file row could not be parsed."""


class NonMonotonicWavelengthError(LumispecError):
    """Wavelengths in a spectrum file are not strictly increasing."""


class LayoutError(LumispecError):
    """A run directory does not conform to the expected layout."""


class MetaError(LumispecError):
    """A run's meta.txt is missing keys, has duplicates, or bad values."""
