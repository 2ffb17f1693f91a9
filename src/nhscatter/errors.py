"""Typed errors raised across the package."""

from __future__ import annotations


class ScatterError(Exception):
    """Base class for every error this package raises deliberately."""


class SingularMatrixError(ScatterError):
    """A matrix is singular or too ill-conditioned to invert.

    ``index`` is the first offending matrix (grid point) of a stack, or None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ScatteringSingularityError(SingularMatrixError):
    """The lead-dressed center matrix is singular at this momentum.

    Physically a lasing / perfect-absorption point; reported instead of
    silently returning huge finite numbers.
    """


class DimensionTooLargeError(ScatterError):
    """Input exceeds the size cap of an oracle-grade routine."""


class BandEdgeError(ScatterError):
    """Wave vector outside the open interval (0, pi) where the lead group velocity vanishes."""


class ConventionMismatchError(ScatterError):
    """Scattering matrices use different phase conventions."""


class KMismatchError(ScatterError):
    """Scattering matrices were computed at different momenta."""


class NotTwoPortError(ScatterError, ValueError):
    """Operation is defined for two ports (or two channels) only; a caller
    error, so also a ``ValueError`` (the command line's configuration error)."""


class PortConditionError(ScatterError):
    """Metric fails the port condition.  ``index`` is the first offending entry."""

    def __init__(self, message: str, index: tuple[int, int] | None = None):
        super().__init__(message)
        self.index = index


class GeometryTooSmallError(ScatterError):
    """Chain segment too short for the requested construction or experiment."""


class PacketOutOfBoundsError(ScatterError):
    """Initial packet support does not fit inside the input lead."""


class ConfigError(ScatterError):
    """Invalid or inconsistent scenario configuration."""


class WorkLimitError(ScatterError):
    """A run would take more steps than its cap; the message states the estimate."""
