"""Shared exception types. The command-line front end maps all of these to exit code 2."""

from __future__ import annotations


class ParameterError(ValueError):
    """Parameters are infeasible or outside a construction's admissible range."""


class CapExceeded(ParameterError):
    """Refused to materialize a code; carries the column count that was computed symbolically."""

    def __init__(self, message: str, columns: int):
        super().__init__(message)
        self.columns = columns


class FormatError(ValueError):
    """Malformed PIRCODE or PIRPLAN text."""
