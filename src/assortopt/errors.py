"""Exception hierarchy shared across the package.

Validation errors carry a short machine-readable ``code`` so the CLI can
emit structured error JSON and map failures to exit codes.
"""

from __future__ import annotations


class AssortoptError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(AssortoptError):
    """Invalid input data or configuration.

    ``code`` is a stable identifier, e.g. ``"duplicate-id"`` or
    ``"bad-weight"``; the CLI maps any ValidationError to exit code 3.
    """

    code = "validation"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class InvalidAssortmentError(ValidationError):
    """An assortment references a product id unknown to the instance."""

    code = "invalid-assortment"


class ConfigError(ValidationError):
    """A refused configuration: a solver's (S > C, b < 1), a bench run's (an unknown
    suite, grid axis or b rule, no seed per cell), a negative slack ``delta``, or
    no capacity given. Every ``bad-config`` refusal raises it."""

    code = "bad-config"


class EnumerationCapError(ValidationError):
    """Exhaustive enumeration would exceed the configured cap.

    Raised instead of silently sampling: the brute-force solver is the
    test suite's ground truth and must never be approximate.
    """

    code = "enumeration-cap"


class VerificationFailure(AssortoptError):
    """A runtime cross-check failed (CLI exit code 4)."""
