"""Typed failures of the durable execution layer.

Every way an on-disk artifact or a checkpointed run can go wrong has
its own exception class, so callers branch on *class* — never on
string-matching a raw ``json.JSONDecodeError`` — and every message
says what happened *and* what to do about it.

:class:`ValidationError` also lives here: rejecting garbage before any
work is scheduled is the other half of durability (a sweep that
crashes an hour in on ``m=NaN`` wasted the hour; one that refuses at
the argument boundary wasted nothing).  It subclasses ``ValueError``
so every pre-existing ``except ValueError`` boundary keeps working.
"""

from __future__ import annotations

import math

__all__ = [
    "CheckpointMismatchError",
    "DurabilityError",
    "StoreCorruptionError",
    "StoreVersionError",
    "ValidationError",
    "check_positive_int",
    "check_positive_number",
]


class DurabilityError(RuntimeError):
    """Base class for durable-layer failures (corruption, version, mismatch)."""


class StoreCorruptionError(DurabilityError):
    """An on-disk artifact is truncated, torn, or fails its checksum.

    The message names the file and the remedy (delete it to start
    fresh); the original decode error, when one exists, rides along as
    ``__cause__``.
    """


class StoreVersionError(DurabilityError):
    """An artifact's schema ``version`` is not one this code reads."""


class CheckpointMismatchError(DurabilityError):
    """A checkpoint journal was written by a *different* sweep.

    The journal's fingerprint covers the grid, the measure, and the
    chunking, so resuming against changed inputs is refused instead of
    silently merging stale results into a fresh run.
    """


class ValidationError(ValueError):
    """An argument failed validation before any work was scheduled."""


def check_positive_int(name: str, value: object, minimum: int = 1) -> int:
    """``value`` as an int ``>= minimum``, else :class:`ValidationError`.

    ``bool`` is rejected explicitly (it is an ``int`` subclass, and
    ``workers=True`` is always a bug, not a request for one worker).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_positive_number(name: str, value: object) -> float:
    """``value`` as a finite number ``> 0``, else :class:`ValidationError`.

    Written as ``not value > 0`` so NaN — for which every comparison is
    false — is rejected rather than slipping through a ``value <= 0``
    test, and infinities are refused as deadline/timeout poison.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    if not value > 0 or math.isinf(value):
        raise ValidationError(f"{name} must be a positive finite number, got {value}")
    return float(value)
