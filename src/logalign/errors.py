"""Exception types shared across the package, and the global deadline's check."""

import time
from typing import Optional


class LogAlignError(Exception):
    """Base class for all errors raised by logalign."""


class XesParseError(LogAlignError):
    """Malformed XML in an XES document."""


class XesValidationError(LogAlignError):
    """Structurally valid XML that violates the XES subset we read."""


class PnmlParseError(LogAlignError):
    """Malformed XML in a PNML document."""


class NetStructureError(LogAlignError):
    """A net that is not a labelled workflow net."""


class Not1BoundedError(LogAlignError):
    """A reachable marking put more than one token on a place."""


class StateSpaceCapError(LogAlignError):
    """The reachability graph exceeded the configured marking cap."""


class TauReductionError(LogAlignError):
    """Silent-transition removal hit a tau cycle or dead end."""


class DecompositionError(LogAlignError):
    """The net could not be decomposed into S-components."""


class SearchBudgetError(LogAlignError):
    """An alignment search exceeded its node budget or deadline."""


class OracleGuardError(LogAlignError):
    """The brute-force oracle refused an instance above its size guard."""


def check_deadline(deadline: Optional[float], phase: str) -> None:
    """Raise ``SearchBudgetError`` for ``phase`` once ``time.monotonic()``
    has passed ``deadline``; a None deadline never passes."""
    if deadline is not None and time.monotonic() > deadline:
        raise SearchBudgetError("%s exceeded the global deadline" % phase)
