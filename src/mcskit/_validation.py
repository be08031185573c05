"""Input validation helpers shared across the package."""

from __future__ import annotations

from numbers import Integral, Real
from typing import Iterable

UNIFORM = "uniform"
FREQUENCY = "frequency"
WEIGHTINGS = (UNIFORM, FREQUENCY)


class SizeGuardError(ValueError):
    """Input exceeds an explicit size guard (the CLI exits 3)."""


def check_strings(strings: Iterable[str]) -> tuple[str, ...]:
    """Normalize a string collection to a tuple and validate it.

    At least one string is required; individual strings may be empty.
    Comparison is by exact code point and case-sensitive throughout.
    """
    if isinstance(strings, str):
        raise TypeError("expected a collection of strings, got a single str")
    out = tuple(strings)
    if not out:
        raise ValueError("need at least one string")
    for i, s in enumerate(out):
        if not isinstance(s, str):
            raise TypeError(f"string #{i} is {type(s).__name__}, expected str")
    return out


def check_weighting(weighting: str) -> str:
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    return weighting


def check_count(value: int, name: str, minimum: int = 1) -> int:
    """Validate an integer count, numpy integers included, as a Python int."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_unit_open(value: float, name: str) -> float:
    """Validate a probability strictly inside (0, 1)."""
    if not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value
