"""Value checks shared by the config dataclasses. Each raises a ``ValueError``
whose message starts with the field name, which ``harness.parse_config``
replaces with the path of the field's config key."""

from __future__ import annotations

import sys
from pathlib import Path


def whole(value, name: str, least: int) -> None:
    """Check that ``value`` is an int (not a bool) of at least ``least``."""
    if type(value) is not int:  # bool is a subclass of int
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def wholes(value, name: str, three: bool = False) -> tuple[int, ...]:
    """``value`` as a tuple of positive ints (not bools), three of them if ``three``."""
    sizes_ok = isinstance(value, (list, tuple)) and not (three and len(value) != 3)
    if not sizes_ok or any(type(v) is not int or v < 1 for v in value):
        raise ValueError(f"{name} must be {'three' if three else 'a list of'} positive integers, got {value!r}")
    return tuple(value)


def real(value, name: str) -> float:
    """``float(value)``, if ``value`` is a finite int or float (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # also rules out nan and ints too big for a float
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def file_path(value, name: str) -> Path:
    """``Path(value)``, if ``value`` is a non-empty path string or a ``Path``."""
    if not isinstance(value, (str, Path)) or value == "":  # Path("") is the current directory
        raise ValueError(f"{name} must be a non-empty path string, got {value!r}")
    return Path(value)
