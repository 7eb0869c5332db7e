"""Size/quantity parsing and formatting helpers.

The paper specifies cache sizes as "8K", "512KB", block sizes in bytes,
and latencies in cycles.  These helpers normalise human-readable strings
to integers and back, and validate power-of-two constraints that the
cache geometry code relies on.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import ConfigError

__all__ = [
    "parse_size",
    "format_size",
    "is_pow2",
    "log2_exact",
]

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([KMGkmg]?)(?:[iI]?[bB])?\s*$")

_MULT = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3}


def parse_size(value: Union[int, str]) -> int:
    """Parse a size such as ``"8K"``, ``"512KB"``, ``"64"`` or ``8192``.

    Integers pass through unchanged.  Suffixes are binary (K = 1024).

    >>> parse_size("8K")
    8192
    >>> parse_size("512KB")
    524288
    >>> parse_size(64)
    64
    """
    if isinstance(value, bool):  # bool is an int subclass; reject it.
        raise ConfigError(f"not a size: {value!r}")
    if isinstance(value, int):
        if value < 0:
            raise ConfigError(f"negative size: {value}")
        return value
    m = _SIZE_RE.match(str(value))
    if not m:
        raise ConfigError(f"cannot parse size: {value!r}")
    number, suffix = m.groups()
    result = float(number) * _MULT[suffix.lower()]
    if result != int(result):
        raise ConfigError(f"size is not an integral number of bytes: {value!r}")
    return int(result)


def format_size(nbytes: int) -> str:
    """Format a byte count the way the paper writes it (``8K``, ``512K``).

    >>> format_size(8192)
    '8K'
    >>> format_size(524288)
    '512K'
    >>> format_size(64)
    '64B'
    """
    if nbytes < 0:
        raise ConfigError(f"negative size: {nbytes}")
    for suffix, mult in (("G", 1024**3), ("M", 1024**2), ("K", 1024)):
        if nbytes >= mult and nbytes % mult == 0:
            return f"{nbytes // mult}{suffix}"
    return f"{nbytes}B"


def is_pow2(n: int) -> bool:
    """Return True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_exact(n: int) -> int:
    """Return ``log2(n)`` for an exact power of two, else raise.

    >>> log2_exact(64)
    6
    """
    if not is_pow2(n):
        raise ConfigError(f"{n} is not a power of two")
    return n.bit_length() - 1

