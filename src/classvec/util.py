"""Small shared helpers."""

from __future__ import annotations

import hashlib
import numbers
import operator

from .errors import ValidationError


def locked(arr):
    """``arr`` made read-only, for arrays an object exposes but must keep as built."""
    arr.setflags(write=False)
    return arr


def whole(name: str, value) -> int:
    """A count's value as an int; a bool, or a float even when whole, is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{name} must be an integer, got {value!r}")


def real(name: str, value):
    """A real setting's value as given; a string or a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return value


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
