"""Small shared helpers."""

from __future__ import annotations

import hashlib


def locked(arr):
    """``arr`` made read-only, for arrays an object exposes but must keep as built."""
    arr.setflags(write=False)
    return arr


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
