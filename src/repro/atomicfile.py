"""Atomic file replacement, shared by every on-disk store (result
cache, trace store, checkpoint manifest, job journal)."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import IO, Callable

__all__ = ["atomic_write"]


def atomic_write(path: Path, write: Callable[[IO], object], mode: str = "w") -> None:
    """Replace ``path`` with whatever ``write(fh)`` writes, atomically.

    The bytes go to a tmp file that is unique per writer (``mkstemp``
    opens it ``O_EXCL``) and are then renamed over ``path``.  Several
    writers may replace the same file at once — hosts sharing a cache
    directory, a coordinator and a worker checkpointing one sweep — and
    a *shared* tmp name would interleave their bytes into a torn file;
    with unique names the race is benign and the last rename wins with
    a complete file.  The tmp name is dotted, so ``*.json``-style globs
    never see it, and it is removed if ``write`` raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
