"""Atomic file writes: a reader sees the old file or the whole new one."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open ``<path>.tmp`` for writing, then rename it over ``path``.

    The temporary file sits in the target's directory, so ``os.replace`` is
    one rename on the same file system. If the body raises, the temporary
    file is removed and ``path`` keeps its old bytes (or stays absent).
    There is no fsync: this keeps a crash or an error from leaving a
    half-written target, not a power loss from losing the last write.
    ``mode`` is ``"w"`` or ``"wb"``; ``open_kwargs`` go to ``open``.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_write mode must be 'w' or 'wb', got {mode!r}")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
