"""Atomic file writes, and the one byte form of every artifact crashrl writes.

A reader sees the old file or the whole new one. Text is UTF-8 with
``"\\n"`` line ends, and every writer creates the target's parent directory.
"""

from __future__ import annotations

import contextlib
import json
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open ``<path>.tmp`` for writing, then rename it over ``path``.

    The temporary file sits in the target's directory (created if missing),
    so ``os.replace`` is one rename on the same file system. If the body
    raises, the temporary file is removed and ``path`` keeps its old bytes
    (or stays absent). There is no fsync: this keeps a crash or an error
    from leaving a half-written target, not a power loss from losing the
    last write. ``mode`` is ``"w"`` (UTF-8, ``"\\n"`` line ends) or ``"wb"``.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_write mode must be 'w' or 'wb', got {mode!r}")
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):  # one stat: makedirs on an existing directory costs more
        os.makedirs(parent, exist_ok=True)
    text = {"encoding": "utf-8", "newline": "\n"} if mode == "w" else {}
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **text) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, payload) -> None:
    """``payload`` as sorted, 2-space-indented JSON and a final newline."""
    with atomic_write(path) as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row tuple; each value is written
    with ``str`` (for a Python float, its shortest round-trip repr)."""
    line = ",".join(["%s"] * len(header)) + "\n"
    with atomic_write(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(line % row)
