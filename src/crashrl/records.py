"""One binary record framing, shared by episode files and agent checkpoints.

A record is one ASCII header line, then a binary payload:

    <TAG> <field> ... <crc32>\n
    <payload bytes>

``crc32`` is ``zlib.crc32`` of the payload as 8 hex digits. The payload is
little-endian; each format fixes its dtype and length from the header.

``read_record`` takes the whole file with one ``read`` and checks line 1,
naming ``path: line 1``: a non-ASCII byte, a ``_`` (which Python's ``int``
and ``float`` accept as digit grouping), a retired tag (named with its own
message), the tag and field count, each field's conversion, and the CRC
field's form: only the 8 lowercase hex digits ``write_record`` writes. The
format then checks its own header values with ``Record.fail`` and calls
``Record.payload``, which checks the payload's length and then its CRC, so
a changed payload byte never loads.
An empty file fails as ``path: empty file``.
"""

from __future__ import annotations

import zlib

from .atomic import atomic_write


def format_float(x: float) -> str:
    """Serialize a float64 losslessly (17 significant digits)."""
    return format(float(x), ".17g")


def write_record(path, fields, chunks) -> None:
    """Write ``fields`` and the payload's CRC as line 1, then the payload.

    ``chunks`` are contiguous buffers (bytes or C-contiguous arrays already
    in the payload's little-endian dtype), written in order; they are never
    joined in memory. The write is atomic.
    """
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    header = " ".join([*map(str, fields), f"{crc:08x}"]) + "\n"
    with atomic_write(path, "wb") as f:
        f.write(header.encode("ascii"))
        for chunk in chunks:
            f.write(chunk)


class Record:
    """A record's converted header fields and its not yet checked payload."""

    def __init__(self, path, fields: list, crc: int, payload: memoryview, error) -> None:
        self.path = path
        self.fields = fields
        self._crc = crc
        self._payload = payload
        self._error = error

    def fail(self, message: str) -> ValueError:
        """The error for a bad header value: ``path: line 1: message``."""
        return self._error(f"{self.path}: line 1: {message}")

    def payload(self, expected: int, formula: str) -> memoryview:
        """The payload, once it is ``expected`` bytes long and its CRC matches.

        ``formula`` says how the header gives the length, e.g. ``8*T*(H*W+2)``.
        """
        size = len(self._payload)
        if size != expected:
            raise self._error(
                f"{self.path}: payload is {size} bytes, expected {expected} "
                f"({formula}; truncated or extended file)"
            )
        actual = zlib.crc32(self._payload)
        if actual != self._crc:
            raise self._error(
                f"{self.path}: payload CRC-32 is {actual:08x}, the header says {self._crc:08x}"
            )
        return self._payload


def read_record(path, usage: str, types, retired=None, error=ValueError) -> Record:
    """Read ``path`` whole and check its header line against ``usage``.

    ``usage`` is the header's form, e.g. ``"ADE2 <H> <W> ... <crc32>"``; its
    first word is the tag. ``types`` converts each field between the tag
    and the CRC, in order (``int``, ``float``, ``str``). ``retired`` maps an
    older tag to the message that rejects it. Errors are ``error``.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if not raw:
        raise error(f"{path}: empty file")
    end = raw.find(b"\n")
    end = len(raw) if end < 0 else end
    line = raw[:end]

    def fail(message: str) -> ValueError:
        return error(f"{path}: line 1: {message}")

    if not line.isascii():
        raise fail(f"non-ASCII byte 0x{next(b for b in line if b > 0x7F):02x}")
    text = line.decode("ascii")
    if "_" in text:
        raise fail("'_' is not allowed in a number")
    fields = text.split()
    if fields and fields[0] in (retired or {}):
        raise fail(retired[fields[0]])
    if len(fields) != len(types) + 2 or fields[0] != usage.split()[0]:
        raise fail(f"expected '{usage}'")
    try:
        values = [convert(token) for convert, token in zip(types, fields[1:-1])]
        crc = int(fields[-1], 16)
    except ValueError as exc:
        raise fail(f"malformed header: {exc}") from exc
    # int() also takes a sign, a 0x prefix, upper case and extra digits.
    if not 0 <= crc <= 0xFFFFFFFF or fields[-1] != f"{crc:08x}":
        raise fail(f"CRC-32 field must be 8 lowercase hex digits, got {fields[-1]!r}")
    return Record(path, values, crc, memoryview(raw)[end + 1 :], error)
