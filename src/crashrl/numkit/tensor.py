"""Flat-backed named parameter sets and their disk format.

Checkpoint format (version tag ``NKP2``), UTF-8 text, one tensor per line:

    NKP2 <n_tensors>
    <name> <ndim> <dim0> ... <dimN-1> <v0> <v1> ... (row-major)

Values are float32, serialized with 9 significant digits, which round-trips
IEEE-754 single precision exactly, so write -> read is bit-identical. The
reader rejects a ``_`` in a count, dimension or value, which ``int`` and
``float`` would read as digit grouping, and names the older float64 format
(``NKP1``, 17 digits) instead of loading it rounded.

A ParamSet keeps its tensors as ndarray views into one flat float32 vector
(``DTYPE``), in the order the format lists them; the flat storage does not
change the bytes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

FORMAT_TAG = "NKP2"
FLOAT64_FORMAT_TAG = "NKP1"

# The one dtype of network parameters, optimizer moments, replay and
# gradient phases.
DTYPE = np.float32


def format_float(x: float) -> str:
    """Serialize a float64 losslessly (17 significant digits)."""
    return format(float(x), ".17g")


Layout = tuple[tuple[str, tuple[int, ...]], ...]


class ParamSet:
    """Ordered, named tensors (weights and biases) for one network.

    The entries live in one contiguous float32 vector, ``flat``, in name
    order and row-major within each tensor; ``params["w0"]`` is an ndarray
    view into it, so writing ``params["w0"][:] = ...`` writes the network's
    parameters in place. Whole-network arithmetic (Adam, Polyak tracking,
    comparisons) runs on ``flat`` in a few vector operations.
    """

    __slots__ = ("_layout", "_tensors", "flat")

    def __init__(self, items: Iterable[tuple[str, object]]) -> None:
        """Copy (name, array-like) pairs into one flat float32 vector.

        Entries must be finite after the cast (a value beyond float32's range
        is not).
        """
        layout = []
        arrays = []
        for name, values in items:
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"invalid parameter name {name!r}")
            if any(name == seen for seen, _ in layout):
                raise ValueError(f"duplicate parameter name {name!r}")
            array = np.asarray(values, dtype=np.float64)
            layout.append((name, array.shape))
            arrays.append(array.reshape(-1))
        with np.errstate(over="ignore"):  # out of float32 range: Inf, rejected below
            flat = np.concatenate(arrays, dtype=DTYPE) if arrays else np.empty(0, DTYPE)
        if not np.isfinite(flat).all():
            raise ValueError("parameter entries must be finite (no NaN/Inf)")
        self._bind(tuple(layout), flat, [a.size for a in arrays])

    @classmethod
    def view(cls, layout, flat) -> "ParamSet":
        """Named views into ``flat`` (no copy), laid out by (name, shape) pairs.

        ``flat`` keeps its dtype: float32, or float64 for the cast copies
        that gradient checks run in.
        """
        layout = tuple((name, tuple(int(d) for d in shape)) for name, shape in layout)
        flat = np.asarray(flat)
        sizes = [int(np.prod(shape, dtype=np.int64)) for _, shape in layout]
        if flat.ndim != 1 or flat.size != sum(sizes):
            raise ValueError(
                f"flat vector of shape {flat.shape} does not fill {sum(sizes)} entries"
            )
        params = object.__new__(cls)
        params._bind(layout, flat, sizes)
        return params

    def _bind(self, layout: Layout, flat: np.ndarray, sizes) -> None:
        self._layout = layout
        self.flat = flat
        self._tensors: dict[str, np.ndarray] = {}
        start = 0
        for (name, shape), size in zip(layout, sizes):
            self._tensors[name] = flat[start : start + size].reshape(shape)
            start += size

    @property
    def layout(self) -> Layout:
        """(name, shape) of every tensor, in order."""
        return self._layout

    def like(self, flat) -> "ParamSet":
        """A ParamSet with these names and shapes viewing ``flat`` (no copy)."""
        return ParamSet.view(self._layout, flat)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __iter__(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._tensors.items())

    def __len__(self) -> int:
        return len(self._layout)

    def copy(self) -> "ParamSet":
        return self.like(self.flat.copy())

    def zeros_like(self) -> "ParamSet":
        return self.like(np.zeros_like(self.flat))

    def same_shapes(self, other: "ParamSet") -> bool:
        return self._layout == other._layout

    def equal(self, other: "ParamSet") -> bool:
        """Bitwise equality of names, shapes, and entries."""
        return self.same_shapes(other) and np.array_equal(self.flat, other.flat)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}{list(shape)}" for n, shape in self._layout)
        return f"ParamSet({inner})"


def encode_params(params: ParamSet) -> str:
    """Render a ParamSet in the NKP2 checkpoint format."""
    lines = [f"{FORMAT_TAG} {len(params)}"]
    for name, array in params:
        dims = " ".join(str(d) for d in array.shape)
        # One %-format call per tensor: 9 significant digits per float32 value.
        flat = array.reshape(-1).tolist()
        values = " ".join(["%.9g"] * len(flat)) % tuple(flat)
        line = f"{name} {array.ndim}"
        if dims:
            line += f" {dims}"
        if values:
            line += f" {values}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def decode_params(lines: Iterable[str], *, offset: int = 0) -> ParamSet:
    """Read one NKP2 record, the header and its tensor lines, from ``lines``.

    ``lines`` is an iterable of text lines, such as ``text.splitlines()`` or
    an open file. From an iterator (a file) it consumes exactly the record's
    lines and leaves the rest. ``offset`` is the number of lines before the
    header, so diagnostics name the line of the whole file.
    """
    lines = iter(lines)
    header_line = next(lines, None)
    header = [] if header_line is None else header_line.split()
    if header[:1] == [FLOAT64_FORMAT_TAG]:
        raise ValueError(
            f"line {offset + 1}: {FLOAT64_FORMAT_TAG} is the float64 parameter format; "
            f"this reader reads {FORMAT_TAG} (float32)"
        )
    if len(header) != 2 or header[0] != FORMAT_TAG:
        raise ValueError(f"line {offset + 1}: expected '{FORMAT_TAG} <count>' header")
    if "_" in header[1]:
        raise ValueError(f"line {offset + 1}: '_' is not allowed in a number")
    try:
        count = int(header[1])
    except ValueError:
        raise ValueError(
            f"line {offset + 1}: {FORMAT_TAG} tensor count must be an integer, "
            f"got {header[1]!r}"
        ) from None
    if count < 0:
        raise ValueError(f"line {offset + 1}: negative {FORMAT_TAG} tensor count {count}")
    layout = []
    arrays = []
    for lineno in range(offset + 2, offset + 2 + count):
        line = next(lines, None)
        if line is None:
            raise ValueError(
                f"line {lineno}: record ends after {len(layout)} of {count} tensors"
            )
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: truncated tensor record")
        name = tokens[0]
        if "_" in line and any("_" in token for token in tokens[1:]):
            raise ValueError(f"line {lineno}: '_' is not allowed in a number")
        try:
            ndim = int(tokens[1])
            dims = tuple(int(t) for t in tokens[2 : 2 + ndim])
            with np.errstate(over="ignore"):  # out of float32 range: Inf, named below
                values = np.array([float(t) for t in tokens[2 + ndim :]], dtype=DTYPE)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed tensor record: {exc}") from exc
        if len(dims) != ndim or min(dims, default=0) < 0:
            raise ValueError(f"line {lineno}: expected {ndim} nonnegative dimensions")
        expected = int(np.prod(dims, dtype=np.int64)) if dims else 1
        if values.size != expected:
            raise ValueError(
                f"line {lineno}: tensor '{name}' expects {expected} values, got {values.size}"
            )
        if not np.isfinite(values).all():
            raise ValueError(
                f"line {lineno}: tensor '{name}' entries must be finite (no NaN/Inf)"
            )
        if any(name == seen for seen, _ in layout):
            raise ValueError(f"line {lineno}: duplicate parameter name {name!r}")
        layout.append((name, dims))
        arrays.append(values)
    flat = np.concatenate(arrays) if arrays else np.empty(0, DTYPE)
    return ParamSet.view(layout, flat)
