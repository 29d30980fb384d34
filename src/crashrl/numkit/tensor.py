"""Dense float64 tensors, flat-backed named parameter sets, and their disk format.

Checkpoint format (version tag ``NKP1``), UTF-8 text, one tensor per line:

    NKP1 <n_tensors>
    <name> <ndim> <dim0> ... <dimN-1> <v0> <v1> ... (row-major)

Floats are serialized with 17 significant digits, which round-trips IEEE-754
doubles exactly, so write -> read is bit-identical.

A ParamSet keeps its tensors as views into one flat vector, in the order the
format lists them; the flat storage does not change the bytes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

FORMAT_TAG = "NKP1"


def format_float(x: float) -> str:
    """Serialize a float64 losslessly (17 significant digits)."""
    return format(float(x), ".17g")


class Tensor:
    """A dense, row-major float64 array; built from data, its entries are finite.

    Tensors inside a ParamSet are views into the set's flat vector: writing
    ``p["w0"].array[:] = ...`` writes the network's parameters in place.
    """

    __slots__ = ("array",)

    def __init__(self, array) -> None:
        arr = np.ascontiguousarray(array, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite (no NaN/Inf)")
        self.array = arr

    @classmethod
    def _view(cls, array: np.ndarray) -> "Tensor":
        """Wrap an existing float64 array without copying or checking it."""
        tensor = object.__new__(cls)
        tensor.array = array
        return tensor

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the entries."""
        return self.array.reshape(-1)

    @classmethod
    def zeros(cls, shape) -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float64))

    @classmethod
    def from_flat(cls, shape, values) -> "Tensor":
        shape = tuple(int(d) for d in shape)
        flat = np.asarray(values, dtype=np.float64)
        if flat.ndim != 1 or flat.size != int(np.prod(shape, dtype=np.int64)):
            raise ValueError(
                f"flat data of length {flat.size} does not fill shape {shape}"
            )
        return cls(flat.reshape(shape))

    def copy(self) -> "Tensor":
        return Tensor(self.array.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


Layout = tuple[tuple[str, tuple[int, ...]], ...]


class ParamSet:
    """Ordered, named tensors (weights and biases) for one network.

    The entries live in one contiguous float64 vector, ``flat``, in name
    order and row-major within each tensor; every named tensor is a view into
    it. Whole-network arithmetic (Adam, Polyak tracking, comparisons) runs on
    ``flat`` in a few vector operations.
    """

    __slots__ = ("_layout", "_tensors", "flat")

    def __init__(self, items: Iterable[tuple[str, Tensor]]) -> None:
        layout = []
        arrays = []
        for name, tensor in items:
            if not name or any(ch.isspace() for ch in name):
                raise ValueError(f"invalid parameter name {name!r}")
            if any(name == seen for seen, _ in layout):
                raise ValueError(f"duplicate parameter name {name!r}")
            if not isinstance(tensor, Tensor):
                tensor = Tensor(tensor)
            layout.append((name, tensor.shape))
            arrays.append(tensor.data)
        flat = np.concatenate(arrays) if arrays else np.empty(0)
        self._bind(tuple(layout), flat, [a.size for a in arrays])

    @classmethod
    def view(cls, layout, flat) -> "ParamSet":
        """Named views into ``flat`` (no copy), laid out by (name, shape) pairs."""
        layout = tuple((name, tuple(int(d) for d in shape)) for name, shape in layout)
        flat = np.asarray(flat, dtype=np.float64)
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
        self._tensors: dict[str, Tensor] = {}
        start = 0
        for (name, shape), size in zip(layout, sizes):
            self._tensors[name] = Tensor._view(flat[start : start + size].reshape(shape))
            start += size

    @property
    def layout(self) -> Layout:
        """(name, shape) of every tensor, in order."""
        return self._layout

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._tensors)

    def like(self, flat) -> "ParamSet":
        """A ParamSet with these names and shapes viewing ``flat`` (no copy)."""
        return ParamSet.view(self._layout, flat)

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __iter__(self) -> Iterator[tuple[str, Tensor]]:
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
    """Render a ParamSet in the NKP1 checkpoint format."""
    lines = [f"{FORMAT_TAG} {len(params)}"]
    for name, tensor in params:
        dims = " ".join(str(d) for d in tensor.shape)
        # One %-format call per tensor; "%.17g" % v is format_float(v).
        flat = tensor.data.tolist()
        values = " ".join(["%.17g"] * len(flat)) % tuple(flat)
        ndim = len(tensor.shape)
        line = f"{name} {ndim}"
        if dims:
            line += f" {dims}"
        if values:
            line += f" {values}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def decode_params(text: str, *, offset: int = 0) -> ParamSet:
    """Parse the NKP1 format; ``offset`` shifts line numbers in diagnostics."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty parameter record")
    header = lines[0].split()
    if len(header) != 2 or header[0] != FORMAT_TAG:
        raise ValueError(f"line {offset + 1}: expected '{FORMAT_TAG} <count>' header")
    count = int(header[1])
    if len(lines) != count + 1:
        raise ValueError(
            f"parameter record declares {count} tensors but has {len(lines) - 1} lines"
        )
    items = []
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        lineno = offset + i
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: truncated tensor record")
        name = tokens[0]
        try:
            ndim = int(tokens[1])
            dims = [int(t) for t in tokens[2 : 2 + ndim]]
            values = [float(t) for t in tokens[2 + ndim :]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: malformed tensor record: {exc}") from exc
        if len(dims) != ndim:
            raise ValueError(f"line {lineno}: expected {ndim} dimensions")
        expected = int(np.prod(dims, dtype=np.int64)) if dims else 1
        if len(values) != expected:
            raise ValueError(
                f"line {lineno}: tensor '{name}' expects {expected} values, got {len(values)}"
            )
        items.append((name, Tensor.from_flat(dims, values)))
    return ParamSet(items)


def write_params(params: ParamSet, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(encode_params(params))


def read_params(path) -> ParamSet:
    with open(path, "r", encoding="utf-8") as f:
        return decode_params(f.read())
