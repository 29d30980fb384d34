"""Flat-backed named parameter sets.

A ParamSet keeps its tensors as ndarray views into one flat float32 vector
(``DTYPE``), in layout order and row-major within each tensor. numkit has
no file format: an agent checkpoint stores each network's flat vector as
little-endian float32 (``agents.agent``).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

# The one dtype of network parameters, optimizer moments, replay and
# gradient phases.
DTYPE = np.float32


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
        sizes = [math.prod(shape) for _, shape in layout]
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
