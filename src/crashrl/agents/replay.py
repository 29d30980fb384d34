"""FIFO experience replay with seeded uniform sampling.

``push`` takes one transition (s, a, r, s', done) in the environment's
float64; the buffer stores it, and every ``Batch`` holds it, in the network
core's float32. ``push`` checks only the state widths: the action passed
``check_actions`` in ``AccidentEnv.step``, and ``AgentConfig`` the capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numkit import DTYPE

ACTION_DIM = 3


@dataclass(frozen=True)
class Batch:
    """Column-stacked float32 transitions; r and done are [n, 1] for broadcasting.

    Columns of another dtype are cast on construction.
    """

    s: np.ndarray
    action: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    done: np.ndarray

    def __post_init__(self):
        for name in ("s", "action", "r", "s_next", "done"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=DTYPE))

    def __len__(self) -> int:
        return self.s.shape[0]


class ReplayBuffer:
    """Ring buffer: FIFO eviction when full, uniform sampling with replacement."""

    def __init__(self, capacity: int = 100_000, seed: int = 0) -> None:
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._s: np.ndarray | None = None
        self._a = np.empty((capacity, ACTION_DIM), DTYPE)
        self._r = np.empty(capacity, DTYPE)
        self._s2: np.ndarray | None = None
        self._d = np.empty(capacity, DTYPE)
        self._size = 0
        self._head = 0

    def __len__(self) -> int:
        return self._size

    def push(
        self, s: np.ndarray, action: np.ndarray, r: float, s_next: np.ndarray, done: bool
    ) -> None:
        """Store one transition: [obs_dim] states and the [3] dual action, as arrays.

        The row writes cast them to float32. Evicts the oldest when full.
        """
        if s.shape != s_next.shape:
            raise ValueError("state and next-state feature lengths must match")
        if self._s is None:
            self._s = np.empty((self.capacity, s.size), DTYPE)
            self._s2 = np.empty((self.capacity, s.size), DTYPE)
        elif s.size != self._s.shape[1]:
            raise ValueError(
                f"transition feature length {s.size} does not match "
                f"buffer width {self._s.shape[1]}"
            )
        i = self._head
        self._s[i] = s
        self._a[i] = action
        self._r[i] = r
        self._s2[i] = s_next
        self._d[i] = 1.0 if done else 0.0
        self._head = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, n: int) -> Batch:
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        if not 1 <= n <= self._size:
            raise ValueError(f"sample size must be in [1, {self._size}], got {n}")
        idx = self._rng.integers(0, self._size, size=n)
        return Batch(
            self._s[idx],
            self._a[idx],
            self._r[idx].reshape(-1, 1),
            self._s2[idx],
            self._d[idx].reshape(-1, 1),
        )
