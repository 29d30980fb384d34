"""FIFO experience replay with seeded uniform sampling.

A transition (s, a, r_A, r_F, s', done) arrives in the environment's
float64. The buffer keeps r_A and r_F in float64 and the rest in the network
core's float32; ``sample`` forms each row's reward w_A * r_A + w_F * r_F in
float64, and every ``Batch`` holds it in float32. ``write`` does every write
and ``commit`` counts the written slots; ``push`` is their one-row case.
Every column is allocated at construction for ``obs_dim``-wide states, and
``write`` rejects a state or next state of another width before it writes
any column (numpy's row assignment would broadcast a width-1 state across
the row), so ``commit`` never counts it. The action passed
``check_actions`` in ``AccidentEnv.step``, and ``AgentConfig`` checked the
capacity.
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

    def __init__(self, capacity: int, obs_dim: int, seed: int) -> None:
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._s = np.empty((capacity, obs_dim), DTYPE)
        self._a = np.empty((capacity, ACTION_DIM), DTYPE)
        self._r_a = np.empty(capacity)
        self._r_f = np.empty(capacity)
        self._s2 = np.empty((capacity, obs_dim), DTYPE)
        self._d = np.empty(capacity, DTYPE)
        self._size = 0
        self._head = 0

    def __len__(self) -> int:
        return self._size

    def push(self, s, action, r_A: float, r_F: float, s_next, done: bool) -> None:
        """Store one transition: [obs_dim] states and the [3] dual action, as
        arrays. Evicts the oldest when full."""
        self.write(0, s, action, r_A, r_F, s_next, done)
        self.commit(1)

    def write(self, offsets, s, action, r_A, r_F, s_next, done: bool) -> None:
        """Write transitions into the slots ``offsets`` past the head, without
        counting them as filled (``commit`` does).

        ``offsets`` is an int, for one transition of [obs_dim] states, or an
        [n] array of distinct offsets, one per row of [n, obs_dim] states;
        the other columns match. The row writes cast all but the rewards to
        float32.
        """
        width = self._s.shape[1]
        if np.shape(s)[-1:] != (width,) or np.shape(s_next)[-1:] != (width,):
            raise ValueError(
                f"states must have {width} columns, got shapes "
                f"{list(np.shape(s))} and {list(np.shape(s_next))}"
            )
        i = (self._head + offsets) % self.capacity
        self._s[i] = s
        self._a[i] = action
        self._r_a[i] = r_A
        self._r_f[i] = r_F
        self._s2[i] = s_next
        self._d[i] = done

    def commit(self, n: int) -> None:
        """Count the n slots past the head as filled and move the head past them."""
        self._head = (self._head + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def sample(self, n: int, reward_weights) -> Batch:
        """n transitions drawn uniformly with replacement; each row's reward is
        ``w_A * r_A + w_F * r_F`` for ``reward_weights = (w_A, w_F)``."""
        if self._size == 0:
            raise ValueError("cannot sample from an empty buffer")
        if not 1 <= n <= self._size:
            raise ValueError(f"sample size must be in [1, {self._size}], got {n}")
        idx = self._rng.integers(0, self._size, size=n)
        w_a, w_f = reward_weights
        r = w_a * self._r_a[idx] + w_f * self._r_f[idx]
        return Batch(
            self._s[idx],
            self._a[idx],
            r.reshape(-1, 1),
            self._s2[idx],
            self._d[idx].reshape(-1, 1),
        )
