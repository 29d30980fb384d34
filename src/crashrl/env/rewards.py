"""Reward functions of the dual-task accident-anticipation MDP.

Both rewards are bounded in [0, 1]. The accident reward multiplies an
exponentially decaying earliness weight by an XNOR agreement term; the
fixation reward is a Gaussian in the prediction error, gated by a window
indicator around the accident frame.
"""

from __future__ import annotations

import math

from .config import FIXATION_WINDOWS


def accident_weight(t: int, t_a: int) -> float:
    """Earliness weight (e^max(0, t_a - t) - 1)/(e^t_a - 1).

    Evaluated as exp(m - t_a) * expm1(-m)/expm1(-t_a) with m = max(0, t_a - t),
    which is algebraically identical, never overflows, and is exact at the
    boundaries (w = 1 at t = 0, w = 0 for t >= t_a).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t_a <= 0:
        raise ValueError(f"t_a must be > 0, got {t_a}")
    m = max(0.0, float(t_a) - float(t))
    if m == 0.0:
        return 0.0
    return math.exp(m - t_a) * math.expm1(-m) / math.expm1(-float(t_a))


def reward_accident(a: float, a_0: float, y: int, t: int, t_a: int | None) -> float:
    """Earliness-weighted XNOR of the thresholded score against the label.

    Negative episodes have no t_a; their weight is constant 1, so correct
    rejections earn full reward at every frame.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"accident score must be in [0, 1], got {a}")
    if y not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {y}")
    if y == 1 and t_a is None:
        raise ValueError("positive episode requires an accident frame t_a")
    predicted = a > a_0
    if y == 1:
        return accident_weight(t, t_a) if predicted else 0.0
    return 0.0 if predicted else 1.0


def fixation_window_active(t: int, t_a: int | None, window: str = "after_accident") -> bool:
    """Whether the fixation reward indicator is on at frame t.

    Episodes without an accident have no t_a: the post-accident window never
    opens, the pre-accident window is always open.
    """
    if window not in FIXATION_WINDOWS:
        raise ValueError(f"window must be one of {FIXATION_WINDOWS}, got {window!r}")
    if window == "after_accident":
        return t_a is not None and t > t_a
    return t_a is None or t <= t_a


def reward_fixation(
    p_hat: tuple[float, float],
    p: tuple[float, float],
    t: int,
    t_a: int | None,
    eta: float,
    window: str = "after_accident",
) -> float:
    """Gaussian closeness exp(-||p_hat - p||^2 / eta), gated by the window."""
    if eta <= 0.0:
        raise ValueError(f"eta must be > 0, got {eta}")
    for name, point in (("p_hat", p_hat), ("p", p)):
        if not (0.0 <= point[0] <= 1.0 and 0.0 <= point[1] <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]^2, got {tuple(point)}")
    if not fixation_window_active(t, t_a, window):
        return 0.0
    d2 = (p_hat[0] - p[0]) ** 2 + (p_hat[1] - p[1]) ** 2
    return math.exp(-d2 / eta)
