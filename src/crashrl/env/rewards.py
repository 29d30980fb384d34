"""Reward functions of the dual-task accident-anticipation MDP.

Both rewards are bounded in [0, 1]. The accident reward multiplies an
exponentially decaying earliness weight by an XNOR agreement term; the
fixation reward is a Gaussian in the prediction error, gated by a window
indicator around the accident frame.

No function here checks its inputs: ``Episode`` checks y, t_a and the gaze,
``check_actions`` the score and p_hat, ``EnvConfig`` eta and the window.
"""

from __future__ import annotations

import math


def accident_weight(t: int, t_a: int) -> float:
    """Earliness weight (e^max(0, t_a - t) - 1)/(e^t_a - 1).

    Evaluated as exp(m - t_a) * expm1(-m)/expm1(-t_a) with m = max(0, t_a - t),
    which is algebraically identical, never overflows, and is exact at the
    boundaries (w = 1 at t = 0, w = 0 for t >= t_a). Needs t >= 0 and t_a > 0.
    """
    m = max(0.0, float(t_a) - float(t))
    if m == 0.0:
        return 0.0
    return math.exp(m - t_a) * math.expm1(-m) / math.expm1(-float(t_a))


def reward_accident(a: float, a_0: float, y: int, t: int, t_a: int | None) -> float:
    """Earliness-weighted XNOR of the thresholded score against the label.

    Negative episodes have no t_a; their weight is constant 1, so correct
    rejections earn full reward at every frame.
    """
    predicted = a > a_0
    if y == 1:
        return accident_weight(t, t_a) if predicted else 0.0
    return 0.0 if predicted else 1.0


def fixation_window_active(t: int, t_a: int | None, window: str) -> bool:
    """Whether the fixation reward indicator is on at frame t.

    Episodes without an accident have no t_a: the post-accident window never
    opens, the pre-accident window is always open.
    """
    if window == "after_accident":
        return t_a is not None and t > t_a
    return t_a is None or t <= t_a


def reward_fixation(
    p_hat: tuple[float, float],
    p: tuple[float, float],
    t: int,
    t_a: int | None,
    eta: float,
    window: str,
) -> float:
    """Gaussian closeness exp(-||p_hat - p||^2 / eta), gated by the window."""
    if not fixation_window_active(t, t_a, window):
        return 0.0
    # d * d, not d ** 2: libm pow(d, 2.0) is not always correctly rounded.
    dx = p_hat[0] - p[0]
    dy = p_hat[1] - p[1]
    return math.exp(-(dx * dx + dy * dy) / eta)
