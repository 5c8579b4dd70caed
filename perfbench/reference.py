"""Reference verdicts for the four benchmark specifications.

Each evaluator computes every verdict of one specification straight from
the defining semantics, with numpy and plain loops: sliding maxima and
minima over past and future windows, the unbounded-since recurrence and
until over its window.  Nothing here uses ``mtlmon``; the benchmark holds
the monitor's verdicts to these values with exact equality, which is
sound because min, max and negation only select values and never round.

Windows clamp at the stream start (a past window holds only the samples
that exist) and at the end of the data (a future window holds only the
samples that exist), as in ``mtlmon.oracle``.
"""

from __future__ import annotations

import math

import numpy as np

PAST_SETTLE = (
    "(not lam_ok -> once[0,100] historically[0,100] lam_ok)"
    " and historically[0,200] (lam_ok since[0,inf) idle)"
)
MIXED_HOLD = "historically[0,30] (a -> eventually[0,10] b) and (c until[0,5] d) and once[0,8] d"
MIXED_HOLD_HORIZON = 10  # held copies the monitor receives each step
TEMPLATE_E = "p0 -> eventually[0,500] p1"  # gen_template("E", 1, 500)
TEMPLATE_E_HORIZON = 500
WIDE_LOG = "historically[0,4] (a_ok or b_ok) and once[0,3] c_ok"


def dist(x: np.ndarray, lo: float = -math.inf, hi: float = math.inf) -> np.ndarray:
    """Signed distance to [lo, hi]: the robustness of the atom lo <= x <= hi."""
    return np.minimum(x - lo, hi - x)


def past_max(x: np.ndarray, w: int) -> np.ndarray:
    """out[i] = max(x[max(0, i - w) : i + 1]).

    Doubles the window of a running maximum until one more shifted copy
    covers all w + 1 samples; shifted-in positions hold -inf, the identity.
    """
    out = x.copy()
    span = 1  # out[i] is the maximum of the span samples ending at i
    while span < w + 1:
        shift = min(span, w + 1 - span)
        moved = np.full_like(out, -math.inf)
        if shift < len(out):
            moved[shift:] = out[: len(out) - shift]
        np.maximum(out, moved, out=out)
        span += shift
    return out


def past_min(x: np.ndarray, w: int) -> np.ndarray:
    """out[i] = min(x[max(0, i - w) : i + 1])."""
    return -past_max(-x, w)


def future_max(x: np.ndarray, w: int) -> np.ndarray:
    """out[i] = max(x[i : i + w + 1]), truncated at the end of x."""
    return past_max(x[::-1], w)[::-1]


def since_unbounded(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left since[0,inf) right: out[i] = max(right[i], min(left[i], out[i-1])),
    seeded with out[-1] = -inf (a maximum over no positions)."""
    out = np.empty(len(right))
    prev = -math.inf
    for i, (m, n) in enumerate(zip(left.tolist(), right.tolist())):
        prev = max(n, min(m, prev))
        out[i] = prev
    return out


def until_at(left: np.ndarray, right: np.ndarray, i: int, lo: int, up: int) -> float:
    """left until[lo,up] right at position i: the maximum over k in
    [i + lo, i + up] of min(right[k], left[i .. k-1]), truncated at the end."""
    run = math.inf
    for k in range(i, i + lo):
        run = min(run, float(left[k]))
    best = -math.inf
    for k in range(i + lo, min(len(right) - 1, i + up) + 1):
        best = max(best, min(run, float(right[k])))
        run = min(run, float(left[k]))
    return best


def past_settle(columns: dict[str, np.ndarray]) -> np.ndarray:
    ok = dist(columns["lambda"], 0.9, 1.1)
    idle = dist(columns["throttle"], hi=0.05)
    # "not lam_ok -> X" is "lam_ok or X"
    settle = np.maximum(ok, past_max(past_min(ok, 100), 100))
    return np.minimum(settle, past_min(since_unbounded(ok, idle), 200))


def mixed_hold(columns: dict[str, np.ndarray]) -> np.ndarray:
    """Verdict at step i: the specification on the prefix x[0..i] followed
    by MIXED_HOLD_HORIZON held copies of x[i], which is what the monitor
    sees under held predictions."""
    hold = MIXED_HOLD_HORIZON
    n = len(columns["u"])
    out = np.empty(n)
    for i in range(n):
        first = max(0, i - 30)  # the deepest look-back: historically[0,30]
        seg = {
            name: np.concatenate([x[first : i + 1], np.full(hold, x[i])])
            for name, x in columns.items()
        }
        pos = i - first
        a = dist(seg["u"], lo=0.0)
        b = dist(seg["v"], lo=0.5)
        c = dist(seg["w"], hi=1.0)
        d = dist(seg["z"], lo=0.5)
        settled = past_min(np.maximum(-a, future_max(b, 10)), 30)[pos]
        out[i] = min(settled, until_at(c, d, pos, 0, 5), past_max(d, 8)[pos])
    return out


def template_e(columns: dict[str, np.ndarray]) -> np.ndarray:
    """Verdicts of the steps whose whole future window is in the trace,
    the steps the perfect predictor can serve."""
    h = TEMPLATE_E_HORIZON
    p0 = dist(columns["p0"], -5.0, 5.0)
    p1 = dist(columns["p1"], -5.0, 5.0)
    return np.maximum(-p0, future_max(p1, h))[: len(p0) - h]


def wide_log(columns: dict[str, np.ndarray]) -> np.ndarray:
    a = dist(columns["v03"], -2.0, 2.0)
    b = dist(columns["v17"], hi=1.5)
    c = dist(columns["v29"], lo=-1.0)
    return np.minimum(past_min(np.maximum(a, b), 4), past_max(c, 3))
