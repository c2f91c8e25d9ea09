"""Derivative-free one-dimensional search kernels.

Bracket expansion and Brent line maximization. All kernels are
deterministic and tolerate objectives that return ``+-inf`` on part of their
domain: ``brent_max`` wherever the infinite region sits, ``bracket_min`` when
it sits near 0, which is the shape its caller produces. The Luxemburg norm's
root search lives in ``norms``.
``brent_max`` is the package's one line search; minimizers pass ``-fn``.
Every line it searches is concave -- a dual objective along a move, a
conjugate's ``s*t - phi(t)``, a negated convex norm objective -- and it
relies on that: three well-separated probes at the best value certify a
plateau, so the search stops there instead of narrowing its bracket.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import NumericFailure

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def brent_max(
    h: Callable[[float], float],
    lo: float,
    hi: float,
    width: float,
    anchor: tuple[float, float] | None = None,
) -> tuple[float, float, int]:
    """Maximize a concave ``h`` on ``[lo, hi]`` by Brent's method.

    ``h`` may return ``-inf`` anywhere off its effective domain. Each probe is
    a parabolic step through the three best points when all three are finite
    and the step is safe, a golden-section step into the larger side of the
    bracket otherwise (Brent, *Algorithms for Minimization without
    Derivatives*, 1973).

    Both endpoints are evaluated first, so a supremum attained at the
    boundary is exact. ``anchor`` is a known point ``(t0, h(t0))`` inside the
    interval; without one the search evaluates its own seed at the interior
    golden point. The best point moves only on strict improvement, and a
    probe that does not improve cuts the bracket on its far side, so -inf
    probes around the best point never discard the feasible region holding
    it. Stops once the bracket is no wider than ``width`` (floored at
    ``1e-15 * (1 + |lo| + |hi|)``), after three probes per golden-section
    step that this width takes, or as soon as three points, the seeds
    included, share the best finite value and lie more than a quarter of
    that width apart: with h(a) = h(m) = h(b) = M and a < m < b, concavity
    gives h <= M everywhere, so no probe can improve on it. A -inf best is
    never a plateau, and the tie set restarts whenever the best point
    improves. Returns ``(best_t, best_v, evaluations)``; the value is never
    worse than the anchor's.
    """
    # callers pass numpy scalars; plain floats make the loop's arithmetic cheaper
    lo, hi, width = float(lo), float(hi), float(width)
    if not hi >= lo:
        raise NumericFailure(f"empty bracket [{lo}, {hi}]")
    f_lo, f_hi = h(lo), h(hi)
    evals = 2
    if anchor is None:
        t0 = hi - INV_PHI * (hi - lo)
        v0 = h(t0)
        evals += 1
    else:
        t0, v0 = float(anchor[0]), anchor[1]
    # x is the best point, w the second best, v the third (Brent's naming);
    # the stable sort lets the anchor win ties
    (fx, x), (fw, w), (fv, v) = sorted(((v0, t0), (f_lo, lo), (f_hi, hi)),
                                       key=lambda p: -p[0])
    # concavity: the maximizer lies between the nearest seeds around x
    a = max((t for t in (w, v) if t < x), default=x)
    b = min((t for t in (w, v) if t > x), default=x)
    steps = (math.ceil(math.log(width / (hi - lo), INV_PHI) - 1e-9)
             if 0.0 < width < hi - lo else 0)
    tol = 0.25 * max(width, 1e-15 * (1.0 + abs(lo) + abs(hi)))
    # points at the best finite value (fx >= fw >= fv): three of them more
    # than tol apart certify a plateau
    ties = [x, w, v][:1 + (fw == fx) + (fv == fx)] if fx > -math.inf else []
    plateau = len(ties) == 3 and _plateau(ties, tol)
    step = prev = 0.0
    for _ in range(3 * steps):
        if plateau:
            break
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            break
        golden = True
        if abs(prev) > tol and math.isfinite(fx + fw + fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            last, prev = prev, step
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                step = p / q
                if x + step - a < 2.0 * tol or b - x - step < 2.0 * tol:
                    step = tol if mid >= x else -tol
                golden = False
        if golden:
            prev = (a - x) if x >= mid else (b - x)
            step = (1.0 - INV_PHI) * prev
        u = x + (step if abs(step) >= tol else math.copysign(tol, step))
        fu = h(u)
        evals += 1
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
            ties = [u]
        else:
            if fu == fx > -math.inf:
                ties.append(u)
                plateau = len(ties) >= 3 and _plateau(ties, tol)
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, evals


def _plateau(ties: list[float], tol: float) -> bool:
    """Do three of ``ties`` lie more than ``tol`` apart from each other?

    Closer points are one point to the search, and between them a slope
    can hide below the rounding of the values.
    """
    a, b = min(ties), max(ties)
    return any(a + tol < t < b - tol for t in ties)


def expand_max_bracket(
    fn: Callable[[float], float],
    start: float = 1.0,
    stop: float = math.inf,
) -> tuple[float, bool, int]:
    """Expand a doubling ray from ``start`` until ``fn`` stops increasing.

    Returns ``(hi, rising, evals)``: a maximizer of a unimodal ``fn`` on
    ``[0, inf)`` lies in ``[0, hi]`` unless ``rising`` is set, which happens
    when ``fn`` still increases at ``hi``, the first probe at or beyond
    ``stop``, or where the next doubling would leave the float range.
    """
    t = start
    v_prev = fn(t)
    evals = 1
    while 2.0 * t < math.inf and t < stop:
        t *= 2.0
        v = fn(t)
        evals += 1
        if not v > v_prev:
            return t, False, evals
        v_prev = v
    return t, True, evals


def bracket_min(fn: Callable[[float], float],
                x0: float) -> tuple[float, float, int]:
    """Bracket a minimizer of a convex ``fn`` on ``(0, inf)``.

    Walks from ``x0`` by factors of 2, at most 400 steps in all. ``fn`` may
    be ``+inf`` near 0 (the only infinite region our callers produce).
    Returns ``(lo, hi, evals)`` with a minimizer inside.
    """
    factor, max_steps = 2.0, 400
    x = x0
    v = fn(x)
    evals = 1
    steps = 0
    while not v < math.inf and steps < max_steps:
        x *= factor
        v = fn(x)
        evals += 1
        steps += 1
    if not v < math.inf:
        raise NumericFailure("objective is +inf along the whole search ray")
    # walk right while decreasing
    xr, vr = x, v
    while steps < max_steps:
        nxt = xr * factor
        vn = fn(nxt)
        evals += 1
        steps += 1
        if vn < vr:
            xr, vr = nxt, vn
        else:
            break
    # walk left while decreasing
    xl, vl = x, v
    if vr < vl:
        xl, vl = xr, vr
    while steps < max_steps:
        nxt = xl / factor
        vn = fn(nxt)
        evals += 1
        steps += 1
        if vn < vl:
            xl, vl = nxt, vn
        else:
            break
    lo = xl / factor
    hi = max(xr * factor, xl * factor)
    return lo, hi, evals
