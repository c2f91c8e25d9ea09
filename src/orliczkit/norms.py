"""Modulars, Luxemburg and Amemiya norms, heart membership, dual pairing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import bracket_min, brent_max
from .errors import NumericFailure
from .measure import Rv
from .orlicz import OrliczFunction


@dataclass(frozen=True)
class NormReport:
    value: float
    iterations: int
    bracket: tuple[float, float]
    modular_at_value: float


def modular(f: Rv, lam: float, phi: OrliczFunction) -> float:
    """``sum_i w_i * phi(|f_i| / lam)`` with +inf absorbing.

    The arguments ``|f|/lam`` are nonnegative by construction, so this
    calls the Orlicz function's unchecked kernel. The weights are strictly
    positive and the values nonnegative, so the dot product is +inf exactly
    when some value is, and no separate infinity scan is needed.
    """
    if not lam > 0.0:
        raise ValueError(f"modular scale must be positive, got {lam}")
    return float(np.dot(f.space.weights, phi._values(np.abs(f.values) / lam)))


def luxemburg_norm(f: Rv, phi: OrliczFunction) -> NormReport:
    """``inf { lam > 0 : modular(f, lam) <= 1 }`` by bracketed bisection.

    The modular is nonincreasing in lam, so the predicate
    ``modular <= 1`` is monotone. A walk from ``top = sup |f|`` halves or
    doubles lam until it brackets the switch, and an inline bisection then
    shrinks the bracket to relative width 1e-10, with no absolute floor, so
    tiny norms keep their relative accuracy; a bracket whose midpoint
    rounds to an end, which happens once it is subnormal, stops early. The
    halving walk gives up 1e300 below ``top``, so it is as scale-free as the
    bisection. ``iterations`` counts the walk's steps and the bisection's,
    the step that finds its midpoint at an end included. The feasible end
    is returned, so ``modular_at_value <= 1`` always holds in the report.
    This is the scalar reference of ``_indicator_norms``.
    """
    top = f.sup_norm()
    if top == 0.0:
        return NormReport(0.0, 0, (0.0, 0.0), 0.0)

    def feasible(lam: float) -> bool:
        return modular(f, lam, phi) <= 1.0

    # halve while feasible, or double until feasible; top is tested once
    lo = hi = top
    expand = 0
    if feasible(top):
        while True:
            hi, lo = lo, lo * 0.5
            expand += 1
            if not lo > 1e-300 * top or expand > 4000:
                raise NumericFailure("Luxemburg bracket collapse: modular never exceeds 1")
            if not feasible(lo):
                break
    else:
        while True:
            lo, hi = hi, hi * 2.0
            expand += 1
            if expand > 4000:
                raise NumericFailure("Luxemburg bracket blow-up: modular never drops to 1")
            if feasible(hi):
                break
    iters = expand
    while hi - lo > 1e-10 * hi:
        iters += 1
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float exhaustion
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return NormReport(hi, iters, (lo, hi), modular(f, hi, phi))


def amemiya_norm(f: Rv, phi: OrliczFunction) -> NormReport:
    """``inf_{k>0} (1 + modular(f, 1/k)) / k`` by Brent's method.

    Substituting u = 1/k turns the objective into
    ``u * (1 + modular(f, u))``, the perspective of the modular -- convex in
    u -- so a bracketed Brent search (maximizing its negative) finds the
    minimum to a bracket of width ``1e-10 * max(1, |lo|, |hi|)``.
    ``iterations`` counts objective evaluations, bracketing included.
    """
    top = f.sup_norm()
    if top == 0.0:
        return NormReport(0.0, 0, (0.0, 0.0), 0.0)

    def obj(u: float) -> float:
        if not u > 0.0:
            return math.inf
        return u * (1.0 + modular(f, u, phi))

    lo, hi, evals = bracket_min(obj, top)
    u, neg, ev = brent_max(lambda t: -obj(t), lo, hi,
                           1e-10 * max(1.0, abs(lo), abs(hi)))
    value = -neg
    u_star = u if math.isfinite(value) else hi
    return NormReport(value, ev + evals, (lo, hi), modular(f, u_star, phi))


def heart_member(f: Rv, phi: OrliczFunction) -> bool:
    """Is every multiple of ``f`` of finite modular?

    On spaces with finitely many strictly positive atoms this is automatic
    when ``phi`` is finite everywhere, and forces ``f = 0`` when ``phi`` has
    a finite horizon.
    """
    if phi.is_finite_everywhere:
        return True
    return f.sup_norm() == 0.0


def dual_pairing(f: Rv, g: Rv) -> float:
    """``sum_i w_i * f_i * g_i``."""
    f._peer(g)
    return float(np.dot(f.space.weights, f.values * g.values))


def indicator_norm(phi: OrliczFunction, mass: float) -> float:
    """Luxemburg norm of an indicator, which depends only on the set's mass.

    It is the norm on a one-atom space carrying that mass, computed by
    ``_indicator_norms``, so it agrees with the norm on any actual space up
    to bisection tolerance.
    """
    return float(_indicator_norms(phi, [mass])[0])


def _indicator_norms(phi: OrliczFunction, masses) -> np.ndarray:
    """Luxemburg norms of indicators of the given masses, all at once.

    The norm of an indicator of mass m is ``inf { lam : m phi(1/lam) <= 1 }``.
    Each mass runs the walk and the bisection of ``luxemburg_norm`` on a
    one-atom space of that mass, and all of them run in lockstep: every step
    makes one ``phi._values(1.0 / lam)`` call over the masses still moving.
    A mass takes the steps of its own scalar run, so each norm has the bits
    of ``luxemburg_norm(Rv(MeasureSpace.finite([m]), [1.0]), phi).value``.
    """
    m = np.array(masses, dtype=float).reshape(-1)
    bad = m[~((m > 0.0) & (m < math.inf))]
    if bad.size:
        need = "finite" if bad[0] == math.inf else "positive"
        raise ValueError(f"indicator mass must be {need}, got {bad[0]}")

    # the walk from top = 1: halve while feasible, or double until feasible;
    # a halving walk stops at an infeasible lo, a doubling one at a feasible hi
    lo, hi = np.ones(m.size), np.ones(m.size)
    down = m * phi._values(1.0 / lo) <= 1.0
    walking, expand = np.arange(m.size), 0
    while walking.size:
        expand += 1
        d, lo_w, hi_w = down[walking], lo[walking], hi[walking]
        lo_w, hi_w = np.where(d, 0.5 * lo_w, hi_w), np.where(d, lo_w, 2.0 * hi_w)
        lo[walking], hi[walking] = lo_w, hi_w
        if expand > 4000 or np.any(d & (lo_w < 1e-300)):
            if d.any():
                raise NumericFailure("Luxemburg bracket collapse: modular never exceeds 1")
            raise NumericFailure("Luxemburg bracket blow-up: modular never drops to 1")
        probe = np.where(d, lo_w, hi_w)
        walking = walking[(m[walking] * phi._values(1.0 / probe) <= 1.0) == d]
    # bisect to relative width 1e-10. The walk keeps lo above 1e-300, so
    # every midpoint of a bracket that wide lies strictly inside it, and the
    # scalar run's float-exhaustion break never fires here; an infinite hi
    # stops at once. m, lo and hi shrink to the masses still moving.
    out = np.empty(m.size)
    moving = np.arange(m.size)
    while moving.size:
        going = hi - lo > 1e-10 * hi
        if np.count_nonzero(going) < going.size:
            out[moving[~going]] = hi[~going]
            moving, m, lo, hi = (a[going] for a in (moving, m, lo, hi))
            if not moving.size:
                break
        mid = 0.5 * (lo + hi)
        ok = m * phi._values(1.0 / mid) <= 1.0
        np.copyto(hi, mid, where=ok)
        np.copyto(lo, mid, where=~ok)
    return out
