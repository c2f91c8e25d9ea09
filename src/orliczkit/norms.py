"""Modulars, Luxemburg and Amemiya norms, heart membership, dual pairing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import bisect_predicate, bracket_min, brent_max
from .errors import NumericFailure
from .measure import MeasureSpace, Rv
from .orlicz import OrliczFunction


@dataclass(frozen=True)
class NormReport:
    value: float
    iterations: int
    bracket: tuple[float, float]
    modular_at_value: float


def modular(f: Rv, lam: float, phi: OrliczFunction) -> float:
    """``sum_i w_i * phi(|f_i| / lam)`` with +inf absorbing."""
    if not lam > 0.0:
        raise ValueError(f"modular scale must be positive, got {lam}")
    vals = phi.values(np.abs(f.values) / lam)
    if np.any(np.isinf(vals)):
        return math.inf
    return float(np.dot(f.space.weights, vals))


def luxemburg_norm(f: Rv, phi: OrliczFunction) -> NormReport:
    """``inf { lam > 0 : modular(f, lam) <= 1 }`` by bracketed bisection.

    The modular is nonincreasing in lam, so the predicate
    ``modular <= 1`` is monotone; bisection shrinks the bracket to relative
    width 1e-10 (absolute floor 1e-14) and the feasible end is returned, so
    ``modular_at_value <= 1`` always holds in the report.
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
            if lo < 1e-300 or expand > 4000:
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
    lo, hi, iters = bisect_predicate(feasible, lo, hi, rel_tol=1e-10, abs_floor=1e-14)
    return NormReport(hi, iters + expand, (lo, hi), modular(f, hi, phi))


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

    Computed on a synthetic one-atom space carrying that mass, so it agrees
    with the norm on any actual space up to bisection tolerance.
    """
    if not mass > 0.0:
        raise ValueError(f"indicator mass must be positive, got {mass}")
    one_atom = MeasureSpace.finite([mass])
    return luxemburg_norm(Rv(one_atom, np.ones(1)), phi).value
