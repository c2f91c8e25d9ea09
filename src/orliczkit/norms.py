"""Modulars, Luxemburg and Amemiya norms, heart membership, dual pairing.

Both norms are monotone switches found by one search (``_switch``) in
u = lam / sup|f|: the Luxemburg norm where the modular of Phi crosses 1,
the Amemiya (Orlicz) norm where the modular of Phi's companion
``t Phi'(t) - Phi(t)`` does, and the strictly positive witness's indicator
norms as a batch of many one-atom problems. Only custom callables, which
have no derivative, take Brent's method on the Amemiya perspective
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import bracket_min, brent_max
from .errors import NumericFailure
from .measure import MeasureSpace, Rv
from .orlicz import CUSTOM, OrliczFunction, limit_slope


@dataclass(frozen=True)
class NormReport:
    """A norm and how it was found.

    ``bracket`` is the search's terminal cell in u = lam / sup|f|, scaled
    back to lam = sup|f| u: for the Luxemburg norm its upper end is
    ``value``; for the Amemiya norm it holds 1/k at the minimizer of
    ``(1 + modular(f, 1/k)) / k``. ``modular_at_value`` is the modular of
    Phi at the upper end, evaluated in u (``sum_i w_i Phi(x_i / u)``, x =
    |f| / sup|f|), so at most 1 for the Luxemburg norm. ``iterations``
    counts the kernel calls after the one at u = 1, or Brent's objective
    evaluations, as each norm states.
    """

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
    with np.errstate(over="ignore"):
        return float(np.dot(f.space.weights, phi._values(np.abs(f.values) / lam)))


def luxemburg_norm(f: Rv, phi: OrliczFunction) -> NormReport:
    """``inf { lam > 0 : modular(f, lam) <= 1 }``: a bisection's answer, found
    by a verified secant.

    The modular is nonincreasing in lam, so the predicate
    ``modular <= 1`` is monotone. The answer is ``_switch``'s, run in
    u = lam / sup|f| on x = |f| / sup|f|: the feasible end u of the
    bisection's terminal cell, reported as ``sup|f| * u``, which rounds
    once. ``modular_at_value`` is the modular at that u, at most 1. The
    search takes 2 kernel calls after the walk for power functions, 4 to 5
    for ``exp_young`` and its conjugate, and 1 for ``linf_step``, where the
    bisection took 34. ``iterations`` counts the kernel calls after the one
    at u = 1, so the modular is evaluated ``iterations + 1`` times in all.
    This is the batch of one of ``_indicator_norms``.
    """
    absf = np.abs(f.values)
    top = float(absf.max())
    if top == 0.0:
        return NormReport(0.0, 0, (0.0, 0.0), 0.0)
    weights, x = f.space.weights[None], absf[None] / top
    with np.errstate(over="ignore"):
        top_mod = _modular(weights, x, _ONE, phi._values)[0]
        (lo,), (hi,), (m,), calls = _switch(weights, x, phi._values, top_mod)
    return NormReport(top * hi, calls, (top * lo, top * hi), m)


def _modular(weights: np.ndarray, x: np.ndarray, u: np.ndarray,
             kernel) -> list[list[float]]:
    """``sum_i w_i kernel(x_i / u)`` of every problem at each of its scales:
    ``weights`` and ``x`` hold one problem per row, ``u`` its scales, and
    the result is ``u`` as nested lists of those sums. The norms' one
    kernel call, of Phi (``phi._values``) or of its companion
    (``phi._companion``), inside the caller's ``np.errstate(over="ignore")``.
    Each sum is ``np.dot``'s, or a stacked one-by-one matrix product, which
    has its bits."""
    if u.size == 1:
        return [[float(np.dot(weights[0], kernel(x[0] / u[0, 0])))]]
    values = kernel(x[:, None, :] / u[:, :, None])
    return (values[:, :, None, :] @ weights[:, None, :, None])[:, :, 0, 0].tolist()


# scales a walking problem of one atom tests per kernel call; a problem of
# n atoms tests max(1, _WALK_BATCH // n)
_WALK_BATCH = 16
# the walk's scales, 2^e in row 0 and 2^-e in row 1 for e = 1, 2, ...; the
# doubling walk reaches +inf at e = 1024. _ONE is the scale u = 1.
_ONE = np.ones((1, 1))
with np.errstate(over="ignore"):
    _WALK_SCALES = np.ldexp(1.0, np.arange(1, 1024 + 2 * _WALK_BATCH)
                            * np.array([[1], [-1]]))


def _log_modular(value: float) -> float:
    """``log(value)``, or nan where the secant cannot use it (0, +inf, nan)."""
    return math.log(value) if 0.0 < value < math.inf else math.nan


def _kept_scale(y_new: float, y_old: float) -> float:
    """The factor on the log modular of the end a secant probe keeps, when
    the probe replaced the other end's ``y_old`` by ``y_new``:
    ``1 - y_new / y_old``, or 1/2 where that is not positive (Anderson &
    Bjorck 1973). Illinois takes 1/2 always; this converged in fewer calls
    on ``exp_young`` and its conjugate, and the same on power functions."""
    scale = 1.0 - y_new / y_old if y_old else 0.5
    return scale if scale > 0.0 else 0.5


def _switch(weights: np.ndarray, x: np.ndarray, kernel,
            last: list[float]) -> tuple[list, list, list, int]:
    """Where each problem's nonincreasing modular ``u -> sum_i w_i
    kernel(x_i / u)`` (``_modular``) crosses 1: the lower and upper ends of
    the bisection's terminal cell in u, the modular at the upper end, and
    the kernel calls taken after ``last``, the modulars at u = 1, a list
    the walk overwrites with each walking problem's last modular.

    A walk from u = 1 halves u while feasible (modular <= 1) or doubles it
    until feasible, testing ``max(1, _WALK_BATCH // n)`` scales of each
    problem per call; it gives up halving at 2^-996, just above 1e-300, and
    doubling past 2^1024 = +inf, where the modular reads Phi(0): 0 for a
    Young function, but a custom spot check admits |Phi(0)| <= 1e-12. Its
    cell [lo, 2 lo] has ends that are powers of two, so
    the bisection's midpoints are exact and its cells form a grid,
    ``lo + i s`` with s = lo 2^-34: the bisection stops at width 1e-10 of
    the upper end, at depth 33 where the cell's upper end is at least
    1.164 lo and at depth 34 below. The search keeps a known infeasible
    index ia and feasible ib on that terminal grid, and guesses the switch
    by a secant in (log u, log modular) with the Anderson-Bjorck variant of
    the Illinois step (``_kept_scale``), exact where the modular is a power
    of u. Each round probes, for every pending problem, the end of the
    terminal cell holding its guess that is nearer the guess and not yet
    known, in one kernel call; a problem is done when ia and ib bound one
    terminal cell, which is then the bisection's, bit for bit, wherever
    the computed modular is monotone. A modular of 0 at ib (a step)
    guesses ib; without a usable guess, or once a problem's calls since the
    walk plus log2(ib - ia) pass 40, six behind the bisection's pace, the
    guess is the middle of [ia, ib]. A walk that ends at u = +inf is the
    bisection's answer at once.
    """
    n_prob, n = x.shape
    k = max(1, _WALK_BATCH // n)
    down = (np.array(last) <= 1.0).astype(np.intp)
    cells: list = [None] * n_prob
    walking, e0, calls = list(range(n_prob)), 0, 0
    while walking:
        rows = slice(None) if len(walking) == n_prob else walking
        scales = _WALK_SCALES[down[rows], e0:e0 + k]
        value = _modular(weights[rows], x[rows], scales, kernel)
        calls, going = calls + 1, []
        for i, row in zip(walking, value):
            d = last[i] <= 1.0
            col = next((j for j, m in enumerate(row) if (m <= 1.0) != d), None)
            end = e0 + (k if col is None else col) + 1
            if end > (996 if d else 1024):
                raise NumericFailure("norm bracket collapse: modular never exceeds 1" if d
                                     else "norm bracket blow-up: modular never drops to 1")
            if col is None:
                last[i], going = row[-1], going + [i]
                continue
            before = row[col - 1] if col else last[i]
            lo = math.ldexp(1.0, -end if d else end - 1)
            a_mod, b_mod = (row[col], before) if d else (before, row[col])
            ia = 2**34 - 1 if lo == 2.0**1023 else 0  # an infinite hi
            cells[i] = [lo, lo * 2.0**-34, ia, 2**34, _log_modular(a_mod),
                        _log_modular(b_mod), b_mod]
        walking, e0 = going, e0 + k
    pending, walked = [i for i in range(n_prob) if cells[i][2] == 0], calls
    while pending:
        probes, scales = [], []
        for i in pending:
            lo, s, ia, ib, ya, yb, b_mod = cells[i]
            a, b = lo + ia * s, lo + ib * s
            guess = (ib if b_mod == 0.0 else
                     (a * math.exp(ya / (ya - yb) * math.log(b / a)) - lo) / s)
            if guess != guess or calls - walked + math.log2(ib - ia) > 40.0:
                guess = 0.5 * (ia + ib)
            c = min(max(math.floor(guess), ia), ib - 1)
            c_lo, c_hi = ((c - c % 2, c - c % 2 + 2) if 2.0 * s <= 1e-10 * (
                lo + (c - c % 2 + 2) * s) else (c, c + 1))  # depth 33 or 34
            near_hi = c_hi < ib and c_hi - guess <= guess - c_lo
            probes.append(c_hi if c_lo <= ia or near_hi else c_lo)
            scales.append([lo + probes[-1] * s])
        rows = slice(None) if len(pending) == n_prob else pending
        value = _modular(weights[rows], x[rows], np.array(scales), kernel)
        calls, going = calls + 1, []
        for i, p, (m,) in zip(pending, probes, value):
            cell = cells[i]
            y, ya, yb = _log_modular(m), cell[4], cell[5]
            if m <= 1.0:
                cell[3], cell[6], cell[4], cell[5] = p, m, ya * _kept_scale(y, yb), y
            else:
                cell[2], cell[4], cell[5] = p, y, yb * _kept_scale(y, ya)
            lo, s, ia, ib = cell[:4]
            terminal33 = ib % 2 == 0 and 2.0 * s <= 1e-10 * (lo + ib * s)
            if ib - ia > (2 if terminal33 else 1):
                going.append(i)
        pending = going
    return ([lo + ia * s for lo, s, ia, *_ in cells],
            [lo + ib * s for lo, s, _, ib, *_ in cells],
            [cell[6] for cell in cells], calls)


def amemiya_norm(f: Rv, phi: OrliczFunction) -> NormReport:
    """``inf_{k>0} (1 + modular(f, 1/k)) / k``, the Orlicz norm.

    In u = 1/k the objective is ``g(u) = u (1 + modular(f, u))``, the
    perspective of the modular, convex in u, with right derivative
    ``1 - sum_i w_i C(|f_i| / u)``, C the companion ``t Phi'(t) - Phi(t)``
    (``OrliczFunction._companion``, Phi' the left derivative). So the
    minimizer is where the companion modular ``sum_i w_i C(|f_i| / u)``,
    nonincreasing in u, crosses 1: where ``integral Psi(p(k|f|)) = 1``
    with p the derivative of Phi (Krasnosel'skii & Rutickii, *Convex
    Functions and Orlicz Spaces*, 1961; Hudzik & Maligranda, *Indag.
    Math.* 11, 2000). That is the monotone switch of the Luxemburg
    norm, found by the same search (``_switch``) in u / sup|f|; the answer
    is ``g(hi)`` at the feasible end hi of the bisection's terminal cell.

    A kind whose limit slope s_inf is finite (a table with a linear tail,
    as ``linear``) has a constant C on its tail, so its companion modular
    rises as u falls to a finite level: that constant times the mass where
    f != 0. Where the level is at most 1 there is no switch: g is
    nondecreasing, and the norm is its limit at u = 0,
    ``s_inf * sum_i w_i |f_i|``, read without a walk.

    ``custom`` callables have no derivative, so their norm is a bracketed
    Brent minimization of g (``bracket_min``, ``brent_max``) in s = u /
    sup|f|, to a bracket of width ``1e-10 * hi``.

    ``bracket`` is the terminal cell in u, (0, 0) for the limit;
    ``modular_at_value`` is the modular of Phi at the answer's u, +inf for
    the limit. ``iterations`` counts the companion's kernel calls after the
    one at u = sup|f| and the one call of Phi at hi, or Brent's objective
    evaluations, bracketing included; on every path the kernels are
    evaluated ``iterations + 1`` times in all.
    """
    top = f.sup_norm()
    if top == 0.0:
        return NormReport(0.0, 0, (0.0, 0.0), 0.0)
    absf = np.abs(f.values)
    if phi.kind == CUSTOM:
        return _amemiya_brent(f.space.weights, absf, top, phi)
    weights, x = f.space.weights[None], absf[None] / top
    with np.errstate(over="ignore"):
        top_mod = _modular(weights, x, _ONE, phi._companion)[0]
        slope = limit_slope(phi)
        if top_mod[0] <= 1.0 and not slope.is_infinite:
            level = (phi._companion(np.array([math.inf]))[0]
                     * float(np.sum(weights[x > 0.0])))
            if level <= 1.0:
                return NormReport(slope.limit * float(np.dot(weights[0], absf)),
                                  0, (0.0, 0.0), math.inf)
        (lo,), (hi,), _, calls = _switch(weights, x, phi._companion, top_mod)
        at_value = _modular(weights, x, np.array([[hi]]), phi._values)[0][0]
    return NormReport(top * hi * (1.0 + at_value), calls + 1,
                      (top * lo, top * hi), at_value)


def _amemiya_brent(weights: np.ndarray, absf: np.ndarray, top: float,
                   phi: OrliczFunction) -> NormReport:
    """``amemiya_norm`` of a ``custom`` kind: Brent's method on the
    perspective in s = u / sup|f|, where the objective of ``c f`` is that
    of ``f`` up to rounding, so the norm is as accurate at any scale.

    ``bracket_min``'s bracket [lo, hi] has ends that are powers of two, and
    Brent runs in s / m, m = 2 lo: the same probes as in s, exactly, but
    with ``brent_max``'s absolute width floor of about 1e-15 kept relative
    to m, so a minimizer at s = 2^-498 is still resolved.
    """
    kernel, weights, absf = phi._values, weights[None], absf[None]

    def obj(s: float) -> float:
        # +inf wherever the scale is not a positive float: past the float
        # range |f| / (top s) would read Phi(0) = 0
        lam = top * s
        if not 0.0 < lam < math.inf:
            return math.inf
        return s * (1.0 + _modular(weights, absf, np.array([[lam]]),
                                   kernel)[0][0])

    with np.errstate(over="ignore"):
        lo, hi, evals = bracket_min(obj, 1.0)
        mid = 2.0 * lo
        t, neg, ev = brent_max(lambda t: -obj(mid * t), 0.5, hi / mid,
                               1e-10 * hi / mid)
        s_star = mid * t if math.isfinite(neg) else hi
        at_value = _modular(weights, absf, np.array([[top * s_star]]),
                            kernel)[0][0]
    return NormReport(-neg * top, ev + evals, (top * lo, top * hi), at_value)


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
    f.space.require_same(g.space)
    return float(np.dot(f.space.weights, f.values * g.values))


def indicator_norm(phi: OrliczFunction, mass: float) -> float:
    """Luxemburg norm of an indicator, which depends only on the set's mass.

    It is ``luxemburg_norm`` on a one-atom space carrying that mass, so it
    agrees with the norm on any actual space up to bisection tolerance, and
    bit for bit with ``_indicator_norms``, the same search on a batch. A
    mass of 1e-300 under t^2 takes 34 kernel calls, 32 of them the walk's.
    """
    _indicator_masses([mass])
    return luxemburg_norm(Rv(MeasureSpace.finite([mass]), [1.0]), phi).value


def _indicator_masses(masses) -> np.ndarray:
    """``masses`` as a flat float array; ValueError unless each is finite
    and positive."""
    m = np.array(masses, dtype=float).reshape(-1)
    bad = m[~((m > 0.0) & (m < math.inf))]
    if bad.size:
        need = "finite" if bad[0] == math.inf else "positive"
        raise ValueError(f"indicator mass must be {need}, got {bad[0]}")
    return m


def _indicator_norms(phi: OrliczFunction, masses) -> np.ndarray:
    """Luxemburg norms of indicators of the given masses, all at once.

    The norm of an indicator of mass m is ``inf { lam : m phi(1/lam) <= 1 }``:
    ``luxemburg_norm`` on a one-atom space of that mass, whose sup|f| is 1.
    Every mass is one problem of one ``_switch``, so each norm has the bits
    of ``luxemburg_norm(Rv(MeasureSpace.finite([m]), [1.0]), phi).value``,
    and each round is one ``phi._values`` call over the pending masses.
    Under a power function the search takes two rounds after the walk,
    under ``exp_young`` and its conjugate four to six.
    """
    m = _indicator_masses(masses)[:, None]
    x = np.ones_like(m)
    with np.errstate(over="ignore"):
        top_mod = [row[0] for row in _modular(m, x, x, phi._values)]
        return np.array(_switch(m, x, phi._values, top_mod)[1])
