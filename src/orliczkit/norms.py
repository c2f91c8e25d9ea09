"""Modulars, Luxemburg and Amemiya norms, heart membership, dual pairing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import bracket_min, brent_max
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
    """``sum_i w_i * phi(|f_i| / lam)`` with +inf absorbing.

    The arguments ``|f|/lam`` are nonnegative by construction, so this
    calls the Orlicz function's unchecked kernel. The weights are strictly
    positive and the values nonnegative, so the dot product is +inf exactly
    when some value is, and no separate infinity scan is needed.
    """
    if not lam > 0.0:
        raise ValueError(f"modular scale must be positive, got {lam}")
    with np.errstate(over="ignore"):
        return _modular(f.space.weights, np.abs(f.values), lam, phi)


def _modular(weights: np.ndarray, absf: np.ndarray, lam: float,
             phi: OrliczFunction) -> float:
    """``modular`` from a precomputed ``|f|``, inside the caller's
    ``np.errstate(over="ignore")``; the norms' one modular evaluation."""
    return float(np.dot(weights, phi._values(absf / lam)))


def luxemburg_norm(f: Rv, phi: OrliczFunction) -> NormReport:
    """``inf { lam > 0 : modular(f, lam) <= 1 }``: a bisection's answer, found
    by a verified secant.

    The modular is nonincreasing in lam, so the predicate
    ``modular <= 1`` is monotone. A walk from ``top = sup |f|`` halves or
    doubles lam until it brackets the switch; the halving walk gives up
    1e300 below ``top``. The answer is defined by a bisection of that
    bracket down to relative width 1e-10, with no absolute floor, that stops
    early when a midpoint rounds to an end (a subnormal bracket). The
    feasible end is returned, so ``modular_at_value <= 1`` always holds in
    the report.

    The bisection is replayed rather than run (``_bisection_search``): a
    secant in (log lam, log modular), exact for power functions, guesses the
    switch, the bisection's midpoints are replayed in plain Python, and only
    the ends of the terminal cell the guess leads to are evaluated. The
    value, the bracket and ``modular_at_value`` are the bisection's bit for
    bit wherever the computed modular is monotone. The search takes 2
    modular calls after the walk for power functions, 4 to 5 for
    ``exp_young`` and its conjugate, and 1 for ``linf_step``, where the
    bisection took 34. ``iterations`` counts the walk's steps and the
    modular calls after it, so the modular is evaluated ``iterations + 1``
    times in all, ``top`` once. |f| is taken, and ``np.errstate`` entered,
    once per norm. This is the scalar reference of ``_indicator_norms``.
    """
    top = f.sup_norm()
    if top == 0.0:
        return NormReport(0.0, 0, (0.0, 0.0), 0.0)
    weights, absf = f.space.weights, np.abs(f.values)

    def at(lam: float) -> float:
        return _modular(weights, absf, lam, phi)

    with np.errstate(over="ignore"):
        # halve while feasible, or double until feasible; top is tested once
        lo = hi = top
        lo_mod = hi_mod = at(top)
        expand = 0
        if hi_mod <= 1.0:
            while True:
                hi, hi_mod, lo = lo, lo_mod, lo * 0.5
                expand += 1
                if not lo > 1e-300 * top or expand > 4000:
                    raise NumericFailure(
                        "Luxemburg bracket collapse: modular never exceeds 1")
                lo_mod = at(lo)
                if not lo_mod <= 1.0:
                    break
        else:
            while True:
                lo, lo_mod, hi = hi, hi_mod, hi * 2.0
                expand += 1
                if expand > 4000:
                    raise NumericFailure(
                        "Luxemburg bracket blow-up: modular never drops to 1")
                hi_mod = at(hi)
                if hi_mod <= 1.0:
                    break
        lo, hi, hi_mod, calls = _bisection_search(lo, hi, lo_mod, hi_mod, at)
    return NormReport(hi, expand + calls, (lo, hi), hi_mod)


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


def _replay(lo: float, hi: float, a: float, b: float,
            guess: float) -> tuple[float, float, float, int, int]:
    """Replay the bisection of ``[lo, hi]`` with no modular call.

    A midpoint ``<= a`` is infeasible and one ``>= b`` feasible, which the
    monotone modular implies once ``a`` is known infeasible and ``b``
    feasible; one strictly between them is feasible iff it is ``>= guess``
    (never, for a nan guess). Returns the terminal cell ``(lo, hi)``, the
    first midpoint strictly between ``a`` and ``b`` (nan if none), how many
    such midpoints the path met, and how many midpoints it took.
    """
    first, undecided, depth = math.nan, 0, 0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float exhaustion
            break
        depth += 1
        if mid >= b:
            hi = mid
        elif mid <= a:
            lo = mid
        else:
            if not undecided:
                first = mid
            undecided += 1
            if mid >= guess:
                hi = mid
            else:
                lo = mid
    return lo, hi, first, undecided, depth


def _bisection_search(lo: float, hi: float, lo_mod: float, hi_mod: float,
                      at) -> tuple[float, float, float, int]:
    """The terminal cell of the bisection of ``[lo, hi]``, the modular at its
    upper end, and the modular calls ``at`` it took.

    ``lo`` is infeasible and ``hi`` feasible, with modulars ``lo_mod`` and
    ``hi_mod``. The search keeps a known infeasible ``a`` and feasible
    ``b``, and guesses the switch by a secant in (log lam, log modular)
    with the Anderson-Bjorck variant of the Illinois step (``_kept_scale``).
    Each round replays the bisection (``_replay``), midpoints between ``a``
    and ``b`` taken by the guess, and probes the unknown end of the terminal
    cell nearer the guess. Every probe is a point of the bisection, so the
    search is over when no midpoint of the replay lies between ``a`` and
    ``b``: the terminal cell is then ``[a, b]``, both ends evaluated, and
    every decision on its path is implied by the modulars there. Dyadic
    masses under t^2 put the switch exactly on a cell end; its cell is
    confirmed by one probe. A modular of 0 at ``b`` (a step) takes the guess
    ``b``. Without a usable guess, or once the probes fall behind the
    bisection's pace by two calls, the round probes the path's first
    undecided midpoint instead, as the bisection would.
    """
    a, b, b_mod = lo, hi, hi_mod
    ya, yb = _log_modular(lo_mod), _log_modular(hi_mod)
    calls = 0
    while True:
        # where the chord through (log a, ya) and (log b, yb) crosses zero;
        # nan when either log modular is
        guess = b if b_mod == 0.0 else a * math.exp(ya / (ya - yb) * math.log(b / a))
        c_lo, c_hi, first, undecided, depth = _replay(lo, hi, a, b, guess)
        if not undecided:
            return c_lo, c_hi, b_mod, calls
        if guess != guess or calls + undecided > depth + 1:
            p = first
        elif c_lo <= a or (c_hi < b and c_hi - guess <= guess - c_lo):
            p = c_hi
        else:
            p = c_lo
        value = at(p)
        calls += 1
        y = _log_modular(value)
        if value <= 1.0:
            b, b_mod, ya, yb = p, value, ya * _kept_scale(y, yb), y
        else:
            a, ya, yb = p, y, yb * _kept_scale(y, ya)


def amemiya_norm(f: Rv, phi: OrliczFunction) -> NormReport:
    """``inf_{k>0} (1 + modular(f, 1/k)) / k`` by Brent's method.

    Substituting u = 1/k turns the objective into
    ``u * (1 + modular(f, u))``, the perspective of the modular -- convex in
    u -- so a bracketed Brent search (maximizing its negative) finds the
    minimum. The search runs in s = u / sup|f|, where the objective of
    ``c f`` is that of ``f`` up to rounding, and stops at a bracket of width
    ``1e-10 * hi``, relative to its upper end, so the norm is as accurate at
    any scale. ``bracket`` is the bracket in u. ``iterations`` counts
    objective evaluations, bracketing included.
    """
    top = f.sup_norm()
    if top == 0.0:
        return NormReport(0.0, 0, (0.0, 0.0), 0.0)
    weights, absf = f.space.weights, np.abs(f.values)

    def obj(s: float) -> float:
        if not s > 0.0:
            return math.inf
        return s * (1.0 + _modular(weights, absf, top * s, phi))

    with np.errstate(over="ignore"):
        lo, hi, evals = bracket_min(obj, 1.0)
        s, neg, ev = brent_max(lambda t: -obj(t), lo, hi, 1e-10 * hi)
        s_star = s if math.isfinite(neg) else hi
        at_value = _modular(weights, absf, top * s_star, phi)
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
    bit for bit with ``_indicator_norms``.
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


# scales per kernel call of the lockstep walk
_WALK_BATCH = 16


def _indicator_norms(phi: OrliczFunction, masses) -> np.ndarray:
    """Luxemburg norms of indicators of the given masses, all at once.

    The norm of an indicator of mass m is ``inf { lam : m phi(1/lam) <= 1 }``.
    Each mass has the answer of ``luxemburg_norm`` on a one-atom space of
    that mass, whose walk starts at top = 1, and all of them are searched in
    lockstep, one ``phi._values`` call per round over all masses. The walk
    takes 16 of its scales per call. Its ends are then powers of two, so the
    bisection's midpoints are exact and its cells form a grid: the search
    runs the scalar one's guess-and-verify rounds on that grid, evaluating
    both ends of each mass's guessed cell per round, and reads the terminal
    cell off the grid instead of replaying the bisection. So each norm has
    the bits of ``luxemburg_norm(Rv(MeasureSpace.finite([m]), [1.0]),
    phi).value`` wherever the computed modular is monotone. Under a power
    function the search takes one round, under ``exp_young`` and its
    conjugate three to five, where the bisection took 34.
    """
    m = _indicator_masses(masses)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _lockstep_norms(phi, m)


def _lockstep_norms(phi: OrliczFunction, m: np.ndarray) -> np.ndarray:
    """``_indicator_norms`` of checked masses, inside the caller's
    ``np.errstate``: logs of 0 and +inf, and the nan guesses they give, are
    expected values here."""
    # The walk from top = 1, _WALK_BATCH steps per kernel call: a halving
    # walk stops at its first infeasible scale 2^-e, a doubling one at its
    # first feasible 2^e, as the scalar walk does step by step.
    top_mod = m * phi._values(np.ones(m.size))
    down = top_mod <= 1.0
    lo, lo_mod, hi_mod, last = (np.empty(m.size) for _ in range(4))
    last[:] = top_mod
    walking, e0, batch = np.arange(m.size), 0, np.arange(1, _WALK_BATCH + 1)
    while walking.size:
        if e0 >= 4000:
            raise NumericFailure("Luxemburg bracket blow-up: modular never drops to 1")
        d = down[walking]
        e = np.where(d[:, None], -(e0 + batch), e0 + batch)
        value = m[walking, None] * phi._values(1.0 / np.ldexp(1.0, e))
        stop = (value <= 1.0) != d[:, None]
        hit = stop.any(axis=1)
        col = stop.argmax(axis=1)
        # the scalar walk refuses to halve to 1e-300 or below: 2^-997
        if np.any(d & (np.where(hit, col + 1, _WALK_BATCH + 1) + e0 > 996)):
            raise NumericFailure("Luxemburg bracket collapse: modular never exceeds 1")
        row, col, d, done = np.flatnonzero(hit), col[hit], d[hit], walking[hit]
        at_stop = value[row, col]
        before = np.where(col > 0, value[row, col - 1], last[done])
        lo[done] = np.ldexp(1.0, np.where(d, e[row, col], e[row, col] - 1))
        lo_mod[done] = np.where(d, at_stop, before)
        hi_mod[done] = np.where(d, before, at_stop)
        last[walking] = value[:, -1]
        walking, e0 = walking[~hit], e0 + _WALK_BATCH
    # lo is a power of two and hi = 2 lo, so the bisection of [lo, hi] takes
    # exact midpoints: its cells at depth j are [lo + i s, lo + (i + 1) s]
    # with s = lo 2^-j. Cells at depth 32 are wider than 1e-10 hi and cells
    # at depth 34 are not, so the search runs on the depth-34 grid,
    # i = 0 .. 2^34, with ia a known infeasible index and ib a feasible one.
    # Each round evaluates, for every mass, the grid cell holding its secant
    # guess (Anderson-Bjorck, as in the scalar search), both ends kept
    # strictly between ia and ib, in one kernel call. A mass whose cell
    # straddles the switch is done; a done mass re-evaluates its known ends,
    # which moves nothing. As in the scalar search, a modular of 0 at ib
    # guesses ib, and a mass without a usable guess, or more than six rounds
    # behind the bisection's 34, guesses the middle index. An infinite hi
    # (a doubling walk past the float range) is the bisection's answer at
    # once.
    s = lo * 2.0**-34
    ib = np.full(m.size, 2.0**34)
    ia = np.where(lo < 2.0**1023, 0.0, ib - 1.0)
    ya, yb = np.log(lo_mod), np.log(hi_mod)
    # both ends of every cell go through one kernel call: lower ends first
    m2, lo2, s2 = (np.concatenate((v, v)) for v in (m, lo, s))
    rounds = 0
    while np.count_nonzero(ib - ia > 1.0):
        a, b = lo + ia * s, lo + ib * s
        guess = (a * np.exp(ya / (ya - yb) * np.log(b / a)) - lo) / s
        guess = np.where(yb == -math.inf, ib, guess)
        stray = np.isnan(guess) | ~(rounds + np.log2(ib - ia) <= 40.0)
        first = ia + 1.0
        upper = np.minimum(np.maximum(
            np.ceil(np.where(stray, 0.5 * (ia + ib), guess)), first), ib - 1.0)
        lower = np.maximum(upper - 1.0, first)
        value = m2 * phi._values(1.0 / (lo2 + np.concatenate((lower, upper)) * s2))
        y, ok = np.log(value), value <= 1.0
        y_lo, y_up, ok_lo, ok_up = y[:m.size], y[m.size:], ok[:m.size], ok[m.size:]
        keep_a, keep_b = _kept_scales(y_lo, yb), _kept_scales(y_up, ya)
        ya, yb = (np.where(ok_lo, ya * keep_a, np.where(ok_up, y_lo, y_up)),
                  np.where(ok_lo, y_lo, np.where(ok_up, y_up, yb * keep_b)))
        ia, ib = (np.where(ok_lo, ia, np.where(ok_up, lower, upper)),
                  np.where(ok_lo, lower, np.where(ok_up, upper, ib)))
        rounds += 1
    # the answer is the upper end of the bisection's terminal cell: the cell
    # at depth 34 ending at ib, or the depth-33 cell holding it when that one
    # is already no wider than 1e-10 of its upper end
    hi33 = lo + 2.0 * np.ceil(0.5 * ib) * s
    return np.where(2.0 * s > 1e-10 * hi33, lo + ib * s, hi33)


def _kept_scales(y_new: np.ndarray, y_old: np.ndarray) -> np.ndarray:
    """``_kept_scale`` elementwise."""
    scale = 1.0 - y_new / y_old
    return np.where(scale > 0.0, scale, 0.5)
