"""Fenchel conjugation and certified dual representations.

Everything here is derivative-free: conjugates and dual suprema are computed
by line-search ascent with deterministic multi-starts. Each sweep has three
kinds of move: single-coordinate lines, mass-preserving pairwise transfers,
which move along density simplices that single-coordinate steps cannot
leave, and, from a restart's second sweep on, a pattern move (Hooke &
Jeeves, 1961): one more line search along the sweep's net move, which
shortens the slow linear tail of coordinate-wise ascent. When the ascent's
first sweep finds every coordinate line outside the objective's domain, as
on the dual of a cash-additive functional, it runs the transfers and the
pattern move alone. A coordinate or pair line that moved in the previous
sweep searches a window around its last step first; a window none of whose
probes gains ends the line, since a concave line's chord slopes never
increase (Rockafellar, *Convex Analysis*, 1970, Thm 24.1). A dual ascent
whose primal value phi(f) is known stops as soon as it reaches it, since by
weak duality no dual value exceeds it. When the dual is built on a
``SeparableConjugate``, as every catalog member's is, a pair transfer
changes two terms of the conjugate's sum, so a pair line reads those two
atoms in scalar math instead of the whole n-atom objective, and its
maximum is known in closed form (the analytic two-variable step of SMO,
Platt 1998): each pair move is one step, read once, with no line search
unless the step reads -inf. A nonnegative pair segment also ends where a
density reaches the conjugate's cap, so the step lands on AVaR's wall
g = 1/alpha exactly. Divergence of a conjugate (the +inf case) is detected
by ray probes before any ascent runs, all of them in one ``evaluate_rows``
call when the functional has a row kernel. A numeric Fenchel conjugate of a
functional that declares its ``coordinate_step``, as every catalog member
does, takes that step on each coordinate line and makes no other move: one
step of iterative scaling for the entropic (Darroch & Ratcliff 1972), the
best kink or segment end of a piecewise-linear line for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._search import INV_PHI, brent_max
from .errors import Refusal, SlopeConditionError, SpaceMismatchError
from .measure import MeasureSpace, Rv
from .norms import dual_pairing, heart_member
from .orlicz import OrliczFunction
from .risk import RiskFunctional, SeparableConjugate, check_rows, validate

# A single ray probe beyond this value is conclusive divergence on its own.
DIVERGENCE_HARD = 1e10
# A strictly increasing probe trace must clear this by the last exponent.
DIVERGENCE_SOFT = 1e4
PROBE_EXPONENTS = (1, 2, 3, 4, 5, 6)
#: a numeric conjugate whose ascent passes this value is reported as +inf
DIVERGENCE_ASCENT = 1e12

#: a line search stops once its bracket has shrunk by INV_PHI**LINE_STEPS,
#: the width LINE_STEPS golden-section steps reach
LINE_STEPS = 32
#: sweeps per restart before the ascent gives up on flattening out
SWEEP_CAP = 500
#: an ascent with a known upper bound (its ``ceiling``) stops once it comes
#: within CEILING_TOL * (1 + |ceiling|) of it, a tenth of the flat-sweep gain
CEILING_TOL = 1e-12
#: the pattern line g + t d through a sweep's net move d searches t in this
#: range, before the sign cut of ``_pattern_segment``
PATTERN_RANGE = (-1.0, 8.0)


# ---------------------------------------------------------------------------
# multi-start ascent engine
# ---------------------------------------------------------------------------


def _pattern_segment(g: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """The pattern line's segment ``[lo, hi]`` for ``g + t d``.

    ``PATTERN_RANGE`` cut to where no coordinate that is nonnegative at
    t = 0 turns negative, so the line never enters the slack that closed-form
    conjugates leave below zero. It always holds t = 0.
    """
    lo, hi = PATTERN_RANGE
    kept = g >= 0.0
    down = kept & (d < 0.0)
    if down.any():
        hi = min(hi, float(np.min(g[down] / -d[down])))
    up = kept & (d > 0.0)
    if up.any():
        lo = max(lo, float(np.max(-g[up] / d[up])))
    return lo, hi


def _capped_segment(lo: float, hi: float, gi: float, gj: float, wi: float,
                    wj: float, upper: float) -> tuple[float, float]:
    """The pair segment ``[lo, hi]`` cut to where ``g_i + s / w_i`` and
    ``g_j - s / w_j`` stay at most ``upper``.

    A cut end is the largest transfer whose computed density does not pass
    ``upper``, so the wall is a point a pair step lands on, or a probe a
    line search reads, not one it closes in on. The segment always holds
    s = 0.
    """
    top = (upper - gi) * wi
    if top < hi:
        hi = max(top, 0.0)
        while hi > 0.0 and gi + hi / wi > upper:
            hi = math.nextafter(hi, 0.0)
    bottom = (gj - upper) * wj
    if bottom > lo:
        lo = min(bottom, 0.0)
        while lo < 0.0 and gj - lo / wj > upper:
            lo = math.nextafter(lo, 0.0)
    return lo, hi


def _line_search(h: Callable[[float], float], lo: float, hi: float,
                 t0: float, v: float,
                 reach: float) -> tuple[tuple[float, float] | None, int]:
    """Brent along a concave ``h`` on ``[lo, hi]`` from ``(t0, v = h(t0))``.

    Returns ``(step, evaluations)``: ``step = (t, h(t))`` on strict
    improvement over ``v``, else None. The search stops once its bracket
    is as narrow as ``INV_PHI**LINE_STEPS`` times the segment. ``reach > 0``
    (with v finite) searches the window within ``reach`` of ``t0`` first, at
    that same width, as ``maximize_dual`` describes.
    """
    width = (hi - lo) * INV_PHI ** LINE_STEPS
    evals = 0
    if reach > 0.0:
        a, b = max(lo, t0 - reach), min(hi, t0 + reach)
        t, val, evals = brent_max(h, a, b, width, (t0, v))
        # brent_max read both window ends, and neither beat h(t0) with t0 in
        # [a, b]; the chord slopes of a concave h never increase, so
        # h <= h(t0) on the whole segment, -inf beyond a or b included
        if not val > v:
            return None, evals
        # inner edges fall back: without it numeric AVaR took 2-7 % more calls
        if (t != a or a == lo) and (t != b or b == hi):
            return (t, val), evals
    t, val, ev = brent_max(h, lo, hi, width, (t0, v))
    return ((t, val) if val > v else None), evals + ev


@dataclass(frozen=True)
class AscentResult:
    """Best point over all restarts.

    ``sweeps`` belongs to the winning restart (``start_index``);
    ``evaluations`` counts every objective call and every probe of a pair
    line read from two atoms, over all restarts; a closed-form pair step is
    one such probe. A coordinate step adds the values of phi it read.
    ``stop_reason`` says why the winning restart ended: ``"ceiling"`` (it
    came within ``CEILING_TOL`` of the caller's upper bound, and the call
    skipped every later sweep and restart), ``"flat"`` (a sweep gained at
    most 1e-11 relative), ``"sweep_cap"`` (``SWEEP_CAP`` sweeps ran), or
    ``"stuck_at_-inf"`` (no restart found a finite value).
    """
    g: np.ndarray
    value: float
    start_index: int
    sweeps: int
    evaluations: int
    stop_reason: str


def maximize_dual(objective: Callable[[np.ndarray], float],
                  space: MeasureSpace,
                  *,
                  seed: int = 0,
                  restarts: int = 8,
                  nonneg: bool = True,
                  ceiling: float = math.inf) -> AscentResult:
    """Maximize a concave ``objective`` over coordinate vectors ``g``.

    Move set per sweep, three kinds: single-coordinate line searches
    (projected to g >= 0 when ``nonneg``), pairwise transfers g_i += s/w_i,
    g_j -= s/w_j over all pairs i < j, which keep the weighted mass fixed,
    and the pattern move below. An objective that carries a ``pair_line``
    (a ``_DualObjective`` of a ``SeparableConjugate``) gives each pair line
    from a point of finite value in O(1), from the two atoms it moves; any
    other objective, or a point of value -inf, is read whole at every
    probe. One that also carries a ``pair_step`` gives the line's maximizer
    on its segment in closed form: from a point of finite value the pair
    move reads the line once, at the step, one counted evaluation, and
    takes it on strict improvement, with no line search. A step that reads
    -inf, a box-only conjugate's segment end past its box (the sign-free
    segments, and the expectation's box under ``nonneg``), has its line
    searched as without a step. Under ``nonneg`` a pair segment ends where
    g_i or g_j reaches 0 and, when the objective carries a finite
    ``upper``, where either reaches ``upper``; a density that a transfer
    leaves within 1e-13 below 0 or below ``upper`` is set to that end
    exactly. With a ``pair_line``, a value that came from a pair line's sums
    or from before such a snap is read once more from the whole objective,
    one counted evaluation, before the restart's result is compared or
    returned, so ``AscentResult.value == objective(g)`` holds bit for bit.
    Only the coordinate lines are guarded: each first probes its shoulders
    and is skipped when both are -inf. If the guard skips every one of them
    in restart 0's first sweep, the objective is read as -inf off the
    hyperplane of the starting mass, as the dual
    objective of a cash-additive functional is (its conjugate is +inf off
    E[g] = 1), and the rest of the call runs the pair transfers and the
    pattern move only. A wrong reading can only make the ascent weaker,
    never its answer infeasible.

    An objective that carries a ``coord_step`` (a ``_FenchelObjective`` of a
    functional that declares its ``coordinate_step``) has one move only:
    each sweep reads the step once per coordinate, one counted evaluation
    plus the values of phi the step read, and takes it on strict
    improvement. A step that reads -inf has its line searched as below,
    guard included; no catalog step does. Such an objective makes no guard
    probes, pair transfers or pattern moves: a Fenchel ascent is sign-free,
    with no mass hyperplane to keep, and exact coordinate maximization
    converges for a smooth concave objective with a unique maximizer on each
    coordinate line (Luo & Tseng 1992), which the entropic objective is,
    strictly concave along each line. A box-only member's phi is positively
    homogeneous, so its conjugate is 0, reached at restart 0's constant
    start, or else the objective is unbounded along a coordinate or ones
    ray, where a step takes the segment's end and the segment grows with
    |f|.

    Objectives are free to return -inf off their domain; moves apply only on
    strict improvement. Each line search, on coordinate, pattern and
    searched pair lines alike, stops once its bracket is as narrow
    as ``INV_PHI**LINE_STEPS`` times its segment, or on a plateau that three
    of its probes certify (the lines are concave). A coordinate or pair that
    moved by s in the previous sweep of its restart first searches the
    window [-4|s|, 4|s|] of its line around the current point, at that same
    absolute width; the guard probes stay on the whole segment. The line is
    concave and the window's search reads both its ends, so a window whose
    best point gains nothing ends the line with no move (no point of the
    segment beats the current one), and a best point inside the window is
    the line's maximum. Only a best point on an inner edge of the window
    falls back to the whole segment, as does every line in a restart's
    first sweep.

    From a restart's second sweep on, the sweep's last move is a pattern
    move along its net move d = g - (g at the sweep's start): a line search
    over g + t d from t = 0 for t in ``PATTERN_RANGE`` = [-1, 8], cut to
    where no coordinate that is nonnegative at t = 0 turns negative, so it
    never enters the slack a closed-form conjugate allows below zero. d is a
    sum of the sweep's moves, so under transfers only it keeps the mass and
    the line stays on the starting mass's hyperplane. A restart ends after
    its first sweep, pattern move included, that gains at most 1e-11
    relative.

    ``ceiling`` is a known upper bound on the objective, such as phi(f) for
    the dual of phi at f (weak duality), or a value past which the caller's
    answer no longer depends on the point, as for a Fenchel conjugate's
    divergence threshold. The call returns as soon as a
    restart's start point or an accepted move of any kind reaches
    ``ceiling - CEILING_TOL * (1 + |ceiling|)``, skipping the remaining
    sweeps and restarts; below an upper bound, a point it stops at is within
    that distance of the supremum, whatever the rest of the search would
    have found. A ceiling
    the ascent never reaches, a non-finite one included, leaves every step
    as without one. The result is deterministic in ``seed``: restart 0
    starts at the constant density 1 / total mass, restart r > 0 draws from
    default_rng([seed, r]), and ties prefer the lowest start index. When
    restart 0's start reads -inf, it moves to g = 1 if that reads higher,
    before its first sweep: on a space of mass other than 1, the
    expectation's dual is finite at g = 1 only. ``restarts`` below 1 raise
    ValueError before the first objective call.
    """
    if restarts < 1:
        raise ValueError(f"maximize_dual needs at least one restart, "
                         f"got restarts={restarts!r}")
    # nan compares false with every value, so a non-finite ceiling never fires
    stop_at = (ceiling - CEILING_TOL * (1.0 + abs(ceiling))
               if math.isfinite(ceiling) else math.nan)
    w = space.weights
    n = space.n_atoms
    total = float(space.total_mass)
    # a _FenchelObjective of a functional that declares its coordinate step
    # takes that step on each coordinate line, and makes no other move
    coord_step = getattr(objective, "coord_step", None)
    pairs = ([] if coord_step is not None else
             [(i, j) for i in range(n) for j in range(i + 1, n)])
    # a _DualObjective of a SeparableConjugate reads its pair lines from two
    # atoms and steps to their maxima; any other objective is read whole
    pair_line = getattr(objective, "pair_line", None)
    pair_step = getattr(objective, "pair_step", None)
    upper = getattr(objective, "upper", math.inf)
    best: AscentResult | None = None
    evals = 0
    # v came from pair_line's sums, or from before a snap to a segment end,
    # and is re-read before a result holds it
    stale = False
    # coordinate lines tried and skipped by the guard; once the guard lets
    # one line through the two never agree again, so only restart 0's first
    # sweep can switch the ascent to transfers only
    tried = skipped = 0
    transfers_only = False

    def at_ceiling():
        value, extra = (objective(g), 1) if stale else (v, 0)
        return AscentResult(g=g.copy(), value=value, start_index=r,
                            sweeps=sweeps, evaluations=evals + extra,
                            stop_reason="ceiling")

    for r in range(restarts):
        if r == 0:
            g = np.full(n, 1.0 / total)
        else:
            rng = np.random.default_rng([seed, r])
            raw = np.abs(rng.normal(0.0, 1.0, n)) + 0.05
            g = raw / float(np.dot(w, raw))
        v = objective(g)
        evals += 1
        if r == 0 and v == -math.inf:
            one = np.ones(n)
            v_one = objective(one)
            evals += 1
            if v_one > v:
                g, v = one, v_one
        sweeps = 0
        if v >= stop_at:
            return at_ceiling()
        # per coordinate and per pair, the warm window's half-width:
        # 4 |last sweep's step|
        coord_reach = [0.0] * n
        reach = [0.0] * len(pairs)
        for _ in range(SWEEP_CAP):
            sweeps += 1
            v_before = v
            g_start = g.copy()

            if not transfers_only:
                span = 2.0 * (1.0 + float(np.max(np.abs(g))))
                for i in range(n):
                    t0 = g[i]
                    lo = max(0.0, t0 - span) if nonneg else t0 - span
                    hi = t0 + span

                    def h(t, i=i):
                        old = g[i]
                        g[i] = t
                        val = objective(g)
                        g[i] = old
                        return val

                    if coord_step is not None:
                        t, reads = coord_step(g, i, lo, hi)
                        val = h(t)
                        evals += 1 + reads
                        if val > -math.inf:
                            if val > v:
                                g[i], v = t, val
                                if v >= stop_at:
                                    return at_ceiling()
                            continue
                    # the guard: both shoulders -inf (the second probed only
                    # when the first is) put all of the line bar the current
                    # point outside the objective's domain, as under an
                    # equality constraint on the mass
                    tried += 1
                    evals += 1
                    if h(lo + 0.25 * (hi - lo)) == -math.inf:
                        evals += 1
                        if h(lo + 0.75 * (hi - lo)) == -math.inf:
                            skipped += 1
                            coord_reach[i] = 0.0
                            continue
                    step, ev = _line_search(h, lo, hi, t0, v, coord_reach[i])
                    evals += ev
                    coord_reach[i] = 4.0 * abs(step[0] - t0) if step else 0.0
                    if step:
                        g[i], v = step
                        stale = False
                        if v >= stop_at:
                            return at_ceiling()
                transfers_only = coord_step is None and skipped == tried

            for k, (i, j) in enumerate(pairs):
                wi, wj = float(w[i]), float(w[j])
                gi, gj = float(g[i]), float(g[j])
                if nonneg:
                    lo, hi = -gi * wi, gj * wj
                    if upper < math.inf:
                        lo, hi = _capped_segment(lo, hi, gi, gj, wi, wj, upper)
                else:
                    s_span = 1.0 + float(np.dot(w, np.abs(g)))
                    lo, hi = -s_span, s_span
                if hi - lo <= 1e-300:
                    reach[k] = 0.0
                    continue

                search = True
                if pair_line is not None and v > -math.inf:
                    h = pair_line(g, i, j, v)
                    if pair_step is not None:
                        s = pair_step(g, i, j, lo, hi)
                        val = h(s)
                        evals += 1
                        step = (s, val) if val > v else None
                        # only a box-only step reads -inf: a segment end
                        # past the box, whose feasible part the line search
                        # finds
                        search = val == -math.inf
                else:
                    def h(s, i=i, j=j, wi=wi, wj=wj, gi=gi, gj=gj):
                        g[i] = gi + s / wi
                        g[j] = gj - s / wj
                        val = objective(g)
                        g[i], g[j] = gi, gj
                        return val

                if search:
                    step, ev = _line_search(h, lo, hi, 0.0, v, reach[k])
                    evals += ev
                reach[k] = 4.0 * abs(step[0]) if step else 0.0
                if step:
                    s, v = step
                    stale = pair_line is not None
                    g[i] = gi + s / wi
                    g[j] = gj - s / wj
                    if nonneg:
                        # transfers that land on a segment end should sit on
                        # it exactly: on zero, not a rounding error below it,
                        # and on the cap
                        for a in (i, j):
                            if -1e-13 < g[a] < 0.0:
                                g[a] = 0.0
                            elif upper - 1e-13 < g[a] < upper:
                                g[a] = upper
                    if v >= stop_at:
                        return at_ceiling()

            if sweeps > 1 and coord_step is None:
                d = g - g_start
                lo, hi = _pattern_segment(g, d)
                if hi - lo > 1e-300:
                    step, ev = _line_search(lambda t: objective(g + t * d),
                                            lo, hi, 0.0, v, 0.0)
                    evals += ev
                    if step:
                        t, v = step
                        stale = pair_line is not None
                        kept = g >= 0.0
                        g += t * d
                        # the segment ends where a coordinate reaches zero;
                        # it should sit there exactly, as after a transfer
                        g[kept & (g < 0.0) & (g > -1e-13)] = 0.0
                        if v >= stop_at:
                            return at_ceiling()

            # a restart stuck at -inf is flat too: there v - v_before is nan
            if v == v_before or v - v_before <= 1e-11 * (1.0 + abs(v)):
                reason = "flat" if v > -math.inf else "stuck_at_-inf"
                break
        else:
            reason = "sweep_cap"
        if stale:
            v = objective(g)
            evals += 1
            stale = False
        if best is None or v > best.value:
            best = AscentResult(g=g.copy(), value=v, start_index=r,
                                sweeps=sweeps, evaluations=0,
                                stop_reason=reason)
    return replace(best, evaluations=evals)


# ---------------------------------------------------------------------------
# Fenchel conjugate values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateEstimate:
    """``evaluations`` counts the functional's evaluations, ``evaluate``
    calls and ``evaluate_rows`` rows alike: the ray probes plus the ascent's
    objective calls and the rows its coordinate steps read, 0 on the
    closed-form path.
    ``stop_reason`` says how the value was found: ``"closed_form"``,
    ``"ray"`` (a ray probe diverged), ``"unbounded"`` (the ascent passed
    ``DIVERGENCE_ASCENT``), or else the ascent's ``AscentResult.stop_reason``."""
    value: float
    numeric: bool
    best_f: Rv | None = None
    diverged_ray: Rv | None = None
    evaluations: int = 0
    stop_reason: str = "closed_form"


def _strictly_increasing(trace: Sequence[float]) -> bool:
    return all(b > a for a, b in zip(trace, trace[1:]))


class _FenchelObjective:
    """``fv -> <fv, g> - phi(fv)``, the objective of ``phi*(g)``; -inf where
    phi is +inf.

    When phi declares a ``coordinate_step``, ``coord_step(f, i, lo, hi)``
    is that step at this g: ``(t, reads)``, the maximizer of the objective
    along ``f_i`` on ``[lo, hi]`` and the values of phi it read. Otherwise
    it is None, and the ascent searches its lines. The twin of
    ``_DualObjective``.
    """

    __slots__ = ("_evaluate", "_space", "_wg", "coord_step")

    def __init__(self, phi: RiskFunctional, g: Rv):
        self._evaluate = phi.evaluate
        self._space = phi.space
        self._wg = phi.space.weights * g.values
        self.coord_step = None
        step = phi.coordinate_step
        if step is not None:
            gv = g.values
            self.coord_step = (lambda f, i, lo, hi:
                               step(f, i, gv, float(lo), float(hi)))

    def __call__(self, fv: np.ndarray) -> float:
        val = self._evaluate(Rv._wrap(self._space, fv))
        if val == math.inf:
            return -math.inf
        return float(np.dot(self._wg, fv)) - val


def fenchel_conjugate_value(phi: RiskFunctional, g: Rv, *, seed: int = 0,
                            restarts: int = 8,
                            force_numeric: bool = False) -> ConjugateEstimate:
    """``phi*(g) = sup_f (<f, g> - phi(f))``, extended-real valued.

    Uses the declared closed form when available (unless ``force_numeric``).
    The numeric path first fires divergence probes along +-10^k rays through
    every coordinate axis and through the constant vector, k = 1..6: a probe
    value beyond 1e10, or a strictly increasing trace ending above 1e4, is
    reported as +inf together with the first offending ray, in the order
    -e_1, +e_1, ..., -e_n, +e_n, -1, +1. With a row kernel
    (``phi.evaluate_rows``) all (2n + 2) x 6 probes are one call, which
    ``check_rows`` cross-checks with two ``phi.evaluate`` calls (ValueError
    when they disagree); without one they are ``phi.evaluate`` calls, and
    the rays after a diverging one are never probed. Otherwise a multi-start
    sign-free ascent over f (``maximize_dual``) estimates the supremum: by
    one ``phi.coordinate_step`` per coordinate line when phi declares one,
    by line searches, pair transfers and pattern moves otherwise. An ascent
    whose value passes ``DIVERGENCE_ASCENT`` = 1e12 is reported as +inf
    along the direction of its best point; since its value never falls, it
    stops at twice that value. ``evaluations`` reports the rows and
    ``phi.evaluate`` calls this evaluated, a step's rows included, and
    ``stop_reason`` says how the value was found (``ConjugateEstimate``).
    """
    space = phi.space
    if not space.same_space(g.space):
        raise SpaceMismatchError("dual candidate lives on a different space")
    if phi.closed_form_conjugate is not None and not force_numeric:
        return ConjugateEstimate(float(phi.closed_form_conjugate(g)),
                                 numeric=False)
    n = space.n_atoms
    wg = space.weights * g.values
    obj = _FenchelObjective(phi, g)

    # -e_i and +e_i for each atom i in turn, then -1 and +1
    rays = np.zeros((2 * n + 2, n))
    for i in range(n):
        rays[2 * i:2 * i + 2, i] = -1.0, 1.0
    rays[-2], rays[-1] = -1.0, 1.0
    scales = 10.0 ** np.array(PROBE_EXPONENTS, dtype=float)
    if phi.evaluate_rows is None:
        # lazily, so the rays after a diverging one are never probed
        traces = ([obj(c * ray) for c in scales] for ray in rays)
        probes = 0
    else:
        # every probe in one row call, which costs about what one evaluate
        # call does; all its rows count, whichever ray diverges, and so do
        # the two evaluate calls that cross-check the kernel, on -10 e_1 and
        # on 10^6 (1, ..., 1): a kernel stale only where f_1 >= 0 agrees on
        # the first
        rows = (rays[:, None, :] * scales[:, None]).reshape(-1, n)
        vals = np.asarray(phi.evaluate_rows(rows), dtype=float)
        check_rows(phi, rows[[0, -1]], vals[[0, -1]])
        traces = np.where(vals == math.inf, -math.inf, rows @ wg - vals)
        traces = traces.reshape(len(rays), len(scales)).tolist()
        probes = len(rows) + 2
    for ray, trace in zip(rays, traces):
        if phi.evaluate_rows is None:
            probes += len(trace)
        if (max(trace) > DIVERGENCE_HARD
                or (_strictly_increasing(trace)
                    and trace[-1] > DIVERGENCE_SOFT)):
            return ConjugateEstimate(math.inf, numeric=True,
                                     diverged_ray=Rv(space, ray),
                                     evaluations=probes, stop_reason="ray")

    # an ascent's value never falls, so once it passes DIVERGENCE_ASCENT the
    # answer is +inf whatever the rest of the search finds; the ceiling's
    # stop point, 2e12 less its tolerance, lies past it
    res = maximize_dual(obj, space, seed=seed, restarts=restarts,
                        nonneg=False, ceiling=2.0 * DIVERGENCE_ASCENT)
    evals = probes + res.evaluations
    if res.value > DIVERGENCE_ASCENT:
        scale = max(1.0, float(np.max(np.abs(res.g))))
        return ConjugateEstimate(math.inf, numeric=True,
                                 diverged_ray=Rv(space, res.g / scale),
                                 evaluations=evals, stop_reason="unbounded")
    return ConjugateEstimate(res.value, numeric=True,
                             best_f=Rv(space, res.g), evaluations=evals,
                             stop_reason=res.stop_reason)


# ---------------------------------------------------------------------------
# positivity of finite-conjugate dual variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositivityEvidence:
    """Divergence trace along the ray that punishes a negative coordinate.

    With f the indicator of the offending atom and f_tilde the functional's
    properness witness, records v_k = lambda_k <f,g> + <f_tilde,g>
    - phi(lambda_k f + f_tilde) at lambda_k = -10^k. For the catalog the
    trace is strictly increasing and clears 1e4 by k = 6, which certifies
    phi*(g) = +inf.
    """
    atom_id: int
    atom_index: int
    lambdas: tuple[float, ...]
    trace: tuple[float, ...]
    strictly_increasing: bool
    exceeds_threshold: bool

    @property
    def divergent(self) -> bool:
        return self.strictly_increasing and self.exceeds_threshold


def positivity_evidence(phi: RiskFunctional, g: Rv) -> PositivityEvidence:
    space = phi.space
    if not space.same_space(g.space):
        raise SpaceMismatchError("dual candidate lives on a different space")
    idx = int(np.argmin(g.values))
    if g.values[idx] >= 0.0:
        raise ValueError("g is nonnegative; there is no negative coordinate "
                         "to build divergence evidence from")
    f = np.zeros(space.n_atoms)
    f[idx] = 1.0
    ft = phi.proper_witness.values
    pair_f = float(np.dot(space.weights, f * g.values))
    pair_ft = float(np.dot(space.weights, ft * g.values))
    lambdas = tuple(-(10.0 ** k) for k in PROBE_EXPONENTS)
    trace = []
    for lam in lambdas:
        val = phi.evaluate(Rv(space, lam * f + ft))
        trace.append(lam * pair_f + pair_ft - val)
    trace = tuple(trace)
    return PositivityEvidence(
        atom_id=int(space.atom_ids[idx]),
        atom_index=idx,
        lambdas=lambdas,
        trace=trace,
        strictly_increasing=_strictly_increasing(trace),
        exceeds_threshold=trace[-1] > DIVERGENCE_SOFT,
    )


# ---------------------------------------------------------------------------
# dual representation certificates
# ---------------------------------------------------------------------------


class _ValidationRefusal(Refusal, ValueError):
    """The functional handed to ``reconstruct`` failed ``validate``."""


@dataclass(frozen=True)
class DualCertificate:
    """``evaluations`` counts the dual ascent's objective calls and
    pair-line probes, 0 with a closed-form maximizer; each call costs one
    conjugate value, each probe two atoms' terms of it, and a pair step is
    one probe.
    ``stop_reason`` is the ascent's ``AscentResult.stop_reason``, or
    ``"closed_form"`` with a closed-form maximizer."""
    g: Rv
    conjugate_value: float
    achieved: float
    gap: float
    nonnegative_ok: bool
    heart_ok: bool
    heart_vacuous: bool
    start_index: int | None
    sweeps: int
    evaluations: int
    stop_reason: str


def _conjugate_fn(phi: RiskFunctional, seed: int,
                  restarts: int) -> Callable[[Rv], float]:
    if phi.closed_form_conjugate is not None:
        return phi.closed_form_conjugate

    def numeric(g: Rv) -> float:
        return fenchel_conjugate_value(phi, g, seed=seed,
                                       restarts=restarts).value

    return numeric


class _DualObjective:
    """``garr -> <f, garr> - conj(garr)`` for f with values ``fv``; -inf
    where ``conj`` is +inf.

    With a ``SeparableConjugate``, ``pair_line(g, i, j, v)`` is the
    objective along the transfer ``g_i += s / w_i``, ``g_j -= s / w_j`` from
    a point g of finite value v, read from those two atoms
    (``SeparableConjugate.pair_line``), ``pair_step(g, i, j, lo, hi)`` is
    the transfer in ``[lo, hi]`` that maximizes it
    (``SeparableConjugate.pair_step``), and ``upper`` is the density cap a
    nonnegative pair segment ends at. The expectation's box is ``FEAS_TOL``
    of slack around g = 1, which no line should search into, so only a
    unit-mass conjugate passes its ``upper`` on. Any other conjugate leaves
    ``pair_line`` and ``pair_step`` None and ``upper`` +inf, and the ascent
    reads it whole and searches its lines.
    """

    __slots__ = ("_conj", "_space", "_wf", "pair_line", "pair_step", "upper")

    def __init__(self, conj: Callable[[Rv], float], space: MeasureSpace,
                 fv: np.ndarray):
        self._conj = conj
        self._space = space
        self._wf = space.weights * fv
        self.pair_line = self.pair_step = None
        self.upper = math.inf
        if isinstance(conj, SeparableConjugate):
            f = np.asarray(fv, dtype=float).tolist()
            self.pair_line = (lambda g, i, j, v:
                              conj.pair_line(g, i, j, f[i] - f[j], v))
            self.pair_step = (lambda g, i, j, lo, hi:
                              conj.pair_step(g, i, j, f[i] - f[j], lo, hi))
            if conj.unit_mass:
                self.upper = conj.upper

    def __call__(self, garr: np.ndarray) -> float:
        cv = self._conj(Rv._wrap(self._space, garr))
        if cv == math.inf:
            return -math.inf
        return float(np.dot(self._wf, garr)) - cv


# reconstruct, biconjugate_check and the tests build objectives by this name
_dual_objective = _DualObjective


def reconstruct(phi: RiskFunctional, f: Rv, psi: OrliczFunction, *,
                seed: int = 0, restarts: int = 8, force_numeric: bool = False,
                validation_trials: int = 120) -> tuple[float, DualCertificate]:
    """Recover ``phi(f)`` as ``sup_{g >= 0} (<f, g> - phi*(g))``.

    ``psi`` is the conjugate Young function whose heart the dual variable
    must inhabit; it must be finite everywhere (equivalently, the primal
    Young function grows superlinearly), else the representation hypothesis
    fails and a SlopeConditionError is raised. The functional must pass
    ``validate`` (convex, increasing, proper). With a declared closed-form
    maximizer the certificate is exact; otherwise ``maximize_dual`` searches
    over g >= 0 from deterministic multi-starts, with phi(f) as its
    ``ceiling``: phi(f) bounds every dual value (weak duality), so the
    search stops as soon as it comes within ``CEILING_TOL * (1 + |phi(f)|)``
    of it. ``maximize_dual`` describes the moves and the stop rules.
    Returns (dual value, certificate); certificate.gap = phi(f) - dual value.
    """
    space = phi.space
    if not space.same_space(f.space):
        raise SpaceMismatchError("f lives on a different space")
    if not psi.is_finite_everywhere:
        raise SlopeConditionError(
            "slope condition fails: the conjugate Young function takes the "
            "value +inf, so the Young function grows at most linearly (finite "
            "limit slope); the dual representation requires superlinear "
            "growth")
    report = validate(phi, trials=validation_trials, seed=seed + 101)
    if not report.all_ok:
        broken = [name for name, ok in (("monotone", report.monotone_ok),
                                        ("convex", report.convex_ok),
                                        ("proper", report.proper_ok)) if not ok]
        raise _ValidationRefusal(
            f"{phi.name} failed validation ({', '.join(broken)}); a dual "
            "representation over nonnegative densities is not available")
    primal = phi.evaluate(f)
    conj = _conjugate_fn(phi, seed, max(2, restarts // 2))

    if phi.closed_form_maximizer is not None and not force_numeric:
        g = phi.closed_form_maximizer(f)
        start_index, sweeps, evaluations = None, 0, 0
        stop_reason = "closed_form"
    else:
        res = maximize_dual(_dual_objective(conj, space, f.values), space,
                            seed=seed, restarts=restarts, nonneg=True,
                            ceiling=primal)
        g = Rv(space, res.g)
        start_index, sweeps = res.start_index, res.sweeps
        evaluations, stop_reason = res.evaluations, res.stop_reason
    cval = float(conj(g))
    # a conjugate value of +inf makes the achieved value -inf
    achieved = dual_pairing(f, g) - cval
    cert = DualCertificate(
        g=g,
        conjugate_value=cval,
        achieved=achieved,
        gap=primal - achieved,
        nonnegative_ok=bool(g.values.min() >= 0.0),
        heart_ok=heart_member(g, psi),
        heart_vacuous=psi.is_finite_everywhere,
        start_index=start_index,
        sweeps=sweeps,
        evaluations=evaluations,
        stop_reason=stop_reason,
    )
    return achieved, cert


# ---------------------------------------------------------------------------
# biconjugation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiconjugateReport:
    max_deviation: float
    max_split: float
    deviations: tuple[float, ...]
    splits: tuple[float, ...]


def biconjugate_check(phi: RiskFunctional, probes: Sequence[Rv], *,
                      seed: int = 0, restarts: int = 4) -> BiconjugateReport:
    """Compare ``phi**`` with ``phi`` on the given probes.

    The biconjugate supremum is taken over sign-free g (the domain of phi*
    does any restricting), and again over g >= 0; ``max_split`` is the
    largest disagreement between the two, which vanishes exactly when the
    optimal dual variable is nonnegative. ``max_deviation`` compares the
    sign-free supremum against phi itself. phi** <= phi bounds both suprema,
    so phi(f), computed once per probe, is the ``ceiling`` of both ascents.
    An empty probe list raises ValueError.
    """
    if not probes:
        raise ValueError("empty probe list: biconjugate_check needs at least "
                         "one probe")
    space = phi.space
    conj = _conjugate_fn(phi, seed, max(2, restarts // 2))
    deviations = []
    splits = []
    for f in probes:
        if not space.same_space(f.space):
            raise SpaceMismatchError("probe lives on a different space")
        obj = _dual_objective(conj, space, f.values)
        primal = phi.evaluate(f)
        free = maximize_dual(obj, space, seed=seed, restarts=restarts,
                             nonneg=False, ceiling=primal)
        cone = maximize_dual(obj, space, seed=seed, restarts=restarts,
                             nonneg=True, ceiling=primal)
        deviations.append(abs(free.value - primal))
        splits.append(abs(free.value - cone.value))
    return BiconjugateReport(
        max_deviation=max(deviations),
        max_split=max(splits),
        deviations=tuple(deviations),
        splits=tuple(splits),
    )
