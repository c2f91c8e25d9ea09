"""Fenchel conjugation and certified dual representations.

Conjugates, and the duals of functionals built by hand, are computed
derivative-free, by line-search ascent with deterministic multi-starts.
Each sweep has three kinds of move: single-coordinate lines,
mass-preserving pairwise transfers, which move along density simplices
that single-coordinate steps cannot leave and off the kinks where every
coordinate line falls, and, from a restart's second sweep on, a pattern
move (Hooke & Jeeves, 1961): one more line search along the sweep's net
move, which shortens the slow linear tail of coordinate-wise ascent. When
the ascent's first sweep finds every coordinate line outside the
objective's domain, as on the dual of a cash-additive functional, it runs
the transfers and the pattern move alone. A dual ascent whose primal
value phi(f) is known stops as soon as it reaches it, since by weak duality
no dual value exceeds it. The dual of a ``SeparableConjugate``, the
conjugate of every catalog member but the expectation, is solved instead:
it is a separable concave program on a box with one linear constraint,
whose maximizer one scalar fixes in closed form, the multiplier of the
mass (Patriksson 2008, Boyd & Vandenberghe 2004).
Divergence of a conjugate (the +inf case) is detected by ray probes before
any ascent runs, up to the first diverging ray, in blocks of rays whose
rows fit ``convergence.BLOCK_BYTES``, one ``evaluate_rows`` call per block
when the functional has a row kernel. A numeric Fenchel conjugate of a
functional that declares its ``coordinate_step``, as every catalog member
does, takes that step on each coordinate line and makes no other move: one
step of iterative scaling for the entropic (Darroch & Ratcliff 1972), the
best kink or segment end of a piecewise-linear line for the others. The
steps are exact, so it reads the objective once per sweep, not per step,
and no restart runs after one that ends flat: a point no exact coordinate
step improves is the maximum (Luo & Tseng 1992; Rockafellar 1970, Thm 13.2
for the positively homogeneous members).
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._search import INV_PHI, brent_max
from .convergence import _block_rows
from .errors import Refusal, SlopeConditionError
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


def _line_search(h: Callable[[float], float], lo: float, hi: float, t0: float,
                 v: float) -> tuple[tuple[float, float] | None, int]:
    """Brent along a concave ``h`` on ``[lo, hi]`` from ``(t0, v = h(t0))``.

    Returns ``(step, evaluations)``: ``step = (t, h(t))`` on strict
    improvement over ``v``, else None. The search runs on the whole segment
    and stops once its bracket is as narrow as ``INV_PHI**LINE_STEPS`` times
    it.
    """
    t, val, evals = brent_max(h, lo, hi, (hi - lo) * INV_PHI ** LINE_STEPS,
                              (t0, v))
    return ((t, val) if val > v else None), evals


@dataclass(frozen=True)
class AscentResult:
    """Best point over the restarts that ran.

    ``sweeps`` belongs to the winning restart (``start_index``);
    ``evaluations`` counts every objective call over the restarts that ran,
    and a coordinate step adds the values of phi it read. A stepped ascent
    runs no restart after one that ends ``"flat"`` (``maximize_dual``), so
    it may run fewer than its ``restarts``. With coordinate steps
    a restart calls the objective once at its start (restart 0 twice when
    its start reads -inf) and once per sweep. The mass-multiplier solve of
    a separable dual runs no sweep and no restart: ``start_index`` 0,
    ``sweeps`` 0 and ``evaluations`` 1, the call that reads its value.
    ``stop_reason`` says why the winning restart ended: ``"ceiling"`` (it
    came within ``CEILING_TOL`` of the caller's upper bound, and the call
    skipped every later sweep and restart), ``"flat"`` (a sweep gained at
    most 1e-11 relative; for the solve, its exact maximum lies further
    below the ceiling), ``"sweep_cap"`` (``SWEEP_CAP`` sweeps ran), or
    ``"stuck_at_-inf"`` (no restart found a finite value).
    """
    g: np.ndarray
    value: float
    start_index: int
    sweeps: int
    evaluations: int
    stop_reason: str


def _check_restarts(restarts: int, seed: int) -> None:
    if restarts < 1 or seed < 0:
        raise ValueError(f"a dual ascent needs at least one restart and a "
                         f"nonnegative seed, got restarts={restarts!r}, "
                         f"seed={seed!r}")


def maximize_dual(objective: Callable[[np.ndarray], float],
                  space: MeasureSpace,
                  *,
                  seed: int = 0,
                  restarts: int = 8,
                  nonneg: bool = True,
                  ceiling: float = math.inf,
                  coord_step: Callable[[np.ndarray, int, float, float],
                                       tuple[float, int]] | None = None
                  ) -> AscentResult:
    """Maximize a concave ``objective`` over coordinate vectors ``g``.

    ``reconstruct`` and ``biconjugate_check`` hand it every dual but that of
    a ``SeparableConjugate``: the expectation's, and those of functionals
    without a closed-form conjugate; ``fenchel_conjugate_value`` hands it
    every numeric conjugate. Objectives are free to return -inf off their
    domain, and a move applies only on strict improvement. A sweep moves
    along each coordinate line in turn, on the segment ``g_i +- 2 (1 + max
    |g|)``, cut at 0 when ``nonneg``. Without ``coord_step`` each line is
    guarded: it first probes its shoulders, at a quarter and three quarters
    of the segment, and is skipped when both are -inf; otherwise one line
    search runs on the whole segment. The sweep then runs the pairwise transfers g_i += s/w_i, g_j
    -= s/w_j over all pairs i < j, which keep the weighted mass fixed; under
    ``nonneg`` a pair segment ends where g_i or g_j reaches 0. A transfer
    steps off a kink where every coordinate line falls: on the uniform
    3-atom space, the Fenchel objective of max(f_1, (f_2 + f_3) / 2) at g =
    (1, 1.2, 0.8) grows without bound along f_2 - f_3 only. From a
    restart's second sweep on, the sweep ends with a pattern move along its
    net move d = g - (g at the sweep's start): a line search over g + t d
    from t = 0 for t in ``PATTERN_RANGE`` = [-1, 8], cut where no
    coordinate that is nonnegative at t = 0 turns negative, so it never
    enters the slack a closed-form conjugate allows below zero. A
    coordinate that a transfer under ``nonneg``, or the pattern move from a
    nonnegative value, leaves within 1e-13 below 0 is set to 0 exactly.

    If the guard skips every coordinate line of restart 0's first sweep,
    the objective is read as -inf off the hyperplane of the starting mass,
    as the dual objective of a cash-additive functional is (its conjugate
    is +inf off E[g] = 1), and the rest of the call runs the transfers and
    the pattern move only. d is then a sum of transfers, so the pattern
    line stays on that hyperplane. A wrong reading of the guard can only
    make this ascent weaker, never its answer infeasible.

    ``coord_step``, when given, is ``(g, i, lo, hi) -> (t, reads)``: the
    maximizer of the objective along ``g_i`` on ``[lo, hi]`` and the values
    of phi it read to find it, as ``fenchel_conjugate_value`` passes a
    functional's declared ``coordinate_step``. A sweep then sets each g_i
    in turn to its step's t, on the segment above, and makes no other move.
    Each step maximizes its line exactly, so a sweep loses nothing beyond
    rounding, and the ascent reads the objective once, at the sweep's end:
    one counted evaluation per sweep, plus the steps' reads. The sweep is
    kept only when that read is strictly higher than the sweep's start;
    otherwise it is dropped whole, g goes back to the sweep's start, and
    the restart ends ``flat`` (or ``stuck_at_-inf``). So a step that
    reads -inf drops its whole sweep, the others' steps with it; no
    catalog step reads -inf. Exact coordinate maximization converges for a
    smooth concave objective with a unique maximizer on each coordinate
    line (Luo & Tseng 1992), which the entropic objective is. A box-only
    member's phi is positively homogeneous, so its conjugate is 0, reached
    at restart 0's constant start, or else the objective is unbounded along
    a coordinate or ones ray, where a step takes the segment's end and the
    segment grows with |f|.

    Each line search, on coordinate, pair and pattern lines alike, stops
    once its bracket is as narrow as ``INV_PHI**LINE_STEPS`` times its
    segment, or on a plateau that three of its probes certify (the lines
    are concave). A restart ends after its first sweep that gains at most
    1e-11 relative.

    ``ceiling`` is a known upper bound on the objective, such as phi(f) for
    the dual of phi at f (weak duality), or a value past which the caller's
    answer no longer depends on the point, as for a Fenchel conjugate's
    divergence threshold. The call returns as soon as a restart's start
    point or an accepted move reaches ``ceiling - CEILING_TOL * (1 +
    |ceiling|)``, skipping the remaining sweeps and restarts; below an upper
    bound, a point it stops at is within that distance of the supremum. A
    stepped sweep is one move, checked after its one read, so a stepped
    ascent passes its ceiling by at most one sweep. A
    ceiling the ascent never reaches, a non-finite one included, changes
    nothing. The result is deterministic in ``seed``: restart 0 starts at
    the constant density 1 / total mass, restart r > 0 draws from
    default_rng([seed, r]), and ties prefer the lowest start index. When
    restart 0's start reads -inf, it moves to g = 1 if that reads higher,
    before its first sweep: on a space of mass other than 1, the
    expectation's dual is finite at g = 1 only. ``restarts`` below 1 and
    ``seed`` below 0 raise ValueError before the first objective call.

    With ``coord_step``, ``restarts`` is at most this many: the call returns
    once a restart ends ``"flat"`` and skips the restarts after it, since a
    point that no exact coordinate step improves is already the maximum. For
    the entropic's smooth concave objective that is a global maximum (Luo &
    Tseng 1992); a positively homogeneous phi (AVaR, the worst case, the
    expectation) has phi* = the indicator of dphi(0) (Rockafellar 1970, Thm
    13.2), so at a feasible g restart 0's constant start already reads
    phi*(g) = 0. A restart that ends at ``"sweep_cap"`` or
    ``"stuck_at_-inf"`` still hands over to the next. An ascent without
    ``coord_step`` runs every restart: its line searches stall at kinks.
    """
    _check_restarts(restarts, seed)
    # nan compares false with every value, so a non-finite ceiling never fires
    stop_at = (ceiling - CEILING_TOL * (1.0 + abs(ceiling))
               if math.isfinite(ceiling) else math.nan)
    w = space.weights
    n = space.n_atoms
    total = float(space.total_mass)
    best: AscentResult | None = None
    evals = 0
    transfers_only = False

    def at_ceiling():
        return AscentResult(g=g.copy(), value=v, start_index=r,
                            sweeps=sweeps, evaluations=evals,
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
        for _ in range(SWEEP_CAP):
            sweeps += 1
            v_before = v
            g_start = g.copy()

            if coord_step is not None:
                # each step maximizes its line exactly, so the sweep loses
                # nothing beyond rounding and one read at its end is enough;
                # coordinate i keeps its start value until its own step
                span = 2.0 * (1.0 + float(np.max(np.abs(g))))
                for i, t0 in enumerate(g.tolist()):
                    lo = max(0.0, t0 - span) if nonneg else t0 - span
                    g[i], reads = coord_step(g, i, lo, t0 + span)
                    evals += reads
                v = objective(g)
                evals += 1
                if not v > v_before:
                    g, v = g_start, v_before
                elif v >= stop_at:
                    return at_ceiling()
            elif not transfers_only:
                skipped = 0
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

                    # the guard: both shoulders -inf (the second probed only
                    # when the first is) put all of the line bar the current
                    # point outside the objective's domain, as under an
                    # equality constraint on the mass
                    evals += 1
                    if h(lo + 0.25 * (hi - lo)) == -math.inf:
                        evals += 1
                        if h(lo + 0.75 * (hi - lo)) == -math.inf:
                            skipped += 1
                            continue
                    step, ev = _line_search(h, lo, hi, t0, v)
                    evals += ev
                    if step:
                        g[i], v = step
                        if v >= stop_at:
                            return at_ceiling()
                # once the guard lets one line through, later sweeps keep
                # their coordinate lines, so only restart 0's first sweep
                # can switch the ascent to transfers only
                transfers_only = r == 0 and sweeps == 1 and skipped == n

            if coord_step is None:
                for i, j in itertools.combinations(range(n), 2):
                    wi, wj = float(w[i]), float(w[j])
                    gi, gj = float(g[i]), float(g[j])
                    if nonneg:
                        lo, hi = -gi * wi, gj * wj
                    else:
                        s_span = 1.0 + float(np.dot(w, np.abs(g)))
                        lo, hi = -s_span, s_span
                    if hi - lo <= 1e-300:
                        continue

                    def h(s, i=i, j=j, wi=wi, wj=wj, gi=gi, gj=gj):
                        g[i] = gi + s / wi
                        g[j] = gj - s / wj
                        val = objective(g)
                        g[i], g[j] = gi, gj
                        return val

                    step, ev = _line_search(h, lo, hi, 0.0, v)
                    evals += ev
                    if step:
                        s, v = step
                        g[i] = gi + s / wi
                        g[j] = gj - s / wj
                        if nonneg:
                            # transfers that land on zero should sit on it
                            # exactly, not a rounding error below it
                            for a in (i, j):
                                if -1e-13 < g[a] < 0.0:
                                    g[a] = 0.0
                        if v >= stop_at:
                            return at_ceiling()

            if sweeps > 1 and coord_step is None:
                d = g - g_start
                lo, hi = _pattern_segment(g, d)
                if hi - lo > 1e-300:
                    step, ev = _line_search(lambda t: objective(g + t * d),
                                            lo, hi, 0.0, v)
                    evals += ev
                    if step:
                        t, v = step
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
        if best is None or v > best.value:
            best = AscentResult(g=g.copy(), value=v, start_index=r,
                                sweeps=sweeps, evaluations=0,
                                stop_reason=reason)
        # no exact coordinate step gains at a flat stop, which certifies the
        # maximum; stepless lines stall at kinks, so they keep every restart
        if coord_step is not None and reason == "flat":
            break
    return replace(best, evaluations=evals)


# ---------------------------------------------------------------------------
# Fenchel conjugate values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateEstimate:
    """``evaluations`` counts the functional's evaluations, ``evaluate``
    calls and ``evaluate_rows`` rows alike: the ray probes plus the ascent's
    objective calls and the rows its coordinate steps read, 0 on the
    closed-form path. A stepped ascent calls the objective once per sweep,
    not once per step.
    A stepped ascent runs no restart after its first ``"flat"`` one, so
    ``restarts`` bounds its restarts rather than fixing them.
    ``stop_reason`` says how the value was found: ``"closed_form"``,
    ``"ray"`` (a ray probe diverged), ``"unbounded"`` (the ascent passed
    ``DIVERGENCE_ASCENT``), or else the ascent's ``AscentResult.stop_reason``."""
    value: float
    numeric: bool
    best_f: Rv | None = None
    diverged_ray: Rv | None = None
    evaluations: int = 0
    stop_reason: str = "closed_form"


class _DualObjective:
    """``garr -> <f, garr> - conj(garr)`` for f with values ``fv``; -inf
    where ``conj`` is +inf."""

    __slots__ = ("_conj", "_space", "_wf")

    def __init__(self, conj: Callable[[Rv], float], space: MeasureSpace,
                 fv: np.ndarray):
        self._conj = conj
        self._space = space
        self._wf = space.weights * fv

    def __call__(self, garr: np.ndarray) -> float:
        cv = self._conj(Rv._wrap(self._space, garr))
        if cv == math.inf:
            return -math.inf
        return float(np.dot(self._wf, garr)) - cv


def _first_diverging_ray(phi: RiskFunctional, wf: np.ndarray
                         ) -> tuple[np.ndarray | None, int]:
    """The first ray along which ``<f, g> - phi(f)`` diverges, and the
    values of phi read to find it; ``wf`` holds the weights times g.

    The rays are -e_1, +e_1, ..., -e_n, +e_n, -1, +1, in that order, each
    probed at f = 10^k ray for k in ``PROBE_EXPONENTS``. A ray diverges when
    one probe passes ``DIVERGENCE_HARD``, or when its trace is strictly
    increasing and ends above ``DIVERGENCE_SOFT``. With a row kernel the rays
    are read in blocks of ``_block_rows(n) // 6`` rays, at least one, one
    ``phi.evaluate_rows`` call each, so a block's rows fit
    ``convergence.BLOCK_BYTES`` whatever n is; ``check_rows`` cross-checks
    the first block's first and last rows with two ``phi.evaluate`` calls,
    which the reads count. Without one a block is one ray, read by six
    ``phi.evaluate`` calls. No block after the first diverging ray's is
    read.
    """
    space = phi.space
    n = space.n_atoms
    scales = 10.0 ** np.array(PROBE_EXPONENTS, dtype=float)
    n_rays = 2 * n + 2
    per_block = (1 if phi.evaluate_rows is None
                 else max(1, _block_rows(n) // len(scales)))
    reads = 0
    for start in range(0, n_rays, per_block):
        stop = min(start + per_block, n_rays)
        rays = np.zeros((stop - start, n))
        # ray k is -e_{k//2} for even k and +e_{k//2} for odd k below 2n;
        # rays 2n and 2n + 1 are -1 and +1
        for k in range(start, min(stop, 2 * n)):
            rays[k - start, k // 2] = 1.0 if k % 2 else -1.0
        for k in range(max(start, 2 * n), stop):
            rays[k - start] = 1.0 if k % 2 else -1.0
        rows = (rays[:, None, :] * scales[:, None]).reshape(-1, n)
        if phi.evaluate_rows is None:
            vals = np.array([phi.evaluate(Rv._wrap(space, row))
                             for row in rows])
        else:
            vals = np.asarray(phi.evaluate_rows(rows), dtype=float)
            if start == 0:
                # on -10 e_1 and on the block's last row: a kernel stale
                # only where f_1 >= 0 agrees on the first
                check_rows(phi, rows[[0, -1]], vals[[0, -1]])
                reads += 2
        reads += len(rows)
        traces = np.where(vals == math.inf, -math.inf, rows @ wf - vals)
        for ray, trace in zip(rays, traces.reshape(len(rays), -1).tolist()):
            if (max(trace) > DIVERGENCE_HARD
                    or (all(b > a for a, b in zip(trace, trace[1:]))
                        and trace[-1] > DIVERGENCE_SOFT)):
                return ray, reads
    return None, reads


def fenchel_conjugate_value(phi: RiskFunctional, g: Rv, *, seed: int = 0,
                            restarts: int = 8,
                            force_numeric: bool = False) -> ConjugateEstimate:
    """``phi*(g) = sup_f (<f, g> - phi(f))``, extended-real valued.

    Uses the declared closed form when available (unless ``force_numeric``).
    The numeric path first probes rays along +-10^k through every
    coordinate axis and through the constant vector, k = 1..6, in the order
    -e_1, +e_1, ..., -e_n, +e_n, -1, +1: a probe value beyond 1e10, or a
    strictly increasing trace ending above 1e4, is reported as +inf together
    with the first such ray. The probes are read in blocks of rays, one
    ``phi.evaluate_rows`` call per block, so memory stays bounded as n
    grows, or one ``phi.evaluate`` call per probe without a row kernel; a
    row kernel that disagrees with ``phi.evaluate`` on the first block
    raises ValueError (``_first_diverging_ray``). Otherwise a multi-start
    sign-free ascent over f (``maximize_dual`` on the ``_DualObjective`` of
    phi in the conjugate's place) estimates the supremum: by one
    ``phi.coordinate_step`` per coordinate line when phi declares one,
    passed as the ascent's ``coord_step``, with one objective read per
    sweep, by line searches, pair transfers and pattern moves otherwise.
    A stepped ascent runs at most ``restarts`` restarts: it returns after
    the first that ends ``"flat"``, whose point no exact step improves; a
    stepless one runs all of them. An
    ascent whose value passes ``DIVERGENCE_ASCENT`` = 1e12 is reported as
    +inf along the direction of its best point; since its value never
    falls, it stops at twice that value, a stepped ascent at most one sweep
    past it. A ``g`` on another space than phi's raises SpaceMismatchError
    on either path; ``restarts`` below 1 and ``seed`` below 0 raise
    ValueError before the first probe, on the numeric path only.
    ``evaluations`` reports the rows and ``phi.evaluate`` calls this
    evaluated, a step's rows included, and ``stop_reason`` says how the
    value was found (``ConjugateEstimate``).
    """
    space = phi.space
    space.require_same(g.space)
    if phi.closed_form_conjugate is not None and not force_numeric:
        return ConjugateEstimate(float(phi.closed_form_conjugate(g)),
                                 numeric=False)
    _check_restarts(restarts, seed)
    obj = _DualObjective(phi.evaluate, space, g.values)
    ray, probes = _first_diverging_ray(phi, obj._wf)
    if ray is not None:
        return ConjugateEstimate(math.inf, numeric=True,
                                 diverged_ray=Rv(space, ray),
                                 evaluations=probes, stop_reason="ray")

    step, gv = phi.coordinate_step, g.values
    # maximize_dual hands a step its bounds as Python floats
    coord_step = (None if step is None else lambda f, i, lo, hi:
                  step(f, i, gv, lo, hi))
    # an ascent's value never falls, so once it passes DIVERGENCE_ASCENT the
    # answer is +inf whatever the rest of the search finds; the ceiling's
    # stop point, 2e12 less its tolerance, lies past it
    res = maximize_dual(obj, space, seed=seed, restarts=restarts,
                        nonneg=False, ceiling=2.0 * DIVERGENCE_ASCENT,
                        coord_step=coord_step)
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
# dual representation certificates
# ---------------------------------------------------------------------------


class _ValidationRefusal(Refusal, ValueError):
    """The functional handed to ``reconstruct`` failed ``validate``."""


#: ``reconstruct``'s validation verdicts: for each functional object, the
#: names of the properties it failed, by ``validate``'s (trials, seed)
_VERDICTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class DualCertificate:
    """``start_index``, ``sweeps``, ``evaluations`` and ``stop_reason``
    are the dual ascent's (``AscentResult``; ``reconstruct`` says what they
    mean for the mass-multiplier solve), or None, 0, 0 and
    ``"closed_form"`` with a closed-form maximizer. ``evaluations`` counts
    objective calls, each one conjugate value."""
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


def _mass_multiplier_solve(conj: SeparableConjugate, space: MeasureSpace,
                           fv: np.ndarray, ceiling: float) -> AscentResult:
    """Maximize ``<f, g> - conj(g)``, whose supremum ``ceiling`` = phi(f)
    bounds, by solving its KKT system.

    The dual is separable and concave on the box [0, cap], with one linear
    constraint, E[g] = 1, so one scalar, the multiplier lambda of the mass,
    fixes its maximizer (Patriksson 2008; Boyd & Vandenberghe 2004, Ex.
    5.2). It reads only what ``conj`` declares, ``beta`` and the cap
    ``upper``, never phi's closed-form maximizer, and serves the two shapes
    a ``SeparableConjugate`` takes. With a finite ``beta`` there is no cap,
    and g_k = e^{beta (f_k - lambda) - 1} is one log-sum-exp, in the
    atoms' own order, shifted by the largest exponent so a share that
    underflows reads 0. With ``beta = inf`` the dual is linear and its
    maximizer the greedy vertex: the atoms, ordered by f, descending and
    stable so that ties go to the lower index, filled to the cap in that
    order, what is left of the mass on the next one. The value is read
    once; ``stop_reason`` is ``"ceiling"`` when it is within ``CEILING_TOL
    * (1 + |ceiling|)`` of ``ceiling``, else ``"flat"``.
    """
    w = space.weights
    if conj.beta < math.inf:
        z = conj.beta * fv
        e = np.exp(z - np.maximum.reduce(z))
        g = e / float(np.dot(w, e))
    else:
        cap = conj.upper
        order = np.argsort(-fv, kind="stable")
        ws = w[order]
        full = cap * ws
        # the mass left after filling the atoms before each one to the cap
        left = 1.0 - np.concatenate(([0.0], np.cumsum(full[:-1])))
        mass = np.minimum(np.maximum(left, 0.0), full)
        g = np.empty(len(ws))
        g[order] = np.where(mass == full, cap, mass / ws)
    value = _DualObjective(conj, space, fv)(g)
    reached = value >= ceiling - CEILING_TOL * (1.0 + abs(ceiling))
    return AscentResult(g=g, value=value, start_index=0, sweeps=0,
                        evaluations=1,
                        stop_reason="ceiling" if reached else "flat")


def _dual_ascents(conj: Callable[[Rv], float], space: MeasureSpace,
                  fv: np.ndarray, ceiling: float, seed: int, restarts: int,
                  signs: Sequence[bool]) -> list[AscentResult]:
    """The suprema of ``<f, g> - conj(g)`` below ``ceiling``: for a
    ``SeparableConjugate``, which is +inf below zero, one mass-multiplier
    solve for all of them, chosen by that type alone; for any other
    ``conj``, one ``maximize_dual`` ascent per ``nonneg`` in ``signs``.
    Its callers refuse a bad ``restarts`` or ``seed`` at their entry."""
    if isinstance(conj, SeparableConjugate):
        return [_mass_multiplier_solve(conj, space, fv, ceiling)]
    obj = _DualObjective(conj, space, fv)
    return [maximize_dual(obj, space, seed=seed, restarts=restarts,
                          nonneg=nonneg, ceiling=ceiling) for nonneg in signs]


def reconstruct(phi: RiskFunctional, f: Rv, psi: OrliczFunction, *,
                seed: int = 0, restarts: int = 8, force_numeric: bool = False,
                validation_trials: int = 120) -> tuple[float, DualCertificate]:
    """Recover ``phi(f)`` as ``sup_{g >= 0} (<f, g> - phi*(g))``.

    ``psi`` is the conjugate Young function whose heart the dual variable
    must inhabit; it must be finite everywhere (equivalently, the primal
    Young function grows superlinearly), else the representation hypothesis
    fails and a SlopeConditionError is raised. The functional must pass
    ``validate`` (convex, increasing, proper) in ``validation_trials``
    trials, at least one, drawn from seed ``seed + 101``. The verdict is
    remembered for the functional object and that (trials, seed) while the
    object lives, so a repeat call does not validate again and a failed
    functional is refused the same way each time; a ``dataclasses.replace``
    copy is a new object and is validated afresh. The memo assumes the
    functional's callables are pure, as every catalog member's are. An
    ``f`` on another space than phi's raises SpaceMismatchError, and
    ``restarts`` below 1 or ``seed`` below 0 raise ValueError, before any
    validation and on every path, the closed form's included. With a
    declared closed-form maximizer the certificate is exact. Otherwise
    phi(f), which bounds every dual value (weak duality), is the ascent's
    ``ceiling``. The dual of a
    ``SeparableConjugate`` (entropic, AVaR, worst case) is solved exactly
    from what the conjugate declares (``_mass_multiplier_solve``), never
    from phi's closed-form maximizer, so ``force_numeric`` still checks one
    against the other. It draws no start and runs no restart; its
    certificate reports ``start_index`` 0, ``sweeps`` 0, ``evaluations`` 1,
    the objective call that reads its value, and ``stop_reason``
    ``"ceiling"`` when that value is within ``CEILING_TOL * (1 + |phi(f)|)``
    of phi(f).
    Any other dual, the expectation's included, goes to ``maximize_dual``,
    over g >= 0 from deterministic multi-starts, which stops as soon as it
    comes that close; the expectation's starts at g = 1, its ceiling.
    Returns (dual value, certificate); certificate.gap = phi(f) - dual value.
    """
    space = phi.space
    space.require_same(f.space)
    _check_restarts(restarts, seed)
    if not psi.is_finite_everywhere:
        raise SlopeConditionError(
            "slope condition fails: the conjugate Young function takes the "
            "value +inf, so the Young function grows at most linearly (finite "
            "limit slope); the dual representation requires superlinear "
            "growth")
    verdicts = _VERDICTS.setdefault(phi, {})
    key = (validation_trials, seed + 101)
    broken = verdicts.get(key)
    if broken is None:
        report = validate(phi, trials=validation_trials, seed=seed + 101)
        broken = tuple(name for name, ok in (
            ("monotone", report.monotone_ok), ("convex", report.convex_ok),
            ("proper", report.proper_ok)) if not ok)
        verdicts[key] = broken
    if broken:
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
        res, = _dual_ascents(conj, space, f.values, primal, seed, restarts,
                             (True,))
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
    """``evaluations`` counts the dual ascents' objective calls over every
    probe, as ``DualCertificate`` does."""
    max_deviation: float
    max_split: float
    deviations: tuple[float, ...]
    splits: tuple[float, ...]
    evaluations: int


def biconjugate_check(phi: RiskFunctional, probes: Sequence[Rv], *,
                      seed: int = 0, restarts: int = 4) -> BiconjugateReport:
    """Compare ``phi**`` with ``phi`` on the given probes.

    The biconjugate supremum is taken over sign-free g (the domain of phi*
    does any restricting), and again over g >= 0; ``max_split`` is the
    largest disagreement between the two, which vanishes exactly when the
    optimal dual variable is nonnegative. ``max_deviation`` compares the
    sign-free supremum against phi itself. phi** <= phi bounds both suprema,
    so phi(f), computed once per probe, is the ``ceiling`` of both ascents.
    A ``SeparableConjugate`` is +inf below zero, so its two suprema are one
    problem: the mass-multiplier solve (``reconstruct``) runs once per
    probe, and its split is 0. Any other conjugate, the expectation's
    included, takes two ``maximize_dual`` ascents. A probe on another space
    than phi's raises SpaceMismatchError, and an empty probe list,
    ``restarts`` below 1 or ``seed`` below 0 ValueError, before any
    evaluation.
    """
    if not probes:
        raise ValueError("empty probe list: biconjugate_check needs at least "
                         "one probe")
    space = phi.space
    space.require_same(*(f.space for f in probes))
    _check_restarts(restarts, seed)
    conj = _conjugate_fn(phi, seed, max(2, restarts // 2))
    deviations = []
    splits = []
    evaluations = 0
    for f in probes:
        primal = phi.evaluate(f)
        runs = _dual_ascents(conj, space, f.values, primal, seed, restarts,
                             (False, True))
        free, cone = runs[0], runs[-1]
        evaluations += sum(run.evaluations for run in runs)
        deviations.append(abs(free.value - primal))
        splits.append(abs(free.value - cone.value))
    return BiconjugateReport(
        max_deviation=max(deviations),
        max_split=max(splits),
        deviations=tuple(deviations),
        splits=tuple(splits),
        evaluations=evaluations,
    )
