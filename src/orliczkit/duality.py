"""Fenchel conjugation and certified dual representations.

Everything here is derivative-free: conjugates and dual suprema are computed
by per-coordinate line-search ascent with deterministic multi-starts, plus
mass-preserving pairwise transfers so the search can move along density
simplices that single-coordinate steps cannot leave. When the ascent's
first sweep finds every move that changes the mass outside the objective's
domain, as on the dual of a cash-additive functional, it runs those
transfers alone. From a restart's second sweep on, each sweep ends with a
pattern move (Hooke & Jeeves, 1961): one more line search along the sweep's
net move, which shortens the slow linear tail of coordinate-wise ascent. A
dual ascent whose primal value phi(f) is known stops as soon as it reaches
it, since by weak duality no dual value exceeds it. Divergence of a
conjugate (the +inf case) is detected by ray probes before any ascent runs.
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
from .risk import RiskFunctional, validate

# A single ray probe beyond this value is conclusive divergence on its own.
DIVERGENCE_HARD = 1e10
# A strictly increasing probe trace must clear this by the last exponent.
DIVERGENCE_SOFT = 1e4
PROBE_EXPONENTS = (1, 2, 3, 4, 5, 6)

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


@dataclass(frozen=True)
class AscentResult:
    """Best point over all restarts.

    ``sweeps`` belongs to the winning restart (``start_index``);
    ``evaluations`` counts every objective call over all restarts.
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

    Move set per sweep: single-coordinate line searches (projected to g >= 0
    when ``nonneg``), pairwise transfers g_i += s/w_i, g_j -= s/w_j over all
    pairs i < j, which keep the weighted mass fixed, a global additive
    shift, and a global rescaling. The coordinate, shift and scale lines
    are guarded: each first probes its shoulders and is skipped when both
    are -inf. If the guard skips every one of them in restart 0's first
    sweep, the objective is read as -inf off the hyperplane of the starting
    mass, as the dual objective of a cash-additive functional is (its
    conjugate is +inf off E[g] = 1), and the rest of the call runs the pair
    transfers only. A wrong reading can only make the ascent weaker, never
    its answer infeasible.

    Objectives are free to return -inf off their domain; moves apply only on
    strict improvement. Each line search stops once its bracket is as narrow
    as ``INV_PHI**LINE_STEPS`` times its segment, or on a plateau that three
    of its probes certify (the lines are concave). A pair that moved by s in
    the previous sweep first searches the window [-4|s|, 4|s|] of its
    segment at that same absolute width; it falls back to the whole segment
    when the window's best point gains nothing or lands on an inner edge of
    the window (the line is concave, so a best point inside the window is
    the line's maximum), and always in a restart's first sweep.

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
    the dual of phi at f (weak duality). The call returns as soon as an
    accepted move of any kind reaches ``ceiling - CEILING_TOL * (1 +
    |ceiling|)``, skipping the remaining sweeps and restarts; a point it
    stops at is within that distance of the supremum, whatever the rest of
    the search would have found. A ceiling the ascent never reaches, a
    non-finite one included, leaves every step as without one. The result
    is deterministic in ``seed``: restart r draws from default_rng([seed,
    r]) and ties prefer the lowest start index. ``restarts`` below 1 raise
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
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best: AscentResult | None = None
    evals = 0
    # guarded lines tried and skipped by the guard; once the guard lets one
    # line through the two never agree again, so only restart 0's first
    # sweep can switch the ascent to transfers only
    tried = skipped = 0
    transfers_only = False

    def line(h, lo, hi, t0, guard=True, reach=0.0):
        """One move: Brent along ``h`` on ``[lo, hi]`` from ``(t0, v)``.
        Returns ``(t, h(t))`` on strict improvement over ``v``, else None.
        ``guard`` probes the two shoulders first, the second only when the
        first is -inf, and skips the line when both are: then all of it bar
        the current point sits outside the objective's domain, as
        single-coordinate and additive moves do under an equality
        constraint. ``reach > 0`` searches the window within ``reach`` of
        ``t0`` first, as ``maximize_dual`` describes."""
        nonlocal evals, tried, skipped
        if guard:
            tried += 1
            evals += 1
            if h(lo + 0.25 * (hi - lo)) == -math.inf:
                evals += 1
                if h(lo + 0.75 * (hi - lo)) == -math.inf:
                    skipped += 1
                    return None
        width = (hi - lo) * INV_PHI ** LINE_STEPS
        if reach > 0.0:
            a, b = max(lo, t0 - reach), min(hi, t0 + reach)
            t, val, ev = brent_max(h, a, b, width, (t0, v))
            evals += ev
            # inner edges fall back: without it numeric AVaR took 2-7 % more calls
            if val > v and (t != a or a == lo) and (t != b or b == hi):
                return t, val
        t, val, ev = brent_max(h, lo, hi, width, (t0, v))
        evals += ev
        return (t, val) if val > v else None

    def at_ceiling():
        return AscentResult(g=g.copy(), value=v, start_index=r, sweeps=sweeps,
                            evaluations=evals, stop_reason="ceiling")

    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        if r == 0:
            g = np.full(n, 1.0 / total)
        else:
            raw = np.abs(rng.normal(0.0, 1.0, n)) + 0.05
            g = raw / float(np.dot(w, raw))
        v = objective(g)
        evals += 1
        sweeps = 0
        # per pair, the warm window's half-width: 4 |last sweep's step|
        reach = [0.0] * len(pairs)
        for _ in range(SWEEP_CAP):
            sweeps += 1
            v_before = v
            g_start = g.copy()

            if not transfers_only:
                span = 2.0 * (1.0 + float(np.max(np.abs(g)))) if n else 1.0
                for i in range(n):
                    t0 = g[i]
                    lo = max(0.0, t0 - span) if nonneg else t0 - span
                    hi = t0 + span
                    if hi <= lo:
                        continue

                    def h(t, i=i):
                        old = g[i]
                        g[i] = t
                        val = objective(g)
                        g[i] = old
                        return val

                    step = line(h, lo, hi, t0)
                    if step:
                        g[i], v = step
                        if v >= stop_at:
                            return at_ceiling()

            for k, (i, j) in enumerate(pairs):
                wi, wj = float(w[i]), float(w[j])
                gi, gj = float(g[i]), float(g[j])
                if nonneg:
                    lo, hi = -gi * wi, gj * wj
                else:
                    s_span = 1.0 + float(np.dot(w, np.abs(g)))
                    lo, hi = -s_span, s_span
                if hi - lo <= 1e-300:
                    reach[k] = 0.0
                    continue

                def h(s, i=i, j=j, wi=wi, wj=wj, gi=gi, gj=gj):
                    g[i] = gi + s / wi
                    g[j] = gj - s / wj
                    val = objective(g)
                    g[i], g[j] = gi, gj
                    return val

                step = line(h, lo, hi, 0.0, guard=False, reach=reach[k])
                reach[k] = 4.0 * abs(step[0]) if step else 0.0
                if step:
                    s, v = step
                    g[i] = gi + s / wi
                    g[j] = gj - s / wj
                    if nonneg:
                        # transfers that land on a clamp boundary should sit
                        # on it exactly, not a rounding error below zero
                        if g[i] < 0.0 and g[i] > -1e-13:
                            g[i] = 0.0
                        if g[j] < 0.0 and g[j] > -1e-13:
                            g[j] = 0.0
                    if v >= stop_at:
                        return at_ceiling()

            if not transfers_only:
                lo = max(-float(np.min(g)), -span) if nonneg else -span
                if span > lo:
                    step = line(lambda t: objective(g + t), lo, span, 0.0)
                    if step:
                        t, v = step
                        g += t
                        if nonneg:
                            np.maximum(g, 0.0, out=g)
                        if v >= stop_at:
                            return at_ceiling()

                step = line(lambda c: objective(c * g), 0.25, 4.0, 1.0)
                if step:
                    c, v = step
                    g *= c
                    if v >= stop_at:
                        return at_ceiling()
                transfers_only = skipped == tried

            if sweeps > 1:
                d = g - g_start
                lo, hi = _pattern_segment(g, d)
                if hi - lo > 1e-300:
                    step = line(lambda t: objective(g + t * d), lo, hi, 0.0,
                                guard=False)
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
    return replace(best, evaluations=evals)


# ---------------------------------------------------------------------------
# Fenchel conjugate values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugateEstimate:
    """``evaluations`` counts the functional's ``evaluate`` calls: the ray
    probes plus the ascent's objective calls, 0 on the closed-form path."""
    value: float
    numeric: bool
    best_f: Rv | None = None
    diverged_ray: Rv | None = None
    evaluations: int = 0


def _strictly_increasing(trace: Sequence[float]) -> bool:
    return all(b > a for a, b in zip(trace, trace[1:]))


def fenchel_conjugate_value(phi: RiskFunctional, g: Rv, *, seed: int = 0,
                            restarts: int = 8,
                            force_numeric: bool = False) -> ConjugateEstimate:
    """``phi*(g) = sup_f (<f, g> - phi(f))``, extended-real valued.

    Uses the declared closed form when available (unless ``force_numeric``).
    The numeric path first fires divergence probes along +-10^k rays through
    every coordinate axis and through the constant vector, k = 1..6: a probe
    value beyond 1e10, or a strictly increasing trace ending above 1e4, is
    reported as +inf together with the offending ray. Otherwise a multi-start
    sign-free coordinate ascent over f estimates the supremum.
    ``evaluations`` reports the ``phi.evaluate`` calls this made.
    """
    space = phi.space
    if not space.same_space(g.space):
        raise SpaceMismatchError("dual candidate lives on a different space")
    if phi.closed_form_conjugate is not None and not force_numeric:
        return ConjugateEstimate(float(phi.closed_form_conjugate(g)),
                                 numeric=False)
    w = space.weights
    gv = g.values
    n = space.n_atoms

    def obj(fv: np.ndarray) -> float:
        val = phi.evaluate(Rv._wrap(space, fv))
        if val == math.inf:
            return -math.inf
        return float(np.dot(w, fv * gv)) - val

    rays: list[np.ndarray] = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rays.append(-e)
        rays.append(e)
    rays.append(-np.ones(n))
    rays.append(np.ones(n))
    probes = 0
    for ray in rays:
        trace = [obj((10.0 ** k) * ray) for k in PROBE_EXPONENTS]
        probes += len(trace)
        if (max(trace) > DIVERGENCE_HARD
                or (_strictly_increasing(trace)
                    and trace[-1] > DIVERGENCE_SOFT)):
            return ConjugateEstimate(math.inf, numeric=True,
                                     diverged_ray=Rv(space, ray),
                                     evaluations=probes)

    res = maximize_dual(obj, space, seed=seed, restarts=restarts,
                        nonneg=False)
    evals = probes + res.evaluations
    if res.value > 1e12:
        scale = max(1.0, float(np.max(np.abs(res.g))))
        return ConjugateEstimate(math.inf, numeric=True,
                                 diverged_ray=Rv(space, res.g / scale),
                                 evaluations=evals)
    return ConjugateEstimate(res.value, numeric=True,
                             best_f=Rv(space, res.g), evaluations=evals)


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
    """``evaluations`` counts the dual ascent's objective calls, 0 with a
    closed-form maximizer; each call costs one conjugate value.
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


def _dual_objective(conj: Callable[[Rv], float], space: MeasureSpace,
                    fv: np.ndarray) -> Callable[[np.ndarray], float]:
    """``garr -> <f, garr> - conj(garr)`` for f with values ``fv``; -inf
    where ``conj`` is +inf."""
    w = space.weights

    def obj(garr: np.ndarray) -> float:
        cv = conj(Rv._wrap(space, garr))
        if cv == math.inf:
            return -math.inf
        return float(np.dot(w, fv * garr)) - cv

    return obj


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
    over g >= 0 from deterministic multi-starts. Each sweep runs the
    mass-preserving pair transfers plus coordinate, shift and scale moves;
    when restart 0's first sweep finds all of the latter outside the dual's
    domain, as for a cash-additive functional, the rest run the transfers
    only. A pair that moved in the previous sweep first searches a window
    of four times that step, falling back to its whole segment when the
    window's best point sits on the window's inner edge or gains nothing.
    From a restart's second sweep on, a sweep ends with a pattern move, a
    line search along the sweep's net move d over g + t d for t in [-1, 8],
    cut where a nonnegative density would turn negative. Each restart ends
    after its first sweep that gains at most 1e-11 relative. phi(f) bounds
    every dual value (weak duality), so it is the ascent's ``ceiling``: the
    search stops, skipping any later restart, as soon as it comes within
    ``CEILING_TOL * (1 + |phi(f)|)`` of phi(f).
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
