"""Catalog of convex risk functionals on discrete probability spaces.

Each functional carries a properness witness and -- where known -- a
closed-form Fenchel conjugate and maximizing density, so the duality engine
can certify representations without numeric search. Whether a functional is
increasing and convex is for ``validate`` to decide, not declared.
The entropic, AVaR and worst-case conjugates are each one
``SeparableConjugate``: a sum over atoms, ``E[g log g] / beta`` or zero,
on a box of densities of unit mass. It takes a candidate density ``g`` and
returns the conjugate value, ``+inf`` off the effective domain; what it
declares, ``beta`` and the box's cap, is all the dual solve reads. The
expectation's conjugate is a plain function, the indicator of the density 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .measure import MeasureSpace, Rv, zeros

FEAS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RiskFunctional:
    """A risk functional on a discrete space.

    ``evaluate_rows``, when given, maps a ``(k, n)`` matrix of outcome rows
    to the ``(k,)`` values ``evaluate`` gives row by row; ``validate`` uses
    it to score all its samples in one call.

    ``coordinate_step``, when given, is ``(f, i, g, lo, hi) -> (t, reads)``
    for outcome arrays ``f`` and ``g``: ``t`` is the value of ``f_i`` in
    ``[lo, hi]`` that maximizes ``<f, g> - phi(f)`` with the other outcomes
    fixed, and ``reads`` is how many values of phi it read to find it (0
    for a closed form). It reads phi's own formula, never its conjugate's,
    so the numeric ``fenchel_conjugate_value``, which takes these steps in
    place of line searches, stays an independent check of
    ``closed_form_conjugate``.

    A copy made with ``dataclasses.replace`` that swaps ``evaluate`` must
    swap or clear ``evaluate_rows`` and ``coordinate_step`` too;
    ``validate`` and the numeric ``fenchel_conjugate_value`` refuse a row
    kernel that disagrees with ``evaluate`` (``check_rows``), but nothing
    checks a step.

    A functional compares and hashes by identity. ``duality.reconstruct``
    remembers its ``validate`` verdict per object and (trials, seed), so
    its callables must be pure, as every catalog member's are; a
    ``dataclasses.replace`` copy is validated afresh.
    """
    name: str
    space: MeasureSpace
    evaluate: Callable[[Rv], float]
    proper_witness: Rv
    closed_form_conjugate: Callable[[Rv], float] | None = None
    closed_form_maximizer: Callable[[Rv], Rv] | None = None
    evaluate_rows: Callable[[np.ndarray], np.ndarray] | None = None
    coordinate_step: Callable[[np.ndarray, int, np.ndarray, float, float],
                              tuple[float, int]] | None = None


class SeparableConjugate:
    """``phi*(g) = E[g log g] / beta`` when every ``g_k`` lies in
    ``[-FEAS_TOL, upper]`` and ``|E[g] - 1| <= FEAS_TOL``; ``+inf``
    elsewhere. ``0 log 0 = 0``, and entries of ``g`` at or below zero add
    nothing; ``beta = inf`` drops the sum, which leaves the indicator of
    the box's densities. A call takes a candidate density ``Rv``. Its dual
    is solved from ``beta`` and ``upper`` alone, by a search on the
    multiplier of the unit mass (``duality``).
    """

    __slots__ = ("weights", "beta", "upper")

    def __init__(self, space: MeasureSpace, *, beta: float = math.inf,
                 upper: float = math.inf):
        self.weights = space.weights
        self.beta = beta
        self.upper = upper

    def __call__(self, g: Rv) -> float:
        gv = g.values
        w = self.weights
        # the ufuncs' reduce skips ndarray.min's Python wrapper; nan fails
        # every comparison, so it reads +inf
        lowest = np.minimum.reduce(gv)
        if not (lowest >= -FEAS_TOL and np.maximum.reduce(gv) <= self.upper
                and abs(float(np.dot(w, gv)) - 1.0) <= FEAS_TOL):
            return math.inf
        if self.beta == math.inf:
            return 0.0
        if lowest > 0.0:
            return float(np.dot(w, gv * np.log(gv))) / self.beta
        pos = gv > 0.0
        return float(np.dot(w[pos], gv[pos] * np.log(gv[pos]))) / self.beta


def _kink_step(w: np.ndarray, rows: Callable[[np.ndarray], np.ndarray],
               kinks: Callable[[np.ndarray, int], np.ndarray]
               ) -> Callable[..., tuple[float, int]]:
    """The ``coordinate_step`` of a positively homogeneous phi whose line
    along ``f_i`` is piecewise linear, with kinks only at ``kinks(f, i)``.

    The line ``t -> w_i g_i t - phi(f with f_i = t)`` is concave, so its
    maximum on ``[lo, hi]`` sits at a kink inside the segment or at one of
    its ends. One ``rows`` call reads them all, and the step is the first
    best one, in the order ``lo``, the kinks ascending, ``hi``.
    """
    def step(f, i, g, lo, hi):
        ts = kinks(f, i)
        ts = np.concatenate(([lo], np.unique(ts[(ts > lo) & (ts < hi)]),
                             [hi]))
        F = np.repeat(f[None, :], len(ts), axis=0)
        F[:, i] = ts
        vals = (w[i] * g[i]) * ts - rows(F)
        return float(ts[np.argmax(vals)]), len(ts)
    return step


def _check_probability(space: MeasureSpace, what: str) -> None:
    if not space.is_probability(FEAS_TOL):
        raise ValueError(f"{what} requires a probability space (total mass "
                         f"{space.total_mass!r})")


def entropic(beta: float, space: MeasureSpace) -> RiskFunctional:
    """``(1/beta) * log E[exp(beta f)]``.

    Conjugate: relative entropy ``(1/beta) * E[g log g]`` on densities
    (g >= 0, E[g] = 1; 0 log 0 = 0), +inf elsewhere. The maximizing density
    is the Gibbs reweighting ``exp(beta f) / E[exp(beta f)]``.
    """
    if not beta > 0.0:
        raise ValueError(f"entropic index must be positive, got {beta}")
    _check_probability(space, "entropic")
    w = space.weights
    n = space.n_atoms

    def ev(f: Rv) -> float:
        # max-shifted log-sum-exp; scipy's logsumexp costs ~20x more per call
        z = beta * f.values
        # the ufunc's reduce skips ndarray.max's Python wrapper
        m = np.maximum.reduce(z)
        return float(m + np.log(np.dot(w, np.exp(z - m)))) / beta

    def ev_rows(F: np.ndarray) -> np.ndarray:
        z = beta * F
        m = z.max(axis=1)
        return (m + np.log(np.exp(z - m[:, None]) @ w)) / beta

    def maximizer(f: Rv) -> Rv:
        z = beta * f.values
        z = z - z.max()
        e = np.exp(z)
        return Rv(space, e / float(np.dot(w, e)))

    def step(f: np.ndarray, i: int, g: np.ndarray, lo: float,
             hi: float) -> tuple[float, int]:
        # the line w_i g_i t - log(A_i + w_i e^{beta t}) / beta, with A_i the
        # other atoms' sum of w_k e^{beta f_k}, is strictly concave; its
        # maximum solves e^{beta t} = g_i A_i / (1 - w_i g_i), one step of
        # iterative scaling (Darroch & Ratcliff 1972)
        gi = float(g[i])
        wg = float(w[i]) * gi
        if wg >= 1.0:  # the line rises without bound
            return hi, 0
        if not gi > 0.0 or n == 1:  # it falls throughout (n = 1: A_i = 0)
            return lo, 0
        z = beta * f
        z[i] = -math.inf
        # shifted by the largest other exponent, as evaluate shifts its sum
        m = np.maximum.reduce(z)
        log_a = m + math.log(float(np.dot(w, np.exp(z - m))))
        t = (math.log(gi) + log_a - math.log1p(-wg)) / beta
        return min(max(t, lo), hi), 0

    return RiskFunctional(
        name=f"entropic(beta={beta})",
        space=space,
        evaluate=ev,
        proper_witness=zeros(space),
        closed_form_conjugate=SeparableConjugate(space, beta=beta),
        closed_form_maximizer=maximizer,
        evaluate_rows=ev_rows,
        coordinate_step=step,
    )


def _avar_density(values: np.ndarray, weights: np.ndarray, alpha: float) -> np.ndarray:
    """Greedy mass filling: cap 1/alpha on the largest outcomes first."""
    cap = 1.0 / alpha
    order = np.argsort(-values, kind="stable")
    g = np.zeros_like(values)
    remaining = 1.0
    for i in order:
        if remaining <= 0.0:
            break
        gi = min(cap, remaining / weights[i])
        g[i] = gi
        remaining -= weights[i] * gi
    return g


def average_value_at_risk(alpha: float, space: MeasureSpace) -> RiskFunctional:
    """Tail average over the worst ``alpha`` fraction of outcomes.

    ``sup { E[f g] : 0 <= g <= 1/alpha, E[g] = 1 }``; the greedy filling of
    the cap along descending outcomes attains the supremum, so evaluation and
    maximizer share one code path. Conjugate: indicator of that density box.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"tail level must lie in (0, 1], got {alpha}")
    _check_probability(space, "average_value_at_risk")
    w = space.weights
    cap = 1.0 / alpha

    def maximizer(f: Rv) -> Rv:
        return Rv(space, _avar_density(f.values, w, alpha))

    def ev(f: Rv) -> float:
        g = _avar_density(f.values, w, alpha)
        return float(np.dot(w, f.values * g))

    def ev_rows(F: np.ndarray) -> np.ndarray:
        # the greedy filling of _avar_density, as masses w_i * g_i per row
        order = np.argsort(-F, axis=1, kind="stable")
        full = cap * w[order]
        before = np.zeros_like(full)  # capped mass of the larger outcomes
        np.cumsum(full[:, :-1], axis=1, out=before[:, 1:])
        mass = np.clip(1.0 - before, 0.0, full)
        return np.einsum("ij,ij->i", np.take_along_axis(F, order, axis=1), mass)

    return RiskFunctional(
        name=f"average_value_at_risk(alpha={alpha})",
        space=space,
        evaluate=ev,
        proper_witness=zeros(space),
        closed_form_conjugate=SeparableConjugate(space, upper=cap),
        closed_form_maximizer=maximizer,
        evaluate_rows=ev_rows,
        # the tail mass moves where f_i passes another outcome
        coordinate_step=_kink_step(w, ev_rows, np.delete),
    )


def worst_case(space: MeasureSpace) -> RiskFunctional:
    """``max_i f_i``; conjugate is the indicator of all densities."""
    w = space.weights

    def ev(f: Rv) -> float:
        return float(np.maximum.reduce(f.values))

    def rows(F: np.ndarray) -> np.ndarray:
        return F.max(axis=1)

    def maximizer(f: Rv) -> Rv:
        i = int(np.argmax(f.values))
        g = np.zeros_like(f.values)
        g[i] = 1.0 / w[i]
        return Rv(space, g)

    return RiskFunctional(
        name="worst_case",
        space=space,
        evaluate=ev,
        proper_witness=zeros(space),
        closed_form_conjugate=SeparableConjugate(space),
        closed_form_maximizer=maximizer,
        evaluate_rows=rows,
        # max(f_i, the largest other outcome) bends at that outcome only
        coordinate_step=_kink_step(
            w, rows, lambda f, i: np.sort(np.delete(f, i))[-1:]),
    )


def expectation(space: MeasureSpace) -> RiskFunctional:
    """``E[f]``; conjugate is the indicator of the single density 1, 0
    where every ``|g_k - 1| <= FEAS_TOL`` and ``+inf`` elsewhere, on a
    space of any total mass."""
    w = space.weights

    def ev(f: Rv) -> float:
        return float(np.dot(w, f.values))

    def rows(F: np.ndarray) -> np.ndarray:
        return F @ w

    def conj(g: Rv) -> float:
        # a nan entry makes the maximum nan, which fails the comparison
        far = np.maximum.reduce(np.abs(g.values - 1.0))
        return 0.0 if far <= FEAS_TOL else math.inf

    def maximizer(f: Rv) -> Rv:
        return Rv(space, np.ones_like(f.values))

    return RiskFunctional(
        name="expectation",
        space=space,
        evaluate=ev,
        proper_witness=zeros(space),
        closed_form_conjugate=conj,
        closed_form_maximizer=maximizer,
        evaluate_rows=rows,
        # a linear line: its maximum is an end
        coordinate_step=_kink_step(w, rows, lambda f, i: f[:0]),
    )


def non_monotone_control(space: MeasureSpace) -> RiskFunctional:
    """``E[f^2]`` -- convex and proper but *not* increasing.

    Negative control: dual-representation machinery must refuse it.
    """
    w = space.weights

    def ev(f: Rv) -> float:
        return float(np.dot(w, f.values * f.values))

    return RiskFunctional(
        name="non_monotone_control",
        space=space,
        evaluate=ev,
        proper_witness=zeros(space),
    )


# -- sampled validation ------------------------------------------------------


def check_rows(phi: RiskFunctional, rows: np.ndarray,
               values: np.ndarray) -> None:
    """Raise ValueError unless ``values``, from ``phi.evaluate_rows``,
    matches ``phi.evaluate`` on every one of ``rows`` within 1e-9 relative.

    One ``evaluate`` call per row catches a stale kernel, say one that a
    ``dataclasses.replace`` of ``evaluate`` left behind, so callers pass a
    row or two of their batch.
    """
    for row, value in zip(rows, values):
        ref = phi.evaluate(Rv._wrap(phi.space, row))
        if not (value == ref or abs(value - ref) <= 1e-9 * (1.0 + abs(ref))):
            raise ValueError(
                f"{phi.name}: evaluate_rows disagrees with evaluate")


@dataclass(frozen=True)
class ValidationReport:
    monotone_ok: bool
    convex_ok: bool
    proper_ok: bool
    trials: int
    seed: int
    monotone_witness: tuple[np.ndarray, np.ndarray, float, float] | None = None
    convex_witness: tuple[np.ndarray, np.ndarray, float, float] | None = None

    @property
    def all_ok(self) -> bool:
        return self.monotone_ok and self.convex_ok and self.proper_ok


def validate(phi: RiskFunctional, trials: int = 200, seed: int = 0) -> ValidationReport:
    """Sampled check of monotonicity, convexity and properness (slack 1e-9).

    Trial t draws ``a``, ``b = a + Exp(1)``, ``c`` and ``theta``; all trials
    are drawn as whole matrices and scored in one ``evaluate_rows`` call
    (row by row through ``evaluate`` when the functional has no row kernel).
    Violations are recorded with witnesses from the first violating trial,
    never raised. ``trials`` below 1 raise ValueError before any draw: no
    trial would pass any functional.
    """
    if trials < 1:
        raise ValueError(f"validate needs at least one trial, "
                         f"got trials={trials!r}")
    rng = np.random.default_rng(seed)
    space = phi.space
    n = space.n_atoms
    slack = 1e-9
    a = rng.normal(0.0, 2.0, (trials, n))
    b = a + rng.exponential(1.0, (trials, n))
    c = rng.normal(0.0, 2.0, (trials, n))
    theta = rng.uniform(0.05, 0.95, trials)
    mixed = theta[:, None] * a + (1.0 - theta[:, None]) * c
    rows = np.concatenate((a, b, mixed, c))
    rows.setflags(write=False)  # the scalar path wraps rows without copying
    if phi.evaluate_rows is None:
        values = np.array([phi.evaluate(Rv._wrap(space, r)) for r in rows],
                          dtype=float)
    else:
        values = np.asarray(phi.evaluate_rows(rows), dtype=float)
        check_rows(phi, rows[:1], values[:1])
    fa, fb, mix, fc = values.reshape(4, trials)
    mono_bad = np.flatnonzero(fa > fb + slack)
    conv_bad = np.flatnonzero(mix > theta * fa + (1.0 - theta) * fc + slack)
    mono_wit = conv_wit = None
    if mono_bad.size:
        t = mono_bad[0]
        mono_wit = (a[t].copy(), b[t].copy(), float(fa[t]), float(fb[t]))
    if conv_bad.size:
        t = conv_bad[0]
        conv_wit = (a[t].copy(), c[t].copy(), float(theta[t]), float(mix[t]))
    proper_ok = (math.isfinite(phi.evaluate(phi.proper_witness))
                 and not np.any(fa == -math.inf))
    return ValidationReport(
        monotone_ok=mono_wit is None,
        convex_ok=conv_wit is None,
        proper_ok=proper_ok,
        trials=trials,
        seed=seed,
        monotone_witness=mono_wit,
        convex_witness=conv_wit,
    )


def increasing_catalog(space: MeasureSpace, beta: float = 1.0, alpha: float = 0.5):
    """The four proper convex increasing catalog members on ``space``."""
    return [
        entropic(beta, space),
        average_value_at_risk(alpha, space),
        worst_case(space),
        expectation(space),
    ]
