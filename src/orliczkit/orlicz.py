"""Orlicz functions: catalog, Young conjugates, doubling classification.

An Orlicz function here is convex, increasing, left-continuous, vanishes at
zero, is not identically zero and may take the value ``+inf`` (modelled by
``math.inf``). The catalog covers the workhorse cases:

* ``power(p)``           -- t**p, p > 1
* ``scaled_power(p, c)`` -- c * t**p; default c = 1/p (the normalized family)
* ``exp_young()``        -- exp(t) - t - 1
* ``exp_young_conjugate()`` -- (1+s) log(1+s) - s, the conjugate of exp_young
* ``table(ts, ys, ...)`` -- convex knots joined linearly, a power-law or
  linear tail and an optional horizon (``custom:file=`` tables load as one)
* the ``table_conjugate`` kind -- a table's exact Young conjugate, made by
  ``conjugate``
* ``linear()``           -- t (the boundary case with limit slope 1): the
  table through (0, 0) and (1, 1)
* ``linf_step()``        -- 0 on [0, 1], +inf beyond (sup-norm geometry):
  the conjugate of that table
* ``custom(...)``        -- user evaluator with a declared finiteness horizon

Every kind but ``custom`` has one numpy kernel, which serves scalar calls
and arrays alike, so both give the same bits, and a second one for its
companion ``t Phi'(t) - Phi(t)``, whose modular finds the Amemiya norm.
Every kind but ``custom`` answers ``conjugate``, ``check_delta2`` and
``limit_slope`` in closed form; only ``custom`` Python callables are probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from ._search import brent_max, expand_max_bracket

POWER = "power"
SCALED_POWER = "scaled_power"
EXP_YOUNG = "exp_young"
EXP_YOUNG_CONJUGATE = "exp_young_conjugate"
TABLE = "table"
TABLE_CONJUGATE = "table_conjugate"
CUSTOM = "custom"

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

Regime = Literal["at_zero", "at_infinity"]

_REGIMES = ("at_zero", "at_infinity")
# grid points per span of the doubling heuristic for custom functions
_DELTA2_SAMPLES = 64
# the smallest normal double
_TINY = float(np.finfo(float).tiny)

#: ``limit_slope`` probes custom functions at t = 1, 2, 4, ..., SLOPE_RAY_END
SLOPE_RAY_END = 2.0**50

#: ``exp_young`` and its conjugate take their Taylor polynomials below this
#: argument. Their closed forms, expm1(t) - t and (1+s) log1p(s) - s, cancel
#: there: about 4e-16 / t of relative error, up to 3e-12 at the threshold
#: and 1.2e-9 in the norm of an indicator of mass 1e12. The polynomials, of
#: degrees 5 and 6, leave out less than 1e-17 relative below it. A higher
#: threshold costs a polynomial in most modular calls of a norm, for the
#: few arguments of |f| / lam that fall below it.
TAYLOR_BELOW = 2.0**-12
# coefficients of t^2, t^3, ...: 1/k! for exp_young, (-1)^k / (k (k-1)) for
# its conjugate
_EXP_YOUNG_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(2, 6))
_EXP_YOUNG_CONJUGATE_TAYLOR = tuple((-1.0) ** k / (k * (k - 1))
                                    for k in range(2, 8))
# the same for their companions (t - 1) expm1(t) + t and s - log1p(s):
# (k - 1) / k! and (-1)^k / k
_EXP_YOUNG_COMPANION_TAYLOR = tuple((k - 1.0) / math.factorial(k)
                                    for k in range(2, 6))
_EXP_YOUNG_CONJUGATE_COMPANION_TAYLOR = tuple((-1.0) ** k / k
                                              for k in range(2, 8))

#: Tables are convex to this tolerance: ``specs.load_custom_table`` refuses
#: a chord slope that falls by more than it times max(1, slope), and
#: ``OrliczFunction.table`` reads a tail exponent within it of 1 as 1, so
#: that knots on a line through 0 up to rounding grow linearly.
TABLE_SLOPE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Knots:
    """The shape of a table Young function Phi, shared by its conjugate.

    Knots ``0 = ts[0] < ... < ts[m]`` (m >= 1) with ``ys[0] = 0``, joined
    linearly. Beyond the last knot (t_m, y_m) the tail is
    ``y_m (t / t_m)**gamma`` when ``gamma`` is set, else
    ``y_m + slope (t - t_m)``; ``slope`` is the tail's slope at t_m either
    way (``gamma y_m / t_m`` for the power law). Phi is +inf beyond
    ``horizon``. ``dt`` and ``dy`` are the knots' differences.
    """

    ts: np.ndarray
    ys: np.ndarray
    dt: np.ndarray
    dy: np.ndarray
    gamma: float | None
    slope: float
    horizon: float

    @property
    def superlinear(self) -> bool:
        """Is the tail a power t**gamma with gamma > 1?"""
        return self.gamma is not None and self.gamma > 1.0

    @property
    def wall_slope(self) -> float:
        """The tail's slope at the horizon, +inf for a power law without
        one; past it the conjugate is the line ``s h - Phi(h)``."""
        if self.superlinear:
            stretch = self.horizon / self.ts[-1]
            return self.slope * stretch**(self.gamma - 1.0)
        return self.slope


@dataclass(frozen=True, eq=False)
class OrliczFunction:
    """A member of the catalog above, a table, or a custom evaluator.

    ``horizon`` is the finiteness horizon: the function is finite on
    ``[0, horizon]`` (left continuity pins the value at the horizon) and
    ``+inf`` strictly beyond it. The table kinds carry their ``knots``.
    """

    kind: str
    p: float = 0.0
    scale: float = 1.0
    evaluator: Callable[[float], float] | None = None
    horizon: float = math.inf
    label: str = ""
    knots: Knots | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def power(p: float) -> "OrliczFunction":
        _check_power(p, 1.0)
        return OrliczFunction(POWER, p=float(p), label=f"power(p={p})")

    @staticmethod
    def scaled_power(p: float, c: float | None = None) -> "OrliczFunction":
        c = _check_power(p, c)
        return OrliczFunction(
            SCALED_POWER, p=float(p), scale=c, label=f"scaled_power(p={p}, c={c})"
        )

    @staticmethod
    def linear() -> "OrliczFunction":
        """Phi(t) = t, the table through (0, 0) and (1, 1) with its linear
        tail."""
        return OrliczFunction.table([0.0, 1.0], [0.0, 1.0], label="linear")

    @staticmethod
    def exp_young() -> "OrliczFunction":
        return OrliczFunction(EXP_YOUNG, label="exp_young")

    @staticmethod
    def exp_young_conjugate() -> "OrliczFunction":
        """psi(s) = (1+s) log(1+s) - s, the conjugate of exp_young.

        It satisfies the doubling condition with k = 4 at zero and at
        infinity. Since psi'(s) = log(1+s), the bound s psi'(s) <= 2 psi(s)
        reads (2+s) log(1+s) >= 2s; both sides vanish at s = 0 and the
        difference has derivative log(1+s) - s/(1+s) >= 0. Integrating
        d log psi(s) <= 2 ds / s from u to 2u gives psi(2u) <= 4 psi(u) for
        every u > 0.
        """
        return OrliczFunction(EXP_YOUNG_CONJUGATE, label="exp_young_conjugate")

    @staticmethod
    def linf_step() -> "OrliczFunction":
        """0 on [0, 1] and +inf beyond: the conjugate of ``linear()``."""
        return replace(conjugate(OrliczFunction.linear()), label="linf_step")

    @staticmethod
    def table(ts, ys, horizon: float = math.inf,
              label: str = "table") -> "OrliczFunction":
        """The Young function through the knots ``(ts[i], ys[i])``.

        The caller checks the knots (``specs.load_custom_table`` does): at
        least two, starting at ``0, 0``, strictly increasing ``ts``, finite
        nondecreasing ``ys`` with chord slopes that never fall, not all zero
        unless ``horizon`` is finite, and ``horizon >= ts[-1]``. The
        function is linear between knots. Beyond the last knot it continues
        the trend of the last two knots as the power law
        ``y_m (t / t_m)**gamma`` with ``gamma = log(y_m / y_{m-1}) /
        log(t_m / t_{m-1})``, which keeps it convex; a ``gamma`` that
        exceeds 1 by ``TABLE_SLOPE_TOL`` or less is read as 1. When
        ``y_{m-1} = 0`` the last chord goes on as a line. It is +inf
        strictly beyond ``horizon``.
        """
        ts = np.array(ts, dtype=float)
        ys = np.array(ys, dtype=float)
        dt, dy = np.diff(ts), np.diff(ys)
        t_last, y_last = float(ts[-1]), float(ys[-1])
        t_prev, y_prev = float(ts[-2]), float(ys[-2])
        if y_prev > 0.0:  # so t_prev > 0 and y_last > 0
            gamma = math.log(y_last / y_prev) / math.log(t_last / t_prev)
            if gamma <= 1.0 + TABLE_SLOPE_TOL:
                gamma = 1.0
            slope = gamma * y_last / t_last
        else:
            gamma, slope = None, float(dy[-1] / dt[-1])
        knots = Knots(ts, ys, dt, dy, gamma, slope, float(horizon))
        return OrliczFunction(TABLE, horizon=float(horizon), label=label,
                              knots=knots)

    @staticmethod
    def custom(
        evaluator: Callable[[float], float],
        horizon: float = math.inf,
        label: str = "custom",
        spot_check: bool = True,
    ) -> "OrliczFunction":
        if not horizon > 0.0:  # nan too
            raise ValueError("finiteness horizon must be positive")
        fn = OrliczFunction(
            CUSTOM, evaluator=evaluator, horizon=float(horizon), label=label
        )
        if spot_check:
            _spot_check_custom(fn)
        return fn

    # -- evaluation --------------------------------------------------------

    def __call__(self, t: float) -> float:
        """Phi(t) for ``t >= 0``: the evaluator of a ``custom`` function,
        else the kind's array kernel on the one-element array ``[t]``, so a
        scalar call gives the bits of ``values``."""
        if t < 0.0:
            raise ValueError(f"Orlicz functions are defined on t >= 0, got {t}")
        if self.kind == CUSTOM:
            return self.evaluator(t)
        with np.errstate(over="ignore"):
            return float(self._values(np.array([t], dtype=float))[0])

    def values(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation on an array of ``t >= 0``.

        Raises ``ValueError`` on a negative entry. Hot loops whose inputs
        are nonnegative by construction, as ``norms.modular``'s ``|f|/lam``,
        call ``_values`` and skip that check.
        """
        ts = np.asarray(ts, dtype=float)
        if (ts < 0.0).any():
            raise ValueError("Orlicz functions are defined on t >= 0")
        with np.errstate(over="ignore"):
            return self._values(ts)

    def _values(self, ts: np.ndarray) -> np.ndarray:
        """``values`` on a float array already known to be nonnegative.

        Callers enter ``np.errstate(over="ignore")`` around it, once per
        loop rather than once per call: overflow to +inf is the intended
        value beyond the float range.
        """
        k = self.kind
        if k == POWER:
            return np.power(ts, self.p)
        if k == SCALED_POWER:
            return self.scale * np.power(ts, self.p)
        if k == EXP_YOUNG:
            return _taylor_below(np.expm1(ts) - ts, ts, _EXP_YOUNG_TAYLOR)
        if k == EXP_YOUNG_CONJUGATE:
            return _taylor_below((1.0 + ts) * np.log1p(ts) - ts, ts,
                                 _EXP_YOUNG_CONJUGATE_TAYLOR)
        if k == TABLE:
            return _table_values(self.knots, ts)
        if k == TABLE_CONJUGATE:
            return _table_conjugate_values(self.knots, ts)
        out = np.empty(ts.shape, dtype=float)
        flat = ts.reshape(-1)
        dst = out.reshape(-1)
        for i, t in enumerate(flat):
            dst[i] = self.evaluator(float(t))
        return out

    def _companion(self, ts: np.ndarray) -> np.ndarray:
        """The companion ``C(t) = t Phi'(t) - Phi(t)`` on a float array known
        to be nonnegative, with Phi' the left derivative; every kind but
        ``custom``, whose callable has no derivative.

        C is Psi(Phi'(t)), Psi the Young conjugate, by Young's equality, and
        nondecreasing. Its modular crosses 1 at the Amemiya norm's minimizer
        (``norms.amemiya_norm``). Callers enter ``np.errstate(over="ignore")``
        as for ``_values``. Per kind: (p - 1) Phi for powers;
        (t - 1) expm1(t) + t for ``exp_young`` and s - log1p(s) for its
        conjugate, each with a Taylor polynomial below ``TAYLOR_BELOW`` as
        in its Phi; constant levels on a table's segments
        (``_table_companion``) and from the maximizing knot on its
        conjugate (``_table_conjugate_companion``).
        """
        k = self.kind
        if k == POWER:
            return (self.p - 1.0) * np.power(ts, self.p)
        if k == SCALED_POWER:
            return (self.p - 1.0) * self.scale * np.power(ts, self.p)
        if k == EXP_YOUNG:
            return _taylor_below((ts - 1.0) * np.expm1(ts) + ts, ts,
                                 _EXP_YOUNG_COMPANION_TAYLOR)
        if k == EXP_YOUNG_CONJUGATE:
            return _taylor_below(ts - np.log1p(ts), ts,
                                 _EXP_YOUNG_CONJUGATE_COMPANION_TAYLOR)
        if k == TABLE:
            return _table_companion(self.knots, ts)
        if k == TABLE_CONJUGATE:
            return _table_conjugate_companion(self.knots, ts)
        raise ValueError("a custom Orlicz function has no companion")

    @property
    def is_finite_everywhere(self) -> bool:
        return math.isinf(self.horizon)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"OrliczFunction<{self.label or self.kind}>"


def _taylor(t: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """``t^2 (c_0 + c_1 t + c_2 t^2 + ...)`` on an array, by Horner's rule
    in place."""
    acc = t * coefficients[-1]
    for c in coefficients[-2:0:-1]:
        acc += c
        acc *= t
    acc += coefficients[0]
    return t * t * acc


def _taylor_below(out, ts: np.ndarray, coefficients: tuple[float, ...]):
    """``out``, a closed form evaluated on ``ts``, with its entries at
    arguments below ``TAYLOR_BELOW`` taken from the Taylor polynomial."""
    small = ts < TAYLOR_BELOW
    if not small.any():
        return out
    if not isinstance(out, np.ndarray):  # a 0-d ts gives a numpy scalar
        out = np.array(out)
    out[small] = _taylor(ts[small], coefficients)
    return out


def _table_values(knots: Knots, ts: np.ndarray) -> np.ndarray:
    """A table's Phi on ``ts >= 0``: the one kernel of ``__call__`` and
    ``_values``."""
    flat = ts.reshape(-1)
    t_last, y_last = knots.ts[-1], knots.ys[-1]
    inside = np.minimum(flat, t_last)
    i = np.searchsorted(knots.ts, inside, side="right") - 1
    np.minimum(i, knots.dt.size - 1, out=i)
    out = knots.ys[i] + (inside - knots.ts[i]) / knots.dt[i] * knots.dy[i]
    tail = flat >= t_last
    if tail.any():
        # clipped, so that no inf * 0 reads nan before the wall below
        x = np.minimum(flat[tail], knots.horizon)
        if knots.gamma is not None:
            out[tail] = y_last * np.power(x / t_last, knots.gamma)
        else:
            out[tail] = y_last + knots.slope * (x - t_last)
    if knots.horizon < math.inf:
        out[flat > knots.horizon] = math.inf
    return out.reshape(ts.shape)


def _table_conjugate_values(knots: Knots, ss: np.ndarray) -> np.ndarray:
    """The exact Young conjugate Psi of a table on ``ss >= 0``.

    Up to the tail's slope sigma at the last knot the supremum of
    ``s t - Phi(t)`` sits at a knot, since Phi is linear between knots and
    the tail's slope only grows: Psi(s) = max_k (s t_k - y_k), which is 0
    up to the first chord slope (the knot t_0 = 0). Beyond sigma it sits on
    the tail: at t_m (s / sigma)**(1 / (gamma - 1)) for a power law, which
    gives ``(gamma - 1) y_m (s / sigma)**(gamma / (gamma - 1))``, unless
    that passes a finite horizon h, where Psi(s) = s h - Phi(h); a linear
    tail gives s h - Phi(h), or +inf without a horizon.
    """
    flat = ss.reshape(-1)
    sigma, h = knots.slope, knots.horizon
    inside = np.minimum(flat, sigma)
    out = np.zeros(flat.shape)  # the line of the knot t_0 = 0
    for t, y in zip(knots.ts[1:].tolist(), knots.ys[1:].tolist()):
        np.maximum(out, inside * t - y, out=out)
    tail = flat > sigma
    if not tail.any():
        return out.reshape(ss.shape)
    s = flat[tail]
    if h < math.inf:
        at_wall = s * h - _table_values(knots, np.array([h]))[0]
    else:
        at_wall = np.full(s.shape, math.inf)
    if knots.superlinear:
        g = knots.gamma
        power = (g - 1.0) * knots.ys[-1] * np.power(s / sigma, g / (g - 1.0))
        at_wall = np.where(s < knots.wall_slope, power, at_wall)
    out[tail] = at_wall
    return out.reshape(ss.shape)


def _table_companion(knots: Knots, ts: np.ndarray) -> np.ndarray:
    """A table's companion t Phi'(t-) - Phi(t) on ``ts >= 0``.

    On a segment (t_i, t_{i+1}] of slope s_i it is the constant
    s_i t_i - y_i, 0 on the first; on a power tail (gamma - 1) Phi(t); on a
    linear tail the constant slope t_m - y_m; +inf beyond the horizon, and
    finite at it, since the left derivative there is the tail's. Levels
    that convexity makes nonnegative are clipped at 0 against rounding.
    """
    flat = ts.reshape(-1)
    t_last, y_last = knots.ts[-1], knots.ys[-1]
    levels = np.maximum(knots.dy / knots.dt * knots.ts[:-1] - knots.ys[:-1],
                        0.0)
    i = np.searchsorted(knots.ts, np.minimum(flat, t_last), side="left") - 1
    out = levels[np.maximum(i, 0)]
    tail = flat > t_last
    if tail.any():
        if knots.superlinear:
            x = np.minimum(flat[tail], knots.horizon)
            out[tail] = ((knots.gamma - 1.0) * y_last
                         * np.power(x / t_last, knots.gamma))
        else:
            out[tail] = max(knots.slope * t_last - y_last, 0.0)
    if knots.horizon < math.inf:
        out[flat > knots.horizon] = math.inf
    return out.reshape(ts.shape)


def _table_conjugate_companion(knots: Knots, ss: np.ndarray) -> np.ndarray:
    """The companion s Psi'(s-) - Psi(s) of a table's conjugate on
    ``ss >= 0``, which is Phi(Psi'(s-)).

    Up to the tail's slope sigma it is y_k of the first knot k whose line
    s t_k - y_k is the maximum in ``_table_conjugate_values``, since
    Psi'(s-) = t_k there. Beyond sigma: Phi(Psi'(s)) =
    y_m (s / sigma)**(gamma / (gamma - 1)) on a power tail, Phi(h) past the
    wall slope of a finite horizon h, and +inf past a linear tail without
    one, where Psi is +inf.
    """
    flat = ss.reshape(-1)
    sigma, h = knots.slope, knots.horizon
    inside = np.minimum(flat, sigma)
    best = np.zeros(flat.shape)  # the line of the knot t_0 = 0
    out = np.zeros(flat.shape)
    for t, y in zip(knots.ts[1:].tolist(), knots.ys[1:].tolist()):
        line = inside * t - y
        up = line > best
        best[up] = line[up]
        out[up] = y
    tail = flat > sigma
    if not tail.any():
        return out.reshape(ss.shape)
    s = flat[tail]
    wall = _table_values(knots, np.array([h]))[0] if h < math.inf else math.inf
    if knots.superlinear:
        g = knots.gamma
        out[tail] = np.where(s < knots.wall_slope,
                             knots.ys[-1] * np.power(s / sigma, g / (g - 1.0)),
                             wall)
    else:
        out[tail] = wall
    return out.reshape(ss.shape)


def _power_conjugate(p: float, c: float) -> tuple[float, float]:
    """``(q, c')`` with ``c' s**q`` the Young conjugate of ``c t**p``:
    1/p + 1/q = 1 and c' = c (p - 1) (c p)**(-q), +inf on overflow. Where a
    factor of that product, or c' itself, is not a normal double, c' is
    exp((1 - q) log(c p) - log(1 + 1/(p - 1))) instead, which neither
    overflows nor underflows before c' does."""
    q = p / (p - 1.0)
    factors = (c * p, c * (p - 1.0), _safe_pow(c * p, -q))
    c_dual = factors[1] * factors[2]
    if all(_TINY <= x < math.inf for x in (*factors, c_dual)):
        return q, c_dual
    with np.errstate(over="ignore"):
        return q, float(np.exp((1.0 - q) * (math.log(c) + math.log(p))
                               - math.log1p(1.0 / (p - 1.0))))


def _check_power(p: float, c: float | None) -> float:
    """The scale c of ``c t**p``, 1/p when None. ValueError unless p > 1,
    c > 0 and the conjugate ``c' s**q`` is a power of the same kind: finite
    q > 1, c' in (0, inf), and (c p)**(-q) and its reciprocal, which is
    (c' q)**(-p), both round to nonzero doubles, so that the conjugate of
    an accepted power is accepted too. A numpy scalar p is read as a float,
    so the checks below run in Python arithmetic, which raises or reads
    inf where numpy warns."""
    if not p > 1.0:
        raise ValueError(f"power exponent must exceed 1, got {p}")
    p = float(p)
    c = 1.0 / p if c is None else float(c)
    if not c > 0.0:
        raise ValueError(f"scale must be positive, got {c}")
    q, c_dual = _power_conjugate(p, c)
    if not (1.0 < q < math.inf and 0.0 < c_dual < math.inf
            and q * abs(math.log(c) + math.log(p)) <= 1075 * math.log(2.0)):
        raise ValueError(f"the conjugate of {c} t**{p} is {c_dual} s**{q}, "
                         "not a power with finite q > 1, c' in (0, inf) and "
                         "(c p)**q in [2**-1075, 2**1075]")
    return c


def _safe_pow(t: float, p: float) -> float:
    try:
        return t**p
    except OverflowError:
        return math.inf


def _spot_check_custom(fn: OrliczFunction) -> None:
    """Cheap sanity sweep for user evaluators.

    Full convexity/left-continuity is the caller's contract; we check the
    anchor value at 0, monotonicity and midpoint convexity on a sample grid,
    non-triviality, and that the declared horizon actually separates finite
    from infinite values.
    """
    ev = fn.evaluator
    v0 = ev(0.0)
    if not abs(v0) <= 1e-12:
        raise ValueError(f"custom Orlicz function must vanish at 0, got {v0}")
    top = fn.horizon if math.isfinite(fn.horizon) else 8.0
    grid = np.geomspace(top / 4096.0, top, 25)
    vals = [ev(float(t)) for t in grid]
    if not any(0.0 < v < math.inf for v in vals):
        raise ValueError("custom Orlicz function must be finite and positive somewhere")
    for a, b in zip(vals, vals[1:]):
        if b < a - 1e-9 * max(1.0, abs(a)):
            raise ValueError("custom Orlicz function is not increasing on the sample grid")
    for i in range(len(grid) - 2):
        t1, t2 = grid[i], grid[i + 2]
        v1, v2 = vals[i], vals[i + 2]
        if math.isinf(v2):
            continue
        mid = ev(float(0.5 * (t1 + t2)))
        if mid > 0.5 * (v1 + v2) + 1e-9 * max(1.0, abs(v2)):
            raise ValueError("custom Orlicz function fails midpoint convexity on the sample grid")
    if math.isfinite(fn.horizon):
        beyond = ev(fn.horizon * (1.0 + 1e-9) + 1e-12)
        if beyond < math.inf:
            raise ValueError(
                "declared finiteness horizon is not a horizon: function is finite beyond it"
            )


# -- Young conjugation -----------------------------------------------------


def conjugate(phi: OrliczFunction) -> OrliczFunction:
    """Closed-form Young conjugate ``psi(s) = sup_t (t*s - phi(t))``.

    Catalog pairs are returned in closed form:

    * ``c * t**p``  <->  ``c' * s**q`` with 1/p + 1/q = 1 (the normalized
      family t**p / p maps to s**q / q),
    * ``exp_young`` <->  ``exp_young_conjugate``, i.e. ``(1+s) log(1+s) - s``,
    * ``table``     <->  ``table_conjugate`` on the same knots (the exact
      Legendre transform of ``_table_conjugate_values``); it is finite up
      to the table's limit slope, and everywhere when that is infinite.
      ``linear`` and ``linf_step`` are such a pair.

    Custom functions get a pointwise numeric conjugate built on
    :func:`conjugate_value`.
    """
    k = phi.kind
    if k in (POWER, SCALED_POWER):
        # the power kind keeps scale 1
        q, c_dual = _power_conjugate(phi.p, phi.scale)
        return OrliczFunction.scaled_power(q, c_dual)
    if k == EXP_YOUNG:
        return OrliczFunction.exp_young_conjugate()
    if k == EXP_YOUNG_CONJUGATE:
        return OrliczFunction.exp_young()
    if k == TABLE:
        slope = limit_slope(phi)
        hz = math.inf if slope.is_infinite else slope.limit
        return OrliczFunction(TABLE_CONJUGATE, horizon=hz, knots=phi.knots,
                              label=f"conjugate({phi.label})")
    if k == TABLE_CONJUGATE:
        return OrliczFunction(TABLE, horizon=phi.knots.horizon,
                              knots=phi.knots,
                              label=f"conjugate({phi.label})")
    # custom: numeric pointwise conjugate; its finiteness horizon is the
    # limit slope of phi (the conjugate is finite exactly up to that slope),
    # and beyond the horizon it is +inf without a search.
    slope = limit_slope(phi)
    hz = math.inf if slope.is_infinite else slope.limit

    def _numeric_dual(s: float) -> float:
        return math.inf if s > hz else conjugate_value(phi, s)

    return OrliczFunction.custom(
        _numeric_dual, horizon=hz, label=f"conjugate({phi.label})", spot_check=False
    )


def conjugate_value(phi: OrliczFunction, s: float) -> float:
    """Numeric ``sup_t (t*s - phi(t))`` over ``t >= 0``.

    Bracket expansion along a doubling ray, then Brent's method on
    ``[0, hi]`` down to a bracket of width ``1e-10 * max(1, hi)``; a finite
    horizon is the bracket's right end, where the objective may be -inf.
    A ray still rising at ``limit_slope``'s last probe point T has
    ``s > phi(T)/T``; when ``limit_slope``'s rule reads a finite slope from
    the ratios at T/2 and T, s is beyond it and ``+inf`` is returned there,
    as :func:`conjugate` would. Otherwise the ray goes on, and the objective
    is declared unbounded only when it still increases at the end of the
    float range. Since the evaluations approach the supremum from below, a
    finite result never overshoots.
    """
    if s < 0.0:
        raise ValueError(f"conjugate argument must be >= 0, got {s}")

    def obj(t: float) -> float:
        return s * t - phi(t)

    if math.isfinite(phi.horizon):
        hi = phi.horizon
    else:
        hi, rising, _ = expand_max_bracket(obj, start=1.0, stop=SLOPE_RAY_END)
        # rising at T: phi(T) - phi(T/2) < s*T/2, and convexity gives
        # phi(T/2) <= phi(T)/2, so phi(T)/T < s
        if rising and _slope_from_ratios(phi(0.5 * hi) / (0.5 * hi),
                                         phi(hi) / hi).is_infinite:
            hi, rising, _ = expand_max_bracket(obj, start=hi)
        if rising:
            return math.inf
    _, value, _ = brent_max(obj, 0.0, hi, 1e-10 * max(1.0, hi))
    # sup >= value at t=0, which is 0
    return max(value, 0.0)


# -- doubling condition ----------------------------------------------------


@dataclass(frozen=True)
class Delta2Verdict:
    status: str  # holds | fails | inconclusive
    regime: str
    k: float | None = None
    witness: float | None = None
    exact: bool = False
    note: str = ""


def check_delta2(phi: OrliczFunction, regime: Regime) -> Delta2Verdict:
    """Does ``phi(2u) <= k * phi(u)`` hold near the regime's end?

    ``at_zero`` asks for some k on all small u, ``at_infinity`` on all large
    u. Catalog kinds and tables answer exactly (``_table_delta2``), and so
    does any function with a finite horizon at infinity, where it fails;
    custom evaluators are probed on
    geometric grids pushed successively deeper into the regime, reporting
    ``holds`` with an estimated k when the ratio stays bounded, ``fails``
    with a witness when it blows up (or hits +inf over finite values), and
    ``inconclusive`` otherwise. Vanishing stretches contribute a vacuous
    0 <= k*0 and are skipped.
    """
    if regime not in _REGIMES:
        raise ValueError(f"regime must be one of {_REGIMES}, got {regime!r}")
    k = phi.kind
    if k in (POWER, SCALED_POWER):
        return Delta2Verdict(HOLDS, regime, k=_safe_pow(2.0, phi.p),
                             exact=True)
    if k == EXP_YOUNG:
        if regime == "at_zero":
            # ratio tends to 4 at 0 and is increasing; k below is valid on u <= 1
            k_est = (math.expm1(2.0) - 2.0) / (math.expm1(1.0) - 1.0)
            return Delta2Verdict(HOLDS, regime, k=k_est, exact=True,
                                 note="ratio tends to 4 at zero; bound valid on u <= 1")
        return Delta2Verdict(FAILS, regime, witness=32.0, exact=True,
                             note="ratio grows like exp(u)")
    if k == EXP_YOUNG_CONJUGATE:
        # proof in OrliczFunction.exp_young_conjugate
        return Delta2Verdict(HOLDS, regime, k=4.0, exact=True,
                             note="s psi'(s) <= 2 psi(s) for all s > 0")
    if regime == "at_infinity" and math.isfinite(phi.horizon):
        return Delta2Verdict(FAILS, regime, witness=0.75 * phi.horizon,
                             exact=True, note="phi(2u) = +inf while phi(u) "
                             "is finite for u in (horizon/2, horizon]")
    if k in (TABLE, TABLE_CONJUGATE):
        return _table_delta2(phi, regime)
    return _delta2_heuristic(phi, regime)


def _table_delta2(fn: OrliczFunction, regime: Regime) -> Delta2Verdict:
    """The doubling verdict of a table or of its conjugate; ``at_infinity``
    comes here only when the function is finite everywhere (Rao & Ren,
    *Theory of Orlicz Spaces*, ch. 2).

    Near zero Phi is linear on [0, t_1], or vanishes there when y_1 = 0;
    Psi then vanishes up to the first chord slope, or is linear. At
    infinity Phi grows as t**gamma (k = 2**gamma) or along a line A t - B
    with B >= 0 from t_m on, whose ratio (2 A u - B) / (A u - B) falls
    toward 2, so its value at the line's start is k. Psi grows as s**q,
    q = gamma / (gamma - 1) (k = 2**q), or, when Phi has a finite horizon
    h, along the line s h - Phi(h) from Phi's slope at h on.
    """
    knots = fn.knots
    if regime == "at_zero":
        y_1 = knots.ys[1]
        if (y_1 == 0.0) if fn.kind == TABLE else (y_1 > 0.0):
            return Delta2Verdict(HOLDS, regime, k=1.0, exact=True,
                                 note="vacuous: the function vanishes near "
                                 "zero")
        return Delta2Verdict(HOLDS, regime, k=2.0, exact=True,
                             note="linear near zero")
    h = knots.horizon
    if knots.superlinear and math.isinf(h):
        g = knots.gamma
        power = g if fn.kind == TABLE else g / (g - 1.0)
        return Delta2Verdict(HOLDS, regime, k=_safe_pow(2.0, power),
                             exact=True, note=f"a power {power!r} at infinity")
    if fn.kind == TABLE:  # the line slope t - (slope t_m - y_m)
        k = float(1.0 + knots.slope * knots.ts[-1] / knots.ys[-1])
    else:  # the line s h - Phi(h), positive from twice Phi's slope at h on
        at_h = float(_table_values(knots, np.array([h]))[0])
        start = 2.0 * knots.wall_slope if knots.wall_slope > 0.0 else 1.0
        k = (2.0 * start * h - at_h) / (start * h - at_h)
    return Delta2Verdict(HOLDS, regime, k=k, exact=True,
                         note="linear growth at infinity")


def _delta2_heuristic(phi: OrliczFunction, regime: Regime) -> Delta2Verdict:
    if regime == "at_infinity":
        spans = [(1.0, 2.0**10), (1.0, 2.0**20), (1.0, 2.0**30)]
    else:
        spans = [(2.0**-10, 1.0), (2.0**-20, 1.0), (2.0**-30, 1.0)]

    sups: list[float] = []
    witnesses: list[float | None] = []
    for lo, hi in spans:
        us = np.geomspace(lo, hi, _DELTA2_SAMPLES)
        if regime == "at_zero":
            us = us[::-1]  # order toward the regime limit
        tail = us[_DELTA2_SAMPLES // 2:]
        sup = 0.0
        witness = None
        for u in tail:
            u = float(u)
            a = phi(u)
            b = phi(2.0 * u)
            if math.isinf(b) and not math.isinf(a):
                return Delta2Verdict(
                    FAILS, regime, witness=u,
                    note="phi(2u) = +inf over a finite phi(u) inside the regime",
                )
            if a == 0.0:
                continue  # vacuous (0 <= k*0) or transient kink; deeper passes decide
            if math.isinf(a):
                continue
            r = b / a
            if r > sup:
                sup, witness = r, u
        sups.append(sup)
        witnesses.append(witness)

    s1, s2, s3 = sups
    if s3 > 4.0 * max(s2, 1e-300) and s3 > 64.0:
        return Delta2Verdict(FAILS, regime, witness=witnesses[2],
                             note=f"doubling ratio grows across refinements: {sups}")
    if s3 <= 2.0 * max(s1, s2, 1.0) + 1e-9:
        k_est = max(s3, 1.0)
        return Delta2Verdict(HOLDS, regime, k=k_est,
                             note=f"ratio bounded across refinements: {sups}")
    return Delta2Verdict(INCONCLUSIVE, regime,
                         note=f"doubling ratios neither stabilize nor clearly grow: {sups}")


# -- limit slope -----------------------------------------------------------


@dataclass(frozen=True)
class SlopeClass:
    limit: float
    is_infinite: bool
    estimated: bool = False


def limit_slope(phi: OrliczFunction) -> SlopeClass:
    """``lim phi(t)/t`` as t grows (the ratio is nondecreasing by convexity).

    Catalog kinds and tables are exact: a table's Phi(t)/t tends to the
    tail's slope for a linear tail and to +inf for a power law t**gamma,
    gamma > 1, and its conjugate's ratio tends to the table's horizon.
    Custom evaluators are probed along a doubling ray; the answer carries
    ``estimated=True`` when it comes from the probe.
    """
    k = phi.kind
    if (k in (POWER, SCALED_POWER, EXP_YOUNG, EXP_YOUNG_CONJUGATE)
            or math.isfinite(phi.horizon)):  # +inf beyond a horizon
        return SlopeClass(math.inf, True)
    if k == TABLE:
        if phi.knots.superlinear:
            return SlopeClass(math.inf, True)
        return SlopeClass(phi.knots.slope, False)
    if k == TABLE_CONJUGATE:
        h = phi.knots.horizon
        return SlopeClass(h, math.isinf(h))
    prev = last = 0.0
    t = 1.0
    while t <= SLOPE_RAY_END:
        v = phi(t)
        if math.isinf(v):
            return SlopeClass(math.inf, True)
        prev, last = last, v / t
        t *= 2.0
    return _slope_from_ratios(prev, last)


def _slope_from_ratios(prev: float, last: float) -> SlopeClass:
    """``limit_slope``'s reading of ``phi(t)/t`` at T/2 and T."""
    if last > 1e9 or (prev > 0 and last > 1.05 * prev):
        return SlopeClass(math.inf, True, estimated=True)
    return SlopeClass(last, False, estimated=True)


# -- space classification --------------------------------------------------


@dataclass(frozen=True)
class SpaceClassification:
    reflexive: str
    order_continuous: str
    c_property_for_sigma_n: str
    phi_delta2: tuple[Delta2Verdict, ...]
    conjugate_delta2: tuple[Delta2Verdict, ...]
    finite_measure: bool


def _combine(verdicts: list[Delta2Verdict]) -> str:
    if any(v.status == FAILS for v in verdicts):
        return FAILS
    if all(v.status == HOLDS for v in verdicts):
        return HOLDS
    return INCONCLUSIVE


def classify_space(phi: OrliczFunction, finite_measure: bool = True) -> SpaceClassification:
    """Reflexivity / order continuity / countable-supremum-property verdicts.

    The relevant doubling regimes are ``at_infinity`` alone on a finite
    measure and both regimes otherwise. Reflexivity requires the doubling
    condition of both the function and its conjugate in those regimes; order
    continuity requires it of the function itself. The third verdict equals
    the reflexivity verdict when the conjugate's doubling condition (the
    standing hypothesis of the dual-representation machinery) holds, and is
    inconclusive when that hypothesis cannot be certified.
    """
    regimes: tuple[Regime, ...] = (
        ("at_infinity",) if finite_measure else ("at_zero", "at_infinity")
    )
    psi = conjugate(phi)
    d_phi = [check_delta2(phi, r) for r in regimes]
    d_psi = [check_delta2(psi, r) for r in regimes]
    order_cont = _combine(d_phi)
    hypothesis = _combine(d_psi)
    reflexive = _combine(d_phi + d_psi)
    c_prop = reflexive if hypothesis == HOLDS else INCONCLUSIVE
    return SpaceClassification(
        reflexive=reflexive,
        order_continuous=order_cont,
        c_property_for_sigma_n=c_prop,
        phi_delta2=tuple(d_phi),
        conjugate_delta2=tuple(d_psi),
        finite_measure=finite_measure,
    )
