"""Text grammars for Young functions and risk functionals.

Young function specs: ``power:p=2``, ``scaled_power:p=2`` (optionally
``c=0.5``), ``linear``, ``exp_young``, ``exp_young_conjugate``,
``linf_step``, ``custom:file=<path>``. Risk specs: ``entropic:beta=1``,
``avar:alpha=0.05``, ``worst_case``, ``expectation``, ``control:square``.
Everything malformed raises ParseError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .measure import MeasureSpace
from .orlicz import OrliczFunction
from .risk import (RiskFunctional, average_value_at_risk, entropic,
                   expectation, non_monotone_control, worst_case)


#: spec name -> (constructor, required parameters, optional parameters);
#: a body without ``=`` is a variant and part of the name (``control:square``)
_YOUNG = {
    "power": (OrliczFunction.power, ("p",), ()),
    "scaled_power": (OrliczFunction.scaled_power, ("p",), ("c",)),
    "linear": (OrliczFunction.linear, (), ()),
    "exp_young": (OrliczFunction.exp_young, (), ()),
    "exp_young_conjugate": (OrliczFunction.exp_young_conjugate, (), ()),
    "linf_step": (OrliczFunction.linf_step, (), ()),
}
_RISK = {
    "entropic": (entropic, ("beta",), ()),
    "avar": (average_value_at_risk, ("alpha",), ()),
    "worst_case": (worst_case, (), ()),
    "expectation": (expectation, (), ()),
    "control:square": (non_monotone_control, (), ()),
}


def _split_params(body: str, spec: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if not body:
        return params
    for chunk in body.split(","):
        if "=" not in chunk:
            raise ParseError(f"malformed parameter {chunk!r} in {spec!r}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if not key or key in params:
            raise ParseError(f"bad or repeated parameter {chunk!r} in {spec!r}")
        params[key] = value.strip()
    return params


def _parse(spec: str, table: dict, what: str, *args):
    """Look the spec's name up in ``table`` and call its constructor with
    the numeric parameters (required ones positionally) and ``args``."""
    name, _, body = spec.strip().partition(":")
    name, body = name.strip().lower(), body.strip()
    if body and "=" not in body:
        name, body = f"{name}:{body.lower()}", ""
    if name not in table:
        raise ParseError(f"unknown {what} {name!r} in {spec!r}")
    make, required, optional = table[name]
    params = _split_params(body, spec)
    missing = [key for key in required if key not in params]
    if missing:
        raise ParseError(f"{spec!r} requires parameter {missing[0]}=<value>")
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"unknown parameters {unknown} in {spec!r}")
    values = {}
    for key, text in params.items():
        try:
            values[key] = float(text)
        except ValueError:
            raise ParseError(
                f"parameter {key} in {spec!r} is not a number") from None
    positional = [values.pop(key) for key in required]
    try:
        return make(*positional, *args, **values)
    except ValueError as exc:
        raise ParseError(f"invalid {what} spec {spec!r}: {exc}") from exc


def parse_orlicz_spec(spec: str) -> OrliczFunction:
    name, _, body = spec.strip().partition(":")
    if name.strip().lower() != "custom":
        return _parse(spec, _YOUNG, "Young function")
    params = _split_params(body, spec)
    path = params.pop("file", None)
    if path is None:
        raise ParseError(f"{spec!r}: custom requires file=<path>")
    if params:
        raise ParseError(f"unknown parameters {sorted(params)} in {spec!r}")
    return load_custom_table(path)


def parse_risk_spec(spec: str, space: MeasureSpace) -> RiskFunctional:
    return _parse(spec, _RISK, "risk functional", space)


# ---------------------------------------------------------------------------
# custom Young function tables
# ---------------------------------------------------------------------------


def load_custom_table(path: str) -> OrliczFunction:
    """Load a two-column ``t, value`` table as a Young function.

    The finite rows must start at ``0, 0``, have strictly increasing t and
    nondecreasing values. Between knots with positive values the table is
    interpolated log-linearly (exponential in t); segments touching a zero
    value fall back to plain linear. Beyond the last finite knot the last
    trend is continued as a power law in t (clamped to growth at least
    linear). A final row with value ``inf`` declares the horizon: the
    function is finite up to that argument and +inf strictly beyond it; its
    t may equal the last finite knot (a hard wall, as in the step function).

    Interpolation matches the table exactly at the knots; convexity between
    them is the table author's responsibility, so the loaded function skips
    the convexity spot check.
    """
    rows: list[tuple[float, float]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read table {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        pieces = text.replace(",", " ").split()
        if len(pieces) != 2:
            raise ParseError(f"{path}:{lineno}: expected two columns")
        try:
            t, y = float(pieces[0]), float(pieces[1])
        except ValueError:
            if not rows:
                continue  # header row
            raise ParseError(f"{path}:{lineno}: non-numeric row") from None
        rows.append((t, y))
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least two data rows")

    horizon = math.inf
    if math.isinf(rows[-1][1]):
        horizon = float(rows[-1][0])
        rows.pop()
        if not rows:
            raise ParseError(f"{path}: table is all-infinite")
    ts = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    if ts[0] != 0.0 or ys[0] != 0.0:
        raise ParseError(f"{path}: table must start at the row 0, 0")
    if not np.all(np.diff(ts) > 0):
        raise ParseError(f"{path}: t column must be strictly increasing")
    if not (np.all(np.isfinite(ys)) and np.all(ys >= 0.0)
            and np.all(np.diff(ys) >= 0.0)):
        raise ParseError(f"{path}: values must be finite, nonnegative and "
                         "nondecreasing")
    if horizon < ts[-1]:
        raise ParseError(f"{path}: horizon row precedes the last finite knot")

    t_last, y_last = float(ts[-1]), float(ys[-1])
    # tail continuation beyond the last knot: power law from the last two
    # positive knots when available, otherwise the last chord's slope
    gamma = None
    slope = 0.0
    if len(ts) >= 2:
        t_prev, y_prev = float(ts[-2]), float(ys[-2])
        if y_prev > 0.0 and y_last > 0.0 and t_prev > 0.0:
            gamma = max(1.0, math.log(y_last / y_prev) / math.log(t_last / t_prev))
        elif t_last > t_prev:
            slope = (y_last - y_prev) / (t_last - t_prev)

    def interp(t: float) -> float:
        i = int(np.searchsorted(ts, t, side="right")) - 1
        if i >= len(ts) - 1:
            return y_last
        t0, t1 = float(ts[i]), float(ts[i + 1])
        y0, y1 = float(ys[i]), float(ys[i + 1])
        frac = (t - t0) / (t1 - t0)
        if y0 > 0.0 and y1 > 0.0:
            return y0 * (y1 / y0) ** frac
        return y0 + frac * (y1 - y0)

    def ev(t: float) -> float:
        if t > horizon:
            return math.inf
        if t <= t_last:
            return interp(t)
        if gamma is not None:
            return y_last * (t / t_last) ** gamma
        return y_last + slope * (t - t_last)

    label = f"table({path})"
    return OrliczFunction.custom(ev, horizon=horizon, label=label,
                                 spot_check=False)
