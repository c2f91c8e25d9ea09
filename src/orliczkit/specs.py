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
from .io import _columns
from .measure import MeasureSpace
from .orlicz import TABLE_SLOPE_TOL, OrliczFunction
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
    """Load a CSV table with header ``t,value`` as a Young function.

    The file follows the grammar of ``io``'s readers. The finite rows must
    start at ``0, 0``, have strictly increasing t, nondecreasing values and
    chord slopes that never fall (to ``TABLE_SLOPE_TOL``), so the knots are
    convex. A final row with value ``inf`` declares the horizon: the
    function is finite up to that argument and +inf strictly beyond it; its
    t must be positive, and may equal the last finite knot (a hard wall, as
    in the step function). Values may all be zero only under a horizon. A
    lone ``0, 0`` row under a horizon h is the zero function up to h.

    The result is ``OrliczFunction.table``: linear between knots, the last
    trend continued as a power law beyond them, and exact conjugates and
    verdicts.
    """
    ts, ys = _columns(path, ("t", "value"), (float, float))
    if len(ts) < 2:
        raise ParseError(f"{path}: need at least two data rows")
    horizon = math.inf
    if ys[-1] == math.inf:
        horizon = float(ts[-1])
        ts, ys = ts[:-1], ys[:-1]
    if ts[0] != 0.0 or ys[0] != 0.0:
        raise ParseError(f"{path}: table must start at the row 0, 0")
    if not np.all(np.diff(ts) > 0):
        raise ParseError(f"{path}: t column must be strictly increasing")
    if not (np.all(np.isfinite(ys)) and np.all(ys >= 0.0)
            and np.all(np.diff(ys) >= 0.0)):
        raise ParseError(f"{path}: values must be finite, nonnegative and "
                         "nondecreasing")
    slopes = np.diff(ys) / np.diff(ts)
    if np.any(np.diff(slopes)
           < -TABLE_SLOPE_TOL * np.maximum(1.0, slopes[:-1])):
        raise ParseError(f"{path}: chord slopes must never fall (the table "
                         "must be convex)")
    if not horizon >= ts[-1]:  # nan too
        raise ParseError(f"{path}: horizon row precedes the last finite knot")
    if not horizon > 0.0:
        raise ParseError(f"{path}: the horizon must be positive")
    if ys[-1] == 0.0 and horizon == math.inf:
        raise ParseError(f"{path}: values must not all be zero (a Young "
                         "function is not identically zero)")
    if len(ts) == 1:
        ts, ys = np.array([0.0, horizon]), np.zeros(2)
    return OrliczFunction.table(ts, ys, horizon, label=f"table({path})")
