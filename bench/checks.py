"""Output checks for the benchmark, computed apart from the program.

Every check takes plain numbers or numpy arrays and raises ``CheckError``
with a reason when a result is wrong. Reference values come from closed
forms written here (log-sum-exp, sorting, max, mean, weighted p-norms,
Young-function formulas) or from properties every correct result must have
(weak duality, densities, strictly increasing indices, byte-stable output).
Nothing is compared against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

# |E[g] - 1| allowed on a dual density: the program's feasibility tolerance.
DENSITY_TOL = 1e-9
CLOSED_GAP_TOL = 1e-6
NUMERIC_GAP_TOL = 1e-4
CONJUGATE_TOL = 1e-4
BICONJUGATE_TOL = 1e-5
NORM_REL_TOL = 1e-8


class CheckError(AssertionError):
    """A benchmark output failed its correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- primal values of the catalog functionals ---------------------------------


def primal_value(kind: str, param: float, weights: np.ndarray,
                 f: np.ndarray) -> float:
    """phi(f) for the four increasing catalog members, from their formulas.

    entropic: (1/beta) log E[exp(beta f)] by max-shifted log-sum-exp;
    avar: mean of the worst ``alpha`` mass, by sorting; worst_case: max;
    expectation: weighted mean.
    """
    w = np.asarray(weights, dtype=float)
    f = np.asarray(f, dtype=float)
    if kind == "entropic":
        z = param * f
        m = float(z.max())
        return (m + math.log(float(np.sum(w * np.exp(z - m))))) / param
    if kind == "avar":
        order = np.argsort(-f, kind="stable")
        remaining, total = param, 0.0
        for i in order:
            take = min(float(w[i]), remaining)
            total += take * float(f[i])
            remaining -= take
            if remaining <= 0.0:
                break
        return total / param
    if kind == "worst_case":
        return float(f.max())
    if kind == "expectation":
        return float(np.sum(w * f))
    raise ValueError(f"unknown functional kind {kind!r}")


def check_density(weights: np.ndarray, g: np.ndarray) -> None:
    g = np.asarray(g, dtype=float)
    _require(bool(np.all(g >= 0.0)), f"dual density has a negative entry "
             f"{float(g.min())!r}")
    mass = float(np.sum(np.asarray(weights) * g))
    _require(abs(mass - 1.0) <= DENSITY_TOL,
             f"dual density has mass {mass!r}, not 1")


def check_certificate(primal: float, achieved: float, reported_gap: float,
                      weights: np.ndarray, g: np.ndarray, tol: float) -> None:
    """Dual value within ``tol`` of the independent primal, weak duality,
    a density as dual variable, and a reported gap that agrees."""
    gap = primal - achieved
    _require(abs(gap) <= tol, f"duality gap {gap!r} exceeds {tol!r}")
    _require(achieved <= primal + 1e-12 * (1.0 + abs(primal)),
             f"weak duality fails: achieved {achieved!r} > phi(f) {primal!r}")
    _require(abs(reported_gap - gap) <= 1e-9 * (1.0 + abs(primal)),
             f"reported gap {reported_gap!r} disagrees with {gap!r}")
    check_density(weights, g)


def relative_entropy(beta: float, weights: np.ndarray, g: np.ndarray) -> float:
    """(1/beta) E[g log g] with 0 log 0 = 0."""
    g = np.asarray(g, dtype=float)
    pos = g > 0.0
    return float(np.sum(np.asarray(weights)[pos] * g[pos] * np.log(g[pos]))) / beta


def check_conjugate_from_below(value: float, exact: float,
                               tol: float = CONJUGATE_TOL) -> None:
    """A numeric supremum approaches the exact conjugate from below."""
    _require(math.isfinite(value), f"conjugate {value!r} is not finite")
    _require(value <= exact + 1e-12 * (1.0 + abs(exact)),
             f"numeric conjugate {value!r} exceeds the exact {exact!r}")
    _require(exact - value <= tol,
             f"numeric conjugate {value!r} is {exact - value!r} below {exact!r}")


def check_divergent(value: float, ray) -> None:
    _require(value == math.inf, f"negative-dip conjugate is {value!r}, not +inf")
    _require(ray is not None and bool(np.any(np.asarray(ray) != 0.0)),
             "divergent conjugate carries no divergent ray")


def check_biconjugate(max_deviation: float, max_split: float) -> None:
    _require(max_deviation <= BICONJUGATE_TOL,
             f"biconjugate deviation {max_deviation!r} exceeds "
             f"{BICONJUGATE_TOL!r}")
    # an increasing functional has a nonnegative optimal dual variable
    _require(max_split <= 1e-6, f"sign-free and nonnegative dual suprema "
             f"split by {max_split!r}")


# -- Young functions and norms --------------------------------------------------

# Young functions by name, as formulas: power p = 2, its conjugate s^2 / 4,
# exp_young and its conjugate (1 + s) log(1 + s) - s.
YOUNG = {
    "power2": lambda t: t * t,
    "power2_conjugate": lambda s: 0.25 * s * s,
    "exp_young": lambda t: np.expm1(t) - t,
    "exp_young_conjugate": lambda s: (1.0 + s) * np.log1p(s) - s,
}


def weighted_p_norm(weights: np.ndarray, f: np.ndarray, p: float) -> float:
    return float(np.sum(np.asarray(weights) * np.abs(f) ** p)) ** (1.0 / p)


def _check_rel(value: float, expected: float, what: str,
               tol: float = NORM_REL_TOL) -> None:
    _require(abs(value - expected) <= tol * abs(expected),
             f"{what} {value!r} differs from {expected!r} by more than "
             f"{tol!r} relative")


def check_luxemburg_p(value: float, weights: np.ndarray, f: np.ndarray,
                      p: float) -> None:
    """The Luxemburg norm of t^p is the weighted p-norm."""
    _check_rel(value, weighted_p_norm(weights, f, p), f"Luxemburg norm (p={p})")


def check_amemiya_p2(value: float, weights: np.ndarray, f: np.ndarray) -> None:
    """The Amemiya norm of t^2 is inf_k (1 + k^2 |f|_2^2) / k = 2 |f|_2."""
    _check_rel(value, 2.0 * weighted_p_norm(weights, f, 2.0), "Amemiya norm")


def check_luxemburg_modular(value: float, weights: np.ndarray, f: np.ndarray,
                            young: str) -> None:
    """At the Luxemburg norm the modular of a continuous Young function is
    1: at most 1, and within 1e-8 of it."""
    mod = float(np.sum(np.asarray(weights) * YOUNG[young](np.abs(f) / value)))
    _require(1.0 - NORM_REL_TOL <= mod <= 1.0 + 1e-12,
             f"modular {mod!r} at the Luxemburg norm {value!r} is not 1")


def check_norm_sandwich(luxemburg: float, amemiya: float) -> None:
    """Luxemburg <= Amemiya <= 2 Luxemburg."""
    slack = 1e-9 * luxemburg
    _require(luxemburg - slack <= amemiya <= 2.0 * luxemburg + slack,
             f"Amemiya norm {amemiya!r} outside [{luxemburg!r}, "
             f"{2.0 * luxemburg!r}]")


def check_witness(weights: np.ndarray, v: np.ndarray, young: str) -> None:
    """Strictly positive, with modular at scale 1 at most 1."""
    v = np.asarray(v, dtype=float)
    _require(bool(np.all(v > 0.0)), "witness is not strictly positive")
    mod = float(np.sum(np.asarray(weights) * YOUNG[young](v)))
    _require(mod <= 1.0 + 1e-12, f"witness modular {mod!r} exceeds 1")


# -- a.e. subsequence extraction and w*-limits --------------------------------


def check_extraction(status: str, indices, trace, trace_bound_ok: bool,
                     weights: np.ndarray, terms, limit: np.ndarray,
                     g0: np.ndarray) -> None:
    """Indices strictly increase; each picked pairing <|f_a - f|, g0>,
    recomputed from the family, meets its target 2^-n; the trace obeys
    t_n <= 2^-(n-1); the status is ok."""
    _require(status == "ok", f"extraction status is {status!r}")
    idx = list(indices)
    _require(len(idx) > 0, "extraction picked nothing")
    _require(all(b > a for a, b in zip(idx, idx[1:])),
             "extraction indices do not strictly increase")
    w = np.asarray(weights)
    for n, j in enumerate(idx, start=1):
        pairing = float(np.sum(w * np.abs(terms[j] - limit) * g0))
        target = 2.0 ** -n
        _require(pairing <= target * (1.0 + 1e-12),
                 f"pick {n} (term {j}) pairs to {pairing!r} > {target!r}")
    _require(bool(trace_bound_ok), "extraction reports a broken trace bound")
    for m, t in enumerate(trace, start=1):
        _require(t <= 2.0 ** -(m - 1) + 1e-12,
                 f"trace entry {m} is {t!r} > {2.0 ** -(m - 1)!r}")


def check_wstar(converged: bool, tail_tol: float, worst_tail: float, tails,
                overflow_tails, dominated_tails, weights: np.ndarray,
                terms, limit: np.ndarray, tests) -> None:
    """The worst tail pairing lies between the largest pairing over the last
    quarter of the family and the largest over the whole family, the
    verdict matches the tolerance, and each test's tail is bounded by its
    overflow plus dominated parts."""
    w = np.asarray(weights)
    quarter = max(1, len(terms) // 4)
    last_q, whole = 0.0, 0.0
    for g in tests:
        wg = w * g
        pairs = np.array([abs(float(np.dot(wg, t - limit))) for t in terms])
        last_q = max(last_q, float(pairs[-quarter:].max()))
        whole = max(whole, float(pairs.max()))
    slack = 1e-12 * (1.0 + whole)
    _require(last_q - slack <= worst_tail <= whole + slack,
             f"worst tail {worst_tail!r} lies outside [{last_q!r}, {whole!r}]")
    _require(bool(converged) == (worst_tail <= tail_tol),
             "w*-verdict disagrees with its tolerance")
    for t, o, d in zip(tails, overflow_tails, dominated_tails):
        _require(t <= o + d + slack,
                 f"tail {t!r} exceeds overflow {o!r} + dominated {d!r}")


# -- CLI sessions ------------------------------------------------------------


def parse_json_output(code: int, out: str) -> dict:
    _require(code == 0, f"exit code {code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None


def check_same_bytes(first: str, again: str) -> None:
    if first != again:
        at = next((i for i, (a, b) in enumerate(zip(first, again)) if a != b),
                  min(len(first), len(again)))
        raise CheckError(f"stdout differs from the first run at byte {at}")
