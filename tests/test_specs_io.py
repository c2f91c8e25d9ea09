"""Spec-string grammars, custom tables, scenario files, report rendering."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import orliczkit.orlicz as orlicz
from orliczkit import (
    FAILS,
    HOLDS,
    OrliczFunction,
    ParseError,
    Rv,
    check_delta2,
    classify_space,
    conjugate,
    limit_slope,
    load_custom_table,
    parse_orlicz_spec,
    parse_risk_spec,
    read_rv,
    read_space,
    read_stacked_rvs,
    render_record,
    render_table,
    uniform_probability,
)

# -- Young function grammar ---------------------------------------------------


def test_parse_power():
    fn = parse_orlicz_spec("power:p=3")
    assert fn(2.0) == pytest.approx(8.0)


def test_parse_scaled_power_default_coefficient():
    fn = parse_orlicz_spec("scaled_power:p=2")
    assert fn(2.0) == pytest.approx(2.0)  # t^2 / 2
    fn = parse_orlicz_spec("scaled_power:p=2,c=0.25")
    assert fn(2.0) == pytest.approx(1.0)


def test_parse_parameterless_names():
    assert parse_orlicz_spec("linear")(3.0) == 3.0
    assert parse_orlicz_spec("exp_young")(1.0) == pytest.approx(math.e - 2.0)
    step = parse_orlicz_spec(" LINF_STEP ")  # whitespace and case forgiven
    assert step(1.0) == 0.0
    assert step(1.0 + 1e-9) == math.inf


@pytest.mark.parametrize("bad", [
    "power",                 # missing p
    "power:p=abc",           # non-numeric
    "power:p=1",             # needs superlinear exponent
    "power:p=2,p=3",         # repeated
    "power:p=2,q=1",         # unknown parameter
    "power:p",               # no '='
    "sideways",              # unknown name
    "custom",                # missing file=
    "custom:file=/nonexistent/table.csv",
])
def test_parse_orlicz_rejects(bad):
    with pytest.raises(ParseError):
        parse_orlicz_spec(bad)


def unspaced_id(value):
    """A parametrize id without blanks, so ``pytest --collect-only -q``
    prints one id per line and a line holds no blank; pytest escapes the
    newlines."""
    return value.replace(" ", "")


@pytest.mark.parametrize("spec,label", [
    ("power:p=3", "power(p=3.0)"),
    ("scaled_power:p=2", "scaled_power(p=2.0, c=0.5)"),
    (" scaled_power: p = 2 , c = 0.25 ", "scaled_power(p=2.0, c=0.25)"),
    ("linear", "linear"),
    ("exp_young", "exp_young"),
    ("EXP_YOUNG_CONJUGATE", "exp_young_conjugate"),
    ("linf_step", "linf_step"),
], ids=unspaced_id)
def test_parse_orlicz_labels(spec, label):
    assert parse_orlicz_spec(spec).label == label


def test_unknown_young_function_is_reported_once():
    with pytest.raises(ParseError, match="^unknown Young function 'sideways'"):
        parse_orlicz_spec("sideways")


# -- risk grammar -------------------------------------------------------------


def test_parse_risk_names():
    sp = uniform_probability(3)
    assert parse_risk_spec("entropic:beta=2", sp).name == "entropic(beta=2.0)"
    assert (parse_risk_spec("avar:alpha=0.5", sp).name
            == "average_value_at_risk(alpha=0.5)")
    assert parse_risk_spec("worst_case", sp).name == "worst_case"
    assert parse_risk_spec("expectation", sp).name == "expectation"
    ctrl = parse_risk_spec("control:square", sp)
    assert ctrl.name == "non_monotone_control"


@pytest.mark.parametrize("bad", [
    "entropic",                # missing beta
    "entropic:beta=0",         # must be positive
    "avar:alpha=0",            # outside (0, 1]
    "avar:alpha=2",
    "worst_case:x=1",          # takes no parameters
    "expectation:now",
    "control:cube",            # unknown variant
    "unknown_risk",
])
def test_parse_risk_rejects(bad):
    with pytest.raises(ParseError):
        parse_risk_spec(bad, uniform_probability(3))


def test_parse_risk_requires_probability_space_where_needed():
    from orliczkit import MeasureSpace
    with pytest.raises(ParseError):
        parse_risk_spec("entropic:beta=1", MeasureSpace.finite(np.ones(3)))


# -- custom tables ------------------------------------------------------------


def write_table(tmp_path, text, name="table.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_custom_table_knots_and_interpolation(tmp_path):
    path = write_table(tmp_path, "t,value\n0,0\n1,1\n2,4\n")
    fn = load_custom_table(path)
    # exact at the knots
    assert fn(0.0) == 0.0
    assert fn(1.0) == pytest.approx(1.0)
    assert fn(2.0) == pytest.approx(4.0)
    # linear between knots, on the segment touching zero too
    assert fn(1.5) == 2.5
    assert fn(0.5) == 0.5


def test_custom_table_power_law_tail(tmp_path):
    # last two knots (1,1), (2,4) fix the power-law exponent 2
    path = write_table(tmp_path, "t,value\n0,0\n1,1\n2,4\n")
    fn = load_custom_table(path)
    assert fn(4.0) == pytest.approx(16.0)
    assert fn(10.0) == pytest.approx(100.0)


def test_custom_table_horizon_row(tmp_path):
    # replicate the hard-wall step: finite (and zero) through t = 1,
    # infinite strictly beyond
    path = write_table(tmp_path, "t,value\n0,0\n1,0\n1,inf\n")
    fn = load_custom_table(path)
    assert fn(1.0) == 0.0
    assert fn(1.0 + 1e-12) == math.inf
    assert fn.horizon == 1.0


def test_custom_table_comments_and_blank_lines(tmp_path):
    # a table follows the readers' grammar: blank lines are skipped, and
    # there are no comments
    path = write_table(tmp_path, "t,value\n\n0,0\n  \n1,1\n2,4\n\n")
    assert load_custom_table(path)(2.0) == 4.0
    path = write_table(tmp_path, "t,value\n0,0\n# midpoint\n1,1\n2,4\n")
    with pytest.raises(ParseError):
        load_custom_table(path)


@pytest.mark.parametrize("text", [
    "t,value\n0,0\n",               # single data row
    "t,value\n1,1\n2,4\n",          # must start at 0,0
    "t,value\n0,0\n2,4\n1,1\n",     # t not increasing
    "t,value\n0,0\n1,4\n2,1\n",     # values decrease
    "t,value\n0,0\n1,-1\n",         # negative value
    "t,value\n0,0\n1,1\nbad,row\n", # non-numeric after data started
    "t,value\n0,0,9\n1,1\n",        # wrong column count
    "t,value\n0,0\n2,4\n1,inf\n",   # horizon precedes last knot
    "t,value\n0,0\n1,1\n2,1.5\n",   # chord slopes fall: not convex
    "t,value\n0,0\n1,1\n2,-inf\n",  # -inf is no horizon
    "t,value\n0,0\n1,1\nnan,inf\n", # nan horizon
    "t,value\n0,0\n1,0\n2,0\n",    # identically zero
    "t,value\n0,0\n0,inf\n",        # horizon at zero
])
def test_custom_table_rejects(tmp_path, text):
    path = write_table(tmp_path, text)
    with pytest.raises(ParseError):
        load_custom_table(path)


def test_parse_custom_through_spec_string(tmp_path):
    path = write_table(tmp_path, "t,value\n0,0\n1,1\n2,4\n")
    fn = parse_orlicz_spec(f"custom:file={path}")
    assert fn(1.5) == 2.5


def random_convex_table(rng):
    """Knots 0 = t_0 < ... < t_k with nondecreasing chord slopes, some of
    them repeated and the first one sometimes 0."""
    k = int(rng.integers(2, 8))
    widths = rng.uniform(0.1, 2.0, k)
    rises = rng.uniform(0.0, 2.0, k) * (rng.uniform(size=k) < 0.8)
    slopes = np.cumsum(rises)
    ts = np.concatenate(([0.0], np.cumsum(widths)))
    ys = np.concatenate(([0.0], np.cumsum(widths * slopes)))
    return ts, ys


# numpy-seeded rather than Hypothesis: derandomized Hypothesis draws move
# with any literal constant in the loaded modules
@pytest.mark.parametrize("seed", range(60))
def test_convex_tables_load_convex_with_exact_conjugates(tmp_path, seed):
    rng = np.random.default_rng(seed)
    ts, ys = random_convex_table(rng)
    fn = load_custom_table(write_table(tmp_path, "t,value\n" + "".join(
        f"{t!r},{y!r}\n" for t, y in zip(ts.tolist(), ys.tolist()))))
    assert [fn(t) for t in ts] == ys.tolist()
    grid = np.linspace(0.0, 3.0 * ts[-1], 3001)
    vals = np.array([fn(t) for t in grid])
    excess = vals[1:-1] - 0.5 * (vals[:-2] + vals[2:])
    assert np.all(excess <= 1e-12 * np.maximum(1.0, vals[2:]))
    # below the last chord slope the supremum of s t - Phi(t) sits at a knot,
    # and the conjugate reads it off the knots
    psi = conjugate(fn)
    for s in rng.uniform(0.0, (ys[-1] - ys[-2]) / (ts[-1] - ts[-2]), 4):
        assert psi(s) == np.max(s * ts - ys)


def test_a_lone_knot_under_a_horizon_is_zero_up_to_it(tmp_path):
    fn = load_custom_table(write_table(tmp_path, "t,value\n0,0\n2,inf\n"))
    assert fn.values(np.array([0.0, 1.0, 2.0, 2.5])).tolist() == [
        0.0, 0.0, 0.0, math.inf]
    assert conjugate(fn)(3.0) == 6.0


# -- table kernels ------------------------------------------------------------

TABLE_SHAPES = ("plain", "horizon", "wall", "flat")
EPS = np.finfo(float).eps


def random_table(rng, shape):
    """A random_convex_table's knots and a horizon, per ``shape``: none
    (``plain``); a horizon row past the last knot (``horizon``) or on it
    (``wall``); or every value zero but the last, so the first chord is flat
    and the tail linear, under a horizon one time in two (``flat``). A table
    whose values are all zero gets a horizon too."""
    ts, ys = random_convex_table(rng)
    horizon = math.inf
    if shape == "flat":
        ys = np.zeros_like(ys)
        ys[-1] = rng.uniform(0.5, 3.0)
    if shape == "horizon" or (shape == "flat" and rng.uniform() < 0.5):
        horizon = float(ts[-1] * rng.uniform(1.1, 3.0))
    elif shape == "wall" or ys[-1] == 0.0:
        horizon = float(ts[-1])
    return ts, ys, horizon


def load_random_table(tmp_path, seed, shape):
    ts, ys, horizon = random_table(np.random.default_rng([seed, 29]), shape)
    text = "t,value\n" + "".join(f"{t!r},{y!r}\n"
                                 for t, y in zip(ts.tolist(), ys.tolist()))
    if horizon < math.inf:
        text += f"{horizon!r},inf\n"
    return ts, ys, horizon, load_custom_table(write_table(tmp_path, text))


def reference_table(ts, ys, horizon, t):
    """Phi(t) as the table's definition reads, one float at a time: the
    chord through the knots around t, the tail continued from the last two
    knots, +inf past the horizon."""
    if t > horizon:
        return math.inf
    if t < ts[-1]:
        i = int(np.searchsorted(ts, t, side="right")) - 1
        t0, t1 = float(ts[i]), float(ts[i + 1])
        y0, y1 = float(ys[i]), float(ys[i + 1])
        return y0 + (t - t0) / (t1 - t0) * (y1 - y0)
    t_last, y_last = float(ts[-1]), float(ys[-1])
    if ys[-2] > 0.0:
        gamma = max(1.0, math.log(y_last / ys[-2]) / math.log(t_last / ts[-2]))
        return y_last * (t / t_last) ** gamma
    return y_last + (ys[-1] - ys[-2]) / (ts[-1] - ts[-2]) * (t - t_last)


@pytest.mark.parametrize("shape", TABLE_SHAPES)
@pytest.mark.parametrize("seed", range(15))
def test_table_kernels_match_scalar_calls_bit_for_bit(tmp_path, seed, shape):
    ts, ys, horizon, phi = load_random_table(tmp_path, seed, shape)
    rng = np.random.default_rng(seed)
    t_last = ts[-1]
    x = np.concatenate((ts, 0.5 * (ts[:-1] + ts[1:]),
                        rng.uniform(0.0, t_last, 16),
                        t_last * (1.0 + np.geomspace(1e-9, 1e3, 16))))
    if horizon < math.inf:
        x = np.concatenate((x, [horizon, horizon * (1.0 + 1e-12),
                                2.0 * horizon]))
    values = phi.values(x)
    assert values.tolist() == [phi(t) for t in x]
    assert phi.values(x[:, None])[:, 0].tolist() == values.tolist()
    # the interpolation and a linear tail are bit for bit the definition's;
    # the power-law tail is within a rounding of its exponentiation
    for t, v in zip(x.tolist(), values.tolist()):
        ref = reference_table(ts, ys, horizon, t)
        if t < t_last or ys[-2] == 0.0 or math.isinf(ref):
            assert v == ref
        else:
            assert v == pytest.approx(ref, rel=4 * EPS, abs=0.0)
    psi = conjugate(phi)
    sigma = phi.knots.slope
    chords = np.diff(ys) / np.diff(ts)
    s = np.concatenate((chords, 0.5 * (chords[:-1] + chords[1:]), [0.0, sigma],
                        rng.uniform(0.0, 2.0 * sigma + 1.0, 16),
                        (sigma + 1.0) * (1.0 + np.geomspace(1e-9, 1e3, 16))))
    conj = psi.values(s)
    assert conj.tolist() == [psi(v) for v in s]


def tail_maximizer(phi, s):
    """Where s t - Phi(t) peaks for s past the tail's slope sigma, and the
    exponent q that multiplies the kernel's relative rounding there: the
    power law's maximizer t_m (s / sigma)**(1 / (gamma - 1)) with
    q = gamma / (gamma - 1), or a finite horizon with q = 1."""
    knots = phi.knots
    h = knots.horizon
    if knots.superlinear:
        g = knots.gamma
        t = knots.ts[-1] * (s / knots.slope) ** (1.0 / (g - 1.0))
        if t < h:
            return t, g / (g - 1.0)
    return h, 1.0


@pytest.mark.parametrize("shape", TABLE_SHAPES)
@pytest.mark.parametrize("seed", range(15))
def test_table_conjugate_is_the_exact_legendre_transform(tmp_path, seed,
                                                         shape):
    ts, ys, horizon, phi = load_random_table(tmp_path, seed, shape)
    psi = conjugate(phi)
    sigma = phi.knots.slope
    rng = np.random.default_rng(seed)
    # up to the tail's slope: the knots' maximum, exactly
    chords = np.diff(ys) / np.diff(ts)
    below = np.concatenate((rng.uniform(0.0, sigma, 32), [0.0, sigma],
                            chords[chords <= sigma]))
    assert psi.values(below).tolist() == np.max(
        below[:, None] * ts - ys, axis=1).tolist()
    # beyond it the supremum sits at the tail's maximizer t*. Rounding
    # bound: the kernel's s / sigma carries three roundings (two in sigma),
    # which the power q multiplies, and q's own rounding adds
    # q |log(s / sigma)| <= 1.4 q on s <= 4 sigma; the power and the two
    # products add about three more. The reference s t* - Phi(t*) rounds
    # each of its two terms, and the objective is flat at t*, so t*'s own
    # rounding costs nothing to first order. Together, with M = s t* +
    # Phi(t*): |Psi - (s t* - Phi(t*))| <= (4.4 q + 8) eps M.
    for s in sigma * rng.uniform(1.0, 4.0, 8) + 1e-9:
        value = psi(s)
        t_star, q = tail_maximizer(phi, s)
        if math.isinf(t_star):
            assert value == math.inf  # a linear tail without a horizon
            objective = [s * t - phi(t) for t in ts[-1] * 2.0 ** np.arange(8)]
            assert np.all(np.diff(objective) > 0.0)
            continue
        at_star = phi(t_star)
        bound = (4.4 * q + 8.0) * EPS * (s * t_star + at_star)
        assert abs(value - (s * t_star - at_star)) <= bound
        grid = np.concatenate((np.linspace(0.0, min(3.0 * t_star, horizon),
                                           4001), [t_star]))
        assert np.max(s * grid - phi.values(grid)) <= value + bound


def dense_ratios(fn, us):
    """fn(2u) / fn(u) over the grid ``us``; 1 where both vanish."""
    a, b = fn.values(us), fn.values(2.0 * us)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where((a == 0.0) & (b == 0.0), 1.0, b / a)


@pytest.mark.parametrize("shape", TABLE_SHAPES)
@pytest.mark.parametrize("seed", range(15))
def test_table_verdicts_are_exact_and_match_a_dense_grid(tmp_path, seed,
                                                         shape):
    ts, ys, horizon, phi = load_random_table(tmp_path, seed, shape)
    psi = conjugate(phi)
    chords = np.diff(ys) / np.diff(ts)
    knots = phi.knots
    # where each side's verdict starts to hold: Phi is linear or zero on
    # [0, t_1] and on its tail from t_m; Psi is zero or linear up to its
    # first positive chord slope, a power from sigma, and a line from twice
    # the tail's slope at a finite horizon
    zero_ends = {"phi": ts[1] / 4.0,
                 "psi": chords[chords > 0.0][0] / 4.0}
    infinity_starts = {"phi": ts[-1],
                       "psi": (2.0 * knots.wall_slope
                               if horizon < math.inf and knots.wall_slope > 0
                               else 1.0 if horizon < math.inf
                               else knots.slope)}
    for name, fn in (("phi", phi), ("psi", psi)):
        for regime in ("at_zero", "at_infinity"):
            verdict = check_delta2(fn, regime)
            assert verdict.exact
            if regime == "at_zero":
                us = zero_ends[name] * np.geomspace(1e-6, 1.0, 64)
            elif math.isfinite(fn.horizon):
                w = verdict.witness
                assert verdict.status == FAILS
                assert fn(2.0 * w) == math.inf > fn(w)
                continue
            else:
                us = infinity_starts[name] * np.geomspace(1.0, 1e6, 64)
            assert verdict.status == HOLDS
            ratios = dense_ratios(fn, us)
            assert np.all(ratios <= verdict.k * (1.0 + 16 * EPS))
            assert np.max(ratios) >= verdict.k * (1.0 - 16 * EPS)
        slope = limit_slope(fn)
        assert not slope.estimated
        big = np.geomspace(1e3, 1e12, 10) * max(ts[-1], knots.slope, 1.0)
        with np.errstate(over="ignore"):
            ratios = fn.values(big) / big
        if slope.is_infinite:
            assert np.all(ratios[1:] >= ratios[:-1])
            assert ratios[-1] >= 2.0 * ratios[0]
        else:
            assert np.all(ratios <= slope.limit * (1.0 + 4 * EPS))
            assert ratios[-1] == pytest.approx(slope.limit, rel=1e-9)


@pytest.mark.parametrize("shape", TABLE_SHAPES)
def test_classify_and_conjugate_of_a_table_make_no_scalar_calls(
        tmp_path, monkeypatch, shape):
    *_, phi = load_random_table(tmp_path, 0, shape)
    calls = []

    def spy(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(orlicz, "conjugate_value",
                        spy("conjugate_value", orlicz.conjugate_value))
    monkeypatch.setattr(orlicz, "_delta2_heuristic",
                        spy("_delta2_heuristic", orlicz._delta2_heuristic))
    monkeypatch.setattr(OrliczFunction, "__call__",
                        spy("__call__", OrliczFunction.__call__))
    for finite_measure in (True, False):
        classify_space(phi, finite_measure)
    conjugate(phi).values(np.linspace(0.0, 10.0, 50))
    assert calls == []


# -- scenario files -----------------------------------------------------------


def test_read_space_and_rv(tmp_path):
    sp_path = write_table(
        tmp_path, "atom_id,weight,block_id\n0,0.25,0\n1,0.5,0\n2,0.25,1\n",
        "space.csv")
    space = read_space(sp_path)
    assert space.n_atoms == 3
    assert space.weights.tolist() == [0.25, 0.5, 0.25]
    # values may arrive in any atom order; alignment is by id
    rv_path = write_table(tmp_path, "atom_id,value\n2,3.0\n0,1.0\n1,2.0\n",
                          "f.csv")
    f = read_rv(rv_path, space)
    assert f.values.tolist() == [1.0, 2.0, 3.0]


def test_read_stacked_rvs(tmp_path):
    sp_path = write_table(tmp_path,
                          "atom_id,weight,block_id\n0,0.5,0\n1,0.5,0\n",
                          "space.csv")
    space = read_space(sp_path)
    stacked = write_table(
        tmp_path,
        "term_index,atom_id,value\n"
        "1,0,10\n1,1,11\n0,0,0\n0,1,1\n",
        "terms.csv")
    terms = read_stacked_rvs(stacked, space)
    assert len(terms) == 2
    assert terms[0].values.tolist() == [0.0, 1.0]  # sorted by term index
    assert terms[1].values.tolist() == [10.0, 11.0]


SPACE2 = "atom_id,weight,block_id\n0,0.5,0\n1,0.5,0\n"
RV_HEADER = "atom_id,value\n"
STACKED_HEADER = "term_index,atom_id,value\n"


@pytest.mark.parametrize("text,reader", [
    ("atom_id,value\n0,1\n", "space"),            # wrong header
    ("atom_id,weight,block_id\n", "space"),       # no atoms
    ("atom_id,weight,block_id\n0,x,0\n", "space"),
    ("atom_id,value\n0,1.0\n9,2.0\n", "rv"),      # unknown atom
    ("atom_id,value\n0,1.0\n0,2.0\n", "rv"),      # duplicate atom
    ("atom_id,value\n0,1.0\n", "rv"),             # missing atom 1
    ("term_index,atom_id,value\n0,0,1.0\n", "stacked"),  # term misses atom 1
    ("", "rv"),                                      # empty file
    ("\n  \n", "stacked"),
    (RV_HEADER + "\n\n", "rv"),                      # header only
    (STACKED_HEADER, "stacked"),
    ("atom,weight,block_id\n0,1,0\n", "space"),      # wrong header
    ("atom_id,value,extra\n0,1,0\n1,1,0\n", "rv"),
    (RV_HEADER + "0,1\n1,1\n", "stacked"),
    ("atom_id,weight,block_id\n0,1,0\n1,1\n", "space"),  # ragged row
    (STACKED_HEADER + "0,0,1\n0,1\n", "stacked"),
    (RV_HEADER + "0,1,\n1,1,\n", "rv"),              # trailing cell
    ("atom_id,weight,block_id\n0,1,0,\n", "space"),
    ("atom_id,weight,block_id\n1.5,1,0\n", "space"),  # non-integer id
    (RV_HEADER + "0,1\n1.5,1\n", "rv"),
    (STACKED_HEADER + "1.5,0,1\n1.5,1,1\n", "stacked"),  # term index
    (RV_HEADER + "0,1\n1,x\n", "rv"),                # non-numeric
    (RV_HEADER + "0,nan\n1,1\n", "rv"),              # nan value
    (STACKED_HEADER + "0,0,1\n0,1,nan\n", "stacked"),
    (RV_HEADER + "0,inf\n1,1\n", "rv"),              # inf value
    ("atom_id,weight,block_id\n0,inf,0\n", "space"),
    ("atom_id,weight,block_id\n0,nan,0\n", "space"),
    ("atom_id,weight,block_id\n0,0,0\n1,1,0\n", "space"),  # zero weight
    ("atom_id,weight,block_id\n1,1,0\n0,1,0\n", "space"),  # unsorted ids
    ("atom_id,weight,block_id\n0,1,0\n0,1,0\n", "space"),  # repeated id
    ("atom_id,weight,block_id\n# atoms\n0,1,0\n", "space"),  # '#' line
    ("# values\n" + RV_HEADER + "0,1\n1,1\n", "rv"),
    (RV_HEADER + "0,1\n1,1 # one\n", "rv"),
    (RV_HEADER + "0,nan\n0,2\n1,1\n", "rv"),       # duplicate after nan
    # an unknown, a duplicate and a missing atom, each in term 1
    (STACKED_HEADER + "0,0,1\n0,1,1\n1,0,1\n1,9,1\n", "stacked"),
    (STACKED_HEADER + "0,0,1\n0,1,1\n1,0,1\n1,0,1\n1,1,1\n", "stacked"),
    (STACKED_HEADER + "0,0,1\n0,1,1\n1,0,1\n", "stacked"),
    # a Young table is read in the same grammar
    ("0,0\n1,1\n2,4\n", "table"),                   # no header
    ("t value\n0 0\n1 1\n2 4\n", "table"),           # blank-separated
    ("t,value\n# knots\n0,0\n1,1\n2,4\n", "table"),  # '#' line
], ids=unspaced_id)
def test_readers_reject(tmp_path, text, reader):
    sp_path = write_table(tmp_path,
                          "atom_id,weight,block_id\n0,0.5,0\n1,0.5,0\n",
                          "space.csv")
    space = read_space(sp_path)
    path = write_table(tmp_path, text, "bad.csv")
    with pytest.raises(ParseError):
        if reader == "space":
            read_space(path)
        elif reader == "rv":
            read_rv(path, space)
        elif reader == "table":
            load_custom_table(path)
        else:
            read_stacked_rvs(path, space)


def test_read_space_rejects_empty_file(tmp_path):
    path = write_table(tmp_path, "", "empty.csv")
    with pytest.raises(ParseError, match="empty"):
        read_space(path)


def test_readers_accept_crlf_blank_lines_and_quotes(tmp_path):
    space = read_space(write_table(
        tmp_path, 'atom_id,weight,block_id\r\n\r\n0,"0.5",0\r\n 1 ,0.5,0\r\n',
        "space.csv"))
    assert space.weights.tolist() == [0.5, 0.5]
    path = tmp_path / "terms.csv"
    path.write_bytes(b'term_index,atom_id,value\r\n"1",0,2\r\n\t\r\n'
                     b'1,1,"3"\r\n0,1,1\r\n0,0,0\r\n')
    terms = read_stacked_rvs(str(path), space)
    assert [t.values.tolist() for t in terms] == [[0.0, 1.0], [2.0, 3.0]]
    path = tmp_path / "young.csv"
    path.write_bytes(b'"T","Value"\r\n\r\n"0",0\r\n1,"1"\r\n \r\n"2","4"\r\n')
    fn = load_custom_table(str(path))
    assert [fn(t) for t in (0.0, 0.5, 1.0, 1.5, 2.0, 4.0)] == [
        0.0, 0.5, 1.0, 2.5, 4.0, 16.0]


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def render_csv(data, header, rows, shuffle):
    """CSV text of ``rows`` with repr floats, in random row order when
    ``shuffle``, random quoted cells, and blank or whitespace-only lines."""
    order = (data.draw(st.permutations(range(len(rows)))) if shuffle
             else range(len(rows)))
    lines = [header]
    for i in order:
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", "  ", "\t"])))
        quoted = data.draw(st.lists(st.booleans(), min_size=len(rows[i]),
                                    max_size=len(rows[i])))
        lines.append(",".join(f'"{cell!r}"' if q else repr(cell)
                              for cell, q in zip(rows[i], quoted)))
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol


def same_bits(array, expected, dtype):
    assert array.flags.c_contiguous
    assert array.dtype == dtype
    assert array.tobytes() == np.asarray(expected, dtype=dtype).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(),
       ids=st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=8,
                    unique=True).map(sorted),
       terms=st.lists(st.integers(-1000, 1000), min_size=1, max_size=4,
                      unique=True))
def test_readers_round_trip_bit_identical(tmp_path, data, ids, terms):
    n = len(ids)
    weights = data.draw(st.lists(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        min_size=n, max_size=n))
    blocks = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    values = data.draw(st.lists(st.lists(FINITE_FLOATS, min_size=n,
                                         max_size=n),
                                min_size=len(terms), max_size=len(terms)))
    (tmp_path / "space.csv").write_bytes(render_csv(
        data, "atom_id,weight,block_id", list(zip(ids, weights, blocks)),
        shuffle=False).encode())
    (tmp_path / "rv.csv").write_bytes(render_csv(
        data, "atom_id,value", list(zip(ids, values[0])),
        shuffle=True).encode())
    (tmp_path / "terms.csv").write_bytes(render_csv(
        data, "term_index,atom_id,value",
        [(t, a, v) for t, row in zip(terms, values)
         for a, v in zip(ids, row)], shuffle=True).encode())

    space = read_space(str(tmp_path / "space.csv"))
    same_bits(space.atom_ids, ids, np.int64)
    same_bits(space.weights, weights, np.float64)
    same_bits(space.block_ids, blocks, np.int64)
    same_bits(read_rv(str(tmp_path / "rv.csv"), space).values, values[0],
              np.float64)
    stacked = read_stacked_rvs(str(tmp_path / "terms.csv"), space)
    assert len(stacked) == len(terms)
    for rv, (_, row) in zip(stacked, sorted(zip(terms, values))):
        assert rv.space is space
        same_bits(rv.values, row, np.float64)


# -- rendering ----------------------------------------------------------------


def test_render_record_json_keeps_order_and_types():
    text = render_record({"b": 2, "a": True, "x": 0.1,
                          "v": np.array([1.0, 2.0])}, "json")
    doc = json.loads(text)
    assert list(doc) == ["b", "a", "x", "v"]
    assert doc["a"] is True
    assert doc["x"] == 0.1
    assert doc["v"] == [1.0, 2.0]


def test_render_record_csv_cells():
    text = render_record({"flag": False, "val": 0.5, "none": None,
                          "seq": [1.0, 2.0], "msg": 'a,b "q"'}, "csv")
    lines = text.splitlines()
    assert lines[0] == "key,value"
    assert "flag,false" in lines
    assert "val,0.5" in lines
    assert "none," in lines
    assert "seq,1.0;2.0" in lines
    # comma and quote in the cell force quoting with doubled quotes
    assert 'msg,"a,b ""q"""' in lines


def test_render_table_csv_and_json_agree():
    cols = {"name": ["a", "b"], "ok": [True, False], "value": [1.5, -2.0]}
    csv_text = render_table(cols, "csv")
    assert csv_text == "name,ok,value\na,true,1.5\nb,false,-2.0\n"
    doc = json.loads(render_table(cols, "json"))
    assert doc["value"] == [1.5, -2.0]


def test_render_table_rejects_ragged_columns():
    with pytest.raises(ValueError):
        render_table({"a": [1, 2], "b": [1]}, "csv")
    with pytest.raises(ParseError):
        render_table({"a": [1]}, "yaml")


def test_render_is_deterministic():
    record = {"seed": 7, "values": [1 / 3, 2 / 3], "ok": True}
    assert render_record(record, "json") == render_record(record, "json")
    assert render_record(record, "csv") == render_record(record, "csv")


def test_float_repr_roundtrips():
    value = 0.1 + 0.2
    text = render_record({"x": value}, "csv")
    cell = text.splitlines()[1].split(",", 1)[1]
    assert float(cell) == value
