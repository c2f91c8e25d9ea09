"""Risk functional catalog: evaluations, conjugates, maximizers, validation."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

import orliczkit
from orliczkit import (
    MeasureSpace,
    Rv,
    average_value_at_risk,
    entropic,
    expectation,
    increasing_catalog,
    non_lsc_control,
    non_monotone_control,
    uniform_probability,
    validate,
    worst_case,
)

EPS = np.finfo(float).eps


def avar_oracle(values, weights, alpha):
    """Independent oracle: mean of the worst outcomes filling mass alpha.

    Sort outcomes descending; take full atoms until alpha is exhausted, a
    fractional atom at the boundary; average by alpha.
    """
    order = np.argsort(-np.asarray(values), kind="stable")
    remaining = alpha
    acc = 0.0
    for i in order:
        take = min(weights[i], remaining)
        acc += take * values[i]
        remaining -= take
        if remaining <= 0.0:
            break
    return acc / alpha


def test_entropic_evaluate_matches_logsumexp():
    sp = uniform_probability(4)
    f = Rv(sp, [1.0, -1.0, 0.5, 2.0])
    for beta in (0.5, 1.0, 2.0):
        ent = entropic(beta, sp)
        expected = float(logsumexp(beta * f.values, b=sp.weights)) / beta
        assert ent.evaluate(f) == pytest.approx(expected, rel=1e-14)
    # skewed weights, up to 50 atoms and |f| up to 1e6 (the divergence-probe
    # range); scaled by 1 + max|f| because the output can sit near zero
    rng = np.random.default_rng(42)
    for n in (1, 2, 7, 50):
        raw = rng.uniform(0.01, 1.0, n) ** 4
        skewed = MeasureSpace.finite(raw / raw.sum())
        for scale in (1e-3, 1.0, 1e3, 1e6):
            f = Rv(skewed, rng.normal(0.0, scale, n))
            for beta in (0.5, 1.0, 2.0):
                expected = float(logsumexp(beta * f.values,
                                           b=skewed.weights)) / beta
                got = entropic(beta, skewed).evaluate(f)
                bound = 1e-14 * (1.0 + float(np.max(np.abs(f.values))))
                assert abs(got - expected) <= bound
    # two equal atoms at the same value: certainty equals the value
    f0 = Rv(uniform_probability(2), [1.0, 1.0])
    assert entropic(1.0, uniform_probability(2)).evaluate(f0) == pytest.approx(1.0)


def test_entropic_conjugate_is_scaled_relative_entropy():
    sp = uniform_probability(2)
    ent = entropic(2.0, sp)
    # density g = (2, 0) wrt weights (1/2, 1/2): entropy sum w g log g = log 2
    g = Rv(sp, [2.0, 0.0])
    assert ent.closed_form_conjugate(g) == pytest.approx(math.log(2.0) / 2.0)
    # uniform density has zero entropy
    assert ent.closed_form_conjugate(Rv(sp, [1.0, 1.0])) == pytest.approx(0.0)
    # off the simplex: +inf
    assert ent.closed_form_conjugate(Rv(sp, [2.0, 2.0])) == math.inf
    assert ent.closed_form_conjugate(Rv(sp, [3.0, -1.0])) == math.inf
    # a coordinate within FEAS_TOL below zero counts as zero
    assert ent.closed_form_conjugate(Rv(sp, [2.0, -1e-12])) == pytest.approx(
        math.log(2.0) / 2.0)


def test_import_does_not_load_scipy():
    src = str(Path(orliczkit.__file__).resolve().parents[1])
    code = ("import orliczkit, sys; "
            "assert not any(m.startswith('scipy') for m in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_entropic_gibbs_maximizer_attains():
    sp = uniform_probability(5)
    rng = np.random.default_rng(3)
    ent = entropic(1.5, sp)
    for _ in range(10):
        f = Rv(sp, rng.normal(0.0, 2.0, 5))
        g = ent.closed_form_maximizer(f)
        attained = (float(np.dot(sp.weights, f.values * g.values))
                    - ent.closed_form_conjugate(g))
        assert attained == pytest.approx(ent.evaluate(f), abs=1e-12)


def test_avar_greedy_matches_oracle():
    sp = uniform_probability(4)
    f = Rv(sp, [4.0, 3.0, 2.0, 1.0])
    av = average_value_at_risk(0.5, sp)
    # worst half = atoms valued 4 and 3, each mass 1/4: mean 3.5
    assert av.evaluate(f) == pytest.approx(3.5, abs=1e-12)
    rng = np.random.default_rng(11)
    for alpha in (0.25, 0.5, 0.75, 1.0):
        av = average_value_at_risk(alpha, sp)
        for _ in range(20):
            v = rng.normal(0.0, 3.0, 4)
            f = Rv(sp, v)
            assert av.evaluate(f) == pytest.approx(
                avar_oracle(v, sp.weights, alpha), abs=1e-12)


def test_avar_alpha_one_is_expectation():
    sp = MeasureSpace.finite([0.2, 0.3, 0.5])
    f = Rv(sp, [5.0, -1.0, 2.0])
    assert average_value_at_risk(1.0, sp).evaluate(f) == pytest.approx(
        expectation(sp).evaluate(f))


def test_avar_conjugate_box_rules():
    sp = uniform_probability(4)
    av = average_value_at_risk(0.5, sp)
    assert av.closed_form_conjugate(Rv(sp, [2.0, 2.0, 0.0, 0.0])) == 0.0
    assert av.closed_form_conjugate(Rv(sp, [1.0, 1.0, 1.0, 1.0])) == 0.0
    # cap 1/alpha = 2 exceeded
    assert av.closed_form_conjugate(Rv(sp, [3.0, 1.0, 0.0, 0.0])) == math.inf
    # exactly: the greedy maximizer writes the cap itself, and a FEAS_TOL
    # slack above it let an ascent beat phi(f)
    over = Rv(sp, [2.0 + 4.8e-10, 0.0, 0.0, 2.0 - 4.8e-10])
    assert av.closed_form_conjugate(over) == math.inf
    # mass off one
    assert av.closed_form_conjugate(Rv(sp, [2.0, 1.0, 0.0, 0.0])) == math.inf
    assert av.closed_form_conjugate(Rv(sp, [2.0, 2.0, -0.5, 0.5])) == math.inf


def _closure_conjugates(sp, beta, alpha):
    """The catalog's conjugates as one closure per member wrote them, the
    reference the shared SeparableConjugate keeps bit for bit."""
    w = sp.weights
    tol = orliczkit.FEAS_TOL
    cap = 1.0 / alpha

    def ent(gv):
        lowest = np.minimum.reduce(gv)
        if lowest < -tol or abs(float(np.dot(w, gv)) - 1.0) > tol:
            return math.inf
        if lowest > 0.0:
            return float(np.dot(w, gv * np.log(gv))) / beta
        pos = gv > 0.0
        return float(np.dot(w[pos], gv[pos] * np.log(gv[pos]))) / beta

    def avar(gv):
        feasible = (gv.min() >= -tol and gv.max() <= cap
                    and abs(float(np.dot(w, gv)) - 1.0) <= tol)
        return 0.0 if feasible else math.inf

    def worst(gv):
        feasible = (gv.min() >= -tol
                    and abs(float(np.dot(w, gv)) - 1.0) <= tol)
        return 0.0 if feasible else math.inf

    def expect(gv):
        return 0.0 if np.all(np.abs(gv - 1.0) <= tol) else math.inf

    return ent, avar, worst, expect


@pytest.mark.parametrize("seed", range(3))
def test_catalog_conjugates_keep_their_closed_form_bits(seed):
    # densities, exact zeros, entries in the slack below zero, the AVaR cap
    # and the ends of every box and of the mass tolerance, and the doubles
    # next to them
    rng = np.random.default_rng([31, seed])
    tol = orliczkit.FEAS_TOL
    for n in range(1, 9):
        raw = rng.uniform(0.2, 1.0, n)
        for sp in (uniform_probability(n), MeasureSpace.finite(raw / raw.sum())):
            w = sp.weights
            beta = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
            alpha = float(rng.choice([0.25, 0.3, 0.5, 1.0]))
            members = increasing_catalog(sp, beta=beta, alpha=alpha)
            refs = _closure_conjugates(sp, beta, alpha)
            for _ in range(40):
                g = np.abs(rng.normal(0.0, 1.0, n))
                g[rng.uniform(size=n) < 0.3] = 0.0
                g[0] += 0.1
                g /= float(w @ g)
                k = int(rng.integers(n))
                kind = int(rng.integers(6))
                if kind == 1:
                    g[k] = -tol * float(rng.uniform(0.0, 2.0))
                elif kind == 2:
                    g[k] = 1.0 / alpha
                elif kind == 3:
                    g = np.full(n, 1.0 + float(rng.choice([-tol, tol])))
                elif kind == 4:
                    g *= 1.0 + float(rng.choice([-tol, tol]))
                if kind in (2, 3, 4, 5):
                    g[k] = np.nextafter(g[k], g[k] + float(rng.choice(
                        [-1.0, 1.0])) * float(rng.integers(0, 3)))
                for phi, ref in zip(members, refs):
                    got = phi.closed_form_conjugate(Rv(sp, g))
                    want = ref(g)
                    assert got == want or (math.isnan(got)
                                           and math.isnan(want)), phi.name


def test_avar_parameter_validation():
    sp = uniform_probability(2)
    with pytest.raises(ValueError):
        average_value_at_risk(0.0, sp)
    with pytest.raises(ValueError):
        average_value_at_risk(1.5, sp)
    with pytest.raises(ValueError):
        entropic(0.0, sp)
    # both need probability weights
    with pytest.raises(ValueError):
        entropic(1.0, MeasureSpace.finite(np.ones(3)))
    with pytest.raises(ValueError):
        average_value_at_risk(0.5, MeasureSpace.finite(np.ones(3)))


def test_worst_case_and_expectation():
    sp = MeasureSpace.finite([0.25, 0.5, 0.25])
    f = Rv(sp, [1.0, -3.0, 7.0])
    wc = worst_case(sp)
    assert wc.evaluate(f) == 7.0
    g = wc.closed_form_maximizer(f)
    # point mass on the argmax atom, scaled to integrate to one
    assert g.values.tolist() == [0.0, 0.0, 4.0]
    assert wc.closed_form_conjugate(g) == 0.0
    assert wc.closed_form_conjugate(Rv(sp, [0.0, 0.0, 5.0])) == math.inf
    ex = expectation(sp)
    assert ex.evaluate(f) == pytest.approx(0.25 - 1.5 + 1.75)
    assert ex.closed_form_conjugate(Rv(sp, [1.0, 1.0, 1.0])) == 0.0
    assert ex.closed_form_conjugate(Rv(sp, [1.0, 1.1, 1.0])) == math.inf


@pytest.mark.parametrize("mass", [2.0, 1e8, 1e-8])
def test_expectation_conjugate_reads_no_mass(mass):
    # the indicator of the density 1 on spaces that are not probability
    # spaces: an entry counts as 1 within FEAS_TOL, whatever the total mass,
    # and the doubles just past either end of that band do not; 1 - FEAS_TOL
    # rounds into the band and 1 + FEAS_TOL rounds out of it. A nan entry
    # and an atom at 1.5 read +inf
    tol = orliczkit.FEAS_TOL
    low = 1.0 - tol
    high = math.nextafter(1.0 + tol, 0.0)
    inside = [low, math.nextafter(low, 2.0), math.nextafter(high, 0.0), high]
    outside = [math.nextafter(low, 0.0), math.nextafter(high, 2.0),
               1.0 + tol, math.nan, 1.5]
    assert abs(low - 1.0) <= tol and abs(high - 1.0) <= tol
    for n in (1, 3, 4):
        raw = np.arange(1.0, n + 1.0)
        sp = MeasureSpace.finite(mass * raw / raw.sum())
        conj = expectation(sp).closed_form_conjugate
        assert conj(Rv(sp, np.ones(n))) == 0.0
        for k in range(n):
            for x, want in [(x, 0.0) for x in inside] + [
                    (x, math.inf) for x in outside]:
                g = np.ones(n)
                g[k] = x
                assert conj(Rv._wrap(sp, g)) == want, (n, k, x)
        assert conj(Rv(sp, np.full(n, low))) == 0.0
        assert conj(Rv(sp, np.full(n, high))) == 0.0


def test_validate_accepts_catalog():
    sp = uniform_probability(5)
    for fn in increasing_catalog(sp, beta=1.0, alpha=0.5):
        report = validate(fn, trials=150, seed=1)
        assert report.all_ok, fn.name
        assert report.monotone_witness is None
        assert report.convex_witness is None


def test_validate_catches_non_monotone():
    sp = uniform_probability(4)
    ctrl = non_monotone_control(sp)
    report = validate(ctrl, trials=200, seed=1)
    assert not report.monotone_ok
    assert report.monotone_witness is not None
    a, b, fa, fb = report.monotone_witness
    assert np.all(b >= a - 1e-12)
    assert fb < fa  # larger input, strictly smaller output
    # the squared-mean control is still convex
    assert report.convex_ok


def test_validate_needs_a_trial():
    # zero trials reported all_ok for the non-increasing control, and -1
    # failed inside numpy with "negative dimensions"
    ctrl = non_monotone_control(uniform_probability(3))
    for trials in (0, -1):
        with pytest.raises(ValueError, match="at least one trial"):
            validate(ctrl, trials=trials)


def test_catalog_members_are_labeled_increasing():
    sp = uniform_probability(3)
    cat = increasing_catalog(sp, beta=2.0, alpha=0.25)
    names = [fn.name for fn in cat]
    assert len(cat) == 4
    assert all(validate(fn).all_ok for fn in cat)
    assert any("entropic" in n for n in names)
    assert any("value_at_risk" in n for n in names)


# -- row kernels against the scalar reference ---------------------------------


@st.composite
def weighted_rows(draw):
    """A probability space with non-uniform weights and a (k, n) matrix of
    outcome rows; half the matrices draw from at most three values, so
    their rows hold ties."""
    n = draw(st.integers(1, 60))
    raw = draw(arrays(float, n, elements=st.floats(1e-3, 1.0)))
    space = MeasureSpace.finite(raw / raw.sum())
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3))
        entries = st.sampled_from(pool)
    else:
        entries = st.floats(-1e6, 1e6)
    return space, draw(arrays(float, (k, n), elements=entries))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=weighted_rows(), beta=st.floats(0.5, 2.0), alpha=st.floats(0.01, 1.0))
def test_evaluate_rows_matches_scalar_evaluate(case, beta, alpha):
    space, rows = case
    n = space.n_atoms
    for fn in increasing_catalog(space, beta=beta, alpha=alpha):
        got = fn.evaluate_rows(rows)
        assert got.shape == (len(rows),)
        for value, row in zip(got, rows):
            expected = fn.evaluate(Rv(space, row))
            # the two kernels sum n terms of size at most max|f| in different
            # orders, so each is within n * eps * max|f| of the exact sum
            bound = 4.0 * n * EPS * (1.0 + float(np.max(np.abs(row))))
            assert abs(value - expected) <= bound, fn.name


def scalar_validate(fn, trials, seed):
    """The trial loop ``validate`` replaced, on the same draws: the first
    monotone and convex violations, or None."""
    rng = np.random.default_rng(seed)
    n = fn.space.n_atoms
    a = rng.normal(0.0, 2.0, (trials, n))
    b = a + rng.exponential(1.0, (trials, n))
    c = rng.normal(0.0, 2.0, (trials, n))
    theta = rng.uniform(0.05, 0.95, trials)
    mono = conv = None
    for t in range(trials):
        fa, fb = fn.evaluate(Rv(fn.space, a[t])), fn.evaluate(Rv(fn.space, b[t]))
        if mono is None and fa > fb + 1e-9:
            mono = (a[t], b[t])
        mixed = theta[t] * a[t] + (1.0 - theta[t]) * c[t]
        mix = fn.evaluate(Rv(fn.space, mixed))
        fc = fn.evaluate(Rv(fn.space, c[t]))
        if conv is None and mix > theta[t] * fa + (1.0 - theta[t]) * fc + 1e-9:
            conv = (a[t], c[t])
    return mono, conv


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.integers(1, 60), trials=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1), skew=st.floats(0.0, 4.0))
def test_validate_agrees_with_scalar_loop(n, trials, seed, skew):
    raw = np.random.default_rng(seed).uniform(0.01, 1.0, n) ** skew
    space = MeasureSpace.finite(raw / raw.sum())
    # the bump sits on validate's first draw, so the fallback path (no row
    # kernel) meets it in its samples, mostly as a monotonicity violation
    first = np.random.default_rng(seed).normal(0.0, 2.0, (trials, n))[0]
    bumped = non_lsc_control(expectation(space), Rv(space, first))
    functionals = increasing_catalog(space) + [non_monotone_control(space),
                                               bumped]
    for fn in functionals:
        report = validate(fn, trials=trials, seed=seed)
        mono, conv = scalar_validate(fn, trials, seed)
        assert report.monotone_ok == (mono is None), fn.name
        assert report.convex_ok == (conv is None), fn.name
        for got, want in ((report.monotone_witness, mono),
                          (report.convex_witness, conv)):
            if want is not None:
                assert np.array_equal(got[0], want[0]), fn.name
                assert np.array_equal(got[1], want[1]), fn.name


def test_validate_refuses_a_stale_row_kernel():
    # replacing evaluate alone keeps the entropic kernel, which no longer
    # agrees; the sampled verdicts would be the old functional's
    sp = uniform_probability(4)
    ent = entropic(1.0, sp)
    flipped = replace(ent, evaluate=lambda f: -ent.evaluate(f))
    with pytest.raises(ValueError, match="evaluate_rows"):
        validate(flipped, trials=10)
    assert not validate(replace(flipped, evaluate_rows=None), trials=10).monotone_ok
