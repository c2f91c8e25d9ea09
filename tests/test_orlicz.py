"""Young functions: evaluation, conjugation, doubling, slopes."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orliczkit import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    OrliczFunction,
    check_delta2,
    classify_space,
    conjugate,
    conjugate_value,
    limit_slope,
)
from orliczkit.orlicz import TAYLOR_BELOW
from orliczkit.specs import load_custom_table


def grid_conjugate(phi, s, t_max=60.0, n=240_001):
    """Independent brute-force oracle: max of s*t - phi(t) over a dense grid.

    Approaches the true supremum from below, so the closed form must
    dominate it and exceed it by no more than the grid resolution allows.
    """
    ts = np.linspace(0.0, t_max, n)
    vals = s * ts - phi.values(ts)
    vals = vals[np.isfinite(vals)]
    return max(float(vals.max()), 0.0)


# -- evaluation basics -------------------------------------------------------


def test_catalog_evaluations():
    assert OrliczFunction.power(2.0)(3.0) == 9.0
    assert OrliczFunction.scaled_power(3.0)(2.0) == pytest.approx(8.0 / 3.0)
    assert OrliczFunction.scaled_power(2.0, 0.25)(4.0) == 4.0
    assert OrliczFunction.linear()(7.5) == 7.5
    assert OrliczFunction.exp_young()(0.0) == 0.0
    assert OrliczFunction.exp_young()(1.0) == pytest.approx(math.e - 2.0)
    step = OrliczFunction.linf_step()
    assert step(1.0) == 0.0 and step(1.0000001) == math.inf


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        OrliczFunction.power(2.0)(-0.1)
    # the vectorized check covers every kind, the smallest negative included
    for phi in (OrliczFunction.power(2.5), OrliczFunction.scaled_power(1.5),
                OrliczFunction.linear(), OrliczFunction.exp_young(),
                OrliczFunction.exp_young_conjugate(),
                OrliczFunction.linf_step(),
                OrliczFunction.custom(lambda t: t * t)):
        with pytest.raises(ValueError, match="t >= 0"):
            phi.values(np.array([0.5, -5e-324]))


def test_constructor_validation():
    with pytest.raises(ValueError):
        OrliczFunction.power(1.0)
    with pytest.raises(ValueError):
        OrliczFunction.scaled_power(2.0, 0.0)
    with pytest.raises(ValueError):
        OrliczFunction.custom(lambda t: t * t, horizon=0.0)


def test_a_nan_horizon_is_refused():
    # nan <= 0 is false; the horizon would read as finite nowhere
    with pytest.raises(ValueError, match="horizon must be positive"):
        OrliczFunction.custom(lambda t: t * t, horizon=math.nan)


@pytest.mark.parametrize("p, c", [
    (math.inf, None), (1e300, None), (2.0, math.inf), (2.0, 1e300),
    (2.0, 1e-320), (math.nan, None), (2.0, math.nan), (0.0, None)])
def test_powers_without_a_power_conjugate_are_refused(p, c):
    # the conjugate c' s**q needs a finite q > 1 and c' in (0, inf)
    with pytest.raises(ValueError):
        OrliczFunction.scaled_power(p, c)
    if c is None:
        with pytest.raises(ValueError):
            OrliczFunction.power(p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scalar", [np.float64, float])
def test_a_numpy_scalar_power_is_refused_without_a_warning(scalar):
    # (c p)**(-q) overflows: in numpy arithmetic it warned and read inf
    with pytest.raises(ValueError, match="not a power"):
        OrliczFunction.scaled_power(np.float64(2.0), scalar(1e-300))
    accepted = OrliczFunction.scaled_power(np.float64(2.5), scalar(3.0))
    assert (accepted.p, accepted.scale) == (2.5, 3.0)
    assert type(OrliczFunction.scaled_power(np.float64(2.5)).scale) is float


@pytest.mark.parametrize("seed", range(2))
def test_accepted_powers_conjugate_twice_within_rounding(seed):
    # numpy-seeded: p - 1 log-uniform on [1e-17, 1e17], c log-uniform on
    # [1e-330, 1e308]. Every accepted power conjugates twice without raising
    # and comes back to (p, c). q = p / (p - 1) is rounded, and a relative
    # error d in p moves log c by about d (1 + |log c|); a subnormal scale
    # keeps u(x) = 2**-1075 / x of relative precision, and c' carries it
    # into log c'' times about p. The bounds:
    #   |p'' / p - 1| <= 2 eps (p + q),
    #   |log(c'' / c)| <= 4 (eps (p + q) (1 + |log c|) + p u(c') + u(c)),
    # with u(x) = 0 for a normal x; over 476,750 accepted pairs at 20 seeds
    # the largest errors were 0.75 eps (p + q) and 1.04 times the bracket.
    # A scale whose direct product has every factor and the result normal
    # is that product, bit for bit.
    rng = np.random.default_rng([32, seed])
    eps = float(np.finfo(float).eps)
    tiny = float(np.finfo(float).tiny)

    def u(x):
        return 0.5 * (2.0 ** -1074 / x) if x < tiny else 0.0

    m = 10_000
    accepted = 0
    for a, c in zip((10.0 ** rng.uniform(-17.0, 17.0, m)).tolist(),
                    (10.0 ** rng.uniform(-330.0, 308.0, m)).tolist()):
        p = 1.0 + a
        try:
            phi = OrliczFunction.scaled_power(p, c)
        except ValueError:
            continue
        accepted += 1
        c = phi.scale
        psi = conjugate(phi)
        back = conjugate(psi)
        q = psi.p
        assert (psi.kind, back.kind) == ("scaled_power", "scaled_power")
        assert q == p / (p - 1.0)
        assert abs(back.p / p - 1.0) <= 2.0 * eps * (p + q)
        bound = 4.0 * (eps * (p + q) * (1.0 + abs(math.log(c)))
                       + p * u(psi.scale) + u(c))
        assert abs(math.log(back.scale / c)) <= bound
        try:
            factors = (c * p, c * (p - 1.0), (c * p) ** -q)
        except OverflowError:
            continue
        direct = factors[1] * factors[2]
        if all(tiny <= x < math.inf for x in (*factors, direct)):
            assert psi.scale == direct
    assert accepted > m // 3


def test_a_power_barely_above_one_has_an_unbounded_doubling_constant():
    for phi in (OrliczFunction.power(1.0000001),
                OrliczFunction.scaled_power(1.0000001)):
        psi = conjugate(phi)
        assert psi.p == pytest.approx(1.0000001e7)
        verdict = check_delta2(psi, "at_infinity")
        assert (verdict.status, verdict.k) == (HOLDS, math.inf)


def test_vectorized_matches_scalar():
    ts = np.array([0.0, 0.3, 1.0, 2.5, 10.0])
    for phi in (OrliczFunction.power(2.5), OrliczFunction.exp_young(),
                OrliczFunction.linf_step(), OrliczFunction.linear()):
        expected = [phi(float(t)) for t in ts]
        got = phi.values(ts).tolist()
        assert got == pytest.approx(expected, rel=1e-15)


CATALOG_KINDS = [
    ("power_2", OrliczFunction.power(2.0)),
    ("conjugate_of_power_2", conjugate(OrliczFunction.power(2.0))),
    ("scaled_power_2.5_c4", OrliczFunction.scaled_power(2.5, 4.0)),
    ("conjugate_of_scaled_power_2.5_c4",
     conjugate(OrliczFunction.scaled_power(2.5, 4.0))),
    ("exp_young", OrliczFunction.exp_young()),
    ("exp_young_conjugate", OrliczFunction.exp_young_conjugate()),
    ("linear", OrliczFunction.linear()),
    ("linf_step", OrliczFunction.linf_step()),
]


@pytest.mark.parametrize("phi", [phi for _, phi in CATALOG_KINDS],
                         ids=[name for name, _ in CATALOG_KINDS])
def test_scalar_calls_run_the_array_kernel_bit_for_bit(phi):
    # one kernel per kind: a scalar call gives the bits that values gives,
    # on uniform draws and at the kernels' edges: the Taylor threshold of the
    # exp pair, the step's wall at 1, the overflow of exp near 709.78 and
    # the end of the float range
    rng = np.random.default_rng(30)
    edges = [0.0, 5e-324, TAYLOR_BELOW, 1.0, 709.782712893384, 1e308]
    edges += [np.nextafter(x, d) for x in edges[2:5] for d in (0.0, 2e308)]
    ts = np.concatenate((rng.uniform(0.0, 5.0, 100_000), edges,
                         np.linspace(700.0, 720.0, 81)))
    array = phi.values(ts)
    scalar = np.array([phi(t) for t in ts.tolist()])
    mismatch = np.flatnonzero(scalar.view(np.int64) != array.view(np.int64))
    assert mismatch.size == 0, (ts[mismatch[:5]], scalar[mismatch[:5]],
                                array[mismatch[:5]])


# -- conjugation -------------------------------------------------------------


def test_conjugate_power_pairs_closed_form():
    # stationarity of s*t - t^3 at s = 3 t^2 gives, at s = 2,
    # the supremum (4/3) * sqrt(2/3) = 1.0886621079036347
    psi = conjugate(OrliczFunction.power(3.0))
    assert psi.kind == "scaled_power"
    assert psi.p == pytest.approx(1.5)
    assert psi(2.0) == pytest.approx(1.0886621079036347, abs=1e-12)

    # t^2 pairs with s^2/4: stationarity s = 2t
    psi2 = conjugate(OrliczFunction.power(2.0))
    assert psi2(3.0) == pytest.approx(2.25, abs=0.0)

    # the normalized family t^p/p maps to s^q/q
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        psi = conjugate(OrliczFunction.scaled_power(p))
        assert psi.p == pytest.approx(q)
        assert psi.scale == pytest.approx(1.0 / q)


def test_conjugate_against_grid_oracle():
    for phi in (OrliczFunction.power(2.0), OrliczFunction.power(3.0),
                OrliczFunction.scaled_power(1.5), OrliczFunction.exp_young()):
        psi = conjugate(phi)
        for s in (0.0, 0.5, 1.0, 2.0, 4.0):
            lower = grid_conjugate(phi, s)
            assert lower <= psi(s) + 1e-9
            assert psi(s) - lower <= 1e-5


def test_conjugate_exp_young_stationarity():
    # exp(t) - 1 = s at t = log(1+s); value (1+s)log(1+s) - s
    psi = conjugate(OrliczFunction.exp_young())
    assert psi(2.0) == pytest.approx(3.0 * math.log(3.0) - 2.0, abs=1e-14)
    assert psi(0.0) == 0.0


def test_exp_young_conjugate_is_a_vectorized_catalog_kind():
    psi = conjugate(OrliczFunction.exp_young())
    assert (psi.kind, psi.label) == ("exp_young_conjugate",
                                     "exp_young_conjugate")
    assert conjugate(psi).kind == "exp_young"
    s = np.concatenate(([0.0], np.geomspace(1e-12, 1e6, 4001),
                        np.linspace(0.0, 1e6, 4001)))
    scalar = np.array([(1.0 + x) * math.log1p(x) - x for x in s])
    vec = psi.values(s)
    assert vec[0] == 0.0
    # numpy's and libm's log1p may differ in the last bit, and the
    # subtraction cancels near 0, so the bound scales with the two terms
    terms = (1.0 + s) * np.log1p(s) + s
    assert np.all(np.abs(vec - scalar) <= 8.0 * np.finfo(float).eps * terms)
    # a scalar call runs the vector kernel
    assert all(psi(x) == v for x, v in zip(s.tolist(), vec.tolist()))


def exact_young(kind, t):
    """``exp_young`` or its conjugate at ``t``, in 320-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 320
        d = Decimal(t)
        if kind == "exp_young":
            return float(d.exp() - 1 - d)
        return float((1 + d) * (1 + d).ln() - d)


@pytest.mark.parametrize("phi", [OrliczFunction.exp_young(),
                                 OrliczFunction.exp_young_conjugate()],
                         ids=lambda phi: phi.kind)
def test_exp_young_pair_is_accurate_at_small_arguments(phi):
    # the closed forms cancel below 1: at t = 1e-8 expm1(t) - t kept 9
    # digits, and at 1e-16 the conjugate's closed form was 2.8 times its
    # value off. With the Taylor branch every value is within 3e-16
    # relative below TAYLOR_BELOW and 3e-12 above it, scalar and vector
    # alike, and the kernel is nondecreasing
    t = np.concatenate((np.geomspace(1e-140, 50.0, 1201),
                        TAYLOR_BELOW * np.linspace(0.99, 1.01, 41)))
    t.sort()
    vec = phi.values(t)
    exact = np.array([exact_young(phi.kind, x) for x in t])
    rel = np.abs(vec - exact) / exact
    below = t < TAYLOR_BELOW
    assert rel[below].max() <= 3e-16
    assert rel[~below].max() <= 3e-12
    assert np.all(np.diff(vec) >= 0.0)
    assert all(phi(float(x)) == v for x, v in zip(t[::37], vec[::37]))


def exact_companion(kind, t):
    """The companion t Phi'(t) - Phi(t) of ``exp_young``, (t - 1)(e^t - 1)
    + t, or of its conjugate, t - log(1 + t), in 320-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 320
        d = Decimal(t)
        if kind == "exp_young":
            return float((d - 1) * (d.exp() - 1) + d)
        return float(d - (1 + d).ln())


@pytest.mark.parametrize("phi", [OrliczFunction.exp_young(),
                                 OrliczFunction.exp_young_conjugate()],
                         ids=lambda phi: phi.kind)
def test_exp_young_pair_companions_are_accurate_at_small_arguments(phi):
    # the companions' closed forms cancel below 1 as the functions' do;
    # their Taylor branch below TAYLOR_BELOW keeps them within 3e-16
    # relative there, 3e-12 above, and nondecreasing
    t = np.concatenate((np.geomspace(1e-140, 50.0, 1201),
                        TAYLOR_BELOW * np.linspace(0.99, 1.01, 41)))
    t.sort()
    vec = phi._companion(t)
    exact = np.array([exact_companion(phi.kind, x) for x in t])
    rel = np.abs(vec - exact) / exact
    below = t < TAYLOR_BELOW
    assert rel[below].max() <= 3e-16
    assert rel[~below].max() <= 3e-12
    assert np.all(np.diff(vec) >= 0.0)


COMPANION_KINDS = [
    *CATALOG_KINDS,
    ("square_table", OrliczFunction.table([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])),
    ("kinked_horizon", OrliczFunction.table([0.0, 0.25, 0.5],
                                            [0.0, 0.0625, 0.25], horizon=0.5)),
    ("crossing_tail", OrliczFunction.table([0.0, 1.0, 2.0], [0.0, 0.0, 3.0])),
]
COMPANION_KINDS += [(f"conjugate_of_{name}", conjugate(phi))
                    for name, phi in COMPANION_KINDS[-3:]]


@pytest.mark.parametrize("phi", [phi for _, phi in COMPANION_KINDS],
                         ids=[name for name, _ in COMPANION_KINDS])
def test_companions_are_t_times_the_left_derivative_less_phi(phi):
    # C(t) = t Phi'(t-) - Phi(t) against a left difference quotient on a
    # grid holding every kink (knots, chord slopes, walls at 0.5 and 1); it
    # is nondecreasing and +inf exactly where Phi is. A quotient that
    # straddles a kink reads a slope between the two sides, so each t is
    # checked against the quotient over [t (1 - 1e-7), t] only when it
    # agrees with the one over [t (1 - 2e-7), t (1 - 1e-7)]
    t = np.unique(np.concatenate((np.linspace(0.0, 6.0, 1201),
                                  [0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0])))
    c = phi._companion(t)
    assert c[0] == 0.0
    assert np.all(np.isinf(c) == np.isinf(phi.values(t)))
    finite = c[np.isfinite(c)]
    assert np.all(np.diff(finite) >= -1e-12 * np.maximum(1.0, finite[1:]))
    for x, cx in zip(t[1:], c[1:]):
        if not math.isfinite(cx):
            continue
        at, near, far = phi.values(np.array([x, x * (1 - 1e-7),
                                             x * (1 - 2e-7)]))
        slope = (at - near) / (x * 1e-7)
        if abs(slope - (near - far) / (x * 1e-7)) > 1e-5 * max(1.0, slope):
            continue
        assert cx == pytest.approx(x * slope - at, rel=1e-5, abs=1e-5)


def test_exp_young_conjugate_exact_verdicts():
    psi = OrliczFunction.exp_young_conjugate()
    for regime in ("at_zero", "at_infinity"):
        v = check_delta2(psi, regime)
        assert (v.status, v.k, v.exact) == (HOLDS, 4.0, True)
    # s psi'(s) <= 2 psi(s) integrates to psi(2u) <= 4 psi(u) for every u
    u = np.geomspace(1e-6, 1e12, 2001)
    assert np.all(psi.values(2.0 * u) <= 4.0 * psi.values(u))
    slope = limit_slope(psi)
    assert slope.is_infinite and not slope.estimated
    exp = classify_space(OrliczFunction.exp_young(), finite_measure=False)
    assert all(v.exact and v.status == HOLDS for v in exp.conjugate_delta2)


def test_conjugate_linear_step_pair():
    # linear is a table and linf_step its conjugate, so conjugating either
    # gives the other's values and horizon, and each is what it names
    ts = np.concatenate((np.linspace(0.0, 3.0, 301),
                         [np.nextafter(1.0, 2.0), 1e300, math.inf]))
    step = np.where(ts <= 1.0, 0.0, math.inf)
    for made, named, expected in (
            (conjugate(OrliczFunction.linear()), OrliczFunction.linf_step(),
             step),
            (conjugate(OrliczFunction.linf_step()), OrliczFunction.linear(),
             ts)):
        assert made.horizon == named.horizon
        assert np.array_equal(made.values(ts), expected)
        assert np.array_equal(named.values(ts), expected)
        assert [made(t) for t in ts.tolist()] == expected.tolist()
        assert [named(t) for t in ts.tolist()] == expected.tolist()
    assert OrliczFunction.linf_step().horizon == 1.0
    assert OrliczFunction.linear().is_finite_everywhere
    # sup_t (s*t - t): zero up to slope 1, then unbounded
    assert conjugate_value(OrliczFunction.linear(), 0.5) == 0.0
    assert conjugate_value(OrliczFunction.linear(), 1.0) == 0.0
    assert conjugate_value(OrliczFunction.linear(), 1.5) == math.inf
    # sup over t <= 1 of s*t is s itself
    for s in (0.0, 0.7, 3.0):
        assert conjugate_value(OrliczFunction.linf_step(), s) == pytest.approx(s)


def test_conjugate_of_custom_is_numeric_pointwise():
    phi = OrliczFunction.custom(lambda t: t * t, label="square")
    psi = conjugate(phi)
    for s in (0.0, 1.0, 3.0):
        assert psi(s) == pytest.approx(s * s / 4.0, abs=1e-8)


CUBE_THIRD = OrliczFunction.custom(lambda t: t ** 3 / 3.0, label="t^3/3")


@settings(max_examples=120, derandomize=True, deadline=None)
@given(s=st.floats(1e-2, 1e2),
       case=st.sampled_from(("p1.5", "p2", "p3", "cube")))
def test_numeric_conjugate_approaches_exact_from_below(s, case):
    # scaled_power(p) = t^p/p has conjugate s^q/q with 1/p + 1/q = 1, and
    # the custom t^3/3 has (2/3) s^(3/2); the search only ever evaluates
    # s*t - phi(t), so it never overshoots beyond the rounding of that
    # difference and of the exact formula (a few ulps, taken as 8 eps)
    if case == "cube":
        phi, exact = CUBE_THIRD, (2.0 / 3.0) * s ** 1.5
    else:
        p = {"p1.5": 1.5, "p2": 2.0, "p3": 3.0}[case]
        q = p / (p - 1.0)
        phi, exact = OrliczFunction.scaled_power(p), s ** q / q
    got = conjugate_value(phi, s)
    assert got <= exact * (1.0 + 8.0 * np.finfo(float).eps)
    assert got >= exact * (1.0 - 1e-9)


def test_conjugate_rejects_negative_argument():
    with pytest.raises(ValueError):
        conjugate_value(OrliczFunction.power(2.0), -1.0)
    with pytest.raises(ValueError):
        conjugate(OrliczFunction.exp_young())(-0.5)


def test_conjugate_order_reversal():
    # 0.5 t^2 <= t^2 everywhere, so the conjugates swap order
    small = OrliczFunction.scaled_power(2.0, 0.5)
    big = OrliczFunction.power(2.0)
    psi_small, psi_big = conjugate(small), conjugate(big)
    for s in np.linspace(0.0, 8.0, 17):
        assert psi_big(float(s)) <= psi_small(float(s)) + 1e-12


@settings(max_examples=200, derandomize=True)
@given(t=st.floats(0.0, 50.0), s=st.floats(0.0, 50.0))
def test_youngs_inequality_property(t, s):
    for phi in (OrliczFunction.power(2.0), OrliczFunction.scaled_power(3.0),
                OrliczFunction.linear(), OrliczFunction.exp_young(),
                OrliczFunction.linf_step()):
        psi = conjugate(phi)
        assert t * s <= phi(t) + psi(s) + 1e-9


# -- doubling condition ------------------------------------------------------


def test_delta2_power_family_exact():
    v = check_delta2(OrliczFunction.power(2.0), "at_infinity")
    assert (v.status, v.k, v.exact) == (HOLDS, 4.0, True)
    v = check_delta2(OrliczFunction.scaled_power(3.0), "at_zero")
    assert (v.status, v.k) == (HOLDS, 8.0)
    v = check_delta2(OrliczFunction.linear(), "at_infinity")
    assert (v.status, v.k) == (HOLDS, 2.0)


def test_delta2_exp_young():
    at0 = check_delta2(OrliczFunction.exp_young(), "at_zero")
    # the doubling ratio increases toward (e^2-3)/(e-2) on u <= 1
    assert at0.status == HOLDS
    assert at0.k == pytest.approx((math.exp(2.0) - 3.0) / (math.e - 2.0))
    atinf = check_delta2(OrliczFunction.exp_young(), "at_infinity")
    assert atinf.status == FAILS
    assert atinf.witness == 32.0


def test_delta2_step():
    at0 = check_delta2(OrliczFunction.linf_step(), "at_zero")
    assert at0.status == HOLDS  # vacuous: the function vanishes near zero
    atinf = check_delta2(OrliczFunction.linf_step(), "at_infinity")
    assert atinf.status == FAILS
    # doubling u = 0.75 lands beyond the finiteness horizon
    assert atinf.witness == 0.75


def test_delta2_custom_heuristic():
    quad = OrliczFunction.custom(lambda t: 3.0 * t * t, label="3t^2")
    assert check_delta2(quad, "at_infinity").status == HOLDS
    assert check_delta2(quad, "at_zero").status == HOLDS

    def runaway(t):
        # t^2 below 1, exp((ln t)^2 + 2 ln t) above: convex, slope-matched
        # at t = 1, doubling ratio exp(ln 2 * (2 ln u + ln 2) + 2 ln 2)
        # grows without bound yet stays finite in doubles through 2^31
        if t <= 1.0:
            return t * t
        lt = math.log(t)
        return math.exp(lt * lt + 2.0 * lt)

    v = check_delta2(OrliczFunction.custom(runaway, label="superquadratic"),
                     "at_infinity")
    assert v.status == FAILS

    with pytest.raises(ValueError):
        check_delta2(quad, "somewhere")


# -- limit slopes and space classification -----------------------------------


def test_limit_slopes():
    assert limit_slope(OrliczFunction.power(1.5)).is_infinite
    assert limit_slope(OrliczFunction.exp_young()).is_infinite
    assert limit_slope(OrliczFunction.linf_step()).is_infinite
    lin = limit_slope(OrliczFunction.linear())
    assert (lin.is_infinite, lin.limit) == (False, 1.0)
    ramp = limit_slope(OrliczFunction.custom(
        lambda t: max(0.0, 2.0 * t - 1.0), label="ramp"))
    assert not ramp.is_infinite
    assert ramp.limit == pytest.approx(2.0, rel=1e-6)


def test_classify_power_reflexive():
    cls = classify_space(OrliczFunction.power(2.0), finite_measure=True)
    assert cls.reflexive == HOLDS
    assert cls.order_continuous == HOLDS
    assert cls.c_property_for_sigma_n == HOLDS


def test_classify_finite_measure_failures():
    step = classify_space(OrliczFunction.linf_step(), finite_measure=True)
    assert step.reflexive == FAILS
    exp = classify_space(OrliczFunction.exp_young(), finite_measure=True)
    assert exp.reflexive == FAILS
    assert exp.order_continuous == FAILS


def test_classify_infinite_measure_uses_both_regimes():
    cls = classify_space(OrliczFunction.power(2.0), finite_measure=False)
    assert cls.reflexive == HOLDS
    assert len(cls.phi_delta2) == 2
    # linear: own doubling holds, conjugate's fails at infinity, so the
    # standing hypothesis breaks and the last verdict degrades
    lin = classify_space(OrliczFunction.linear(), finite_measure=False)
    assert lin.order_continuous == HOLDS
    assert lin.reflexive == FAILS
    assert lin.c_property_for_sigma_n == INCONCLUSIVE


def verdicts(cls):
    return (cls.reflexive, cls.order_continuous, cls.c_property_for_sigma_n,
            [v.status for v in cls.phi_delta2],
            [v.status for v in cls.conjugate_delta2])


@pytest.mark.parametrize("finite_measure", [True, False])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
def test_classify_custom_power_matches_catalog(p, finite_measure):
    # the numeric conjugate of t^p/p peaks at t = s^(1/(p-1)), far past 2^40
    # at the doubling heuristic's probes when p is near 1
    custom = OrliczFunction.custom(lambda t: t ** p / p, label=f"t^{p}/{p}")
    assert (verdicts(classify_space(custom, finite_measure))
            == verdicts(classify_space(OrliczFunction.scaled_power(p),
                                       finite_measure)))


@pytest.mark.parametrize("finite_measure", [True, False])
def test_classify_custom_tables(tmp_path, finite_measure):
    def table(text):
        path = tmp_path / "young.csv"
        path.write_text(text)
        return load_custom_table(str(path))

    # linear growth: the conjugate is +inf beyond slope 1, as for linear()
    assert (verdicts(classify_space(table("t,value\n0,0\n1,1\n2,2\n"), finite_measure))
            == verdicts(classify_space(OrliczFunction.linear(),
                                       finite_measure)))
    # the tail continues as t^1.42
    tail = classify_space(table("t,value\n0,0\n1,0.5\n2,1.5\n4,4\n"), finite_measure)
    assert (tail.reflexive, tail.order_continuous,
            tail.c_property_for_sigma_n) == (HOLDS, HOLDS, HOLDS)


def test_conjugate_value_past_two_to_the_forty():
    # the maximizer t = s^2 = 1e12 lies beyond 2^40
    phi = OrliczFunction.custom(lambda t: t ** 1.5 / 1.5)
    assert conjugate_value(phi, 1e6) == pytest.approx(1e18 / 3.0, rel=1e-9)


def counted(fn):
    """``fn`` with a one-item list counting its calls."""
    calls = [0]

    def ev(t):
        calls[0] += 1
        return fn(t)
    return ev, calls


def test_conjugate_value_beyond_the_limit_slope_stops_at_the_slope_probes():
    # the ramp max(0, 2t - 1) has limit slope 2: at s = 3 the ray still rises
    # at limit_slope's last probe point, 2^50, where the slope reads finite,
    # so the value is +inf after 53 calls (1,076 walking the float range)
    ev, calls = counted(lambda t: max(0.0, 2.0 * t - 1.0))
    ramp = OrliczFunction.custom(ev, label="ramp", spot_check=False)
    assert conjugate_value(ramp, 3.0) == math.inf
    assert calls[0] <= 64
    # direct calls agree with conjugate() on both sides of the slope
    psi = conjugate(ramp)
    for s in (0.0, 0.5, 1.9, 2.1, 3.0, 1e3):
        assert conjugate_value(ramp, s) == psi(s)
    # a call whose ray turns down below 2^50 makes no extra calls: t^2 at
    # s = 3 takes 9
    ev, calls = counted(lambda t: t * t)
    square = OrliczFunction.custom(ev, label="square", spot_check=False)
    assert conjugate_value(square, 3.0) == pytest.approx(2.25, rel=1e-12)
    assert calls[0] == 9
    # a superlinear ray rising past 2^50 goes on to its maximizer: t^1.2/1.2
    # at s = 1e4 peaks at t = 1e20
    superlinear = OrliczFunction.custom(lambda t: t ** 1.2 / 1.2)
    assert conjugate_value(superlinear, 1e4) == pytest.approx(1e24 / 6.0,
                                                             rel=1e-9)


def test_custom_conjugate_is_infinite_beyond_its_horizon_without_search():
    calls = 0

    def ev(t):
        nonlocal calls
        calls += 1
        return max(0.0, 2.0 * t - 1.0)

    psi = conjugate(OrliczFunction.custom(ev, label="ramp"))
    assert psi.horizon == pytest.approx(2.0, rel=1e-6)
    calls = 0
    assert psi(3.0) == math.inf
    assert calls == 0
    at_inf = check_delta2(psi, "at_infinity")
    assert (at_inf.status, at_inf.exact) == (FAILS, True)
    assert at_inf.witness == 0.75 * psi.horizon
