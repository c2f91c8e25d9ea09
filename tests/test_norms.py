"""Luxemburg and Amemiya norms, heart membership, dual pairings."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orliczkit import (
    MeasureSpace,
    NumericFailure,
    OrliczFunction,
    Rv,
    amemiya_norm,
    conjugate,
    dual_pairing,
    heart_member,
    indicator_norm,
    luxemburg_norm,
    modular,
    uniform_probability,
)
from orliczkit.norms import _indicator_norms
from orliczkit.specs import load_custom_table, parse_orlicz_spec

POWER2 = OrliczFunction.power(2.0)
STEP = OrliczFunction.linf_step()


def weighted_pnorm(space, values, p):
    """Independent oracle: for phi = t^p the Luxemburg norm is the weighted
    p-norm (sum w |f/lam|^p = 1 solves to lam = (sum w |f|^p)^(1/p))."""
    return float(np.sum(space.weights * np.abs(values) ** p) ** (1.0 / p))


def test_modular_values():
    sp = uniform_probability(4)
    f = Rv(sp, [1.0, 2.0, 2.0, 0.0])
    assert modular(f, 1.0, POWER2) == pytest.approx(9.0 / 4.0)
    assert modular(f, 3.0, POWER2) == pytest.approx(0.25)
    assert modular(f, 1.0, STEP) == math.inf  # values above the horizon
    assert modular(f, 2.0, STEP) == 0.0
    with pytest.raises(ValueError):
        modular(f, 0.0, POWER2)


MODULAR_KINDS = (
    OrliczFunction.power(2.5),
    OrliczFunction.scaled_power(1.5),
    OrliczFunction.linear(),
    OrliczFunction.exp_young(),
    OrliczFunction.exp_young_conjugate(),
    STEP,
    OrliczFunction.custom(lambda t: t * t + t ** 3, label="t^2 + t^3"),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), kind=st.integers(0, len(MODULAR_KINDS) - 1),
       n=st.integers(1, 9), lam=st.floats(1e-3, 1e3))
def test_modular_equals_the_checked_reference(data, kind, n, lam):
    # the unchecked kernel and the single dot product give the bits of the
    # checked evaluation with an explicit +inf scan; |f| / lam reaches
    # 8e5, where exp_young overflows to +inf, and linf_step's horizon
    phi = MODULAR_KINDS[kind]
    w = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
    v = data.draw(st.lists(st.floats(-800.0, 800.0), min_size=n, max_size=n))
    f = Rv(MeasureSpace.finite(w), v)
    vals = phi.values(np.abs(f.values) / lam)
    expected = (math.inf if np.any(np.isinf(vals))
                else float(np.dot(f.space.weights, vals)))
    assert modular(f, lam, phi).hex() == expected.hex()


def test_luxemburg_matches_weighted_pnorm():
    rng = np.random.default_rng(42)
    for p in (1.5, 2.0, 3.0):
        phi = OrliczFunction.power(p)
        for _ in range(25):
            w = rng.uniform(0.1, 3.0, 7)
            sp = MeasureSpace.finite(w)
            v = rng.normal(0.0, 5.0, 7)
            f = Rv(sp, v)
            expected = weighted_pnorm(sp, v, p)
            got = luxemburg_norm(f, phi).value
            assert abs(got - expected) <= 1e-8 * (1.0 + expected)


def test_luxemburg_step_is_weighted_sup_norm():
    sp = MeasureSpace.finite(np.ones(3))
    f = Rv(sp, [3.0, -1.0, 0.5])
    # smallest lam with all |f|/lam <= 1 is max|f|
    assert luxemburg_norm(f, STEP).value == pytest.approx(3.0, abs=1e-9)


def test_luxemburg_zero_and_scaling():
    sp = uniform_probability(3)
    assert luxemburg_norm(Rv(sp, [0.0] * 3), POWER2).value == 0.0
    f = Rv(sp, [1.0, -2.0, 0.5])
    n1 = luxemburg_norm(f, POWER2).value
    n3 = luxemburg_norm(3.0 * f, POWER2).value
    assert n3 == pytest.approx(3.0 * n1, rel=1e-9)


HOMOGENEITY_KINDS = (POWER2, OrliczFunction.power(1.5),
                     OrliczFunction.exp_young(),
                     OrliczFunction.exp_young_conjugate(), STEP)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(kind=st.integers(0, len(HOMOGENEITY_KINDS) - 1),
       log_c=st.floats(-20.0, 6.0), data=st.data())
def test_luxemburg_is_homogeneous_down_to_tiny_scales(kind, log_c, data):
    # the bracket shrinks to a width relative to the norm, with no absolute
    # floor, so a norm of 1e-20 is as accurate as a norm of 1
    phi = HOMOGENEITY_KINDS[kind]
    n = data.draw(st.integers(1, 6))
    w = data.draw(st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n))
    v = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 50.0),
                                     st.floats(-50.0, -0.01)),
                           min_size=n, max_size=n).filter(any))
    c = 10.0 ** log_c
    f = Rv(MeasureSpace.finite(w), v)
    want = c * luxemburg_norm(f, phi).value
    assert luxemburg_norm(c * f, phi).value == pytest.approx(want, rel=1e-9,
                                                             abs=0.0)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(p=st.sampled_from((1.2, 1.5, 2.0, 3.0)), log_m=st.floats(-40.0, 6.0))
# under an absolute floor of 1e-14 the first two were 42 % and 78 % off
@example(p=2.0, log_m=-28.0)
@example(p=2.0, log_m=-30.0)
@example(p=2.0, log_m=-300.0)
def test_power_indicator_norms_are_exact_down_to_tiny_masses(p, log_m):
    # one atom of mass m under t^p: m / lam^p = 1 at lam = m^(1/p)
    m = 10.0 ** log_m
    got = indicator_norm(OrliczFunction.power(p), m)
    assert got == pytest.approx(m ** (1.0 / p), rel=1e-9, abs=0.0)


def test_luxemburg_is_accurate_at_tiny_scales():
    # under an absolute floor of 1e-14 the norm at c = 1e-16 was 39 % high
    sp = uniform_probability(3)
    exact = math.sqrt(14.0 / 3.0)  # the weighted 2-norm of (1, 2, 3)
    for c in (1e-6, 1e-8, 1e-16, 1e-100):
        got = luxemburg_norm(Rv(sp, [c, 2.0 * c, 3.0 * c]), POWER2).value
        assert got == pytest.approx(c * exact, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("phi,mass,exact", [
    # e^x - 1 - x = 1/m and (1+x) log(1+x) - x = 1/m solved in 60-digit
    # decimals; the norm is 1/x
    (OrliczFunction.exp_young(), 1e12, 707106.9478532142),
    (OrliczFunction.exp_young_conjugate(), 2.889e18, 1201873537.273941),
    (OrliczFunction.exp_young_conjugate(), 1e12, 707106.6145199398),
], ids=["exp_young-1e12", "conjugate-2.889e18", "conjugate-1e12"])
def test_indicator_norms_of_heavy_masses_hold_their_width(phi, mass, exact):
    # an indicator of mass m has its switch at phi(1/lam) = 1/m, an argument
    # of 1e-6 or less here, where the closed forms of the exp pair cancel:
    # exp_young's norm at mass 1e12 was 1.2e-9 high, its conjugate's at
    # 2.889e18 1.1e-7 off, against the bisection's width of 1e-10
    got = indicator_norm(phi, mass)
    assert exact <= got <= exact * (1.0 + 1e-10)
    assert _indicator_norms(phi, [mass])[0] == got


def test_luxemburg_walks_below_1e_300():
    # the halving walk gave up at the absolute lo < 1e-300, so a norm below
    # 2e-300 raised NumericFailure (bracket collapse)
    sp = uniform_probability(3)
    exact = math.sqrt(14.0 / 3.0)
    for c in (1e-300, 1e-302, 1e-305):
        got = luxemburg_norm(Rv(sp, [c, 2.0 * c, 3.0 * c]), POWER2).value
        assert got == pytest.approx(c * exact, rel=1e-9, abs=0.0)
    one = MeasureSpace.finite([1.0])
    tiny = 8.550141232540677e-303
    got = luxemburg_norm(Rv(one, [tiny]), POWER2).value
    assert got == pytest.approx(tiny, rel=1e-9, abs=0.0)


def reference_luxemburg(f, phi):
    """The bisection that ``luxemburg_norm`` replays, one modular call per
    midpoint. Returns the report's ``(value, bracket, modular_at_value)``,
    the walk's steps and the bisection's modular calls."""
    top = f.sup_norm()
    if top == 0.0:
        return (0.0, (0.0, 0.0), 0.0), 0, 0

    def feasible(lam):
        return modular(f, lam, phi) <= 1.0

    lo = hi = top
    expand = calls = 0
    if feasible(top):
        while True:
            hi, lo = lo, lo * 0.5
            expand += 1
            if not lo > 1e-300 * top:
                raise NumericFailure("bracket collapse")
            if not feasible(lo):
                break
    else:
        while True:
            lo, hi = hi, hi * 2.0
            expand += 1
            if feasible(hi):
                break
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        calls += 1
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return (hi, (lo, hi), modular(f, hi, phi)), expand, calls


# 3 (t - 1)^+ vanishes on [0, 1], so its modular is 0 at the feasible end
# of many walks while the switch lies below it; the search's guess there,
# that end, is wrong, and only probing the guessed cell's lower end shows it
RAMP = OrliczFunction.custom(lambda t: 3.0 * max(0.0, t - 1.0), label="ramp")
REFERENCE_KINDS = (
    *(OrliczFunction.power(p) for p in (1.2, 1.5, 2.0, 3.0)),
    OrliczFunction.scaled_power(1.5), OrliczFunction.linear(),
    OrliczFunction.exp_young(), OrliczFunction.exp_young_conjugate(), STEP,
    conjugate(POWER2),
    OrliczFunction.custom(lambda t: t * t + t ** 3, label="t^2 + t^3"), RAMP,
)


def random_rv(rng, n_choices=(1, 2, 7, 64, 2048)):
    """Weights uniform or powers of two, values at a scale in 1e-300 ..
    1e300, or all equal, so dyadic weights put the switch on a cell end."""
    n = int(rng.choice(n_choices))
    w = (2.0 ** rng.integers(-8, 4, n) if rng.random() < 0.4
         else rng.uniform(0.01, 3.0, n))
    scale = 10.0 ** rng.uniform(-300.0, 300.0)
    v = (np.full(n, scale) if rng.random() < 0.2
         else rng.normal(0.0, 1.0, n) * scale)
    return Rv(MeasureSpace.finite(w), v)


@pytest.mark.parametrize("seed", range(16))
def test_luxemburg_equals_the_bisection_bit_for_bit(seed):
    # the replayed bisection is the bisection: value, bracket and modular at
    # the value, and never more than 2 modular calls past its count
    rng = np.random.default_rng([seed, 7041])
    for phi in REFERENCE_KINDS:
        f = random_rv(rng, (1, 2, 7, 64) if phi.kind == "custom" else
                      (1, 2, 7, 64, 2048))
        (value, bracket, at_value), expand, calls = reference_luxemburg(f, phi)
        rep = luxemburg_norm(f, phi)
        assert rep.value.hex() == value.hex(), phi
        assert [x.hex() for x in rep.bracket] == [x.hex() for x in bracket]
        assert rep.modular_at_value.hex() == at_value.hex()
        assert rep.iterations - expand <= calls + 2


@pytest.mark.parametrize("kinds,bound", [
    ((*(OrliczFunction.power(p) for p in (1.2, 1.5, 2.0, 3.0)),
      OrliczFunction.scaled_power(1.5), conjugate(POWER2)), 8),
    ((OrliczFunction.exp_young(), OrliczFunction.exp_young_conjugate()), 16),
], ids=["power", "exp"])
def test_luxemburg_search_takes_few_modular_calls(monkeypatch, kinds, bound):
    # the bisection takes 33-35 calls after the walk; the search 2 on powers
    # and about 5 on the exp pair
    calls = counting_modular(monkeypatch)
    rng = np.random.default_rng(1729)
    counts = []
    for phi in kinds:
        for _ in range(12):
            f = random_rv(rng)
            _, expand, reference_calls = reference_luxemburg(f, phi)
            calls.clear()
            rep = luxemburg_norm(f, phi)
            assert len(calls) == rep.iterations + 1
            counts.append(rep.iterations - expand)
            assert counts[-1] <= reference_calls + 2
    assert np.median(counts) <= bound


@pytest.fixture(scope="module")
def indicator_kinds(tmp_path_factory):
    table = tmp_path_factory.mktemp("young") / "table.csv"
    table.write_text("t,value\n0,0\n1,1\n2,4\n", encoding="utf-8")
    return [*(OrliczFunction.power(p) for p in (1.2, 1.5, 2.0, 3.0)),
            OrliczFunction.exp_young(), OrliczFunction.exp_young_conjugate(),
            STEP, conjugate(POWER2),
            OrliczFunction.custom(lambda t: t * t + t ** 3,
                                  label="t^2 + t^3"),
            parse_orlicz_spec(f"custom:file={table}")]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kind=st.integers(0, 9),
       pool=st.lists(st.floats(-12.0, 3.0), min_size=1, max_size=8),
       data=st.data())
def test_lockstep_indicator_norms_equal_the_scalar_reference(
        indicator_kinds, kind, pool, data):
    # repeats and any order: each mass takes its own scalar run's steps
    phi = indicator_kinds[kind]
    masses = [10.0 ** e for e in data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=40))]
    got = _indicator_norms(phi, masses)
    assert got.shape == (len(masses),)
    for m, norm in zip(masses, got):
        one_atom = Rv(MeasureSpace.finite([m]), [1.0])
        assert norm.hex() == luxemburg_norm(one_atom, phi).value.hex()


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_indicator_norms_equal_the_scalar_reference_seeded(
        indicator_kinds, seed):
    # the Hypothesis property above with numpy-drawn masses: powers of two,
    # which put the switch of t^2 on a cell end, and masses 1e-12 .. 1e3
    rng = np.random.default_rng([seed, 7041])
    masses = np.concatenate((2.0 ** rng.integers(-40, 20, 12),
                             10.0 ** rng.uniform(-12.0, 3.0, 12)))
    for phi in indicator_kinds:
        got = _indicator_norms(phi, masses)
        for m, norm in zip(masses, got):
            one_atom = Rv(MeasureSpace.finite([m]), [1.0])
            assert norm.hex() == luxemburg_norm(one_atom, phi).value.hex()


@pytest.mark.parametrize("kind", range(8))
def test_lockstep_indicator_norms_at_extreme_masses(indicator_kinds, kind):
    # the lockstep bisection has no float-exhaustion break: the walk keeps
    # lo above 1e-300, where the 1e-10 width test stops every mass before a
    # midpoint can round to an end, so the bits still match the scalar run.
    # Kind 8, the custom t^2 + t^3, overflows in Python's t ** 3 here.
    phi = indicator_kinds[kind]
    masses = [1e-300, 1e-200, 1e100, 1e300]
    got = _indicator_norms(phi, masses)
    for m, norm in zip(masses, got):
        one_atom = Rv(MeasureSpace.finite([m]), [1.0])
        assert norm.hex() == luxemburg_norm(one_atom, phi).value.hex()


@pytest.mark.parametrize("bad", [0.0, -1.0, -math.inf, math.nan, math.inf])
def test_indicator_norms_refuse_bad_masses(bad):
    with pytest.raises(ValueError, match="indicator mass"):
        indicator_norm(POWER2, bad)
    with pytest.raises(ValueError, match="indicator mass"):
        _indicator_norms(POWER2, [0.5, bad, 2.0])


def test_luxemburg_modular_at_value_near_one():
    # for finite continuous phi the modular at the norm sits at 1
    sp = uniform_probability(5)
    f = Rv(sp, [0.3, -1.2, 2.0, 0.0, 0.7])
    rep = luxemburg_norm(f, OrliczFunction.exp_young())
    assert rep.modular_at_value == pytest.approx(1.0, abs=1e-6)


def test_amemiya_single_atom_power2():
    # inf_t (1 + t^2)/t = 2 at t = 1, for f = indicator on a unit atom
    sp = MeasureSpace.finite(np.ones(1))
    f = Rv(sp, [1.0])
    assert amemiya_norm(f, POWER2).value == pytest.approx(2.0, abs=1e-9)
    assert luxemburg_norm(f, POWER2).value == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(vals=st.lists(st.floats(-30.0, 30.0, allow_subnormal=False),
                     min_size=3, max_size=3))
def test_amemiya_sandwich(vals):
    sp = uniform_probability(3)
    f = Rv(sp, vals)
    for phi in (POWER2, OrliczFunction.scaled_power(1.5),
                OrliczFunction.exp_young()):
        lux = luxemburg_norm(f, phi).value
        ame = amemiya_norm(f, phi).value
        assert lux - 1e-9 <= ame <= 2.0 * lux + 1e-9


@settings(max_examples=60, derandomize=True, deadline=None)
@given(atoms=st.integers(1, 64).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n),
    st.lists(st.floats(-30.0, 30.0, allow_subnormal=False),
             min_size=n, max_size=n))))
def test_amemiya_power2_is_twice_the_weighted_2norm(atoms):
    # inf_k (1 + k^2 |f|_2^2) / k is attained at k = 1/|f|_2, where it is
    # 2|f|_2; the oracle scales by max|f| so tiny entries do not underflow
    weights, vals = atoms
    sp = MeasureSpace.finite(weights)
    f = Rv(sp, vals)
    top = float(np.max(np.abs(vals)))
    expected = (0.0 if top == 0.0 else 2.0 * top * math.sqrt(
        float(np.dot(sp.weights, (np.asarray(vals) / top) ** 2))))
    assert amemiya_norm(f, POWER2).value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("phi", [POWER2, OrliczFunction.scaled_power(1.5),
                                 OrliczFunction.exp_young(),
                                 OrliczFunction.exp_young_conjugate()],
                         ids=lambda phi: phi.kind)
def test_amemiya_is_homogeneous_at_every_scale(phi):
    # the search runs in u / sup|f| with a width relative to its bracket;
    # with an absolute width below 1, the norm of c (1, 2, 3) under t^2 was
    # 6.0e-8 off at c = 1e-8 and 6.7 % at 1e-12
    sp = uniform_probability(3)
    f = Rv(sp, [1.0, 2.0, 3.0])
    unit = amemiya_norm(f, phi).value
    if phi is POWER2:  # inf_k (1 + k^2 |f|_2^2) / k = 2 |f|_2
        assert unit == pytest.approx(2.0 * math.sqrt(14.0 / 3.0), rel=1e-12)
    for c in 10.0 ** np.linspace(-300.0, 6.0, 52):
        got = amemiya_norm(Rv(sp, [c, 2.0 * c, 3.0 * c]), phi).value
        assert got == pytest.approx(c * unit, rel=1e-9, abs=0.0), c


# the table of test_amemiya_walks_out_of_an_infinite_start: a kink at 0.25
# and a wall at its last knot 0.5
KINKED = OrliczFunction.table([0.0, 0.25, 0.5], [0.0, 0.0625, 0.25],
                              horizon=0.5, label="kinked horizon")
# a linear tail from t = 1 with slope 3: its companion is 3 past 1, so its
# modular crosses 1 wherever f != 0 on more than a third of the mass
CROSSING = OrliczFunction.table([0.0, 1.0, 2.0], [0.0, 0.0, 3.0],
                                label="crossing linear tail")
# 2t: a limit slope of 2 and a companion of 0, so no switch at any mass
TWICE_LINEAR = OrliczFunction.table([0.0, 1.0], [0.0, 2.0],
                                    label="twice linear")
SQUARE = OrliczFunction.custom(lambda t: t * t, label="t^2")
COUNT_KINDS = {
    "power2": (POWER2, 4),
    "scaled_power": (OrliczFunction.scaled_power(1.5), 4),
    "exp_young": (OrliczFunction.exp_young(), 7),
    "exp_young_conjugate": (OrliczFunction.exp_young_conjugate(), 6),
    "conjugate_power2": (conjugate(POWER2), 4),
    "linear": (OrliczFunction.linear(), 0), "linf_step": (STEP, 3),
    "kinked_horizon": (KINKED, 35), "crossing_tail": (CROSSING, 3),
    "custom_square": (SQUARE, 18),
}
COUNT_F = Rv(MeasureSpace.finite([0.5, 1.0, 0.25, 2.0, 0.75, 1.5]),
             [1.0, -2.0, 0.5, 3.0, -0.25, 1.5])


def test_amemiya_evaluation_count():
    # the walk's steps, the search's calls and one call of phi: 4 on
    # powers, 6-7 on the exp pair, 0 for linear's limit and 35, the
    # bisection's pace, against the kinked table's wall; Brent's method made
    # 28-33 here on t^2, scaled_power(1.5) and exp_young, and makes 18 on
    # the custom t^2
    for label, (phi, count) in COUNT_KINDS.items():
        assert amemiya_norm(COUNT_F, phi).iterations == count, label


@pytest.mark.parametrize("label", COUNT_KINDS)
def test_amemiya_evaluates_its_kernels_iterations_plus_one_times(
        monkeypatch, label):
    # one rule on every path: the companion at top, the walk's steps, the
    # search's calls and one call of phi at the answer; Brent's objective
    # evaluations and one call at the answer; linear's limit reads only top
    calls = counting_modular(monkeypatch)
    rep = amemiya_norm(COUNT_F, COUNT_KINDS[label][0])
    assert len(calls) == rep.iterations + 1


def test_heart_member():
    sp = uniform_probability(3)
    f = Rv(sp, [5.0, -2.0, 0.1])
    # finite-everywhere phi puts every vector in the heart
    assert heart_member(f, POWER2)
    assert heart_member(f, OrliczFunction.exp_young())
    # the step's heart requires every multiple to have finite modular,
    # which fails for any nonzero vector
    assert not heart_member(f, STEP)
    assert heart_member(Rv(sp, [0.0] * 3), STEP)


def test_dual_pairing():
    sp = MeasureSpace.finite([0.5, 0.25, 0.25])
    f = Rv(sp, [2.0, -4.0, 0.0])
    g = Rv(sp, [1.0, 1.0, 9.0])
    assert dual_pairing(f, g) == pytest.approx(0.5 * 2.0 - 0.25 * 4.0)


def test_indicator_norm_closed_forms():
    # one synthetic atom of the given mass: modular is m * phi(1/lam)
    # power 2: lam = sqrt(m); step: lam = 1 for any mass
    assert indicator_norm(POWER2, 0.25) == pytest.approx(0.5, abs=1e-9)
    assert indicator_norm(STEP, 7.0) == pytest.approx(1.0, abs=1e-9)
    # exp_young at mass 1: solve expm1(1/lam) - 1/lam = 1, 1/lam = 1.1461932
    assert indicator_norm(OrliczFunction.exp_young(), 1.0) == pytest.approx(
        1.0 / 1.1461932206205825, rel=1e-8)
    with pytest.raises(ValueError):
        indicator_norm(POWER2, 0.0)


def test_norm_reports_expose_iterations():
    sp = uniform_probability(3)
    f = Rv(sp, [1.0, 2.0, 3.0])
    rep = luxemburg_norm(f, POWER2)
    assert rep.iterations > 0
    assert rep.bracket[0] <= rep.value <= rep.bracket[1]


def counting_modular(monkeypatch):
    """Record the scale of every modular call the norms make."""
    from orliczkit import norms
    calls = []
    kernel = norms._modular

    def counted(weights, absf, lam, phi):
        calls.append(lam)
        return kernel(weights, absf, lam, phi)

    monkeypatch.setattr(norms, "_modular", counted)
    return calls


@pytest.mark.parametrize("mass", [0.1, 10.0])  # the walk goes down, up
def test_luxemburg_evaluates_the_modular_at_top_once(monkeypatch, mass):
    # one call at top, then one per walk step and per probe of the search,
    # and the report reuses the probe at the value: iterations + 1; a walk
    # that re-tests top makes iterations + 2
    calls = counting_modular(monkeypatch)
    sp = MeasureSpace.finite(mass * np.array([0.25, 0.5, 0.25]))
    f = Rv(sp, [1.0, -2.0, 0.5])
    for phi in (POWER2, OrliczFunction.exp_young()):
        calls.clear()
        rep = luxemburg_norm(f, phi)
        assert (rep.value < 2.0) == (mass < 1.0)
        assert len(calls) == rep.iterations + 1
        assert 2.0 not in calls[1:]  # walk and search skip top


def test_luxemburg_counts_the_float_exhaustion_step(monkeypatch):
    # at sup|f| = 1e-320 the bracket is subnormal and its midpoint rounds to
    # an end before the relative width is met; the replay stops there with
    # no modular call, and the calls are iterations + 1, top included
    calls = counting_modular(monkeypatch)
    sp = MeasureSpace.finite([1.0, 0.5])
    rep = luxemburg_norm(Rv(sp, [1e-320, -5e-321]), POWER2)
    lo, hi = rep.bracket
    assert hi - lo > 1e-10 * hi
    assert 0.5 * (lo + hi) in (lo, hi)
    assert rep.modular_at_value <= 1.0
    assert len(calls) == rep.iterations + 1


def test_amemiya_walks_out_of_an_infinite_start(tmp_path):
    # the objective is +inf at the bracket's start s = 1, where |f| / sup|f|
    # reaches 1, past the table's horizon 0.5, so bracket_min walks right
    # before it brackets; the norm lies between the Luxemburg norm and twice
    # it, and at a dense grid's minimum
    path = tmp_path / "young.csv"
    path.write_text("t,value\n0,0\n0.25,0.0625\n0.5,0.25\n0.5,inf\n")
    phi = load_custom_table(str(path))
    f = Rv(uniform_probability(4), [1.0, -0.5, 0.25, 0.8])
    assert modular(f, f.sup_norm(), phi) == math.inf
    amemiya = amemiya_norm(f, phi).value
    lux = luxemburg_norm(f, phi).value
    assert lux == pytest.approx(2.0, rel=1e-9)
    assert amemiya == pytest.approx(2.259375, rel=1e-9)
    assert lux <= amemiya <= 2.0 * lux
    grid = min(u * (1.0 + modular(f, u, phi))
               for u in np.linspace(1.0, 8.0, 70001))
    assert grid - 1e-4 <= amemiya <= grid * (1.0 + 1e-9)


FAR_CASES = {
    # one atom of mass m under t^2: the norm is 2 sqrt(m), at s = 2^415 and
    # 2^498 from the start s = 1 of the search in u / sup|f|
    "mass_1e250": ([1e250], [1.0], 2e125),
    "mass_1e300": ([1e300], [1.0], 2e150),
    # a dominated atom sets sup|f| = 1e150; the norm 2 sqrt(1 + 1e-20)
    # lies at s = 2^-498
    "dominated_atom": ([1e-300, 1.0], [1e150, 1e-10], 2.0),
}


@pytest.mark.parametrize("phi", [POWER2, SQUARE], ids=["power2", "custom"])
@pytest.mark.parametrize("case", FAR_CASES)
def test_amemiya_finds_minimizers_far_from_the_start(phi, case):
    # bracket_min stopped its walk at 400 steps while still descending, and
    # Brent searched a bracket without the minimizer: 1.94e179 at mass
    # 1e300, 3.87e29 on the dominated atom, 1.9e4 times the Luxemburg norm
    # at mass 1e250
    weights, values, exact = FAR_CASES[case]
    f = Rv(MeasureSpace.finite(weights), values)
    ame = amemiya_norm(f, phi).value
    assert ame == pytest.approx(exact, rel=1e-9, abs=0.0)
    lux = luxemburg_norm(f, phi).value
    assert lux <= ame <= 2.0 * lux * (1.0 + 1e-9)


def custom_twin(phi):
    """``phi``'s values and horizon as a custom callable, whose Amemiya norm
    takes Brent's path: the scalar reference of the root."""
    return OrliczFunction.custom(phi, horizon=phi.horizon,
                                 label=f"custom({phi.label or phi.kind})",
                                 spot_check=False)


ROOT_KINDS = {
    **{f"power{p}": OrliczFunction.power(p) for p in (1.2, 2.0, 3.0)},
    "scaled_power": OrliczFunction.scaled_power(2.5, 3.0),
    "exp_young": OrliczFunction.exp_young(),
    "exp_young_conjugate": OrliczFunction.exp_young_conjugate(),
    "conjugate_power2": conjugate(POWER2), "linear": OrliczFunction.linear(),
    "linf_step": STEP, "kinked_horizon": KINKED, "crossing_tail": CROSSING,
    "twice_linear": TWICE_LINEAR,
    # table conjugates past a power tail and past a wall
    "conjugate_square_table": conjugate(OrliczFunction.table(
        [0.0, 1.0, 2.0], [0.0, 1.0, 4.0])),
    "conjugate_kinked_horizon": conjugate(KINKED),
}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("label", ROOT_KINDS)
def test_amemiya_root_matches_brent_on_a_custom_twin(label, seed):
    # the root and Brent's search of the same perspective agree within
    # 1e-9 relative, n = 1 .. 64 atoms, random weights and total mass, f
    # at scales 1e-300 .. 1e6; the sandwich holds to the bisection's width
    phi = ROOT_KINDS[label]
    rng = np.random.default_rng([seed, 3701])
    n = int(rng.integers(1, 65))
    f = Rv(MeasureSpace.finite(rng.uniform(0.01, 3.0, n) / n),
           rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-300.0, 6.0))
    ame = amemiya_norm(f, phi).value
    assert ame == pytest.approx(amemiya_norm(f, custom_twin(phi)).value,
                                rel=1e-9, abs=0.0)
    lux = luxemburg_norm(f, phi).value
    assert lux * (1.0 - 1e-9) <= ame <= 2.0 * lux * (1.0 + 1e-9)


def test_linear_tails_without_a_switch_take_the_limit():
    # the companion modular tends to the tail's level times the mass where
    # f != 0; at most 1, the norm is s_inf sum w |f| with no walk
    f = Rv(MeasureSpace.finite([0.1, 0.05, 0.2]), [1.0, -4.0, 0.0])
    for phi, slope in ((OrliczFunction.linear(), 1.0), (TWICE_LINEAR, 2.0),
                       (CROSSING, 3.0)):  # 3 * 0.15 <= 1
        rep = amemiya_norm(f, phi)
        assert rep.value == pytest.approx(slope * 0.3, rel=1e-15)
        assert (rep.iterations, rep.bracket) == (0, (0.0, 0.0))
        assert rep.modular_at_value == math.inf
    # on mass 0.5 the crossing tail's level 3 * 0.5 passes 1: a root
    g = Rv(MeasureSpace.finite([0.25, 0.25]), [1.0, -4.0])
    rep = amemiya_norm(g, CROSSING)
    assert rep.iterations > 0
    assert rep.value == pytest.approx(amemiya_norm(g, custom_twin(CROSSING))
                                      .value, rel=1e-9)


def exp_pair_companion(kind, t):
    """The companion of ``exp_young`` or its conjugate at a small t, from
    its series sum_k c_k t^k: (k - 1) / k! or (-1)^k / k, accurate to
    rounding where the closed forms cancel."""
    total, k = 0.0, 2
    while True:
        c = ((k - 1) / math.factorial(k) if kind == "exp_young"
             else (-1.0) ** k / k)
        term = c * t ** k
        if abs(term) < 1e-20 * total:
            return total + term
        total, k = total + term, k + 1


@pytest.mark.parametrize("phi", [OrliczFunction.exp_young(),
                                 OrliczFunction.exp_young_conjugate()],
                         ids=lambda phi: phi.kind)
def test_amemiya_roots_of_heavy_indicators_hold_their_width(phi):
    # one atom of mass 1e18 switches where C(1/u) = 1e-18, at 1/u near
    # 1.4e-9, where the companions' closed forms cancel to about 1.6e-7
    # relative; below TAYLOR_BELOW their series keep the bisection's cell
    # around the exact switch, found here by bisecting the series
    mass = 1e18
    lo_t, hi_t = 1e-10, 1e-8
    for _ in range(200):
        mid = 0.5 * (lo_t + hi_t)
        if mass * exp_pair_companion(phi.kind, mid) <= 1.0:
            lo_t = mid
        else:
            hi_t = mid
    switch = 1.0 / lo_t
    rep = amemiya_norm(Rv(MeasureSpace.finite([mass]), [1.0]), phi)
    lo, hi = rep.bracket
    assert lo * (1.0 - 1e-14) <= switch <= hi * (1.0 + 1e-14)
    assert hi - lo <= 1e-10 * hi


@pytest.mark.parametrize("seed", range(8))
def test_amemiya_sandwich_seeded(seed):
    # the Hypothesis sandwich above with numpy-drawn values, whose examples
    # do not move when a module gains a constant
    rng = np.random.default_rng([seed, 3702])
    f = Rv(uniform_probability(3), rng.uniform(-30.0, 30.0, 3))
    for phi in (POWER2, OrliczFunction.scaled_power(1.5),
                OrliczFunction.exp_young()):
        lux = luxemburg_norm(f, phi).value
        ame = amemiya_norm(f, phi).value
        assert lux - 1e-9 <= ame <= 2.0 * lux + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_amemiya_power2_is_twice_the_weighted_2norm_seeded(seed):
    # the Hypothesis property above with numpy draws: n = 1 .. 64 atoms,
    # weights 0.01 .. 10, values -30 .. 30
    rng = np.random.default_rng([seed, 3703])
    n = int(rng.integers(1, 65))
    sp = MeasureSpace.finite(rng.uniform(0.01, 10.0, n))
    vals = rng.uniform(-30.0, 30.0, n)
    top = float(np.max(np.abs(vals)))
    expected = 2.0 * top * math.sqrt(float(np.dot(sp.weights,
                                                  (vals / top) ** 2)))
    assert amemiya_norm(Rv(sp, vals), POWER2).value == pytest.approx(
        expected, rel=1e-9)
