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
from orliczkit.specs import parse_orlicz_spec

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


def test_amemiya_evaluation_count():
    # iterations counts every objective evaluation, bracketing included:
    # Brent's method makes 28-33 here, a golden-section search made 56-58
    sp = MeasureSpace.finite([0.5, 1.0, 0.25, 2.0, 0.75, 1.5])
    f = Rv(sp, [1.0, -2.0, 0.5, 3.0, -0.25, 1.5])
    for phi in (POWER2, OrliczFunction.scaled_power(1.5),
                OrliczFunction.exp_young()):
        assert amemiya_norm(f, phi).iterations <= 45


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


@pytest.mark.parametrize("mass", [0.1, 10.0])  # the walk goes down, up
def test_luxemburg_evaluates_the_modular_at_top_once(monkeypatch, mass):
    # one call at top, one per walk step and bisection step, one for the
    # report: iterations + 2; a walk that re-tests top makes iterations + 3
    from orliczkit import norms
    calls = []

    def counted(f, lam, phi):
        calls.append(lam)
        return modular(f, lam, phi)

    monkeypatch.setattr(norms, "modular", counted)
    sp = MeasureSpace.finite(mass * np.array([0.25, 0.5, 0.25]))
    f = Rv(sp, [1.0, -2.0, 0.5])
    for phi in (POWER2, OrliczFunction.exp_young()):
        calls.clear()
        rep = luxemburg_norm(f, phi)
        assert (rep.value < 2.0) == (mass < 1.0)
        assert len(calls) == rep.iterations + 2
        assert 2.0 not in calls[1:-1]  # walk and bisection skip top


def test_luxemburg_counts_the_float_exhaustion_step(monkeypatch):
    # at sup|f| = 1e-320 the bracket is subnormal and its midpoint rounds to
    # an end before the relative width is met; that step counts as an
    # iteration but makes no modular call, so the calls are iterations + 1
    from orliczkit import norms
    calls = []

    def counted(f, lam, phi):
        calls.append(lam)
        return modular(f, lam, phi)

    monkeypatch.setattr(norms, "modular", counted)
    sp = MeasureSpace.finite([1.0, 0.5])
    rep = luxemburg_norm(Rv(sp, [1e-320, -5e-321]), POWER2)
    lo, hi = rep.bracket
    assert hi - lo > 1e-10 * hi
    assert 0.5 * (lo + hi) in (lo, hi)
    assert rep.modular_at_value <= 1.0
    assert len(calls) == rep.iterations + 1
