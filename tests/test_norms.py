"""Luxemburg and Amemiya norms, heart membership, dual pairings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orliczkit import (
    MeasureSpace,
    NumericFailure,
    OrliczFunction,
    Rv,
    amemiya_norm,
    counting,
    dual_pairing,
    heart_member,
    indicator_norm,
    luxemburg_norm,
    modular,
    uniform_probability,
)

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
    sp = counting(3)
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


def test_luxemburg_modular_at_value_near_one():
    # for finite continuous phi the modular at the norm sits at 1
    sp = uniform_probability(5)
    f = Rv(sp, [0.3, -1.2, 2.0, 0.0, 0.7])
    rep = luxemburg_norm(f, OrliczFunction.exp_young())
    assert rep.modular_at_value == pytest.approx(1.0, abs=1e-6)


def test_amemiya_single_atom_power2():
    # inf_t (1 + t^2)/t = 2 at t = 1, for f = indicator on a unit atom
    sp = counting(1)
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
