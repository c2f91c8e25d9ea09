"""Fenchel conjugates, divergence evidence, certificates, biconjugation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orliczkit import (
    ClosureRefusal,
    MeasureSpace,
    OrliczFunction,
    Refusal,
    RiskFunctional,
    Rv,
    SlopeConditionError,
    average_value_at_risk,
    biconjugate_check,
    conjugate,
    entropic,
    expectation,
    fenchel_conjugate_value,
    increasing_catalog,
    maximize_dual,
    non_monotone_control,
    positivity_evidence,
    reconstruct,
    uniform_probability,
    worst_case,
    zeros,
)
from orliczkit import duality
from orliczkit._search import INV_PHI, brent_max
from orliczkit.risk import FEAS_TOL

PSI2 = conjugate(OrliczFunction.power(2.0))


@pytest.fixture
def dual_calls(monkeypatch):
    """A one-item list counting the evaluations of every objective that
    ``duality._dual_objective`` builds while the test runs: its calls and
    the probes of its pair lines. The counted objective keeps the pair
    lines, the pair steps and the cap, so the ascent takes the same path as
    without it."""
    calls = [0]
    make = duality._dual_objective

    class Counted:
        def __init__(self, obj):
            self.obj = obj
            self.upper = obj.upper
            self.pair_line = None if obj.pair_line is None else self.line
            # a step reads nothing itself: the ascent reads it through the
            # pair line, where it is counted
            self.pair_step = obj.pair_step

        def __call__(self, g):
            calls[0] += 1
            return self.obj(g)

        def line(self, g, i, j, v):
            h = self.obj.pair_line(g, i, j, v)

            def counted(s):
                calls[0] += 1
                return h(s)
            return counted

    monkeypatch.setattr(duality, "_dual_objective",
                        lambda *args: Counted(make(*args)))
    return calls


# -- positivity evidence ------------------------------------------------------


def test_expectation_trace_is_exactly_powers_of_ten():
    # phi = mean, witness = 0, offending atom has weight 1/2 and g = -1:
    # v_k = (-10^k)(1/2)(-1) - mean(-10^k * chi) = 10^k exactly
    sp = uniform_probability(2)
    ev = positivity_evidence(expectation(sp), Rv(sp, [-1.0, 2.0]))
    assert ev.atom_index == 0
    assert ev.atom_id == int(sp.atom_ids[0])
    assert list(ev.trace) == [10.0 ** k for k in range(1, 7)]
    assert ev.strictly_increasing
    assert ev.exceeds_threshold
    assert ev.divergent


def test_entropic_trace_grows_like_quarter_lambda():
    # v_k = 0.25 * 10^k - log(0.5 (1 + e^{-10^k})) -> 0.25*10^k + log 2
    sp = uniform_probability(2)
    ev = positivity_evidence(entropic(1.0, sp), Rv(sp, [-0.5, 1.5]))
    for k, v in zip(range(1, 7), ev.trace):
        assert v == pytest.approx(0.25 * 10.0 ** k + math.log(2.0), abs=1e-4)
    assert ev.divergent


def test_positivity_requires_a_negative_coordinate():
    sp = uniform_probability(2)
    with pytest.raises(ValueError):
        positivity_evidence(expectation(sp), Rv(sp, [0.0, 1.0]))


def test_all_catalog_members_diverge_on_dipped_duals():
    sp = uniform_probability(4)
    rng = np.random.default_rng(5)
    for fn in increasing_catalog(sp):
        for _ in range(5):
            raw = np.abs(rng.normal(0.0, 1.0, 4)) + 0.1
            g = raw / float(np.dot(sp.weights, raw))
            g[int(rng.integers(0, 4))] = -0.4
            ev = positivity_evidence(fn, Rv(sp, g))
            assert ev.divergent, fn.name


# -- Fenchel conjugate values -------------------------------------------------


def test_fenchel_closed_forms_short_circuit():
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    uniform_density = Rv(sp, [1.0, 1.0, 1.0])
    est = fenchel_conjugate_value(ent, uniform_density)
    assert not est.numeric
    assert est.value == pytest.approx(0.0, abs=1e-15)


def test_fenchel_numeric_agrees_with_closed_form():
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    g = Rv(sp, [1.5, 0.9, 0.6])
    exact = ent.closed_form_conjugate(g)
    est = fenchel_conjugate_value(ent, g, force_numeric=True, seed=0)
    assert est.numeric
    assert est.value == pytest.approx(exact, abs=1e-10)
    assert est.best_f is not None


@pytest.mark.parametrize("seed", range(4))
def test_fenchel_numeric_agrees_with_closed_form_seeded(seed):
    # every catalog member at one of its own densities, on uniform and
    # non-uniform spaces; the expectation's is g = 1 exactly, since along
    # the FEAS_TOL slack of its closed form the numeric objective rises
    rng = np.random.default_rng([26, seed])
    for n in range(2, 13):
        for uniform in (True, False):
            sp, catalog = _catalog_draw(rng, n, uniform)
            for member, phi in enumerate(catalog):
                gv = (np.ones(n) if member == 3
                      else _feasible_dual(rng, member, phi, sp))
                g = Rv(sp, gv)
                est = fenchel_conjugate_value(phi, g, seed=seed, restarts=2,
                                              force_numeric=True)
                assert abs(est.value - phi.closed_form_conjugate(g)) <= 1e-10


def test_fenchel_negative_coordinate_diverges_via_indicator_ray():
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    g = Rv(sp, [1.2, -0.3, 1.8])
    est = fenchel_conjugate_value(ent, g, force_numeric=True)
    assert est.value == math.inf
    assert est.diverged_ray is not None
    # the first diverging probe is the negative ray on the dipped atom
    ray = est.diverged_ray.values
    assert ray[1] < 0.0 and ray[0] == 0.0 and ray[2] == 0.0


def test_fenchel_mass_overshoot_diverges_along_ones():
    sp = uniform_probability(3)
    # nonnegative but mass 1.2: sup over c*1 of c(mass - 1) is unbounded
    g = Rv(sp, [1.2, 1.2, 1.2])
    est = fenchel_conjugate_value(entropic(1.0, sp), g, force_numeric=True)
    assert est.value == math.inf
    assert est.diverged_ray is not None
    assert np.all(est.diverged_ray.values > 0.0)


def test_fenchel_linear_functional_closed_form():
    sp = uniform_probability(4)
    ex = expectation(sp)
    assert fenchel_conjugate_value(ex, Rv(sp, [1.0] * 4)).value == 0.0
    assert fenchel_conjugate_value(ex, Rv(sp, [1.0, 1.0, 1.0, 1.1])).value == math.inf


# -- the ascent engine --------------------------------------------------------


def test_line_max_keeps_feasible_band_around_anchor():
    # finite only on a narrow band around the anchor: every probe outside it
    # is -inf, and the search must close in on the band, not discard it
    def h(t):
        return -(t - 0.3) ** 2 if 0.25 <= t <= 0.35 else -math.inf

    t, v, _ = brent_max(h, -50.0, 50.0, 100.0 * INV_PHI ** 32, (0.28, h(0.28)))
    assert t == pytest.approx(0.3, abs=1e-4)
    assert v >= h(0.28)
    # an infeasible anchor is never replaced by an equally infeasible probe
    t, v, _ = brent_max(lambda s: -math.inf, -1.0, 1.0, 2.0 * INV_PHI ** 32,
                        (0.5, -math.inf))
    assert (t, v) == (0.5, -math.inf)


def test_line_max_endpoints_exact_and_never_below_anchor():
    # increasing line: the supremum sits on the clamped endpoint exactly
    t, v, _ = brent_max(lambda s: 2.0 * s, 0.0, 1.5, 1.5 * INV_PHI ** 32,
                        (0.4, 0.8))
    assert (t, v) == (1.5, 3.0)
    # a smooth concave line: the maximizer to bracket width, far fewer
    # probes than the 36 of a 32-step golden-section search
    t, v, evals = brent_max(lambda s: -(s - 0.7) ** 2, -2.0, 2.0,
                            4.0 * INV_PHI ** 32, (0.0, -0.49))
    assert t == pytest.approx(0.7, abs=1e-6)
    assert evals <= 12
    # a flat line never moves off the anchor
    assert brent_max(lambda s: 1.0, -1.0, 1.0, 2.0 * INV_PHI ** 32,
                     (0.2, 1.0))[:2] == (0.2, 1.0)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(peak=st.floats(-20.0, 20.0), curv=st.floats(1e-3, 1e3),
       lo=st.floats(-10.0, 0.0), span=st.floats(1e-3, 20.0),
       frac=st.floats(0.0, 1.0))
def test_line_max_lands_within_bracket_width_of_peak(peak, curv, lo, span,
                                                     frac):
    # concave line: the maximizer stays inside the final bracket, whose
    # width is span * INV**32, so the answer is that close to the clamped peak
    hi = lo + span
    t0 = lo + frac * span

    def h(t):
        return -curv * (t - peak) ** 2

    t, v, evals = brent_max(h, lo, hi, (hi - lo) * INV_PHI ** 32, (t0, h(t0)))
    assert v >= h(t0)
    width = span * ((math.sqrt(5.0) - 1.0) / 2.0) ** 32
    assert abs(t - min(max(peak, lo), hi)) <= width
    assert evals <= 2 + 3 * 32


def test_line_max_stops_on_a_certified_plateau():
    # the two endpoints tie with the anchor: three distinct points at the best
    # value, so concavity rules out any gain and no probe follows the seeds
    t, v, evals = brent_max(lambda s: 1.0, -1.0, 1.0, 2.0 * INV_PHI ** 32,
                            (0.2, 1.0))
    assert (t, v, evals) == (0.2, 1.0, 2)
    # a -inf best is no plateau: the seeds all read -inf, the search goes on
    # and finds the finite band
    t, v, evals = brent_max(
        lambda s: -(s - 0.1) ** 2 if abs(s) <= 0.3 else -math.inf,
        -1.0, 1.0, 2.0 * INV_PHI ** 32, (0.5, -math.inf))
    assert t == pytest.approx(0.1, abs=1e-6) and evals > 3
    # ties are reset when the best point improves. lo and the anchor tie at
    # 0 on this tent, whose peak 1 sits where two later probes, one on each
    # side of it, read exactly 0.809; counted with the stale ties at 0 they
    # would pass for a plateau
    lo, hi, t0, c = -1.0, 2.6370361492941417, 0.7484876223726105, \
        -0.33213733343287727
    t, v, evals = brent_max(lambda s: min((s - lo) / (c - lo),
                                          (t0 - s) / (t0 - c)),
                            lo, hi, (hi - lo) * INV_PHI ** 32, (t0, 0.0))
    assert t == pytest.approx(c, abs=1e-6) and v > 0.99999
    # points closer than the search's resolution count as one: the anchor
    # sits 1e-90 from lo, where the tent's values round to lo's, and hi
    # mirrors lo, so three float-distinct points share -0.5
    t, v, evals = brent_max(lambda s: min(s - 0.5, 0.5 - s), 0.0, 1.0,
                            INV_PHI ** 32, (1e-90, -0.5))
    assert t == pytest.approx(0.5, abs=1e-6)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(shape=st.sampled_from(("flat_top", "quadratic")),
       lo=st.floats(-10.0, 0.0), span=st.floats(1e-3, 20.0),
       left=st.floats(-0.5, 1.5), length=st.floats(0.0, 1.0),
       up=st.floats(1e-3, 1e3), down=st.floats(1e-3, 1e3),
       top=st.floats(-5.0, 5.0), frac=st.floats(0.0, 1.0))
def test_line_max_reaches_the_dense_grid_maximum(shape, lo, span, left,
                                                 length, up, down, top,
                                                 frac):
    # concave lines: piecewise-linear ones rising at slope ``up`` to a flat
    # top [t1, t2] at height ``top`` and falling at slope ``down`` after it,
    # the top touching or passing lo or hi when ``left`` leaves [0, 1]; and
    # quadratics peaking at t1 with curvature ``up``, at height 0 so that
    # their values resolve the slope at the bracket's resolution. The search
    # stops on a plateau or at its bracket width, and either way lands
    # within slope * width of the best value a dense grid finds, never
    # below its anchor
    hi = lo + span
    t1 = lo + left * span
    t2 = t1 + length * span
    if shape == "flat_top":
        def h(t):
            return top + min(0.0, up * (t - t1), down * (t2 - t))
        slope = max(up, down)
    else:
        def h(t):
            return -up * (t - t1) ** 2
        slope = 2.0 * up * max(t1 - lo, hi - t1)
    t0 = lo + frac * span
    width = span * INV_PHI ** 32
    t, v, evals = brent_max(h, lo, hi, width, (t0, h(t0)))
    grid = max(h(float(x)) for x in np.linspace(lo, hi, 4001))
    assert v >= h(t0)
    assert v >= grid - slope * width
    assert v == h(t) and lo <= t <= hi
    assert evals <= 2 + 3 * 32


def test_a_line_beyond_its_warm_window_reaches_its_maximum():
    # a coordinate line at t0 = 1 whose last step was 0.05: its window is
    # [0.8, 1.2], the best point there is the inner edge 1.2, and the search
    # falls back to the whole segment [0, 6], where the maximum is 3
    probed = []

    def h(t):
        probed.append(t)
        return -(t - 3.0) ** 2

    step, evals = duality._line_search(h, 0.0, 6.0, 1.0, -4.0, 0.2)
    assert step[0] == pytest.approx(3.0, abs=1e-6)
    assert evals == len(probed) and max(probed) == 6.0
    # a window edge on the segment's end is no inner edge: the best point
    # there is the line's, and the window's search is the only one
    probed.clear()
    step, evals = duality._line_search(h, 0.0, 2.1, 1.9, h(1.9), 0.4)
    assert step == (2.1, h(2.1))
    assert all(1.5 <= t <= 2.1 for t in probed)


def test_a_warm_window_that_gains_nothing_ends_its_line():
    # concavity: neither window end nor any probe beats h(t0), so no point
    # of the segment does, and the whole segment is never searched
    probed = []

    def h(t):
        probed.append(t)
        return -abs(t - 1.0) if 0.5 <= t <= 4.0 else -math.inf

    for t0, reach in ((1.0, 0.1), (1.0, 2.0)):
        probed.clear()
        step, evals = duality._line_search(h, -10.0, 10.0, t0, h(t0), reach)
        assert step is None
        assert evals == len(probed) - 1
        assert all(t0 - reach <= t <= t0 + reach for t in probed)


def test_maximize_dual_concave_quadratic_free():
    sp = uniform_probability(3)
    target = np.array([0.7, -0.4, 1.3])

    def obj(g):
        d = g - target
        return -float(d @ d)

    res = maximize_dual(obj, sp, seed=0, restarts=3, nonneg=False)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.g, target, atol=1e-4)


def test_maximize_dual_counts_only_the_probes_it_makes():
    # finite along every line, so a guarded move makes its first shoulder
    # probe only; counting both read 308 evaluations for 278 calls here
    sp = uniform_probability(3)
    target = np.array([0.7, -0.4, 1.3])
    calls = 0

    def obj(g):
        nonlocal calls
        calls += 1
        d = g - target
        return -float(d @ d)

    res = maximize_dual(obj, sp, seed=0, restarts=2, nonneg=False)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.evaluations == calls


def test_maximize_dual_respects_nonnegativity():
    sp = uniform_probability(3)
    target = np.array([0.7, -0.4, 1.3])

    def obj(g):
        if np.any(g < 0.0):
            return -math.inf
        d = g - target
        return -float(d @ d)

    res = maximize_dual(obj, sp, seed=0, restarts=3, nonneg=True)
    assert np.all(res.g >= 0.0)
    # the constrained optimum clamps the negative coordinate to zero
    assert res.value == pytest.approx(-0.16, abs=1e-8)
    assert res.g[1] == pytest.approx(0.0, abs=1e-7)


@pytest.mark.parametrize("n, nonneg", [(4, True), (4, False), (10, True)])
def test_maximize_dual_moves_mass_between_atoms(n, nonneg):
    # objective finite only on the simplex of densities: single-coordinate
    # moves are all infeasible, so progress requires pairwise transfers
    sp = uniform_probability(n)
    w = sp.weights
    target = (np.array([2.0, 1.0, 0.5, 0.5]) if n == 4
              else np.linspace(0.5, 1.5, n))
    calls = 0

    def obj(g):
        nonlocal calls
        calls += 1
        if np.any(g < -1e-12) or abs(float(w @ g) - 1.0) > 1e-9:
            return -math.inf
        d = g - target
        return -float(d @ d)

    res = maximize_dual(obj, sp, seed=1, restarts=4, nonneg=nonneg)
    assert res.value == pytest.approx(0.0, abs=1e-7)
    assert np.allclose(res.g, target, atol=1e-3)
    # the count covers every restart, and is a machine-independent work
    # measure
    assert res.evaluations == calls
    if n == 4 and nonneg:
        # the engine makes 467 calls here (471 with global shift and scale
        # lines, 1,938 with the full move set on every sweep, 2,106 with two
        # flat sweeps per restart and no warm pair brackets; a plain
        # golden-section line search made 10,036)
        assert calls <= 3000


def test_maximize_dual_stops_a_restart_stuck_outside_the_domain():
    # finite only at the uniform density, where restart 0 starts; restart 1
    # starts elsewhere and stays at -inf, where a sweep's gain is nan
    sp = uniform_probability(4)
    calls = 0

    def obj(g):
        nonlocal calls
        calls += 1
        return 1.0 if np.array_equal(g, np.ones(4)) else -math.inf

    res = maximize_dual(obj, sp, seed=0, restarts=2)
    assert res.start_index == 0
    assert res.value == 1.0
    assert np.array_equal(res.g, np.ones(4))
    # one flat sweep per restart, transfers only after restart 0's first,
    # takes 421 calls (425 with global shift and scale lines, 437 with the
    # full move set, 872 with two flat sweeps); running restart 1 to the
    # 500-sweep cap took 109,934
    assert res.evaluations == calls
    assert calls <= 3000


def test_ascent_results_say_why_they_stopped(monkeypatch):
    sp = uniform_probability(3)
    target = np.array([0.7, -0.4, 1.3])

    def obj(g):
        d = g - target
        return -float(d @ d)

    assert maximize_dual(obj, sp, restarts=2,
                         nonneg=False).stop_reason == "flat"
    capped = maximize_dual(obj, sp, restarts=2, nonneg=False, ceiling=0.0)
    assert capped.stop_reason == "ceiling"
    assert capped.value >= -duality.CEILING_TOL
    stuck = maximize_dual(lambda g: -math.inf, sp, restarts=2)
    assert (stuck.value, stuck.stop_reason) == (-math.inf, "stuck_at_-inf")
    # every restart's first sweep gains
    monkeypatch.setattr(duality, "SWEEP_CAP", 1)
    short = maximize_dual(obj, sp, restarts=2, nonneg=False)
    assert (short.sweeps, short.stop_reason) == (1, "sweep_cap")
    ent = entropic(1.0, sp)
    f = Rv(sp, [0.3, -0.2, 0.5])
    _, closed = reconstruct(ent, f, PSI2, validation_trials=40)
    assert closed.stop_reason == "closed_form"


def test_ascents_need_a_restart(dual_calls):
    sp = uniform_probability(3)
    calls = 0

    def obj(g):
        nonlocal calls
        calls += 1
        return 0.0

    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restart"):
            maximize_dual(obj, sp, restarts=restarts)
    assert calls == 0
    with pytest.raises(ValueError, match="restart"):
        reconstruct(entropic(1.0, sp), Rv(sp, [0.3, -0.2, 0.5]), PSI2,
                    force_numeric=True, restarts=0, validation_trials=40)
    assert dual_calls[0] == 0


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(2, 8), beta=st.sampled_from([0.5, 1.0, 2.0]),
       nonneg=st.booleans(), seed=st.integers(0, 2 ** 16), data=st.data())
def test_an_unreachable_ceiling_changes_nothing(n, beta, nonneg, seed, data):
    # the ceiling only ever returns early, so one above the dual's maximum
    # phi(f) leaves the ascent as it runs without one, bit for bit
    sp = uniform_probability(n)
    ent = entropic(beta, sp)
    fv = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                     max_size=n)))
    obj = duality._dual_objective(ent.closed_form_conjugate, sp, fv)
    free, high = (maximize_dual(obj, sp, seed=seed, restarts=2, nonneg=nonneg,
                                ceiling=ceiling)
                  for ceiling in (math.inf, ent.evaluate(Rv(sp, fv)) + 1.0))
    assert high.g.tobytes() == free.g.tobytes()
    assert ((high.value, high.sweeps, high.start_index, high.evaluations,
             high.stop_reason)
            == (free.value, free.sweeps, free.start_index, free.evaluations,
                free.stop_reason))
    assert free.stop_reason != "ceiling"


@settings(max_examples=30, derandomize=True, deadline=None)
@given(member=st.integers(0, 3), n=st.integers(2, 10), nonneg=st.booleans(),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_catalog_ascent_leaves_the_unit_mass_only_to_measure(member, n,
                                                             nonneg, seed,
                                                             data):
    # a catalog dual is -inf off E[g] = 1; the ascent reads that from the
    # guard probes of restart 0's first sweep, two on each of its n
    # coordinate lines, and then runs mass-preserving moves only
    sp = uniform_probability(n)
    phi = increasing_catalog(sp)[member]
    fv = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                     max_size=n)))
    obj = duality._dual_objective(phi.closed_form_conjugate, sp, fv)
    off = 0

    def counted(g):
        nonlocal off
        off += abs(float(sp.weights @ g) - 1.0) > FEAS_TOL
        return obj(g)

    res = maximize_dual(counted, sp, seed=seed, restarts=2, nonneg=nonneg)
    assert off <= 2 * n
    assert res.value <= phi.evaluate(Rv(sp, fv)) + 1e-12


def test_entropic_ascent_probes_off_the_unit_mass_twice_per_atom():
    # one input of the property above, pinned: its off-mass calls are the
    # 2 n guard probes exactly; an ascent that never switches to transfers
    # only makes 48 of its 437 calls off the unit mass here
    n = 4
    sp = uniform_probability(n)
    obj = duality._dual_objective(entropic(1.0, sp).closed_form_conjugate,
                                  sp, np.linspace(-1.0, 1.5, n))
    off = 0

    def counted(g):
        nonlocal off
        off += abs(float(sp.weights @ g) - 1.0) > FEAS_TOL
        return obj(g)

    maximize_dual(counted, sp, seed=0, restarts=2, nonneg=True)
    assert off == 2 * n


def test_avar_ascent_stays_inside_the_cap():
    # a draw of the test above: a transfer ended at g_0 = 2 + 4.8e-10 while
    # the conjugate let densities exceed the cap 1/alpha = 2 by FEAS_TOL,
    # and the dual value then beat phi(f) by 8.3e-11
    sp = uniform_probability(4)
    fv = np.array([2.5627068171756378, -2.1330760213158078,
                   1.3047132417049472, 1.8662354395865082])
    phi = average_value_at_risk(0.5, sp)
    obj = duality._dual_objective(phi.closed_form_conjugate, sp, fv)
    res = maximize_dual(obj, sp, seed=24171, restarts=2, nonneg=True)
    assert res.g.max() <= 2.0
    assert res.value <= phi.evaluate(Rv(sp, fv)) + 1e-12


def test_pattern_line_stops_where_a_coordinate_reaches_zero():
    # the pattern line of restart 1 runs g_1 down to zero; past it, inside
    # the conjugate's FEAS_TOL slack, it reached g_1 = -1e-9 and beat
    # phi(f) = 0 by 1e-9
    sp = uniform_probability(2)
    fv = np.array([0.0, -2.0])
    phi = worst_case(sp)
    obj = duality._dual_objective(phi.closed_form_conjugate, sp, fv)
    res = maximize_dual(obj, sp, seed=64538, restarts=2, nonneg=False)
    assert res.g.min() >= 0.0
    assert res.value <= phi.evaluate(Rv(sp, fv)) + 1e-12


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_pattern_segment_keeps_nonnegative_coordinates_nonnegative(data, n):
    coords = st.floats(-5.0, 5.0) | st.just(0.0)
    g = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    d = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
    lo, hi = duality._pattern_segment(g, d)
    assert duality.PATTERN_RANGE[0] <= lo <= 0.0 <= hi <= duality.PATTERN_RANGE[1]
    kept = g >= 0.0
    for t in (lo, hi):
        assert np.all((g + t * d)[kept] >= -1e-15 * (1.0 + np.abs(g[kept])))


def _catalog_draw(rng, n, uniform):
    """A space on n atoms, uniform or not, and its catalog members with
    beta and alpha drawn from the values the tests use."""
    if uniform:
        sp = uniform_probability(n)
    else:
        raw = rng.uniform(0.2, 1.0, n)
        sp = MeasureSpace.finite(raw / raw.sum())
    beta = float(rng.choice([0.5, 1.0, 2.0]))
    alpha = float(rng.choice([0.25, 0.3, 0.5]))
    return sp, increasing_catalog(sp, beta=beta, alpha=alpha)


def _feasible_dual(rng, member, phi, sp):
    """A point of the member's dual domain: a density, with some exact
    zeros; for AVaR a mix of 1 and a vertex with densities at the cap; for
    the expectation a point of its box around 1."""
    n = sp.n_atoms
    if member == 3:
        return 1.0 + rng.uniform(-0.9, 0.9, n) * FEAS_TOL
    if member == 1:
        vertex = phi.closed_form_maximizer(Rv(sp, rng.normal(0.0, 1.0, n)))
        lam = float(rng.choice([1.0, rng.uniform()]))
        return lam * vertex.values + (1.0 - lam)
    raw = np.abs(rng.normal(0.0, 1.0, n))
    raw[rng.uniform(size=n) < 0.2] = 0.0
    raw[0] += 0.1
    return raw / float(sp.weights @ raw)


@pytest.mark.parametrize("seed", range(4))
def test_pair_lines_read_from_two_atoms_match_the_whole_objective(seed):
    # numpy-seeded rather than Hypothesis, whose derandomized draws move
    # with the literal constants of every loaded module
    rng = np.random.default_rng([24, seed])
    for n in range(2, 13):
        for uniform in (True, False):
            sp, catalog = _catalog_draw(rng, n, uniform)
            w = sp.weights
            for member, phi in enumerate(catalog):
                conj = phi.closed_form_conjugate
                fv = rng.uniform(-2.0, 2.0, n)
                obj = duality._dual_objective(conj, sp, fv)
                assert obj.pair_line is not None
                g = _feasible_dual(rng, member, phi, sp)
                v = obj(g)
                assert v > -math.inf
                for i in range(n):
                    for j in range(i + 1, n):
                        h = obj.pair_line(g, i, j, v)
                        assert h(0.0) == v
                        # the transfers at which x_i or x_j meets an edge
                        edges = [(b - g[i]) * w[i] for b in
                                 (conj.lower, conj.upper)]
                        edges += [(g[j] - b) * w[j] for b in
                                  (conj.lower, conj.upper)]
                        edges = np.array([e for e in edges
                                          if math.isfinite(e)])
                        lo, hi = edges.min(), edges.max()
                        width = hi - lo
                        for s in rng.uniform(lo - width, hi + width, 12):
                            if np.min(np.abs(edges - s)) < 1e-12:
                                continue
                            moved = g.copy()
                            moved[i] = g[i] + s / w[i]
                            moved[j] = g[j] - s / w[j]
                            want, got = obj(moved), h(s)
                            assert (got == -math.inf) == (want == -math.inf)
                            if want > -math.inf:
                                assert (abs(got - want)
                                        <= 1e-12 * (1.0 + abs(v)))


def _ascent_segment(obj, g, i, j, w, nonneg):
    """The pair segment ``[lo, hi]`` that ``maximize_dual`` searches from
    ``g`` for the pair (i, j)."""
    if nonneg:
        lo, hi = -g[i] * w[i], g[j] * w[j]
        if obj.upper < math.inf:
            lo, hi = duality._capped_segment(lo, hi, g[i], g[j], w[i], w[j],
                                             obj.upper)
        return lo, hi
    s_span = 1.0 + float(np.dot(w, np.abs(g)))
    return -s_span, s_span


@pytest.mark.parametrize("seed", range(4))
def test_pair_steps_reach_the_line_search_maximum(seed):
    # numpy-seeded, as the pair-line property above; the line search, which
    # the ascent still runs where a step reads -inf, is the reference each
    # step is held to, on the ascent's own segment and on a narrower one
    # that cuts the step
    rng = np.random.default_rng([25, seed])
    for n in range(2, 13):
        for uniform in (True, False):
            sp, catalog = _catalog_draw(rng, n, uniform)
            w = sp.weights
            for member, phi in enumerate(catalog):
                conj = phi.closed_form_conjugate
                fv = rng.uniform(-2.0, 2.0, n)
                obj = duality._dual_objective(conj, sp, fv)
                g = _feasible_dual(rng, member, phi, sp)
                v = obj(g)
                tol = 1e-12 * (1.0 + abs(v))
                for nonneg in (True, False):
                    for i in range(n):
                        for j in range(i + 1, n):
                            lo, hi = _ascent_segment(obj, g, i, j, w, nonneg)
                            if hi - lo <= 1e-300:
                                continue
                            h = obj.pair_line(g, i, j, v)
                            inner = (lo * rng.uniform(), hi * rng.uniform())
                            for a, b in ((lo, hi), inner):
                                s = obj.pair_step(g, i, j, a, b)
                                assert a <= s <= b
                                got = h(s)
                                if got == -math.inf:
                                    # a box-only member's segment end past
                                    # its box, where the ascent searches
                                    assert conj.beta == math.inf
                                    assert not (nonneg and conj.unit_mass)
                                    continue
                                step, _ = duality._line_search(h, a, b, 0.0,
                                                               v, 0.0)
                                assert got >= (step[1] if step else v) - tol
                            s = obj.pair_step(g, i, j, lo, hi)
                            # two zero densities have no mass to share
                            mass = g[i] * w[i] + g[j] * w[j]
                            if conj.beta < math.inf and lo < s < hi and mass:
                                xi = g[i] + s / w[i]
                                xj = g[j] - s / w[j]
                                z = conj.beta * (fv[i] - fv[j])
                                assert (abs(math.log(xi / xj) - z)
                                        <= 1e-12 * max(1.0, abs(z)))
                if member == 0:
                    # |beta df| = 800 overflows exp(beta f_i) unshifted
                    for sign in (1.0, -1.0):
                        far = fv.copy()
                        far[1] = far[0] - sign * 800.0 / conj.beta
                        obj = duality._dual_objective(conj, sp, far)
                        lo, hi = _ascent_segment(obj, g, 0, 1, w, True)
                        s = obj.pair_step(g, 0, 1, lo, hi)
                        assert math.isfinite(s) and lo <= s <= hi
                        assert obj.pair_line(g, 0, 1, v)(s) >= v - tol


@pytest.mark.parametrize("seed", range(4))
def test_coordinate_steps_reach_the_line_search_maximum(seed):
    # numpy-seeded, as the pair-step property above: every catalog member's
    # step, at a density of its own and at a g of either sign, from f with
    # ties (kinks on the current point), on the ascent's segment and on a
    # narrower one around the current point
    rng = np.random.default_rng([26, 10 + seed])
    for n in range(2, 13):
        for uniform in (True, False):
            sp, catalog = _catalog_draw(rng, n, uniform)
            for member, phi in enumerate(catalog):
                fv = rng.uniform(-2.0, 2.0, n)
                fv[rng.uniform(size=n) < 0.2] = fv[0]
                span = 2.0 * (1.0 + float(np.max(np.abs(fv))))
                for gv in (_feasible_dual(rng, member, phi, sp),
                           rng.normal(0.0, 2.0, n)):
                    obj = duality._FenchelObjective(phi, Rv(sp, gv))
                    v = obj(fv)
                    tol = 1e-12 * (1.0 + abs(v))
                    for i in range(n):
                        t0 = fv[i]

                        def h(t, i=i):
                            moved = fv.copy()
                            moved[i] = t
                            return obj(moved)

                        narrow = (t0 - span * rng.uniform(),
                                  t0 + span * rng.uniform())
                        for a, b in ((t0 - span, t0 + span), narrow):
                            t, reads = obj.coord_step(fv, i, a, b)
                            assert a <= t <= b
                            assert (reads == 0) == (member == 0)
                            step, _ = duality._line_search(h, a, b, t0, v,
                                                           0.0)
                            assert h(t) >= (step[1] if step else v) - tol


def _fenchel_duals(rng, member, phi, sp):
    """Densities for a numeric conjugate of catalog ``member``: one of its
    own, where the conjugate is finite (g = 1 exactly for the expectation),
    then ones where it is +inf: a dip to -0.5, masses 0.8 and 1.2 and, for
    AVaR and the expectation, one atom at 1.5 times the box's top."""
    n = sp.n_atoms
    g = np.ones(n) if member == 3 else _feasible_dual(rng, member, phi, sp)
    dipped = g.copy()
    dipped[rng.integers(n)] = -0.5
    duals = [g, dipped, 0.8 * g, 1.2 * g]
    if member in (1, 3):
        over = g.copy()
        over[int(np.argmax(g))] = 1.5 * phi.closed_form_conjugate.upper
        duals.append(over)
    return duals


@pytest.mark.parametrize("seed", range(2))
def test_stepped_conjugates_agree_with_the_line_search_path(seed):
    # the line searches, pair transfers and pattern moves that a functional
    # without a coordinate step gets are the reference; mass errors whose
    # slope is below the ray probes' reach are left out, since there both
    # paths stop short of +inf (CHANGES.md)
    rng = np.random.default_rng([26, 20 + seed])
    for n in range(2, 13):
        sp, catalog = _catalog_draw(rng, n, bool(n % 2))
        for member, phi in enumerate(catalog):
            bare = replace(phi, coordinate_step=None)
            for gv in _fenchel_duals(rng, member, phi, sp):
                g = Rv(sp, gv)
                stepped = fenchel_conjugate_value(phi, g, seed=seed,
                                                  restarts=2,
                                                  force_numeric=True)
                searched = fenchel_conjugate_value(bare, g, seed=seed,
                                                   restarts=2,
                                                   force_numeric=True)
                finite = math.isfinite(stepped.value)
                assert finite == math.isfinite(searched.value)
                assert finite == (phi.closed_form_conjugate(g) < math.inf)
                if finite:
                    assert abs(stepped.value - searched.value) <= 1e-10


@pytest.mark.parametrize("nonneg", [True, False])
def test_ascent_values_are_the_objective_at_their_point(nonneg):
    # pair lines sum two atoms' changes onto v, and the ascent reads each
    # restart's value once more from the whole objective before it keeps it
    rng = np.random.default_rng(2024)
    for n in (2, 3, 5, 8):
        for uniform in (True, False):
            sp, catalog = _catalog_draw(rng, n, uniform)
            for phi in catalog:
                f = Rv(sp, rng.uniform(-2.0, 2.0, n))
                obj = duality._dual_objective(phi.closed_form_conjugate, sp,
                                              f.values)
                for ceiling in (math.inf, phi.evaluate(f)):
                    res = maximize_dual(obj, sp, seed=n, restarts=2,
                                        nonneg=nonneg, ceiling=ceiling)
                    assert res.value == obj(res.g)


@pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5])
def test_numeric_avar_certificates_reach_the_cap(alpha):
    # AVaR's dual is linear up to the cap g = 1/alpha; pair segments end
    # there, so the numeric certificate is the closed form's and stops at
    # its ceiling. Searched for inside the segment, the cap was found to
    # about 2e-7 of it: misses up to 1.2e-7, and 94 of 210 ceiling stops
    rng = np.random.default_rng([7, int(100 * alpha)])
    for n in range(2, 9):
        sp = uniform_probability(n)
        phi = average_value_at_risk(alpha, sp)
        for seed in range(10):
            f = Rv(sp, rng.uniform(-2.0, 2.0, n))
            exact, _ = reconstruct(phi, f, PSI2, seed=seed,
                                   validation_trials=40)
            got, cert = reconstruct(phi, f, PSI2, seed=seed, restarts=2,
                                    force_numeric=True, validation_trials=40)
            assert cert.stop_reason == "ceiling"
            assert abs(got - exact) <= 1e-12
            assert cert.g.values.max() <= 1.0 / alpha


def test_hand_built_entropic_gets_the_catalog_ascent(dual_calls):
    # nothing declares cash additivity: a functional assembled by hand from
    # entropic's pieces gets the catalog's ascent, call for call
    rng = np.random.default_rng(23)
    for n in (3, 5, 8):
        sp = uniform_probability(n)
        ent = entropic(1.0, sp)
        hand = RiskFunctional(name="hand-built entropic", space=sp,
                              evaluate=ent.evaluate, proper_witness=zeros(sp),
                              closed_form_conjugate=ent.closed_form_conjugate)
        f = Rv(sp, rng.normal(0.0, 1.5, n))
        runs = []
        for phi in (ent, hand):
            before = dual_calls[0]
            value, cert = reconstruct(phi, f, PSI2, seed=n, restarts=2,
                                      force_numeric=True,
                                      validation_trials=40)
            runs.append((value, cert.g.values.tobytes(), cert.sweeps,
                         cert.start_index, dual_calls[0] - before))
        assert runs[1] == runs[0]


def test_declared_cash_additive_members_shift_and_fix_the_mass():
    rng = np.random.default_rng(17)
    for n in (2, 5, 9):
        raw = rng.uniform(0.2, 1.0, n)
        sp = MeasureSpace.finite(raw / raw.sum())
        for phi in increasing_catalog(sp):
            for _ in range(10):
                f = Rv(sp, rng.normal(0.0, 2.0, n))
                c = float(rng.normal(0.0, 5.0))
                want = phi.evaluate(f) + c
                assert (abs(phi.evaluate(f + c) - want)
                        <= 1e-12 * max(1.0, abs(want))), phi.name
                g = phi.closed_form_maximizer(f).values
                assert phi.closed_form_conjugate(Rv(sp, g)) < math.inf
                for scale in (1.0 - 1e-6, 1.0 + 1e-6):
                    assert (phi.closed_form_conjugate(Rv(sp, scale * g))
                            == math.inf), phi.name


# -- reconstruction certificates ----------------------------------------------


def test_reconstruct_entropic_closed_form_certificate():
    sp = uniform_probability(4)
    ent = entropic(2.0, sp)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = Rv(sp, rng.normal(0.0, 1.5, 4))
        achieved, cert = reconstruct(ent, f, PSI2)
        assert cert.start_index is None  # closed form, no search
        assert abs(cert.gap) <= 1e-12
        assert cert.nonnegative_ok and cert.heart_ok and cert.heart_vacuous
        assert achieved == pytest.approx(ent.evaluate(f), abs=1e-12)


def test_reconstruct_avar_certificate_is_exact():
    sp = uniform_probability(5)
    av = average_value_at_risk(0.4, sp)
    rng = np.random.default_rng(9)
    for _ in range(5):
        f = Rv(sp, rng.normal(0.0, 2.0, 5))
        achieved, cert = reconstruct(av, f, PSI2)
        assert cert.gap == 0.0  # greedy evaluate and certificate share arithmetic
        assert cert.conjugate_value == 0.0


def test_reconstruct_worst_case_point_mass():
    sp = uniform_probability(3)
    wc = worst_case(sp)
    f = Rv(sp, [0.3, 1.7, -2.0])
    achieved, cert = reconstruct(wc, f, PSI2)
    assert achieved == pytest.approx(1.7, abs=1e-12)
    assert cert.g.values.tolist() == [0.0, 3.0, 0.0]


def test_reconstruct_numeric_cold_start():
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    f = Rv(sp, [0.4, -0.8, 1.1])
    achieved, cert = reconstruct(ent, f, PSI2, force_numeric=True, seed=0,
                                 restarts=3)
    assert cert.start_index is not None
    assert cert.sweeps > 0
    assert 0.0 <= cert.gap <= 1e-6
    assert cert.nonnegative_ok


@settings(max_examples=30, derandomize=True, deadline=None)
@given(n=st.integers(2, 12), beta=st.sampled_from([0.5, 1.0, 2.0]),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_numeric_entropic_reconstruct_matches_gibbs(n, beta, seed, data):
    # outcomes in [-2, 2] keep each Gibbs mass above e^-8 / n; the seeded
    # twin below draws outcomes from N(0, 4^2), with far smaller masses
    sp = uniform_probability(n)
    ent = entropic(beta, sp)
    f = Rv(sp, data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                  max_size=n)))
    exact, closed = reconstruct(ent, f, PSI2, seed=seed, validation_trials=40)
    got, cert = reconstruct(ent, f, PSI2, seed=seed, restarts=2,
                            force_numeric=True, validation_trials=40)
    assert closed.start_index is None and cert.start_index is not None
    assert abs(got - exact) <= 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_numeric_entropic_reconstruct_matches_gibbs_seeded(seed):
    # the numpy-seeded twin of the Hypothesis property above, over wider
    # outcomes: Gibbs masses far below a line search's resolution, about
    # 2e-7 of its segment, missed phi(f) by up to 2.2e-9 when each pair
    # line was searched; a pair step solves for them
    rng = np.random.default_rng([25, seed])
    for _ in range(30):
        n = int(rng.integers(2, 13))
        beta = float(rng.choice([0.5, 1.0, 2.0]))
        sp = uniform_probability(n)
        ent = entropic(beta, sp)
        f = Rv(sp, rng.normal(0.0, 4.0, n))
        start = int(rng.integers(0, 2 ** 16))
        exact, _ = reconstruct(ent, f, PSI2, seed=start, validation_trials=40)
        got, cert = reconstruct(ent, f, PSI2, seed=start, restarts=2,
                                force_numeric=True, validation_trials=40)
        assert cert.start_index is not None
        assert abs(got - exact) <= 1e-10


def test_numeric_entropic_reconstruct_resolves_a_tiny_gibbs_mass():
    # the Gibbs density puts mass e^-17.4 / (1 + e^-17.4) on atom 0, below
    # the resolution of a line search over the pair's segment: searched,
    # the certificate stopped flat, 1.1e-8 short of phi(f)
    sp = uniform_probability(2)
    ent = entropic(2.0, sp)
    f = Rv(sp, [-8.0, 0.7])
    got, cert = reconstruct(ent, f, PSI2, force_numeric=True, restarts=2)
    assert abs(got - ent.evaluate(f)) <= 1e-10
    assert cert.stop_reason == "ceiling"


@settings(max_examples=30, derandomize=True, deadline=None)
@given(member=st.integers(0, 5), n=st.integers(2, 8),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_numeric_catalog_certificates_stop_only_when_certified(member, n,
                                                               seed, data):
    # reconstruct passes phi(f) as the ascent's ceiling: a certificate that
    # stops there is within CEILING_TOL of phi(f), and one that does not is
    # the ceiling-free ascent's, bit for bit
    sp = uniform_probability(n)
    phi = (entropic(0.5, sp), entropic(1.0, sp), entropic(2.0, sp),
           average_value_at_risk(0.5, sp), worst_case(sp),
           expectation(sp))[member]
    f = Rv(sp, data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                  max_size=n)))
    exact, _ = reconstruct(phi, f, PSI2, seed=seed, validation_trials=40)
    got, cert = reconstruct(phi, f, PSI2, seed=seed, restarts=2,
                            force_numeric=True, validation_trials=40)
    primal = phi.evaluate(f)
    if cert.stop_reason == "ceiling":
        assert cert.gap <= duality.CEILING_TOL * (1.0 + abs(primal))
    else:
        free = maximize_dual(
            duality._dual_objective(phi.closed_form_conjugate, sp, f.values),
            sp, seed=seed, restarts=2)
        assert cert.g.values.tobytes() == free.g.tobytes()
    # AVaR included: its pair segments end at the cap g = 1/alpha, which
    # the line search reads as an endpoint
    assert abs(got - exact) <= 1e-10


def test_criterion_4_numeric_path_call_budget(dual_calls):
    # criterion 4's 50 numeric certificates, counted at the dual objective:
    # 28,772 calls with coordinate, pair and pattern lines; 28,972 with
    # global shift and scale lines too, 29,245 also without warm coordinate
    # windows; 53,735 without the pattern line, with phi(f) as the ascent's
    # ceiling; 101,398 without the ceiling either, 153,500 with the full
    # move set on every sweep, no warm pair brackets and two flat sweeps per
    # restart
    # (28,725 with pair lines read from two atoms and each restart's value
    # read once more from the whole objective; 5,154 with one closed-form
    # step per pair line in place of its line search)
    rng = np.random.default_rng(1004)
    reported = 0
    for case in range(50):
        beta = (0.5, 1.0, 2.0)[case % 3]
        n = int(rng.integers(3, 9))
        sp = uniform_probability(n)
        f = Rv(sp, rng.normal(0.0, 1.5, n))
        _, cert = reconstruct(entropic(beta, sp), f, PSI2, seed=case,
                              restarts=2, force_numeric=True,
                              validation_trials=40)
        assert abs(cert.gap) <= 1e-11
        reported += cert.evaluations
    # the certificates report every call and every pair-line probe
    assert dual_calls[0] == reported
    assert dual_calls[0] <= 10_000


def test_feasible_dual_conjugates_stop_on_their_plateau():
    # verify-all's dual-positivity inputs at --seed 41: each catalog member's
    # own maximizers. Each call counts 60 ray probes and two row checks, and
    # then one read per coordinate step plus the rows a box-only step reads.
    # The AVaR, worst-case and expectation ones take 2,502 evaluations; with
    # line searches along flat lines they took 4,210 (4,186 when a call
    # counted one row check), 4,510 also with global shift and scale lines
    # and no row check, and 24,678 before the plateau stop. The entropic ones
    # take 876, at most 112 each; they took 5,388 with line searches, pair
    # transfers and pattern moves, 6,856 also with shift and scale lines and
    # no row check, 8,535 also with whole-segment coordinate lines, and
    # 8,598 with warm windows that fall back to the whole segment after
    # gaining nothing
    sp = uniform_probability(4)
    rng = np.random.default_rng([41, 4])
    total = entropic_total = 0
    for functional in increasing_catalog(sp, beta=1.0, alpha=0.5):
        for _ in range(8):
            g = functional.closed_form_maximizer(
                Rv(sp, rng.normal(0.0, 1.5, 4)))
            rng.integers(0, 4)  # verify-all's negative dip, drawn in between
            est = fenchel_conjugate_value(functional, g, seed=41, restarts=2,
                                          force_numeric=True)
            assert math.isfinite(est.value)
            assert est.evaluations > 60
            if functional.name.startswith("entropic"):
                assert est.evaluations <= 150
                entropic_total += est.evaluations
            else:
                total += est.evaluations
    assert total <= 2_750
    assert entropic_total <= 960


def test_numeric_entropic_conjugates_at_16_atoms():
    # 8,945 evaluations at the median with line searches, pair transfers and
    # pattern moves; 432 with one iterative-scaling step per coordinate line
    sp = uniform_probability(16)
    phi = entropic(1.0, sp)
    rng = np.random.default_rng(16)
    counts = []
    for _ in range(10):
        raw = np.abs(rng.normal(0.0, 1.0, 16)) + 0.05
        g = Rv(sp, raw / float(sp.weights @ raw))
        est = fenchel_conjugate_value(phi, g, restarts=2, force_numeric=True)
        assert abs(est.value - phi.closed_form_conjugate(g)) <= 1e-10
        counts.append(est.evaluations)
    assert np.median(counts) <= 1_000


def test_stepped_ascents_read_each_coordinate_once_per_sweep():
    # no guard probes, pair transfers or pattern moves: one restart reads
    # its start, then one point per coordinate and sweep, and an entropic
    # step reads nothing itself
    sp = uniform_probability(5)
    obj = duality._FenchelObjective(entropic(1.0, sp),
                                    Rv(sp, [0.4, 1.3, 0.9, 1.6, 0.8]))
    res = maximize_dual(obj, sp, restarts=1, nonneg=False)
    assert res.stop_reason == "flat"
    assert res.evaluations == 1 + 5 * res.sweeps


def test_conjugate_estimates_say_why_they_stopped():
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    g = Rv(sp, [1.4, 0.8, 0.8])
    assert fenchel_conjugate_value(ent, g).stop_reason == "closed_form"
    est = fenchel_conjugate_value(ent, g, force_numeric=True, restarts=2)
    assert est.stop_reason == "flat"
    dip = fenchel_conjugate_value(ent, Rv(sp, [1.5, 1.0, -0.5]),
                                  force_numeric=True)
    assert dip.stop_reason == "ray"
    # the slow ray below diverges past the probes, as "unbounded"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_slow_ray_past_the_probes_diverges_without_overflow():
    # g_3 = 2.01316 is above AVaR's cap 2, so phi*(g) = +inf, but along +e_3
    # the objective rises with slope w_3 (g_3 - 2) ~ 0.0033: at 10^6 the ray
    # probe reads about 3,300, below DIVERGENCE_SOFT. Line searches walked f
    # to the float limit, in 107,074 evaluations and with 152 overflow
    # warnings; kink steps reach the end of each segment, and the ascent
    # stops once its value has passed DIVERGENCE_ASCENT
    sp = uniform_probability(4)
    g = Rv(sp, [0.0, 0.98684, 2.01316, 1.0])
    est = fenchel_conjugate_value(average_value_at_risk(0.5, sp), g,
                                  restarts=2, force_numeric=True)
    assert est.value == math.inf
    assert est.stop_reason == "unbounded"
    assert est.evaluations < 10_000


@settings(max_examples=30, derandomize=True, deadline=None)
@given(member=st.integers(0, 4), n=st.integers(2, 8),
       dip=st.one_of(st.none(), st.floats(-2.0, -0.5)), data=st.data())
def test_row_probes_match_the_scalar_path(member, n, dip, data):
    # the ray probes in one evaluate_rows call give the scalar path's value
    # and first diverging ray; member 4 is a custom functional with no row
    # kernel, which takes the scalar path either way
    sp = uniform_probability(n)
    catalog = increasing_catalog(sp, beta=1.0, alpha=0.5)
    shifted = RiskFunctional("shifted_entropic", sp,
                             lambda f: catalog[0].evaluate(f) + 0.25,
                             zeros(sp))
    phi = (*catalog, shifted)[member]
    f = Rv(sp, data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                  max_size=n)))
    gv = catalog[member % 4].closed_form_maximizer(f).values.copy()
    if dip is not None:
        gv[data.draw(st.integers(0, n - 1))] = dip
    g = Rv(sp, gv)
    rows = fenchel_conjugate_value(phi, g, seed=3, restarts=2,
                                   force_numeric=True)
    scalar = fenchel_conjugate_value(replace(phi, evaluate_rows=None), g,
                                     seed=3, restarts=2, force_numeric=True)
    assert rows.value == scalar.value
    assert math.isfinite(rows.value) == (dip is None)
    if dip is None:
        assert rows.diverged_ray is scalar.diverged_ray is None
    else:
        assert rows.diverged_ray.values.tobytes() == \
            scalar.diverged_ray.values.tobytes()


def test_results_report_their_evaluations():
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    g = Rv(sp, [1.4, 0.8, 0.8])
    assert fenchel_conjugate_value(ent, g).evaluations == 0
    calls = [0]

    def counted(f):
        calls[0] += 1
        return ent.evaluate(f)

    def counted_rows(rows):
        calls[0] += len(rows)
        return ent.evaluate_rows(rows)

    # a copy that swaps evaluate swaps evaluate_rows too; each row counts
    wrapped = replace(ent, evaluate=counted, evaluate_rows=counted_rows)
    est = fenchel_conjugate_value(wrapped, g, force_numeric=True, restarts=2)
    assert est.evaluations == calls[0] > 8 * 6
    # the ray probes are one row call of 8 rays x 6 exponents, plus the two
    # evaluate calls that cross-check the row kernel
    calls[0] = 0
    dip = fenchel_conjugate_value(wrapped, Rv(sp, [1.5, 1.0, -0.5]),
                                  force_numeric=True)
    assert dip.value == math.inf
    assert dip.evaluations == calls[0] == 8 * 6 + 2
    # without a row kernel a divergent dual stops at its first diverging
    # ray, six probes each
    calls[0] = 0
    scalar = replace(wrapped, evaluate_rows=None)
    dip = fenchel_conjugate_value(scalar, Rv(sp, [1.5, 1.0, -0.5]),
                                  force_numeric=True)
    assert dip.value == math.inf
    assert dip.evaluations == calls[0] and dip.evaluations % 6 == 0
    assert dip.evaluations < 8 * 6
    f = Rv(sp, [0.3, -0.2, 0.5])
    _, closed = reconstruct(ent, f, PSI2, validation_trials=40)
    assert (closed.evaluations, closed.sweeps) == (0, 0)
    _, numeric = reconstruct(ent, f, PSI2, restarts=2, force_numeric=True,
                             validation_trials=40)
    res = maximize_dual(duality._dual_objective(ent.closed_form_conjugate,
                                                sp, f.values),
                        sp, restarts=2, ceiling=ent.evaluate(f))
    assert numeric.evaluations == res.evaluations > 0


def test_numeric_expectation_on_a_space_of_mass_two():
    # the dual of E[f] is finite at g = 1 only; every restart started at
    # mass 1, so the ascent read -inf everywhere and the gap was infinite
    sp = MeasureSpace.finite([1.0, 1.0])
    f = Rv(sp, [0.3, -0.2])
    got, cert = reconstruct(expectation(sp), f, PSI2, force_numeric=True,
                            restarts=2, validation_trials=40)
    assert got == pytest.approx(0.1, abs=1e-15)
    assert cert.gap == 0.0
    assert np.array_equal(cert.g.values, np.ones(2))


@pytest.mark.parametrize("weights, fv", [
    ([1.0, 1.0], [0.3, -0.2]),
    ([0.2] * 5, [0.3, -0.2, 1.0, 0.5, -1.5]),
], ids=["mass_two", "uniform_five"])
def test_a_start_at_the_ceiling_stops_there(weights, fv):
    # the expectation's dual reads phi(f) at g = 1, where restart 0 starts
    # (on the mass-2 space after its -inf start); checked only after moves,
    # the ceiling let these run whole sweeps, 79 and 2,801 calls
    sp = MeasureSpace.finite(weights)
    f = Rv(sp, fv)
    _, cert = reconstruct(expectation(sp), f, PSI2, force_numeric=True,
                          validation_trials=40)
    assert cert.stop_reason == "ceiling"
    assert cert.evaluations <= 2
    assert cert.gap == 0.0


def test_fenchel_conjugate_refuses_a_stale_row_kernel():
    # replacing evaluate alone keeps the entropic kernel, so the ray probes
    # would read the old functional's values
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    shifted = replace(ent, evaluate=lambda f: ent.evaluate(f) + 0.25,
                      closed_form_conjugate=None)
    with pytest.raises(ValueError, match="evaluate_rows"):
        fenchel_conjugate_value(shifted, Rv(sp, [1.4, 0.8, 0.8]))


def test_fenchel_conjugate_refuses_a_kernel_stale_past_its_first_row():
    # the first ray probe is -10 e_1, where this copy's evaluate still
    # agrees with the entropic kernel it kept
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    bumped = replace(ent, closed_form_conjugate=None,
                     evaluate=lambda f: ent.evaluate(f)
                     + (0.25 if f.values[0] >= 0.0 else 0.0))
    with pytest.raises(ValueError, match="evaluate_rows"):
        fenchel_conjugate_value(bumped, Rv(sp, [1.4, 0.8, 0.8]))


def test_weak_duality_invariant():
    sp = uniform_probability(4)
    rng = np.random.default_rng(13)
    for fn in increasing_catalog(sp):
        for _ in range(4):
            f = Rv(sp, rng.normal(0.0, 1.5, 4))
            achieved, cert = reconstruct(fn, f, PSI2, seed=2)
            assert achieved <= fn.evaluate(f) + 1e-7
            assert cert.gap >= -1e-7


def test_reconstruct_refuses_non_superlinear_psi():
    sp = uniform_probability(3)
    psi_step = conjugate(OrliczFunction.linear())  # takes the value +inf
    with pytest.raises(SlopeConditionError):
        reconstruct(entropic(1.0, sp), zeros(sp), psi_step)


def test_reconstruct_refuses_invalid_functional():
    sp = uniform_probability(3)
    ctrl = non_monotone_control(sp)
    with pytest.raises(ValueError, match="monotone"):
        reconstruct(ctrl, zeros(sp), PSI2)


def test_refusals_share_one_type():
    # the CLI maps exactly these to exit 4; the validation failure stays a
    # ValueError as well
    sp = uniform_probability(3)
    with pytest.raises(Refusal, match="monotone") as err:
        reconstruct(non_monotone_control(sp), zeros(sp), PSI2)
    assert isinstance(err.value, ValueError)
    with pytest.raises(Refusal):
        reconstruct(entropic(1.0, sp), zeros(sp),
                    conjugate(OrliczFunction.linear()))
    assert issubclass(SlopeConditionError, Refusal)
    assert issubclass(ClosureRefusal, Refusal)


def test_translation_shifts_conjugate_by_constant():
    # (phi + c)* = phi* - c: run the same seeded search on both
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    c = 0.35
    shifted = replace(ent, name="entropic_shifted",
                      evaluate=lambda f: ent.evaluate(f) + c,
                      evaluate_rows=lambda rows: ent.evaluate_rows(rows) + c,
                      closed_form_conjugate=None, closed_form_maximizer=None)
    g = Rv(sp, [1.4, 0.8, 0.8])
    base = fenchel_conjugate_value(ent, g, force_numeric=True, seed=3)
    moved = fenchel_conjugate_value(shifted, g, force_numeric=True, seed=3)
    assert moved.value == pytest.approx(base.value - c, abs=1e-9)


# -- biconjugation and level sets ---------------------------------------------


def test_biconjugate_recovers_entropic():
    sp = uniform_probability(3)
    ent = entropic(1.0, sp)
    rng = np.random.default_rng(21)
    probes = [Rv(sp, rng.normal(0.0, 1.0, 3)) for _ in range(6)]
    rep = biconjugate_check(ent, probes, seed=0, restarts=2)
    assert rep.max_deviation <= 1e-5
    assert rep.max_split <= 1e-6
    assert len(rep.deviations) == 6


@pytest.mark.parametrize("make", [lambda sp: average_value_at_risk(0.5, sp),
                                  worst_case], ids=["avar", "worst_case"])
@pytest.mark.parametrize("n", [3, 5])
def test_biconjugate_recovers_box_only_members(make, n):
    # the sign-free ascent's pair segments end past a box-only conjugate's
    # box, so each pair step there reads -inf and its line is searched
    sp = uniform_probability(n)
    phi = make(sp)
    rng = np.random.default_rng([25, n])
    probes = [Rv(sp, rng.normal(0.0, 1.5, n)) for _ in range(3)]
    rep = biconjugate_check(phi, probes, seed=0, restarts=2)
    assert rep.max_deviation <= 1e-5


def test_biconjugate_check_refuses_an_empty_probe_list():
    with pytest.raises(ValueError, match="empty probe list"):
        biconjugate_check(entropic(1.0, uniform_probability(3)), [])
