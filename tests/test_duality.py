"""Fenchel conjugates, divergence rays, certificates, biconjugation."""

import gc
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orliczkit import (
    ClosureRefusal,
    MeasureSpace,
    NumericFailure,
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
    reconstruct,
    uniform_probability,
    worst_case,
    zeros,
)
from orliczkit import duality
from orliczkit._search import INV_PHI, brent_max
from orliczkit.convergence import _block_rows
from orliczkit.risk import FEAS_TOL

PSI2 = conjugate(OrliczFunction.power(2.0))


@pytest.fixture
def dual_calls(monkeypatch):
    """A one-item list counting, while the test runs, the dual objective's
    calls (``duality._DualObjective``): the work a certificate's
    ``evaluations`` reports. The counted call returns what it would, so the
    ascents take the same path as without the count."""
    calls = [0]
    method = duality._DualObjective.__call__

    def counted(*args):
        calls[0] += 1
        return method(*args)

    monkeypatch.setattr(duality._DualObjective, "__call__", counted)
    return calls


# -- positivity: a negative atom diverges along its own -e_k ------------------


def _feasible_density(phi, rng, peak=1.8):
    """A g where phi's conjugate is finite: 1 for the expectation, else a
    draw of |N(0, 1)| + 0.05 at unit mass pulled toward 1 until no atom
    passes ``peak``, under the cap of every catalog member."""
    space = phi.space
    if phi.name.startswith("expectation"):
        return np.ones(space.n_atoms)
    raw = np.abs(rng.normal(0.0, 1.0, space.n_atoms)) + 0.05
    g = raw / float(np.dot(space.weights, raw))
    top = float(np.max(g))
    if top > peak:
        t = (peak - 1.0) / (top - 1.0)
        g = t * g + (1.0 - t)
    return g


def test_all_catalog_members_diverge_on_dipped_duals():
    # the w*-representation runs over nonnegative densities: at a negative
    # g_k the numeric conjugate's probes stop on the ray -e_k
    sp = uniform_probability(4)
    rng = np.random.default_rng(5)
    for fn in increasing_catalog(sp):
        for _ in range(5):
            g = _feasible_density(fn, rng)
            dip = int(rng.integers(0, 4))
            g[dip] = -0.4
            est = fenchel_conjugate_value(fn, Rv(sp, g), force_numeric=True)
            assert est.stop_reason == "ray", fn.name
            assert np.array_equal(est.diverged_ray.values, -np.eye(4)[dip])


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


def test_line_max_refuses_an_empty_bracket():
    calls = []
    for lo, hi in ((1.0, 0.0), (0.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(NumericFailure, match="empty bracket"):
            brent_max(calls.append, lo, hi, 1e-3)
    assert calls == []


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


def test_a_line_search_reaches_a_maximum_far_from_its_anchor():
    # a line at t0 = 1 on the segment [0, 6], whose maximum is at 3: the
    # search runs on the whole segment and reads both its ends
    probed = []

    def h(t):
        probed.append(t)
        return -(t - 3.0) ** 2

    step, evals = duality._line_search(h, 0.0, 6.0, 1.0, -4.0)
    assert step[0] == pytest.approx(3.0, abs=1e-6)
    assert evals == len(probed) and min(probed) == 0.0 and max(probed) == 6.0
    # a maximum on the segment's end is read there exactly, and an anchor at
    # the maximum gains nothing
    probed.clear()
    step, evals = duality._line_search(h, 0.0, 2.1, 1.9, h(1.9))
    assert step == (2.1, h(2.1))
    assert all(0.0 <= t <= 2.1 for t in probed)
    assert duality._line_search(h, 0.0, 6.0, 3.0, 0.0)[0] is None


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


def test_ascents_refuse_a_negative_seed_before_any_call():
    # numpy's default_rng refused it at restart 1, after restart 0 had run:
    # 72 objective calls here
    sp = uniform_probability(3)
    target = np.array([0.7, -0.4, 1.3])
    calls = 0

    def obj(g):
        nonlocal calls
        calls += 1
        d = g - target
        return -float(d @ d)

    with pytest.raises(ValueError, match="seed"):
        maximize_dual(obj, sp, seed=-1, restarts=2, nonneg=False)
    assert calls == 0


def _counted(phi):
    """A copy of ``phi`` and a one-item list counting the values of phi it
    reads, ``evaluate`` calls and ``evaluate_rows`` rows alike."""
    reads = [0]

    def evaluate(f):
        reads[0] += 1
        return phi.evaluate(f)

    def evaluate_rows(rows):
        reads[0] += len(rows)
        return phi.evaluate_rows(rows)

    return replace(phi, evaluate=evaluate,
                   evaluate_rows=evaluate_rows), reads


@pytest.mark.parametrize("seed, restarts", [(0, 0), (-1, 2)])
def test_numeric_conjugates_refuse_bad_starts_before_any_probe(seed,
                                                               restarts):
    # with restarts=0 a feasible g raised after its 62 ray-probe reads, and
    # a g with a negative dip returned +inf; the closed form reads neither
    sp = uniform_probability(3)
    base = entropic(1.0, sp)
    for gv in ([0.5, 1.0, 1.5], [-0.5, 1.0, 2.5]):
        g = Rv(sp, gv)
        phi, reads = _counted(base)
        with pytest.raises(ValueError, match="restart"):
            fenchel_conjugate_value(phi, g, seed=seed, restarts=restarts,
                                    force_numeric=True)
        assert reads[0] == 0
        closed = fenchel_conjugate_value(phi, g, seed=seed,
                                         restarts=restarts)
        assert closed.value == base.closed_form_conjugate(g)


def test_the_solve_refuses_a_negative_seed_too(dual_calls):
    # the mass-multiplier solve draws no start, yet refuses the seed the
    # ascents refuse, so a seed's validity does not hang on the conjugate
    sp = uniform_probability(3)
    phi, f = entropic(1.0, sp), Rv(sp, [0.3, -0.2, 0.5])
    with pytest.raises(ValueError, match="seed"):
        reconstruct(phi, f, PSI2, seed=-1, force_numeric=True,
                    validation_trials=40)
    with pytest.raises(ValueError, match="seed"):
        biconjugate_check(phi, [f], seed=-1)
    assert dual_calls[0] == 0


@pytest.mark.parametrize("force_numeric", [False, True],
                         ids=["closed", "numeric"])
@pytest.mark.parametrize("seed, restarts", [(-1, 8), (-102, 8), (0, 0)])
def test_bad_starts_are_refused_on_every_path(validations, force_numeric,
                                              seed, restarts):
    # the closed form accepted seeds -1 to -101 and restarts=0, and a seed
    # below -101 failed inside numpy, in validate's draw from seed + 101
    sp = uniform_probability(3)
    phi, reads = _counted(entropic(1.0, sp))
    f = Rv(sp, [0.3, -0.2, 0.5])
    with pytest.raises(ValueError, match="restart"):
        reconstruct(phi, f, PSI2, seed=seed, restarts=restarts,
                    force_numeric=force_numeric, validation_trials=40)
    with pytest.raises(ValueError, match="restart"):
        biconjugate_check(phi, [f], seed=seed, restarts=restarts)
    assert reads[0] == 0
    assert validations == []


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(2, 8), beta=st.sampled_from([0.5, 1.0, 2.0]),
       nonneg=st.booleans(), seed=st.integers(0, 2 ** 16), data=st.data())
def test_an_unreachable_ceiling_changes_nothing(n, beta, nonneg, seed, data):
    # the ceiling only ever returns early, so one above the dual's maximum
    # phi(f) leaves the ascent as it runs without one, bit for bit; on
    # maximize_dual's generic path, which a catalog dual read whole takes
    sp = uniform_probability(n)
    ent = entropic(beta, sp)
    fv = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                     max_size=n)))
    obj = duality._DualObjective(ent.closed_form_conjugate, sp, fv)
    free, high = (maximize_dual(obj, sp, seed=seed, restarts=2, nonneg=nonneg,
                                ceiling=ceiling)
                  for ceiling in (math.inf, ent.evaluate(Rv(sp, fv)) + 1.0))
    assert high.g.tobytes() == free.g.tobytes()
    assert ((high.value, high.sweeps, high.start_index, high.evaluations,
             high.stop_reason)
            == (free.value, free.sweeps, free.start_index, free.evaluations,
                free.stop_reason))
    assert free.stop_reason != "ceiling"


@pytest.mark.parametrize("seed", range(2))
def test_an_unreachable_ceiling_changes_nothing_seeded(seed):
    # numpy-seeded twin of the property above, over every catalog member and
    # both kinds of space, on the generic path as above
    rng = np.random.default_rng([27, 30 + seed])
    for n in range(2, 9):
        sp, catalog = _catalog_draw(rng, n, bool(n % 2))
        for phi in catalog:
            fv = rng.uniform(-3.0, 3.0, n)
            obj = duality._DualObjective(phi.closed_form_conjugate, sp, fv)
            free, high = (maximize_dual(obj, sp, seed=seed + n, restarts=2,
                                        ceiling=ceiling)
                          for ceiling in (math.inf,
                                          phi.evaluate(Rv(sp, fv)) + 1.0))
            assert high.g.tobytes() == free.g.tobytes()
            assert ((high.value, high.sweeps, high.start_index,
                     high.evaluations, high.stop_reason)
                    == (free.value, free.sweeps, free.start_index,
                        free.evaluations, free.stop_reason))
            assert free.stop_reason != "ceiling"


@settings(max_examples=30, derandomize=True, deadline=None)
@given(member=st.integers(0, 3), n=st.integers(2, 10), nonneg=st.booleans(),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_catalog_ascent_leaves_the_unit_mass_only_to_measure(member, n,
                                                             nonneg, seed,
                                                             data):
    # a catalog dual is -inf off E[g] = 1; maximize_dual's generic path
    # reads that from the guard probes of restart 0's first sweep, two on
    # each of its n coordinate lines, and then runs mass-preserving moves
    # only
    sp = uniform_probability(n)
    phi = increasing_catalog(sp)[member]
    fv = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n,
                                     max_size=n)))
    obj = duality._DualObjective(phi.closed_form_conjugate, sp, fv)
    off = 0

    def counted(g):
        nonlocal off
        off += abs(float(sp.weights @ g) - 1.0) > FEAS_TOL
        return obj(g)

    res = maximize_dual(counted, sp, seed=seed, restarts=2, nonneg=nonneg)
    assert off <= 2 * n
    assert res.value <= phi.evaluate(Rv(sp, fv)) + 1e-12


def test_catalog_ascent_leaves_the_unit_mass_only_to_measure_seeded():
    # numpy-seeded twin of the property above (ROADMAP J): its draws do not
    # move when a source constant does. Every member at n = 2 to 10, with
    # either sign constraint; member 3, the expectation, takes the ascent
    # with its plain indicator conjugate
    rng = np.random.default_rng([32, 10])
    for n in range(2, 11):
        sp = uniform_probability(n)
        for phi in increasing_catalog(sp):
            fv = rng.uniform(-3.0, 3.0, n)
            obj = duality._DualObjective(phi.closed_form_conjugate, sp, fv)
            off = 0

            def counted(g):
                nonlocal off
                off += abs(float(sp.weights @ g) - 1.0) > FEAS_TOL
                return obj(g)

            res = maximize_dual(counted, sp, seed=int(rng.integers(2 ** 16)),
                                restarts=2, nonneg=bool(rng.integers(2)))
            assert off <= 2 * n
            assert res.value <= phi.evaluate(Rv(sp, fv)) + 1e-12


def test_entropic_ascent_probes_off_the_unit_mass_twice_per_atom():
    # one input of the property above, pinned, on the generic path: its
    # off-mass calls are the 2 n guard probes exactly; an ascent that never
    # switches to transfers only makes 48 of its 452 calls off the unit
    # mass here
    n = 4
    sp = uniform_probability(n)
    obj = duality._DualObjective(entropic(1.0, sp).closed_form_conjugate,
                                  sp, np.linspace(-1.0, 1.5, n))
    off = 0

    def counted(g):
        nonlocal off
        off += abs(float(sp.weights @ g) - 1.0) > FEAS_TOL
        return obj(g)

    maximize_dual(counted, sp, seed=0, restarts=2, nonneg=True)
    assert off == 2 * n


def test_avar_ascent_stays_inside_the_cap():
    # a draw of the test above, on the generic path: a transfer ended at
    # g_0 = 2 + 4.8e-10 while the conjugate let densities exceed the cap
    # 1/alpha = 2 by FEAS_TOL, and the dual value then beat phi(f) by
    # 8.3e-11
    sp = uniform_probability(4)
    fv = np.array([2.5627068171756378, -2.1330760213158078,
                   1.3047132417049472, 1.8662354395865082])
    phi = average_value_at_risk(0.5, sp)
    obj = duality._DualObjective(phi.closed_form_conjugate, sp, fv)
    res = maximize_dual(obj, sp, seed=24171, restarts=2, nonneg=True)
    assert res.g.max() <= 2.0
    assert res.value <= phi.evaluate(Rv(sp, fv)) + 1e-12


def test_pattern_line_stops_where_a_coordinate_reaches_zero():
    # on maximize_dual's generic path, the pattern line of restart 1 runs
    # g_1 down to zero; past it, inside the conjugate's FEAS_TOL slack, it
    # reached g_1 = -1e-9 and beat phi(f) = 0 by 1e-9
    sp = uniform_probability(2)
    fv = np.array([0.0, -2.0])
    phi = worst_case(sp)
    obj = duality._DualObjective(phi.closed_form_conjugate, sp, fv)
    res = maximize_dual(obj, sp, seed=64538, restarts=2, nonneg=False)
    assert res.g.min() >= 0.0
    assert res.value <= phi.evaluate(Rv(sp, fv)) + 1e-12


def test_pattern_line_of_a_dual_without_hooks_stops_at_zero():
    # on maximize_dual's generic path, which searches its pair and pattern
    # lines; uncut, a pattern line ran a density past zero into the
    # conjugate's FEAS_TOL slack, to -1.0e-9
    sp = uniform_probability(4)
    fv = np.array([-0.6, -1.1, 0.1, 0.6])
    phi = average_value_at_risk(0.5, sp)
    obj = duality._DualObjective(phi.closed_form_conjugate, sp, fv)
    res = maximize_dual(obj, sp, seed=19, restarts=2)
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
                    obj = duality._DualObjective(phi.evaluate, sp, gv)
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
                            t, reads = phi.coordinate_step(
                                fv, i, gv, float(a), float(b))
                            assert a <= t <= b
                            assert (reads == 0) == (member == 0)
                            step, _ = duality._line_search(h, a, b, t0, v)
                            assert h(t) >= (step[1] if step else v) - tol


def _fenchel_duals(rng, member, phi, sp):
    """Densities for a numeric conjugate of catalog ``member``: one of its
    own, where the conjugate is finite (g = 1 exactly for the expectation),
    then ones where it is +inf: a dip to -0.5, masses 0.8 and 1.2 and, for
    AVaR and the expectation, one atom at 1.5 times the box's top: the cap
    for AVaR, the largest double within FEAS_TOL of 1 for the expectation."""
    n = sp.n_atoms
    g = np.ones(n) if member == 3 else _feasible_dual(rng, member, phi, sp)
    dipped = g.copy()
    dipped[rng.integers(n)] = -0.5
    duals = [g, dipped, 0.8 * g, 1.2 * g]
    if member in (1, 3):
        top = (math.nextafter(1.0 + FEAS_TOL, 0.0) if member == 3
               else phi.closed_form_conjugate.upper)
        over = g.copy()
        over[int(np.argmax(g))] = 1.5 * top
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
def test_ascent_values_are_the_objective_at_their_point(monkeypatch, nonneg):
    # the mass-multiplier solve reads its value once, from the whole
    # objective, for the ascent over g >= 0 of a certificate (nonneg) and
    # the sign-free one of a biconjugate alike
    ascents = []
    solve = duality._mass_multiplier_solve

    def spied(conj, space, fv, ceiling):
        res = solve(conj, space, fv, ceiling)
        ascents.append((duality._DualObjective(conj, space, fv), res))
        return res

    monkeypatch.setattr(duality, "_mass_multiplier_solve", spied)
    rng = np.random.default_rng(2024)
    for n in (2, 3, 5, 8):
        for uniform in (True, False):
            sp, catalog = _catalog_draw(rng, n, uniform)
            # the expectation's conjugate has no unit mass, and its dual
            # takes the generic ascent
            for phi in catalog[:3]:
                f = Rv(sp, rng.uniform(-2.0, 2.0, n))
                if nonneg:
                    reconstruct(phi, f, PSI2, seed=n, restarts=2,
                                force_numeric=True, validation_trials=40)
                else:
                    biconjugate_check(phi, [f], seed=n, restarts=2)
    assert len(ascents) == 4 * 2 * 3
    for obj, res in ascents:
        assert res.value == obj(res.g)


@pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5])
def test_numeric_avar_certificates_reach_the_cap(alpha):
    # AVaR's dual is linear up to the cap g = 1/alpha; its greedy vertex
    # fills atoms to the cap, so the numeric certificate is the closed
    # form's and stops at its ceiling. Searched for inside the segment, the
    # cap was found to about 2e-7 of it: misses up to 1.2e-7, and 94 of 210
    # ceiling stops
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
            # the solve reads its value once
            assert cert.evaluations == 1


def _kkt_ok(conj, f, g):
    """Whether ``g`` meets the KKT conditions of the dual of a unit-mass
    ``conj`` at ``f`` within rounding: with ``beta = inf``, no outcome below
    the cap beats one above 0; otherwise one value of mass,
    u_k = f_k - (log g_k + 1) / beta, on the atoms strictly inside the box,
    no less at the cap, and an exact share below about the smallest normal
    double where g is below it, since subnormal shares keep few digits."""
    cap = conj.upper
    if conj.beta == math.inf:
        return f[g < cap].max(initial=-math.inf) <= f[g > 0.0].min()
    tiny = np.finfo(float).tiny
    normal = g >= tiny
    u = f[normal] - (np.log(g[normal]) + 1.0) / conj.beta
    tol = 64 * np.finfo(float).eps * (
        1.0 + np.max(np.abs(f)) + np.max(np.abs(u)))
    lam = u[g[normal] < cap].max(initial=u.min())
    return (u.min() >= lam - tol
            and np.all(conj.beta * (f[~normal] - lam) - 1.0
                       <= math.log(1.01 * tiny)))


@pytest.mark.parametrize("seed", range(3))
def test_pair_ascent_stops_within_its_bound_of_phi(seed):
    # numpy-seeded (ROADMAP J) on the duals the mass-multiplier solve serves:
    # entropic at beta 0.5, 1 and 2, AVaR at four levels and the worst case, on
    # spaces of 1 to 4,096 atoms with uniform or random weights, f at scales
    # 1e-300 to 1e6, with and without ties. Its value sums n terms whose
    # magnitudes add up to about max|f|, each within n eps max|f| of its exact
    # value when summed in floating point (Higham, *Accuracy and Stability of
    # Numerical Algorithms*, 2002, sec. 4.2), so it may pass phi(f) by that
    # much, and it stops no further below than CEILING_TOL = 1e-12 times 1 +
    # |phi(f)|. Its densities are closed_form_maximizer's within 2 n eps of
    # mass per atom where that maximizer is unique, and every solve meets its
    # KKT conditions. A biconjugate runs the same solve once for both of its
    # suprema
    rng = np.random.default_rng([28, seed])
    eps = np.finfo(float).eps
    for n in (*range(1, 13), 100, 1024, 4096):
        raw = rng.uniform(0.05, 1.0, n) if rng.uniform() < 0.5 else np.ones(n)
        sp = MeasureSpace.finite(raw / raw.sum())
        members = ([entropic(beta, sp) for beta in (0.5, 1.0, 2.0)]
                   + [average_value_at_risk(alpha, sp)
                      for alpha in (0.1, 0.25, 0.5, 1.0)]
                   + [worst_case(sp)])
        # two draws no case reads: the caps this seed once drew for capped
        # entropies, a shape SeparableConjugate refuses; drawing them keeps
        # the seed's later examples
        rng.uniform(1.01, 4.0, 2)
        for scale in (1e-300, 1e-8, 1.0, 1e3, 1e6):
            f = rng.normal(0.0, scale, n)
            if rng.uniform() < 0.5:
                f[rng.uniform(size=n) < 0.3] = f[-1]
            distinct = len(np.unique(f)) == n
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                for conj in [phi.closed_form_conjugate for phi in members]:
                    res = duality._mass_multiplier_solve(conj, sp, f,
                                                         math.inf)
                    g = res.g
                    assert (res.evaluations, res.sweeps) == (1, 0)
                    assert g.min() >= 0.0 and g.max() <= conj.upper
                    assert abs(float(sp.weights @ g) - 1.0) <= FEAS_TOL
                    assert _kkt_ok(conj, f, g)
                for phi in members:
                    conj = phi.closed_form_conjugate
                    fr = Rv(sp, f)
                    primal = phi.evaluate(fr)
                    stop = duality.CEILING_TOL * (1.0 + abs(primal))
                    slack = 2 * n * eps * (1.0 + np.max(np.abs(f)))
                    res = duality._mass_multiplier_solve(conj, sp, f, primal)
                    assert primal - stop <= res.value <= primal + slack
                    assert res.stop_reason == "ceiling"
                    if conj.beta < math.inf or distinct:
                        exact = phi.closed_form_maximizer(fr).values
                        assert (np.max(sp.weights * np.abs(res.g - exact))
                                <= 2 * n * eps)
                    if n <= 12:
                        rep = biconjugate_check(phi, [fr])
                        assert rep.max_split == 0.0
                        assert rep.evaluations == res.evaluations


def test_a_solve_short_of_its_ceiling_stops_flat():
    # the solve is exact, so its stop reason says whether its value is
    # within CEILING_TOL of phi(f): a functional 1e-9 above the entropic,
    # with the entropic's conjugate, is not that conjugate's primal, and its
    # certificate stops flat, 1e-9 short
    sp = uniform_probability(4)
    ent = entropic(1.0, sp)
    raised = RiskFunctional(name="raised entropic", space=sp,
                            evaluate=lambda f: ent.evaluate(f) + 1e-9,
                            proper_witness=zeros(sp),
                            closed_form_conjugate=ent.closed_form_conjugate)
    f = Rv(sp, [0.3, -0.2, 0.5, 1.1])
    _, cert = reconstruct(raised, f, PSI2, validation_trials=40)
    assert cert.stop_reason == "flat"
    assert cert.gap == pytest.approx(1e-9, rel=1e-6)
    _, exact = reconstruct(ent, f, PSI2, force_numeric=True,
                           validation_trials=40)
    assert exact.stop_reason == "ceiling"


def test_numeric_entropic_certificate_at_128_atoms():
    # sweeps of a closed-form step on every pair made about 99,000 calls at
    # this size, and one step per violating pair about ten per atom; the
    # mass-multiplier solve reads one
    sp = uniform_probability(128)
    phi = entropic(1.0, sp)
    f = Rv(sp, np.random.default_rng(128).normal(0.0, 1.5, 128))
    _, cert = reconstruct(phi, f, PSI2, restarts=2, force_numeric=True,
                          validation_trials=10)
    assert cert.stop_reason == "ceiling"
    assert cert.gap <= duality.CEILING_TOL * (1.0 + abs(phi.evaluate(f)))
    assert cert.evaluations == 1


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
    # the mass-multiplier solve: no sweeps, one read, at its ceiling. Its
    # value may pass phi(f) by the rounding bound of
    # test_pair_ascent_stops_within_its_bound_of_phi, 2 n eps (1 + max|f|)
    assert cert.start_index == 0
    assert (cert.sweeps, cert.evaluations) == (0, 1)
    assert cert.stop_reason == "ceiling"
    eps = np.finfo(float).eps
    assert (-2 * 3 * eps * (1.0 + 1.1) <= cert.gap
            <= duality.CEILING_TOL * (1.0 + abs(ent.evaluate(f))))
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
    # line was searched; the mass-multiplier solve reads them off its
    # log-sum-exp
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
    # stops there is within CEILING_TOL of phi(f). The mass-multiplier
    # solve of a unit-mass conjugate, members 0 to 4, always does; the
    # expectation's
    # generic ascent, where it does not, is the ceiling-free ascent's, bit
    # for bit
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
    if member < 5:
        assert cert.stop_reason == "ceiling"
    if cert.stop_reason == "ceiling":
        assert cert.gap <= duality.CEILING_TOL * (1.0 + abs(primal))
    else:
        free = maximize_dual(
            duality._DualObjective(phi.closed_form_conjugate, sp, f.values),
            sp, seed=seed, restarts=2)
        assert cert.g.values.tobytes() == free.g.tobytes()
    # AVaR included: its greedy vertex fills atoms to the cap g = 1/alpha
    assert abs(got - exact) <= 1e-10


def test_criterion_4_numeric_path_call_budget(dual_calls):
    # criterion 4's 50 numeric certificates, counted at the dual objective:
    # 50, one read per mass-multiplier solve; 2,847 (with the pair steps)
    # with one pair ascent step per violating pair and a KKT stop; 5,154
    # with sweeps of a closed-form step on every pair, coordinate guards and
    # pattern lines; 28,772 with a line search on every line; 153,500
    # without a ceiling, the pattern line and two flat sweeps per restart
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
    # the certificates report every call
    assert dual_calls[0] == reported
    assert dual_calls[0] <= 50


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
    # its start, then one point per sweep, after its last step, and an
    # entropic step reads nothing itself
    sp = uniform_probability(5)
    phi = entropic(1.0, sp)
    gv = np.array([0.4, 1.3, 0.9, 1.6, 0.8])
    obj = duality._DualObjective(phi.evaluate, sp, gv)
    res = maximize_dual(obj, sp, restarts=1, nonneg=False,
                        coord_step=lambda f, i, lo, hi:
                        phi.coordinate_step(f, i, gv, float(lo), float(hi)))
    assert res.stop_reason == "flat"
    assert res.evaluations == 1 + res.sweeps


def test_a_coordinate_step_that_reads_minus_inf_is_not_taken():
    # the steps point past the objective's domain: the ascent reads the
    # sweep's end once, drops the whole sweep, and searches no line in its
    # place
    sp = uniform_probability(3)

    def objective(f):
        return -float(f @ f) if np.all(f < 2.0) else -math.inf

    res = maximize_dual(objective, sp, restarts=1, nonneg=False,
                        coord_step=lambda f, i, lo, hi: (hi, 0))
    assert res.stop_reason == "flat" and res.sweeps == 1
    assert res.evaluations == 1 + 1
    assert res.g.tolist() == [1.0, 1.0, 1.0]


def test_a_stepped_sweep_that_does_not_gain_is_dropped_whole():
    # the entropic steps, but on the third sweep the hook sets coordinate 2
    # half a unit past its maximizer: that sweep's one read falls below its
    # start, and the ascent returns the start's bits, not the other three
    # coordinates' steps
    sp = uniform_probability(4)
    phi = entropic(1.0, sp)
    gv = np.array([0.4, 1.3, 0.9, 1.4])
    obj = duality._DualObjective(phi.evaluate, sp, gv)
    steps = []

    def step(f, i, lo, hi):
        steps.append(i)
        t, reads = phi.coordinate_step(f, i, gv, lo, hi)
        return (t + 0.5 if len(steps) == 2 * 4 + 3 else t), reads

    reads = []

    def logged(f):
        reads.append((f.copy(), obj(f)))
        return reads[-1][1]

    res = maximize_dual(logged, sp, restarts=1, nonneg=False,
                        coord_step=step)
    assert res.stop_reason == "flat" and res.sweeps == 3
    assert res.evaluations == len(reads) == 1 + 3
    (start, v_start), (end, v_end) = reads[-2:]
    assert v_start > reads[-3][1] and v_end < v_start
    assert np.count_nonzero(end != start) >= 2
    assert res.g.tobytes() == start.tobytes()
    assert res.value == v_start


def _per_step_ascent(objective, space, coord_step, seed, restarts, ceiling):
    """The stepped ascent as it ran before sweeps read the objective once:
    the objective read after every step, each step taken on strict
    improvement only, and the ceiling checked after each taken step.
    Returns ``(g, value, rejected)``, where ``rejected`` counts the steps
    it did not take."""
    stop_at = ceiling - duality.CEILING_TOL * (1.0 + abs(ceiling))
    w, n = space.weights, space.n_atoms
    best, rejected = None, 0
    for r in range(restarts):
        if r == 0:
            g = np.full(n, 1.0 / float(space.total_mass))
        else:
            raw = np.abs(np.random.default_rng([seed, r]).normal(
                0.0, 1.0, n)) + 0.05
            g = raw / float(np.dot(w, raw))
        v = objective(g)
        if r == 0 and v == -math.inf:
            v_one = objective(np.ones(n))
            if v_one > v:
                g, v = np.ones(n), v_one
        if v >= stop_at:
            return g, v, rejected
        for _ in range(duality.SWEEP_CAP):
            v_before = v
            span = 2.0 * (1.0 + float(np.max(np.abs(g))))
            for i in range(n):
                t, _ = coord_step(g, i, g[i] - span, g[i] + span)
                old = g[i]
                g[i] = t
                val = objective(g)
                g[i] = old
                if val > v:
                    g[i], v = t, val
                    if v >= stop_at:
                        return g, v, rejected
                else:
                    rejected += 1
            if v == v_before or v - v_before <= 1e-11 * (1.0 + abs(v)):
                break
        if best is None or v > best[1]:
            best = (g.copy(), v)
    return (*best, rejected)


@pytest.mark.parametrize("member", range(4))
def test_stepped_sweeps_match_the_per_step_reference(member):
    # numpy-seeded: each catalog member's numeric conjugate at its own
    # maximizer for f ~ N(0, 1.5^2), as verify-all draws it, n = 2 ... 8.
    # Where the reference takes every step, both ascents visit the same
    # points and read the same bits. Elsewhere a step the reference refused
    # had its line's maximum within a read's rounding of the current value
    # (the step is exact), and both answers are computed reads of
    # <f, g> - phi(f) near the supremum. One read's rounding error is at
    # most about (n + 2) u S, with u = 2^-53 and S = sum w |f g| + |phi(f)|
    # (an n-term dot product and phi's own n-term sum; Higham 2002, 3.1);
    # the bound allows two reads and a factor 2 for the points' distance
    rng = np.random.default_rng([member, 2, 8])
    u = 2.0 ** -53
    for n in range(2, 9):
        sp = uniform_probability(n)
        phi = increasing_catalog(sp, beta=1.0, alpha=0.5)[member]
        for draw in range(15):
            g = phi.closed_form_maximizer(Rv(sp, rng.normal(0.0, 1.5, n)))
            obj = duality._DualObjective(phi.evaluate, sp, g.values)

            def step(f, i, lo, hi, gv=g.values):
                return phi.coordinate_step(f, i, gv, float(lo), float(hi))

            ceiling = 2.0 * duality.DIVERGENCE_ASCENT
            ref_g, ref_v, rejected = _per_step_ascent(obj, sp, step, draw, 2,
                                                      ceiling)
            est = fenchel_conjugate_value(phi, g, seed=draw, restarts=2,
                                          force_numeric=True)
            assert est.stop_reason == "flat" and math.isfinite(ref_v)
            if rejected == 0:
                assert est.value == ref_v
                assert est.best_f.values.tobytes() == ref_g.tobytes()
                continue
            scale = max(
                float(np.dot(sp.weights, np.abs(f * g.values)))
                + abs(phi.evaluate(Rv(sp, f)))
                for f in (ref_g, est.best_f.values))
            assert abs(est.value - ref_v) <= 4.0 * (n + 2) * u * scale


@pytest.mark.parametrize("seed", range(2))
def test_lines_with_a_step_are_never_searched(monkeypatch, seed):
    # numpy-seeded, every catalog member: a numeric Fenchel conjugate
    # searches no line, and neither do a numeric certificate or a
    # biconjugate: the mass-multiplier solve has no lines, and the
    # expectation's generic ascent starts at its ceiling
    events = []
    search, segment = duality._line_search, duality._pattern_segment

    def logged_search(h, lo, hi, t0, v):
        events.append(v > -math.inf)
        return search(h, lo, hi, t0, v)

    def logged_segment(g, d):
        events.append("pattern")
        return segment(g, d)

    monkeypatch.setattr(duality, "_line_search", logged_search)
    monkeypatch.setattr(duality, "_pattern_segment", logged_segment)
    rng = np.random.default_rng([27, seed])
    for n in range(2, 9):
        sp, catalog = _catalog_draw(rng, n, bool(n % 2))
        for member, phi in enumerate(catalog):
            events.clear()
            for gv in _fenchel_duals(rng, member, phi, sp):
                fenchel_conjugate_value(phi, Rv(sp, gv), seed=seed,
                                        restarts=2, force_numeric=True)
            f = Rv(sp, rng.normal(0.0, 1.5, n))
            reconstruct(phi, f, PSI2, seed=seed, restarts=3,
                        force_numeric=True, validation_trials=40)
            biconjugate_check(phi, [f], seed=seed, restarts=3)
            assert events == []


@pytest.mark.parametrize("seed", range(2))
def test_stripped_conjugates_search_all_three_kinds_of_line(monkeypatch,
                                                            seed):
    # numpy-seeded, every catalog member with its coordinate step stripped:
    # the guard lets a numeric Fenchel conjugate's coordinate lines through,
    # and the ascent searches pair lines and pattern lines besides. Every
    # point one coordinate or pair search reads differs from the others in
    # one or two coordinates
    searched, inside, patterns = [], [], []
    search, segment = duality._line_search, duality._pattern_segment
    method = duality._DualObjective.__call__

    def logged_search(h, lo, hi, t0, v):
        inside.append([])
        try:
            return search(h, lo, hi, t0, v)
        finally:
            searched.append(np.array(inside.pop()))

    def logged_segment(g, d):
        patterns.append(d)
        return segment(g, d)

    def read(obj, garr):
        if inside:
            inside[-1].append(garr.copy())
        return method(obj, garr)

    monkeypatch.setattr(duality, "_line_search", logged_search)
    monkeypatch.setattr(duality, "_pattern_segment", logged_segment)
    monkeypatch.setattr(duality._DualObjective, "__call__", read)
    rng = np.random.default_rng([34, seed])
    for n in range(2, 9):
        sp, catalog = _catalog_draw(rng, n, bool(n % 2))
        for member, phi in enumerate(catalog):
            bare = replace(phi, coordinate_step=None)
            for gv in _fenchel_duals(rng, member, phi, sp):
                fenchel_conjugate_value(bare, Rv(sp, gv), seed=seed,
                                        restarts=2, force_numeric=True)
    moved = [int(np.count_nonzero((points != points[0]).any(axis=0)))
             for points in searched if len(points)]
    assert moved.count(1) > 100 and moved.count(2) > 100
    assert len(patterns) > 10


def _kinked(sp):
    """max(f_1, (f_2 + f_3) / 2) on three atoms: convex, increasing and
    cash-additive, with no closed form, row kernel or coordinate step."""
    return RiskFunctional(
        name="kinked", space=sp,
        evaluate=lambda f: max(f.values[0], (f.values[1] + f.values[2]) / 2),
        proper_witness=Rv(sp, [0.0, 0.0, 0.0]))


def test_a_pair_transfer_leaves_a_kink_that_stalls_coordinate_lines():
    # at g = (1, 1.2, 0.8) the objective <f, g> - phi(f) falls along every
    # coordinate line from a constant f and from each kink, and no axis or
    # ones ray diverges; f_2 - f_3, a pair line, gains 0.4 / 3 per unit
    # forever
    sp = uniform_probability(3)
    phi = _kinked(sp)
    est = fenchel_conjugate_value(phi, Rv(sp, [1.0, 1.2, 0.8]),
                                  force_numeric=True)
    assert est.value == math.inf and est.stop_reason == "unbounded"
    # in the scenarios' hull the conjugate is 0, reached at the start
    for gv in ([1.0, 1.0, 1.0], [1.5, 0.75, 0.75], [3.0, 0.0, 0.0]):
        est = fenchel_conjugate_value(phi, Rv(sp, gv), force_numeric=True)
        assert abs(est.value) <= 1e-9


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


@pytest.mark.parametrize("n", [74, 128, 300])
def test_blocked_probes_match_the_scalar_path(n):
    # from n = 74 on the 2n + 2 rays take several evaluate_rows blocks, the
    # last one partial; a block counts all its rows and the first block two
    # cross-check calls, while without a row kernel each ray read counts
    # its six evaluate calls. A dip is deep enough (w_k |g_k| >= 1/2) for
    # its trace to pass 1e4 by 10^6; a mass error of 10 % diverges along +1
    # alone, the last ray. AVaR's feasible ascent, about 52,000 reads at
    # n = 300, is left out for time
    sp = uniform_probability(n)
    rng = np.random.default_rng(n)
    n_rays = 2 * n + 2
    per_block = max(1, _block_rows(n) // 6)
    assert per_block < n_rays and n_rays % per_block
    cases = []
    for phi in increasing_catalog(sp):
        g = _feasible_density(phi, rng)
        if not phi.name.startswith("average_value_at_risk"):
            cases.append((phi, g, None))
        cases.append((phi, 1.1 * g, n_rays - 1))
        for dip in (0, int(rng.integers(0, n))):
            dipped = g.copy()
            dipped[dip] = -float(rng.uniform(0.5, 1.0)) * n
            cases.append((phi, dipped, 2 * dip))
    for phi, gv, first in cases:
        g = Rv(sp, gv)
        counted, reads = _counted(phi)
        rows = fenchel_conjugate_value(counted, g, seed=3, restarts=2,
                                       force_numeric=True)
        row_reads, reads[0] = reads[0], 0
        scalar = fenchel_conjugate_value(replace(counted, evaluate_rows=None),
                                         g, seed=3, restarts=2,
                                         force_numeric=True)
        assert rows.value == scalar.value
        assert rows.stop_reason == scalar.stop_reason
        if first is None:
            assert math.isfinite(rows.value)
            assert rows.diverged_ray is scalar.diverged_ray is None
            # the ascents are one and the same, and count the values of phi
            # their steps read besides the calls seen here
            assert rows.evaluations == scalar.evaluations + 2
            continue
        assert (rows.evaluations, scalar.evaluations) == (row_reads, reads[0])
        assert rows.stop_reason == "ray"
        assert rows.diverged_ray.values.tobytes() == \
            scalar.diverged_ray.values.tobytes()
        ray = np.ones(n) if first == n_rays - 1 else -np.eye(n)[first // 2]
        assert np.array_equal(rows.diverged_ray.values, ray)
        blocks = first // per_block + 1
        assert rows.evaluations == 6 * min(blocks * per_block, n_rays) + 2
        assert scalar.evaluations == 6 * (first + 1)


def test_probes_at_1024_atoms_stay_within_their_blocks():
    # every one of the 2,050 rays is read before +1 diverges; the 12,300
    # probe rows in one row call took a 420 MB tracemalloc peak, blocks of
    # 10 rays about 2 MB
    n = 1024
    sp = uniform_probability(n)
    rng = np.random.default_rng(41)
    raw = np.abs(rng.normal(0.0, 1.0, n)) + 0.05
    g = Rv(sp, 1.1 * raw / float(np.dot(sp.weights, raw)))
    tracemalloc.start()
    try:
        est = fenchel_conjugate_value(entropic(1.0, sp), g, seed=41,
                                      restarts=2, force_numeric=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.stop_reason == "ray"
    assert np.array_equal(est.diverged_ray.values, np.ones(n))
    assert est.evaluations == 6 * (2 * n + 2) + 2
    assert peak < 16 * 2 ** 20


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
    # the numeric certificate's ascent is the mass-multiplier solve
    res = duality._mass_multiplier_solve(ent.closed_form_conjugate, sp, f.values,
                               ent.evaluate(f))
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


def test_reconstruct_needs_a_validation_trial():
    # with zero trials the control passed validation, and reconstruct
    # certified it with gap 1.33 at this f
    sp = uniform_probability(3)
    f = Rv(sp, [1.0, -2.0, 0.5])
    with pytest.raises(ValueError, match="at least one trial"):
        reconstruct(non_monotone_control(sp), f, PSI2, validation_trials=0)


def test_a_repeat_reconstruct_does_not_validate_again(validations):
    sp = uniform_probability(4)
    phi = entropic(1.0, sp)
    f = Rv(sp, [0.3, -1.0, 2.0, 0.5])
    reconstruct(phi, f, PSI2, seed=3, validation_trials=20)
    assert validations == [phi]
    # another f, path or restart count keeps the key (trials, seed + 101)
    reconstruct(phi, -f, PSI2, seed=3, restarts=2, force_numeric=True,
                validation_trials=20)
    reconstruct(phi, f, PSI2, seed=3, validation_trials=20)
    assert validations == [phi]


def test_new_trials_seeds_and_copies_validate_again(validations):
    sp = uniform_probability(4)
    phi = entropic(1.0, sp)
    copy = replace(phi)
    f = Rv(sp, [0.3, -1.0, 2.0, 0.5])
    for p, seed, trials in ((phi, 3, 20), (phi, 4, 20), (phi, 3, 21),
                            (copy, 3, 20), (phi, 4, 20), (copy, 3, 20)):
        reconstruct(p, f, PSI2, seed=seed, validation_trials=trials)
    assert validations == [phi, phi, phi, copy]


@pytest.mark.parametrize("force_numeric", [False, True])
@pytest.mark.parametrize("member", range(4))
def test_remembered_verdicts_change_no_certificate_bit(member, force_numeric,
                                                       validations):
    sp = uniform_probability(5)
    phi = increasing_catalog(sp)[member]
    f = Rv(sp, np.random.default_rng([33, member]).normal(0.0, 1.5, 5))

    def bits(p):
        achieved, cert = reconstruct(p, f, PSI2, seed=2, restarts=2,
                                     force_numeric=force_numeric,
                                     validation_trials=30)
        return (achieved.hex(), cert.g.values.tobytes(),
                cert.conjugate_value.hex(), cert.gap.hex(),
                cert.nonnegative_ok, cert.heart_ok, cert.heart_vacuous,
                cert.start_index, cert.sweeps, cert.evaluations,
                cert.stop_reason)

    first = bits(phi)
    assert bits(phi) == first
    copy = replace(phi)
    assert bits(copy) == first
    assert validations == [phi, copy]


def test_a_failed_verdict_is_refused_the_same_way_each_time(validations):
    sp = uniform_probability(3)
    ctrl = non_monotone_control(sp)
    messages = []
    for _ in range(3):
        with pytest.raises(duality._ValidationRefusal,
                           match="monotone") as err:
            reconstruct(ctrl, zeros(sp), PSI2)
        messages.append(str(err.value))
    assert messages == messages[:1] * 3
    assert validations == [ctrl]


def test_zero_trials_raise_on_every_call(validations):
    sp = uniform_probability(3)
    phi = entropic(1.0, sp)
    reconstruct(phi, zeros(sp), PSI2, validation_trials=40)
    for _ in range(3):
        with pytest.raises(ValueError, match="at least one trial"):
            reconstruct(phi, zeros(sp), PSI2, validation_trials=0)
    assert validations == [phi] * 4
    assert list(duality._VERDICTS[phi]) == [(40, 101)]


def test_the_validation_memo_holds_no_functional_alive():
    sp = uniform_probability(3)
    phi = entropic(1.0, sp)
    reconstruct(phi, zeros(sp), PSI2, validation_trials=10)
    assert phi in duality._VERDICTS
    ref = weakref.ref(phi)
    del phi
    gc.collect()
    assert ref() is None


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
    # a unit-mass separable dual is +inf below 0, so the sign-free
    # supremum is the nonnegative one, and the mass-multiplier solve lands
    # on the box's greedy vertex. phi(f) and the dual value <f, g>
    # there are then sums of n terms whose magnitudes add up to at most
    # max|f| (the weighted densities sum to 1), each within n eps max|f| of
    # its exact value when summed in floating point (Higham, *Accuracy and
    # Stability of Numerical Algorithms*, 2002, sec. 4.2), and a density
    # carries one more rounding of its own. Searched for inside sign-free
    # segments, the walls were found to about 2e-7: deviations 1.9e-7 to
    # 1.0e-6
    sp = uniform_probability(n)
    phi = make(sp)
    rng = np.random.default_rng([25, n])
    probes = [Rv(sp, rng.normal(0.0, 1.5, n)) for _ in range(3)]
    rep = biconjugate_check(phi, probes, seed=0, restarts=2)
    eps = np.finfo(float).eps
    for f, deviation in zip(probes, rep.deviations):
        assert deviation <= 2 * n * eps * (1.0 + np.max(np.abs(f.values)))
    assert rep.max_split == 0.0


def test_biconjugate_check_refuses_an_empty_probe_list():
    with pytest.raises(ValueError, match="empty probe list"):
        biconjugate_check(entropic(1.0, uniform_probability(3)), [])
