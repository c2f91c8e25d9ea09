"""Sequence generators, extraction, w*-limits, Fatou checks, hull closure."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orliczkit import (
    ClosureRefusal,
    MeasureSpace,
    OrliczFunction,
    Rv,
    SequenceFamily,
    closure_demo,
    conjugate,
    entropic,
    expectation,
    extract_ae_subsequence,
    fatou_check,
    generate_sequence,
    increasing_catalog,
    luxemburg_norm,
    non_lsc_control,
    strictly_positive_witness,
    uniform_probability,
    wstar_limit_check,
    zeros,
)
from orliczkit import convergence
from orliczkit.specs import load_custom_table

POWER2 = OrliczFunction.power(2.0)
PSI2 = conjugate(POWER2)


def witnesses(space):
    return (strictly_positive_witness(space, PSI2),
            strictly_positive_witness(space, POWER2))


# -- generators ---------------------------------------------------------------


def within_bound(fam, phi, slack=1e-12):
    """Every term's Luxemburg norm is within the family's declared bound."""
    return all(luxemburg_norm(t, phi).value <= fam.norm_bound + slack
               for t in fam.terms)


def test_norm_convergent_family_shrinks():
    sp = uniform_probability(5)
    f = Rv(sp, [1.0, -1.0, 0.0, 2.0, 0.5])
    fam = generate_sequence(sp, POWER2, f, "norm_convergent", length=20, seed=0)
    assert fam.mode == "norm_convergent"
    assert len(fam) == 20
    norms = [luxemburg_norm(t - f, POWER2).value for t in fam.terms]
    # the residual scales exactly like 1/n
    for n, v in enumerate(norms, start=1):
        assert v == pytest.approx(norms[0] / n, rel=1e-9)
    assert within_bound(fam, POWER2)


def test_spike_family_constant_norm_until_exit():
    sp = MeasureSpace.truncated_countable(np.ones(4))
    f = zeros(sp)
    fam = generate_sequence(sp, POWER2, f, "ae_only_traveling_spike",
                            length=7, seed=0, spike_height=1.0)
    # while the spike walks the atoms, each term has |f_n - f| = one
    # indicator: constant Luxemburg norm 1 under t^2 with unit weights
    for term in fam.terms[:4]:
        assert luxemburg_norm(term - f, POWER2).value == pytest.approx(1.0, abs=1e-9)
    # beyond the truncation the spike leaves the recorded window
    for term in fam.terms[4:]:
        assert np.array_equal(term.values, f.values)
    assert within_bound(fam, POWER2)


def test_spike_supremum_grows_with_truncation():
    # pointwise sup over the family is the all-ones vector: its norm grows
    # like N^(1/2) under t^2 with counting weights
    for n in (4, 16, 64):
        sp = MeasureSpace.truncated_countable(np.ones(n))
        fam = generate_sequence(sp, POWER2, zeros(sp),
                                "ae_only_traveling_spike", length=n, seed=0)
        sup = np.max(np.stack([t.values for t in fam.terms]), axis=0)
        assert luxemburg_norm(Rv(sp, sup), POWER2).value == pytest.approx(
            math.sqrt(n), rel=1e-9)


def test_spike_bound_covers_every_term_on_geometric_weights():
    # distinct weights: one indicator norm at the largest visited weight
    # bounds every term, since an indicator's norm grows with its mass
    n = 40
    sp = MeasureSpace.truncated_countable(0.5 ** np.arange(1, n + 1))
    f = Rv(sp, np.random.default_rng(4).normal(0.0, 1.0, n))
    for phi in (POWER2, PSI2, OrliczFunction.exp_young(),
                conjugate(OrliczFunction.exp_young())):
        for length in (1, 7, n + 8):
            fam = generate_sequence(sp, phi, f, "ae_only_traveling_spike",
                                    length=length, spike_height=2.5)
            norms = [luxemburg_norm(t, phi).value for t in fam.terms]
            assert max(norms) <= fam.norm_bound
            assert within_bound(fam, phi, slack=0.0)


def test_order_convergent_family_dominated():
    sp = uniform_probability(4)
    f = Rv(sp, [0.0, 1.0, -1.0, 3.0])
    fam = generate_sequence(sp, POWER2, f, "order_convergent", length=12, seed=3)
    first = np.abs(fam.terms[0].values - f.values)
    for n, term in enumerate(fam.terms, start=1):
        assert np.allclose(np.abs(term.values - f.values), first / n)
    assert within_bound(fam, POWER2)


def test_generator_rejects_unknown_mode():
    sp = uniform_probability(2)
    with pytest.raises(ValueError):
        generate_sequence(sp, POWER2, zeros(sp), "sideways", length=3, seed=0)
    with pytest.raises(ValueError):
        generate_sequence(sp, POWER2, zeros(sp), "norm_convergent", length=0,
                          seed=0)


@pytest.mark.parametrize("mode", ["norm_convergent",
                                  "ae_only_traveling_spike",
                                  "order_convergent"])
def test_generator_refuses_a_negative_seed_before_any_work(mode, monkeypatch):
    # numpy's default_rng leaked "expected non-negative integer" here, the
    # spike mode included, after the base norm was taken
    norms = []
    for name in ("luxemburg_norm", "indicator_norm"):
        monkeypatch.setattr(convergence, name,
                            lambda *args, name=name: norms.append(name))
    sp = uniform_probability(3)
    with pytest.raises(ValueError,
                       match="generate_sequence needs a nonnegative seed"):
        generate_sequence(sp, POWER2, zeros(sp), mode, length=4, seed=-1)
    assert norms == []


def test_family_bound_declaration():
    sp = uniform_probability(3)
    f = Rv(sp, [1.0, 2.0, 3.0])
    fam = SequenceFamily.from_terms([f, 2.0 * f], f, POWER2)
    assert within_bound(fam, POWER2)
    declared_low = SequenceFamily(terms=(f, 2.0 * f), norm_bound=0.1,
                                  mode="custom", limit=f)
    assert not within_bound(declared_low, POWER2)


def test_from_terms_takes_one_norm(monkeypatch):
    calls = []

    def counted(f, phi):
        calls.append(f)
        return luxemburg_norm(f, phi)

    monkeypatch.setattr(convergence, "luxemburg_norm", counted)
    sp = uniform_probability(3)
    f = Rv(sp, [1.0, -2.0, 3.0])
    terms = [f, Rv(sp, [-3.0, 0.5, 1.0]), 0.5 * f]
    fam = SequenceFamily.from_terms(terms, f, POWER2)
    # the one norm is the envelope's, max_j |t_j| atom by atom
    assert len(calls) == 1
    assert np.array_equal(calls[0].values, [3.0, 2.0, 3.0])
    assert fam.norm_bound >= luxemburg_norm(calls[0], POWER2).value


@pytest.fixture(scope="module")
def young_functions(tmp_path_factory):
    table = tmp_path_factory.mktemp("young") / "table.csv"
    table.write_text("t,value\n0,0\n1,1\n2,4\n", encoding="utf-8")
    return {"power2": POWER2, "exp_young": OrliczFunction.exp_young(),
            "linf_step": OrliczFunction.linf_step(),
            "table": load_custom_table(str(table))}


@settings(max_examples=80, derandomize=True, deadline=None)
@given(name=st.sampled_from(("power2", "exp_young", "linf_step", "table")),
       shape=st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
           lambda s: st.tuples(
               st.lists(st.floats(1e-9, 10.0), min_size=s[1], max_size=s[1]),
               st.lists(st.lists(st.floats(-30.0, 30.0,
                                           allow_subnormal=False),
                                 min_size=s[1], max_size=s[1]),
                        min_size=s[0], max_size=s[0]))))
# a near tie: the envelope exceeds the first term only on a light atom, and
# bisection reads the term's norm 2.6e-11 relative above the envelope's
@example(name="power2", shape=([1.0, 1e-9], [[0.94, 1.0], [0.0, 1.0 + 1e-9]]))
def test_from_terms_bound_covers_every_term(young_functions, name, shape):
    weights, rows = shape
    phi = young_functions[name]
    sp = MeasureSpace.finite(weights)
    terms = [Rv(sp, row) for row in rows]
    fam = SequenceFamily.from_terms(terms, terms[0], phi)
    # every term's Luxemburg norm is at most the bound, with no slack
    assert within_bound(fam, phi, slack=0.0)


# -- extraction ---------------------------------------------------------------


def test_extraction_constant_family_picks_consecutively():
    sp = uniform_probability(4)
    f = Rv(sp, [1.0, 0.0, -1.0, 0.5])
    fam = SequenceFamily.from_terms([f] * 12, f, POWER2)
    g0, f0 = witnesses(sp)
    res = extract_ae_subsequence(fam, f, g0, f0)
    assert res.status == "ok"
    assert list(res.indices) == list(range(12))
    assert all(p == 0.0 for p in res.pairings)
    assert res.trace_bound_ok
    assert res.pointwise_ok


def test_extraction_geometric_family():
    sp = uniform_probability(3)
    f = zeros(sp)
    terms = [Rv(sp, [2.0 ** -n, 0.0, 0.0]) for n in range(1, 30)]
    fam = SequenceFamily.from_terms(terms, f, POWER2)
    g0, f0 = witnesses(sp)
    res = extract_ae_subsequence(fam, f, g0, f0)
    assert res.status == "ok"
    assert res.trace_bound_ok
    assert res.pointwise_ok
    # every pick honors its target
    for p, t in zip(res.pairings, res.targets):
        assert p <= t


def test_extraction_exhausts_slow_recording_without_failing():
    # pairings decay like 1/k: targets outpace them, the recording runs
    # out, and that is exhaustion (ok + stalled target), not failure
    sp = uniform_probability(3)
    f = zeros(sp)
    terms = [Rv(sp, [1.0 / n, 0.0, 0.0]) for n in range(1, 25)]
    fam = SequenceFamily.from_terms(terms, f, POWER2)
    g0, f0 = witnesses(sp)
    res = extract_ae_subsequence(fam, f, g0, f0)
    assert res.status == "ok"
    assert res.stalled_at is not None
    assert res.trace_bound_ok and res.pointwise_ok


def test_extraction_inconclusive_on_non_decaying_family():
    sp = uniform_probability(3)
    f = zeros(sp)
    stuck = Rv(sp, [1.0, 0.0, 0.0])
    fam = SequenceFamily.from_terms([stuck] * 16, f, POWER2)
    g0, f0 = witnesses(sp)
    res = extract_ae_subsequence(fam, f, g0, f0)
    assert res.status == "inconclusive"
    assert res.stalled_at is not None
    assert not res.pointwise_ok


def test_extraction_refuses_unbounded_and_bad_witnesses():
    sp = uniform_probability(3)
    f = zeros(sp)
    fam = SequenceFamily(terms=(f,), norm_bound=math.inf, mode="custom",
                         limit=f)
    g0, f0 = witnesses(sp)
    with pytest.raises(ValueError, match="norm-unbounded"):
        extract_ae_subsequence(fam, f, g0, f0)
    ok_fam = SequenceFamily.from_terms([f], f, POWER2)
    with pytest.raises(ValueError, match="strictly positive"):
        extract_ae_subsequence(ok_fam, f, zeros(sp), f0)


def test_extraction_trace_is_nonincreasing_tail_sup():
    sp = uniform_probability(4)
    f = zeros(sp)
    rng = np.random.default_rng(2)
    terms = [Rv(sp, rng.uniform(0.0, 1.0, 4) * 2.0 ** -n)
             for n in range(1, 22)]
    fam = SequenceFamily.from_terms(terms, f, POWER2)
    g0, f0 = witnesses(sp)
    res = extract_ae_subsequence(fam, f, g0, f0)
    assert res.trace_bound_ok
    assert all(a >= b - 1e-15 for a, b in zip(res.trace, res.trace[1:]))
    # the margin is the largest excess over the telescoped bound, 0.0 here
    excess = max(t - (2.0 ** (-(m - 1)) + 1e-12)
                 for m, t in enumerate(res.trace, start=1))
    assert res.trace_margin == max(0.0, excess) == 0.0


# -- w*-limit checks ----------------------------------------------------------


def test_wstar_check_accepts_norm_convergent():
    sp = uniform_probability(4)
    f = Rv(sp, [1.0, -2.0, 0.5, 0.0])
    fam = generate_sequence(sp, POWER2, f, "norm_convergent", length=400,
                            seed=1)
    tests = [Rv(sp, [1.0, 1.0, 1.0, 1.0]), Rv(sp, [2.0, 0.0, -1.0, 0.7])]
    rep = wstar_limit_check(fam, f, tests, PSI2, tail_tol=1e-1)
    assert rep.converged
    assert rep.worst_tail <= 1e-1


def test_wstar_check_rejects_unbounded_family():
    sp = uniform_probability(3)
    f = zeros(sp)
    fam = SequenceFamily(terms=(f,), norm_bound=math.inf, mode="custom",
                         limit=f)
    with pytest.raises(ValueError, match="norm-unbounded"):
        wstar_limit_check(fam, f, [f + 1.0], PSI2)


def test_wstar_check_rejects_test_outside_heart():
    sp = uniform_probability(3)
    f = zeros(sp)
    fam = SequenceFamily.from_terms([f], f, POWER2)
    psi_step = OrliczFunction.linf_step()
    with pytest.raises(ValueError, match="heart"):
        wstar_limit_check(fam, f, [f + 1.0], psi_step)


@pytest.mark.parametrize("f0", [[1.0, -0.5, 1.0], [1.0, 0.0, 1.0]])
def test_wstar_check_refuses_a_non_positive_f0(f0):
    # with a zero or negative f0 the overflow and dominated parts of a zero
    # residual are not zero, which the spike layout's readers rely on
    sp = uniform_probability(3)
    f = zeros(sp)
    fam = generate_sequence(sp, POWER2, f, "ae_only_traveling_spike",
                            length=4)
    with pytest.raises(ValueError, match="f0"):
        wstar_limit_check(fam, f, [f + 1.0], PSI2, f0=Rv(sp, f0))


def test_wstar_split_attributes_spike_overflow():
    # a unit spike against constant f0 = 1 is entirely dominated mass;
    # a tall spike overflows
    sp = uniform_probability(8, truncated=True)
    f = zeros(sp)
    tall = generate_sequence(sp, POWER2, f, "ae_only_traveling_spike",
                             length=8, seed=0, spike_height=5.0)
    tests = [Rv(sp, np.ones(8))]
    rep = wstar_limit_check(tall, f, tests, PSI2, tail_tol=1e-12)
    assert max(rep.overflow_tails) > 0.0


# -- Fatou condition ----------------------------------------------------------


def test_fatou_catalog_never_violates():
    sp = uniform_probability(4)
    rng = np.random.default_rng(4)
    base = Rv(sp, rng.normal(0.0, 1.0, 4))
    families = []
    for mode in ("norm_convergent", "ae_only_traveling_spike",
                 "order_convergent"):
        for k in range(5):
            families.append(generate_sequence(sp, POWER2, base, mode,
                                              length=24, seed=10 + k))
    for fn in increasing_catalog(sp):
        rep = fatou_check(fn, families, tol=1e-9)
        assert rep.violation_count == 0, fn.name
        assert rep.worst_margin <= 1e-9
        assert len(rep.rows) == len(families)


def test_fatou_flags_non_lsc_control():
    sp = uniform_probability(4)
    base = Rv(sp, [0.1, -0.2, 0.3, 0.0])
    ctrl = non_lsc_control(expectation(sp), base)
    fam = generate_sequence(sp, POWER2, base, "norm_convergent", length=24,
                            seed=0)
    rep = fatou_check(ctrl, [fam], tol=1e-9)
    assert rep.violation_count == 1
    # the control evaluates one unit above the limit; the tail terms still
    # carry 1/n noise, so the measured shortfall sits just under 1
    assert rep.worst_margin == pytest.approx(1.0, abs=5e-2)
    assert rep.rows[0].violation


def test_fatou_requires_families_that_settle():
    sp = uniform_probability(3)
    f = zeros(sp)
    stuck = SequenceFamily.from_terms([f + 1.0] * 12, f, POWER2)
    with pytest.raises(ValueError, match="settle"):
        fatou_check(expectation(sp), [stuck], tol=1e-9)


def test_fatou_liminf_uses_last_quarter():
    sp = uniform_probability(2)
    f = zeros(sp)
    fam = generate_sequence(sp, POWER2, f, "norm_convergent", length=40,
                            seed=5)
    rep = fatou_check(expectation(sp), [fam], tol=1e-9)
    row = rep.rows[0]
    tail_values = [expectation(sp).evaluate(t) for t in fam.terms[30:]]
    assert row.liminf_estimate == pytest.approx(min(tail_values), abs=1e-15)


def test_fatou_evaluates_only_the_last_quarter():
    sp = uniform_probability(2)
    fam = generate_sequence(sp, POWER2, zeros(sp), "norm_convergent",
                            length=40, seed=5)
    base = expectation(sp)
    calls = 0

    def counted(rv):
        nonlocal calls
        calls += 1
        return base.evaluate(rv)

    fatou_check(replace(base, evaluate=counted, evaluate_rows=None), [fam])
    assert calls == 10 + 1  # the last quarter of 40 terms and the limit


# -- hull closure -------------------------------------------------------------


def simplex_vertices(sp, scale=4.0):
    n = sp.n_atoms
    verts = [zeros(sp)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = scale
        verts.append(Rv(sp, e))
    return verts


def test_closure_demo_projects_interior_point_exactly():
    sp = uniform_probability(3)
    verts = simplex_vertices(sp)
    f = Rv(sp, [1.0, 1.0, 1.0])  # barycenter of the four vertices
    rep = closure_demo(verts, f, POWER2)
    assert rep.distance_euclid == pytest.approx(0.0, abs=1e-9)
    assert rep.weights == pytest.approx((0.25, 0.25, 0.25, 0.25), abs=1e-6)
    assert rep.envelope_ok
    assert not rep.vertex_shortcut
    assert rep.family.limit.values == pytest.approx(f.values, abs=1e-9)


def test_closure_demo_vertex_shortcut():
    sp = uniform_probability(3)
    verts = simplex_vertices(sp)
    rep = closure_demo(verts, verts[2], POWER2)
    assert rep.vertex_shortcut
    assert rep.distance_euclid == 0.0
    assert rep.envelope_ok


@pytest.mark.parametrize("length", [0, -1])
@pytest.mark.parametrize("on_vertex", [True, False])
def test_closure_demo_refuses_lengths_below_one(length, on_vertex):
    # off the vertex shortcut this raised IndexError; on it, it returned
    # a family of no terms
    sp = uniform_probability(3)
    verts = simplex_vertices(sp)
    f = verts[2] if on_vertex else Rv(sp, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="length must be at least 1"):
        closure_demo(verts, f, POWER2, length=length)


def test_closure_demo_refuses_outside_point():
    sp = uniform_probability(3)
    verts = simplex_vertices(sp)
    f = Rv(sp, [4.0, 4.0, 4.0])  # mass 12 > 4, well outside
    with pytest.raises(ClosureRefusal) as err:
        closure_demo(verts, f, POWER2)
    assert err.value.margin > 0.0


def test_closure_demo_face_projection():
    # project (2.5, 2.5, 0) onto the scale-4 simplex: nearest point is
    # (2, 2, 0) on the edge between the two spanning vertices
    sp = uniform_probability(3)
    verts = simplex_vertices(sp)
    f = Rv(sp, [2.5, 2.5, 0.0])
    rep = closure_demo(verts, f, POWER2, hull_tol=1.0)
    assert rep.projection.values == pytest.approx([2.0, 2.0, 0.0], abs=1e-6)
    assert rep.distance_euclid == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert rep.envelope_ok


def test_closure_demo_skips_a_repeated_vertex():
    # a vertex listed twice gives a pair with a zero difference, which the
    # projection skips; the point is still projected onto the hull
    sp = uniform_probability(3)
    verts = simplex_vertices(sp)
    f = Rv(sp, [1.0, 1.0, 1.0])
    rep = closure_demo([*verts, verts[1]], f, POWER2)
    assert not rep.vertex_shortcut
    assert rep.distance_euclid == pytest.approx(0.0, abs=1e-9)
    assert sum(rep.weights) == pytest.approx(1.0, abs=1e-12)
    assert rep.projection.values == pytest.approx(f.values, abs=1e-9)
    assert rep.envelope_ok


def test_closure_family_feeds_extraction():
    sp = uniform_probability(3)
    verts = simplex_vertices(sp)
    f = Rv(sp, [0.5, 1.0, 0.25])
    rep = closure_demo(verts, f, POWER2, length=24)
    g0, f0 = witnesses(sp)
    res = extract_ae_subsequence(rep.family, rep.projection, g0, f0)
    assert res.status == "ok"
    assert res.trace_bound_ok
    assert res.pointwise_ok


def random_hull(seed, atoms=6, corners=3):
    rng = np.random.default_rng(seed)
    verts = rng.normal(0.0, 1.0, (corners, atoms))
    return rng, verts, rng.dirichlet(np.ones(corners)) @ verts


def test_closure_family_converges_to_its_projection():
    # interior points of 3-vertex hulls in R^6: the envelope alone let the
    # emitted family stop short of the projection, and 27 of these 200
    # failed the pointwise check that closure-demo reports
    sp = uniform_probability(6)
    g0, f0 = witnesses(sp)
    failed = []
    for seed in range(200):
        _, verts, point = random_hull(seed)
        rep = closure_demo([Rv(sp, v) for v in verts], Rv(sp, point), POWER2)
        res = extract_ae_subsequence(rep.family, rep.projection, g0, f0)
        if not (rep.envelope_ok and res.trace_bound_ok and res.pointwise_ok):
            failed.append(seed)
    assert failed == []
    assert np.array_equal(rep.family.values[-1], rep.projection.values)


@pytest.mark.parametrize("case", ["family_no_terms", "family_unknown_mode",
                                  "wstar_no_tests", "fatou_no_families",
                                  "fatou_unbounded", "closure_no_vertices"])
def test_empty_and_unbounded_inputs_are_refused(case):
    sp = uniform_probability(3)
    f = Rv(sp, [0.5, -1.0, 2.0])
    bounded = SequenceFamily((f,), 1.0, "custom", f)
    unbounded = SequenceFamily((f,), math.inf, "custom", f)
    calls = {
        "family_no_terms": (lambda: SequenceFamily((), 1.0, "custom", f),
                            "at least one term"),
        "family_unknown_mode": (lambda: SequenceFamily((f,), 1.0, "bogus", f),
                                "unknown family mode"),
        "wstar_no_tests": (lambda: wstar_limit_check(bounded, f, [], PSI2),
                           "at least one test"),
        "fatou_no_families": (lambda: fatou_check(expectation(sp), []),
                              "no families"),
        "fatou_unbounded": (lambda: fatou_check(expectation(sp),
                                                [bounded, unbounded]),
                            "family 1 is declared norm-unbounded"),
        "closure_no_vertices": (lambda: closure_demo([], f, POWER2),
                                "at least one vertex"),
    }
    call, message = calls[case]
    with pytest.raises(ValueError, match=message):
        call()
