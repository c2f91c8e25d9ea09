"""The block-wise matrix readers of a family against row-by-row references,
the one-array family layout, the spike layout's one-atom readers against
the block readers, and the memory the readers take."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orliczkit import (
    OrliczFunction,
    Rv,
    SequenceFamily,
    conjugate,
    expectation,
    extract_ae_subsequence,
    fatou_check,
    generate_sequence,
    strictly_positive_witness,
    uniform_probability,
    wstar_limit_check,
)
from orliczkit import convergence
from orliczkit.convergence import _block_rows, _require_ae_decay
from orliczkit.measure import MeasureSpace, ae_converges

POWER2 = OrliczFunction.power(2.0)
PSI2 = conjugate(POWER2)
EPS = np.finfo(float).eps


# -- row-by-row references: one Python pass per term -------------------------


def ref_extract(family, f, g0, f0, max_picks=40, ae_tol=1e-8):
    w, gv = f.space.weights, g0.values
    diffs = [np.abs(t.values - f.values) for t in family.terms]
    pairings = [float(np.dot(w, d * gv)) for d in diffs]
    q = max(1, len(pairings) // 4)
    decay = min(pairings[-q:]) <= 0.5 * max(pairings[:q]) + 1e-12
    indices, cursor, stalled_at = [], 0, None
    for pick in range(1, max_picks + 1):
        found = next((j for j in range(cursor, len(pairings))
                      if pairings[j] <= 2.0 ** -pick), None)
        if found is None:
            stalled_at = pick
            break
        indices.append(found)
        cursor = found + 1
    trace, pointwise_ok = [], False
    if indices:
        tail_sup = np.zeros(f.space.n_atoms)
        for j in reversed(indices):
            tail_sup = np.maximum(tail_sup, np.minimum(diffs[j], f0.values))
            trace.append(float(np.dot(w, tail_sup * gv)))
        trace.reverse()
        pointwise_ok = ae_converges([family.terms[j] for j in indices], f,
                                    tol=ae_tol).converged
        if not pointwise_ok:
            resid = np.stack([diffs[j] for j in indices])
            half = max(1, len(indices) // 2)
            head = resid[:half].max(axis=0)
            tail = resid[half:].max(axis=0) if half < len(indices) else head
            pointwise_ok = bool(np.all(tail <= np.maximum(ae_tol, 0.5 * head)))
    status = "ok" if (decay and indices) else "inconclusive"
    return (status, indices, [pairings[j] for j in indices], trace,
            stalled_at, pointwise_ok)


def ref_wstar(family, f, tests, f0):
    w = f.space.weights
    q = max(0, (3 * len(family.terms)) // 4 - 1)
    signed = [t.values - f.values for t in family.terms[q:]]
    tails, over, dom = [], [], []
    for g in tests:
        ag = np.abs(g.values)
        tails.append(max(abs(float(np.dot(w, s * g.values))) for s in signed))
        over.append(max(float(np.dot(w, np.maximum(np.abs(s) - f0.values, 0.0)
                                     * ag)) for s in signed))
        dom.append(max(float(np.dot(w, np.minimum(np.abs(s), f0.values) * ag))
                       for s in signed))
    return tails, over, dom


def ref_settles(family):
    sups = [float(np.max(np.abs(t.values - family.limit.values)))
            for t in family.terms]
    q = max(1, len(sups) // 4)
    return min(sups[-q:]) <= 0.5 * max(sups[:q]) + 1e-12


def assert_close(got, want, n):
    """Equal up to the rounding of two length-n sums taken in different
    orders: 4 n eps (1 + max |.|)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if got.size:
        scale = 1.0 + max(np.abs(got).max(), np.abs(want).max())
        assert np.all(np.abs(got - want) <= 4.0 * n * EPS * scale)


def settles(family):
    try:
        _require_ae_decay(family)
    except ValueError:
        return False
    return True


# -- families of every layout and length around a block -----------------------

#: scratch budgets the readers are checked under: 2 KiB, which holds
#: 256 // n rows of n atoms, and 1 byte, below one row, so that every block
#: holds a single row
BUDGETS = (2048, 1)


def lengths_around_blocks(n):
    """Family lengths that fill 1, 2 and 3 blocks of ``_block_rows(n)``
    rows, or stop one row short of a block or one row past it."""
    rows = _block_rows(n)
    return sorted({1, 2, 37, rows, rows + 1, 2 * rows + 1, 2 * rows + 5}
                  | ({rows - 1} if rows > 1 else set()))


KINDS = ("norm_convergent", "ae_only_traveling_spike", "order_convergent",
         "loose_decaying", "loose_flat")


def make_family(kind, length, n, seed):
    rng = np.random.default_rng(seed)
    space = MeasureSpace.truncated_countable(rng.uniform(0.05, 1.0, n) / n)
    f = Rv(space, rng.normal(0.0, 1.0, n))
    if kind in ("loose_decaying", "loose_flat"):
        # the decay starts 60 terms from the end, so the picks of a long
        # family straddle a block boundary
        rate = 0.8 if kind == "loose_decaying" else 1.0
        late = max(0, length - 60)
        terms = [Rv(space, f.values + rng.normal(0.0, 1.0, n)
                    * rate ** max(0, k - late)) for k in range(length)]
        return space, f, SequenceFamily.from_terms(terms, f, POWER2)
    return space, f, generate_sequence(space, POWER2, f, kind, length=length,
                                       seed=seed)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(kind=st.sampled_from(KINDS), budget=st.sampled_from(BUDGETS),
       n=st.integers(1, 24), seed=st.integers(0, 2**16), data=st.data())
def test_matrix_readers_match_row_by_row_reference(kind, budget, n, seed,
                                                   data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convergence, "BLOCK_BYTES", budget)
        length = data.draw(st.sampled_from(lengths_around_blocks(n)))
        check_readers(kind, length, n, seed)


def check_readers(kind, length, n, seed):
    space, f, fam = make_family(kind, length, n, seed)
    g0 = strictly_positive_witness(space, PSI2)
    f0 = strictly_positive_witness(space, POWER2)

    res = extract_ae_subsequence(fam, f, g0, f0)
    status, indices, pairings, trace, stalled_at, pointwise_ok = ref_extract(
        fam, f, g0, f0)
    assert res.status == status
    assert list(res.indices) == indices
    assert res.stalled_at == stalled_at
    assert res.pointwise_ok == pointwise_ok
    assert_close(res.pairings, pairings, n)
    assert_close(res.trace, trace, n)

    tests = [g0, Rv(space, np.ones(n)), Rv(space, np.linspace(-1.0, 2.0, n))]
    rep = wstar_limit_check(fam, f, tests, PSI2, f0=f0)
    tails, over, dom = ref_wstar(fam, f, tests, f0)
    assert_close(rep.tails, tails, n)
    assert_close(rep.overflow_tails, over, n)
    assert_close(rep.dominated_tails, dom, n)
    assert rep.worst_tail == max(rep.tails)

    assert settles(fam) == ref_settles(fam)


def reader_bits(fam, f, g0, f0, tests):
    """Every output bit of the extraction, the w*-check with and without
    ``f0`` and the decay check, as one comparable tuple."""
    res = extract_ae_subsequence(fam, f, g0, f0)
    pw = res.pointwise
    out = [res.status, res.indices, res.stalled_at, res.pointwise_ok,
           res.trace_bound_ok, np.array(res.pairings).tobytes(),
           np.array(res.trace).tobytes(),
           np.float64(res.trace_margin).tobytes()]
    if pw is not None:
        out += [pw.converged, pw.slowest_atom_id, pw.slowest_settle_step,
                pw.settle_steps.tobytes(), pw.final_residuals.tobytes()]
    for kw in ({}, {"f0": f0}):
        rep = wstar_limit_check(fam, f, tests, PSI2, **kw)
        out += [rep.converged] + [np.array(x).tobytes() for x in (
            rep.tails, rep.overflow_tails, rep.dominated_tails)]
    try:
        _require_ae_decay(fam)
        out.append(None)
    except ValueError as exc:
        out.append(str(exc))
    return tuple(out)


# the two examples fail at once, with no search or shrinking, when the
# readers skip the limit check or take c for (f_k + c) - f_k
@settings(max_examples=80, derandomize=True, deadline=None)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**16),
       height=st.floats(-4.0, 4.0), off_limit=st.booleans(),
       past_n=st.sampled_from((-1, 0, 1, 64)))
@example(n=12, seed=5, height=0.7, off_limit=False, past_n=64)
@example(n=12, seed=5, height=0.7, off_limit=True, past_n=-1)
def test_spike_layout_readers_match_a_dense_copy_bit_for_bit(n, seed, height,
                                                             off_limit,
                                                             past_n):
    # lengths below, at and above n: spikes on every atom or only some, and
    # limit rows after them; an f other than the limit takes the block path
    length = max(1, n + past_n)
    rng = np.random.default_rng(seed)
    space = MeasureSpace.truncated_countable(rng.uniform(0.05, 1.0, n) / n)
    limit = Rv(space, rng.normal(0.0, 1.0, n))
    f = Rv(space, limit.values + 1e-3 * rng.normal(0.0, 1.0, n)
           if off_limit else limit.values.copy())
    fam = generate_sequence(space, POWER2, limit, "ae_only_traveling_spike",
                            length=length, spike_height=height)
    g0 = strictly_positive_witness(space, PSI2)
    f0 = strictly_positive_witness(space, POWER2)
    tests = [g0, Rv(space, np.ones(n)), Rv(space, np.linspace(-1.0, 2.0, n))]
    got = reader_bits(fam, f, g0, f0, tests)
    # no reader builds the whole array: the block path reads blocks of rows
    assert len(fam) == length and "values" not in vars(fam)
    dense = SequenceFamily._stored(fam.values.copy(), fam.norm_bound,
                                   fam.mode, fam.limit)
    assert got == reader_bits(dense, f, g0, f0, tests)


@pytest.mark.parametrize("past_n", [2, 64])
def test_fatou_on_a_spike_layout_matches_a_dense_copy_bit_for_bit(past_n):
    # the last quarter starts past row 0, with one spiked row (past_n = 2)
    # or none; a family still spiked at its end does not settle
    n = 12
    rng = np.random.default_rng(5)
    space = MeasureSpace.truncated_countable(rng.uniform(0.05, 1.0, n) / n)
    limit = Rv(space, rng.normal(0.0, 1.0, n))
    fam = generate_sequence(space, POWER2, limit, "ae_only_traveling_spike",
                            length=n + past_n, spike_height=0.7)
    phi = expectation(space)
    got = fatou_check(phi, [fam]).rows
    assert "values" not in vars(fam)
    dense = SequenceFamily._stored(fam.values.copy(), fam.norm_bound,
                                   fam.mode, fam.limit)
    assert got == fatou_check(phi, [dense]).rows


def test_extraction_picks_the_first_row_of_a_later_block():
    # at the real BLOCK_BYTES: pairings stay at 8 for one block of rows,
    # then halve from 1/4, so every pick is the first row of the second
    # block or a row after it; the property above meets block starts only
    # under a shrunk budget, and only where its drawn examples put a pick
    n = 16
    rows = _block_rows(n)
    space = uniform_probability(n)
    f = Rv(space, np.linspace(-1.0, 1.0, n))
    g0 = strictly_positive_witness(space, PSI2)
    f0 = strictly_positive_witness(space, POWER2)
    mass = float(np.dot(space.weights, g0.values))
    steps = np.concatenate((np.full(rows, 8.0), 0.5 ** np.arange(2.0, 42.0)))
    fam = SequenceFamily.from_terms(
        [Rv(space, f.values + s / mass) for s in steps], f, POWER2)
    res = extract_ae_subsequence(fam, f, g0, f0)
    status, indices, pairings, trace, stalled_at, pointwise_ok = ref_extract(
        fam, f, g0, f0)
    assert indices[0] == rows
    assert (res.status, list(res.indices)) == (status, indices)
    assert_close(res.pairings, pairings, n)
    assert_close(res.trace, trace, n)


def test_decay_verdicts_on_both_sides(monkeypatch):
    sp = uniform_probability(3)
    limit = Rv(sp, np.zeros(3))
    for budget in BUDGETS:
        monkeypatch.setattr(convergence, "BLOCK_BYTES", budget)
        for length in (1, _block_rows(3) + 1):
            flat = SequenceFamily.from_terms(
                [Rv(sp, np.ones(3))] * length, limit, POWER2)
            shrinking = SequenceFamily.from_terms(
                [Rv(sp, np.ones(3) / (k + 1)) for k in range(length)], limit,
                POWER2)
            assert settles(flat) == ref_settles(flat)
            assert settles(shrinking) == ref_settles(shrinking)
        assert not settles(flat) and settles(shrinking)


def test_block_rows_follow_the_byte_budget(monkeypatch):
    monkeypatch.setattr(convergence, "BLOCK_BYTES", 2048)
    assert [_block_rows(n) for n in (1, 3, 256, 257)] == [256, 85, 1, 1]
    monkeypatch.setattr(convergence, "BLOCK_BYTES", 1)
    assert _block_rows(1) == 1


# -- layout --------------------------------------------------------------------


def test_generated_terms_are_read_only_views_of_one_buffer():
    for kind in KINDS:
        _, _, fam = make_family(kind, 259, 7, seed=1)
        assert fam.values.shape == (259, 7)
        assert fam.values.dtype == np.float64
        assert not fam.values.flags.writeable
        for j, t in enumerate(fam.terms):
            assert t.values.base is fam.values
            assert not t.values.flags.writeable
            assert np.array_equal(t.values, fam.values[j])
        with pytest.raises(ValueError):
            fam.terms[0].values[0] = 1.0


def test_loose_terms_are_stacked_once_and_keep_their_values():
    sp = uniform_probability(4)
    f = Rv(sp, np.zeros(4))
    raw = [Rv(sp, np.arange(4.0) + k) for k in range(5)]
    fam = SequenceFamily(terms=tuple(raw), norm_bound=100.0, mode="custom",
                         limit=f)
    assert len(fam) == 5
    assert np.array_equal(fam.values, np.stack([r.values for r in raw]))
    assert all(t.values.base is fam.values for t in fam.terms)
    assert all(t.space is sp for t in fam.terms)


def test_families_stay_immutable():
    sp = uniform_probability(3)
    f = Rv(sp, np.zeros(3))
    for fam in (SequenceFamily.from_terms([f], f, POWER2),
                generate_sequence(sp, POWER2, f, "ae_only_traveling_spike")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.norm_bound = 0.0


def test_generated_values_match_their_formulas():
    sp = uniform_probability(5)
    f = Rv(sp, [1.0, -1.0, 0.0, 2.0, 0.5])
    spike = generate_sequence(sp, POWER2, f, "ae_only_traveling_spike",
                              length=8, spike_height=0.5)
    for k, t in enumerate(spike.terms):
        v = f.values.copy()
        if k < 5:
            v[k] += 0.5
        assert np.array_equal(t.values, v)
    nc = generate_sequence(sp, POWER2, f, "norm_convergent", length=6, seed=3)
    z = np.abs(np.random.default_rng(3).normal(0.0, 1.0, 5))
    for k, t in enumerate(nc.terms, start=1):
        assert np.array_equal(t.values, f.values + z / k)
    with pytest.raises(ValueError):
        generate_sequence(sp, POWER2, f, "ae_only_traveling_spike",
                          spike_height=math.inf)


# -- memory --------------------------------------------------------------------


def test_readers_stay_within_a_fraction_of_the_family():
    # N = 4096 spike family: 4,160 terms, a 136 MB array once built. Its
    # layout takes the one-atom readers; a family of the same rows stored
    # as rows takes the block readers
    n = 4096
    space = uniform_probability(n, truncated=True)
    f = Rv(space, np.random.default_rng(0).normal(0.0, 1.0, n))
    g0 = strictly_positive_witness(space, PSI2)
    f0 = strictly_positive_witness(space, POWER2)
    tests = [g0, Rv(space, np.ones(n))]
    tracemalloc.start()
    try:
        fam = generate_sequence(space, POWER2, f, "ae_only_traveling_spike",
                                length=n + 64)
        size = fam.values.nbytes
        assert size == (n + 64) * n * 8
        assert tracemalloc.get_traced_memory()[1] <= 1.05 * size

        dense = SequenceFamily._stored(fam.values, fam.norm_bound, fam.mode,
                                       fam.limit)
        for family in (fam, dense):
            for run in (lambda: extract_ae_subsequence(family, f, g0, f0),
                        lambda: wstar_limit_check(family, f, tests, PSI2),
                        lambda: _require_ae_decay(family)):
                tracemalloc.reset_peak()
                baseline = tracemalloc.get_traced_memory()[0]
                run()
                assert (tracemalloc.get_traced_memory()[1] - baseline
                        <= 0.08 * size)
    finally:
        tracemalloc.stop()


def test_extraction_after_its_block_pass_takes_one_buffer():
    # N = 4096 spike family, 40 picks of 4,096 atoms, 1.3 MB a copy: the
    # post-pass copied them about five times, a 6.1 MB peak for the call.
    # One buffer written in place keeps the trace's and verdicts' bits, so
    # the unbuffered expressions are the reference
    n = 4096
    space = uniform_probability(n, truncated=True)
    f = Rv(space, np.zeros(n))
    fam = generate_sequence(space, POWER2, f, "ae_only_traveling_spike",
                            length=n + 64, seed=7)
    g0 = strictly_positive_witness(space, PSI2)
    f0 = strictly_positive_witness(space, POWER2)
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        res = extract_ae_subsequence(fam, f, g0, f0)
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert len(res.indices) == 40
    assert peak <= 3.05e6
    resid = np.abs(fam.values[list(res.indices)] - f.values)
    sups = np.maximum.accumulate(np.minimum(resid, f0.values)[::-1],
                                 axis=0)[::-1]
    assert res.trace == tuple(
        float(t) for t in sups @ (space.weights * g0.values))
    tail_sup = np.maximum.accumulate(resid[::-1], axis=0)[::-1]
    settle_steps = len(resid) - (tail_sup <= 1e-8).sum(axis=0)
    assert res.pointwise.settle_steps.tobytes() == settle_steps.tobytes()
    assert res.pointwise.final_residuals.tobytes() == resid[-1].tobytes()


def test_spike_pipeline_at_16384_atoms_never_builds_the_family():
    # the dense family would take (16384 + 64) x 16384 x 8 bytes, 2.16 GB.
    # The pipeline's peak is the extraction's one (40 picks, n) buffer,
    # 5.2 MB, and its pointwise verdict's boolean scratch: 7.1 MB measured.
    # The Fatou check reads its last quarter one block of rows at a time,
    # and repr reads no rows
    n = 16384
    space = uniform_probability(n, truncated=True)
    f = Rv(space, np.random.default_rng(0).normal(0.0, 1.0, n))
    g0 = strictly_positive_witness(space, PSI2)
    f0 = strictly_positive_witness(space, POWER2)
    tests = [g0, Rv(space, np.ones(n))]
    tracemalloc.start()
    try:
        fam = generate_sequence(space, POWER2, f, "ae_only_traveling_spike",
                                length=n + 64)
        res = extract_ae_subsequence(fam, f, g0, f0)
        rep = wstar_limit_check(fam, f, tests, PSI2)
        _require_ae_decay(fam)
        fatou = fatou_check(expectation(space), [fam])
        text = repr(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "values" not in vars(fam) and "terms" not in vars(fam)
    assert len(fam) == n + 64
    assert len(res.indices) == 40 and res.status == "ok"
    assert not rep.converged
    assert fatou.violation_count == 0 and text.startswith("SequenceFamily(")
    assert peak <= 8e6
