"""Measure spaces, random variables, witnesses, atomwise convergence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orliczkit import (
    MeasureSpace,
    OrliczFunction,
    Rv,
    SpaceMismatchError,
    ae_converges,
    indicator,
    ones,
    strictly_positive_witness,
    uniform_probability,
    zeros,
)

def test_space_construction_and_queries():
    sp = MeasureSpace.finite([0.25, 0.25, 0.5])
    assert sp.n_atoms == 3
    assert sp.total_mass == 1.0
    assert sp.is_probability()
    assert sp.kind == "finite"
    assert [b.tolist() for b in sp.blocks()] == [[0], [1], [2]]


def test_space_validation():
    with pytest.raises(ValueError):
        MeasureSpace.finite([])
    with pytest.raises(ValueError):
        MeasureSpace.finite([1.0, 0.0])  # zero-mass atom
    with pytest.raises(ValueError):
        MeasureSpace.finite([1.0, -1.0])
    with pytest.raises(ValueError):
        MeasureSpace.finite([1.0, 1.0], atom_ids=[2, 2])
    with pytest.raises(ValueError):
        MeasureSpace.finite([1.0, 1.0], atom_ids=[5, 3])
    with pytest.raises(ValueError):
        MeasureSpace([1], [1.0], [0], "countable")
    for atom_ids, block_ids in (([1], None), (None, [0, 0, 0])):
        with pytest.raises(ValueError, match="must align"):
            MeasureSpace.finite([0.5, 0.5], atom_ids=atom_ids,
                                block_ids=block_ids)


def test_truncated_space_dyadic_blocks():
    sp = uniform_probability(8, truncated=True)
    assert sp.kind == "truncated_countable"
    # positions 1..8 fall in dyadic ranges {1}, {2,3}, {4..7}, {8}
    assert [b.tolist() for b in sp.blocks()] == [[0], [1, 2], [3, 4, 5, 6], [7]]
    assert "truncated" in sp.tail_note


def test_blocks_equal_one_flatnonzero_per_block_id():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 120))
        # negative, interleaved and widely spaced block ids
        ids = rng.integers(-4, 5, n) * rng.choice([1, 1000], n)
        sp = MeasureSpace.finite(np.ones(n), block_ids=ids)
        got = sp.blocks()
        want = [np.flatnonzero(ids == b) for b in np.unique(ids)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert sp.blocks() is got


def test_fingerprint_identity():
    a = uniform_probability(5)
    b = uniform_probability(5)
    c = MeasureSpace.finite(np.ones(5))
    assert a.same_space(b)
    assert a.fingerprint == b.fingerprint
    assert not a.same_space(c)


def test_same_space_survives_a_fingerprint_collision():
    a = uniform_probability(5)
    b = MeasureSpace.finite([0.1, 0.2, 0.3, 0.2, 0.2])
    object.__setattr__(b, "_fingerprint", a.fingerprint)
    assert not a.same_space(b)
    assert not b.same_space(a)
    assert a.same_space(uniform_probability(5))


def test_rv_is_copied_and_read_only():
    sp = MeasureSpace.finite(np.ones(3))
    raw = np.array([1.0, 2.0, 3.0])
    f = Rv(sp, raw)
    raw[0] = 99.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[1] = 0.0


def test_rv_validation():
    sp = MeasureSpace.finite(np.ones(3))
    with pytest.raises(ValueError):
        Rv(sp, [1.0, 2.0])
    with pytest.raises(ValueError):
        Rv(sp, [1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        Rv(sp, [1.0, np.inf, 0.0])


def test_rv_arithmetic_and_mismatch():
    sp = MeasureSpace.finite(np.ones(2))
    f = Rv(sp, [1.0, -2.0])
    g = Rv(sp, [3.0, 5.0])
    assert (f + g).values.tolist() == [4.0, 3.0]
    assert (f - 1.0).values.tolist() == [0.0, -3.0]
    assert (2.0 * f).values.tolist() == [2.0, -4.0]
    assert (-f).abs().values.tolist() == [1.0, 2.0]
    assert f.sup_norm() == 2.0
    other = Rv(MeasureSpace.truncated_countable(np.ones(2)), [0.0, 0.0])
    with pytest.raises(SpaceMismatchError):
        f + other


def test_helpers():
    sp = MeasureSpace.finite(np.ones(4))
    assert zeros(sp).values.tolist() == [0.0] * 4
    assert ones(sp).values.tolist() == [1.0] * 4
    assert indicator(sp, 2).values.tolist() == [0.0, 0.0, 1.0, 0.0]
    assert indicator(sp, [0, 3]).values.tolist() == [1.0, 0.0, 0.0, 1.0]


def test_witness_frozen_blocks():
    # unit weights, one block of size 1, one of size 4; under t^2 the
    # indicator norms are 1 and 2, so the block constants are
    # 2^-1/(1+1) = 1/4 and 2^-2/(1+2) = 1/12
    sp = MeasureSpace.finite([1.0] * 5, block_ids=[0, 1, 1, 1, 1])
    w = strictly_positive_witness(sp, OrliczFunction.power(2.0))
    assert w.values[0] == pytest.approx(0.25, abs=1e-9)
    assert np.allclose(w.values[1:], 1.0 / 12.0, atol=1e-9)
    assert w.values.min() > 0.0


def test_witness_norm_at_most_one():
    from orliczkit import luxemburg_norm
    for phi in (OrliczFunction.power(2.0), OrliczFunction.exp_young(),
                OrliczFunction.linf_step()):
        for sp in (uniform_probability(16, truncated=True),
                   MeasureSpace.finite(np.ones(6))):
            w = strictly_positive_witness(sp, phi)
            assert w.values.min() > 0.0
            assert luxemburg_norm(w, phi).value <= 1.0 + 1e-9


def n_atom_witness(space, phi):
    """The witness with each block's constant from a Luxemburg bisection of
    the block's indicator over all atoms of the space."""
    from orliczkit import luxemburg_norm
    v = np.zeros(space.n_atoms)
    for n, block in enumerate(space.blocks(), start=1):
        v[block] = 2.0**-n / (1.0 + luxemburg_norm(indicator(space, block),
                                                   phi).value)
    return v


WITNESS_YOUNG = (OrliczFunction.power(2.0), OrliczFunction.scaled_power(2.0, 0.25),
                 OrliczFunction.exp_young(),
                 OrliczFunction.exp_young_conjugate(),
                 OrliczFunction.linf_step(),
                 OrliczFunction.custom(lambda t: t ** 3, label="t^3"))


def test_block_mass_witness_equals_n_atom_reference():
    rng = np.random.default_rng(11)
    spaces = [uniform_probability(1024, truncated=True),
              MeasureSpace.truncated_countable(0.5 ** np.arange(1, 41))]
    for _ in range(3):
        n = int(rng.integers(5, 200))
        blocks = np.sort(rng.integers(0, max(2, n // 4), n))
        spaces.append(MeasureSpace.truncated_countable(
            rng.uniform(0.01, 2.0, n), block_ids=blocks))
    for sp in spaces:
        for phi in WITNESS_YOUNG:
            assert np.array_equal(strictly_positive_witness(sp, phi).values,
                                  n_atom_witness(sp, phi))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(weights=st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=40),
       data=st.data(), phi=st.sampled_from(WITNESS_YOUNG))
def test_block_mass_witness_matches_reference_on_random_blocks(weights, data,
                                                               phi):
    blocks = data.draw(st.lists(st.integers(0, 6), min_size=len(weights),
                                max_size=len(weights)))
    sp = MeasureSpace.finite(weights, block_ids=blocks)
    got = strictly_positive_witness(sp, phi).values
    assert np.allclose(got, n_atom_witness(sp, phi), rtol=1e-9, atol=0.0)


def per_block_witness(space, phi):
    """The witness with one indicator norm per block, repeated masses too."""
    from orliczkit.norms import indicator_norm
    v = np.zeros(space.n_atoms)
    for n, block in enumerate(space.blocks(), start=1):
        mass = float(space.weights[block].sum())
        v[block] = 2.0**-n / (1.0 + indicator_norm(phi, mass))
    return v


def test_witness_takes_one_indicator_norm_per_distinct_mass(monkeypatch):
    from orliczkit import norms
    calls = []
    real = norms._indicator_norms

    def counted(phi, masses):
        calls.append(list(masses))
        return real(phi, masses)

    monkeypatch.setattr(norms, "_indicator_norms", counted)
    sp = MeasureSpace.finite(np.full(6, 1.0 / 6.0), block_ids=range(6))
    for phi in WITNESS_YOUNG:
        calls.clear()
        strictly_positive_witness(sp, phi)
        assert calls == [[1.0 / 6.0]], phi.label


def test_witness_equals_per_block_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    spaces = [uniform_probability(n, truncated=True) for n in (16, 256, 1024)]
    spaces.append(MeasureSpace.truncated_countable(0.5 ** np.arange(1, 41)))
    for _ in range(4):
        # weights from a short list, so that many blocks share a mass
        n = int(rng.integers(5, 120))
        weights = rng.choice(rng.uniform(0.01, 2.0, 3), n)
        spaces.append(MeasureSpace.finite(weights, block_ids=range(n)))
        blocks = np.sort(rng.integers(0, max(2, n // 3), n))
        spaces.append(MeasureSpace.finite(rng.uniform(0.01, 2.0, n),
                                          block_ids=blocks))
    for sp in spaces:
        for phi in WITNESS_YOUNG:
            assert np.array_equal(strictly_positive_witness(sp, phi).values,
                                  per_block_witness(sp, phi))


def test_ae_converges_residual_profile():
    sp = MeasureSpace.finite(np.ones(3))
    f = Rv(sp, [0.0, 2.0, 3.0])  # zero base keeps the residual exactly 1/n
    seq = [f + Rv(sp, [1.0 / n, 0.0, 0.0]) for n in range(1, 40)]
    verdict = ae_converges(seq, f, tol=0.1)
    assert verdict.converged
    # 1/n <= 0.1 from n = 10, i.e. index 9
    assert verdict.settle_steps[0] == 9
    assert verdict.settle_steps[1] == 0
    assert verdict.slowest_atom_id == int(sp.atom_ids[0])


def test_ae_converges_detects_failure():
    sp = MeasureSpace.finite(np.ones(2))
    f = zeros(sp)
    seq = [Rv(sp, [0.0, 1.0]) for _ in range(10)]
    verdict = ae_converges(seq, f, tol=1e-6)
    assert not verdict.converged
    assert verdict.slowest_atom_id == int(sp.atom_ids[1])
    assert verdict.final_residuals[1] == 1.0
    with pytest.raises(ValueError):
        ae_converges([], f, tol=0.1)
