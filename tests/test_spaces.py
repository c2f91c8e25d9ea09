"""One rule decides operand spaces: ``MeasureSpace.require_same``."""

from dataclasses import replace

import numpy as np
import pytest

from orliczkit import (
    NORM_CONVERGENT,
    MeasureSpace,
    OrliczFunction,
    Rv,
    SequenceFamily,
    SpaceMismatchError,
    ae_converges,
    biconjugate_check,
    closure_demo,
    conjugate,
    dual_pairing,
    entropic,
    extract_ae_subsequence,
    fatou_check,
    fenchel_conjugate_value,
    generate_sequence,
    non_lsc_control,
    reconstruct,
    uniform_probability,
    wstar_limit_check,
)

POWER2 = OrliczFunction.power(2.0)
PSI2 = conjugate(POWER2)
HOME = uniform_probability(4)
# the same size and total mass as HOME, on other weights
FOREIGN = MeasureSpace.finite([0.1, 0.2, 0.3, 0.4])


def _rv(space, values=(1.0, -0.5, 0.25, 0.8)):
    return Rv(space, values)


def _positive(space):
    return _rv(space, (0.5, 1.0, 1.5, 2.0))


def _family(space):
    return generate_sequence(space, POWER2, _rv(space), NORM_CONVERGENT,
                             length=8)


def _counted(phi):
    """A copy of ``phi`` and a one-item list counting its ``evaluate``
    calls and ``evaluate_rows`` rows."""
    reads = [0]

    def evaluate(f):
        reads[0] += 1
        return phi.evaluate(f)

    def evaluate_rows(rows):
        reads[0] += len(rows)
        return phi.evaluate_rows(rows)

    return replace(phi, evaluate=evaluate,
                   evaluate_rows=evaluate_rows), reads


# every public function that takes two or more operands on a measure space,
# called on HOME but for one operand, or for the functional phi, on FOREIGN;
# where the rule sees several spaces, the foreign one is not the first
CALLS = {
    "rv_add": lambda phi: _rv(HOME) + _rv(FOREIGN),
    "rv_sub": lambda phi: _rv(HOME) - _rv(FOREIGN),
    "dual_pairing": lambda phi: dual_pairing(_rv(HOME), _rv(FOREIGN)),
    "ae_converges": lambda phi: ae_converges(
        [_rv(HOME), _rv(FOREIGN)], _rv(HOME), 1e-8),
    "sequence_family": lambda phi: SequenceFamily(
        [_rv(HOME), _rv(FOREIGN)], 1.0, NORM_CONVERGENT, _rv(HOME)),
    "from_terms": lambda phi: SequenceFamily.from_terms(
        [_rv(HOME), _rv(FOREIGN)], _rv(HOME), POWER2),
    "generate_sequence": lambda phi: generate_sequence(
        HOME, POWER2, _rv(FOREIGN), NORM_CONVERGENT),
    "extract-g0": lambda phi: extract_ae_subsequence(
        _family(HOME), _rv(HOME), _positive(FOREIGN), _positive(HOME)),
    "extract-f0": lambda phi: extract_ae_subsequence(
        _family(HOME), _rv(HOME), _positive(HOME), _positive(FOREIGN)),
    "extract-family": lambda phi: extract_ae_subsequence(
        _family(FOREIGN), _rv(HOME), _positive(HOME), _positive(HOME)),
    "wstar-family": lambda phi: wstar_limit_check(
        _family(FOREIGN), _rv(HOME), [_positive(HOME)], PSI2),
    "wstar-f0": lambda phi: wstar_limit_check(
        _family(HOME), _rv(HOME), [_positive(HOME)], PSI2,
        f0=_positive(FOREIGN)),
    "wstar-test": lambda phi: wstar_limit_check(
        _family(HOME), _rv(HOME), [_positive(HOME), _positive(FOREIGN)],
        PSI2),
    "fatou": lambda phi: fatou_check(phi, [_family(HOME), _family(FOREIGN)]),
    "non_lsc_control": lambda phi: non_lsc_control(phi, _rv(FOREIGN)),
    "closure_demo": lambda phi: closure_demo(
        [_rv(HOME), _rv(FOREIGN)], _rv(HOME), POWER2),
    "fenchel-closed": lambda phi: fenchel_conjugate_value(
        phi, _positive(FOREIGN)),
    "fenchel-numeric": lambda phi: fenchel_conjugate_value(
        phi, _positive(FOREIGN), force_numeric=True),
    "reconstruct": lambda phi: reconstruct(phi, _rv(FOREIGN), PSI2),
    "biconjugate": lambda phi: biconjugate_check(
        phi, [_rv(HOME), _rv(FOREIGN)]),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_a_foreign_space_is_refused_before_any_evaluation(name, validations):
    # the w*-check and the Fatou check compared no space: the first
    # answered on the family's values with f's weights, the second
    # evaluated phi on the foreign family's terms
    phi, reads = _counted(entropic(1.0, HOME))
    with pytest.raises(SpaceMismatchError):
        CALLS[name](phi)
    assert reads[0] == 0
    assert validations == []


def test_require_same_reads_every_space():
    HOME.require_same()
    HOME.require_same(uniform_probability(4), HOME)
    for spaces in ((FOREIGN,), (HOME, FOREIGN), (HOME, HOME, FOREIGN)):
        with pytest.raises(SpaceMismatchError):
            HOME.require_same(*spaces)
