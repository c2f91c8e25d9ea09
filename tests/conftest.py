"""Fixtures shared by the test modules."""

import pytest

from orliczkit import duality


@pytest.fixture
def validations(monkeypatch):
    """A list of the functionals ``reconstruct`` hands to ``validate`` while
    the test runs, one entry per call; the counted call returns what it
    would."""
    calls = []
    validate = duality.validate

    def counted(phi, **kwargs):
        calls.append(phi)
        return validate(phi, **kwargs)

    monkeypatch.setattr(duality, "validate", counted)
    return calls
