# Keeps this directory on sys.path so tests can import the oracles module.

import pytest


@pytest.fixture
def oracle_negated_above_size_8(monkeypatch):
    """Make the oracle seen by ``bridgestate.checks`` return the negated
    determinant for matrices larger than 8 x 8 only."""
    import bridgestate.checks as checks

    real = checks._oracle_scaled

    def faulty(v):
        coeffs, den = real(v)
        return ([-c for c in coeffs] if v.size > 8 else coeffs), den

    monkeypatch.setattr(checks, "_oracle_scaled", faulty)


@pytest.fixture
def signature_off_by_one_above_size_8(monkeypatch):
    """Make both signature routes that ``bridgestate.checks`` uses on
    transformed matrices (renumbered or not) return one too many for
    matrices larger than 8 x 8 only."""
    import bridgestate.checks as checks

    real_symmetric = checks.symmetric_signature
    real_minors = checks.state_signature_minors

    def symmetric(rows):
        return real_symmetric(rows) + (len(rows) > 8)

    def minors(v):
        return real_minors(v) + (v.size > 8)

    monkeypatch.setattr(checks, "symmetric_signature", symmetric)
    monkeypatch.setattr(checks, "state_signature_minors", minors)
