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
    """Make the signature that ``bridgestate.checks`` computes for
    transformed matrices return one too many for matrices larger than
    8 x 8 only."""
    import bridgestate.checks as checks

    real = checks._sparse_signature

    def faulty(n, nonzeros):
        return real(n, nonzeros) + (n > 8)

    monkeypatch.setattr(checks, "_sparse_signature", faulty)


@pytest.fixture
def report_signatures_plus_2(monkeypatch):
    """Make ``full_report`` report every surface signature 2 too large."""
    import bridgestate.invariants as inv

    real = inv._check_identities

    def faulty(*args):
        return real(*args) + 2

    monkeypatch.setattr(inv, "_check_identities", faulty)


@pytest.fixture
def report_polynomial_negated_above_size_8(monkeypatch):
    """Make ``full_report`` report the negated state polynomial for
    surfaces with more than 8 bands only."""
    import bridgestate.invariants as inv

    real = inv._canonical_from_scaled

    def faulty(coeffs, scale, k):
        sp = real(coeffs, scale, k)
        if k <= 8:
            return sp
        return inv.StatePolynomial(k, tuple(-c for c in sp.coeffs_2k))

    monkeypatch.setattr(inv, "_canonical_from_scaled", faulty)
