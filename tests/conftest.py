# Keeps this directory on sys.path so tests can import the oracles module.

import pytest


@pytest.fixture
def oracle_negated_above_size_8(monkeypatch):
    """Make the oracle seen by ``bridgestate.checks`` return the negated
    determinant for matrices larger than 8 x 8 only."""
    import bridgestate.checks as checks

    real = checks.state_polynomial_oracle

    def faulty(v):
        got = real(v)
        return -got if v.size > 8 else got

    monkeypatch.setattr(checks, "state_polynomial_oracle", faulty)
