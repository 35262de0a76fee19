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


@pytest.fixture
def step_determinant_off_beyond_depth_8(monkeypatch):
    """Make the shared step of the report pass add t^(j/2-2) * (1 - t^2)^2
    to each determinant d_j with even j > 8 only.  The fault keeps the
    degree, the symmetry, the values at 1 and -1 and the end coefficients
    of every d_j after it, so only the elimination oracle can see it."""
    import bridgestate.invariants as inv

    real = inv._surface_step

    def faulty(state, j, n):
        state = list(real(state, j, n))
        if j > 8 and j % 2 == 0:
            state[0] += inv._pack([0] * (j // 2 - 2) + [1, 0, -2, 0, 1],
                                  state[1])
            state[7] += 2  # the bound on the coefficients of d_j
        return tuple(state)

    monkeypatch.setattr(inv, "_surface_step", faulty)


@pytest.fixture
def step_minor_signature_plus_1(monkeypatch):
    """Make the shared step count each leading principal minor as one more
    sign agreement, so the minor recurrence gives sigma + k for k terms."""
    import bridgestate.invariants as inv

    real = inv._surface_step

    def faulty(state, j, n):
        state = real(state, j, n)
        return state[:3] + (state[3] + 1,) + state[4:]

    monkeypatch.setattr(inv, "_surface_step", faulty)
