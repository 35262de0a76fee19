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
    from oracles import _pack

    real = inv._surface_step

    def faulty(state, j, n):
        state = list(real(state, j, n))
        if j > 8 and j % 2 == 0:
            state[0] += _pack([0] * (j // 2 - 2) + [1, 0, -2, 0, 1],
                              state[1])
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


def _zero_constant_term(coeffs, scale):
    return [0] + coeffs[1:], scale


def _move_one_from_t2_to_t(coeffs, scale):
    # even k >= 4 only: p(1), the ends and the degree stay as they were
    k = len(coeffs) - 1
    if k % 2 or k < 4:
        return coeffs, scale
    return [coeffs[0], coeffs[1] + 1, coeffs[2] - 1] + coeffs[3:], scale


def _add_one_to_the_middle(coeffs, scale):
    # even k only: coefficient k/2 is its own mirror image
    k = len(coeffs) - 1
    if k % 2:
        return coeffs, scale
    return coeffs[:k // 2] + [coeffs[k // 2] + 1] + coeffs[k // 2 + 1:], scale


def _double_the_ends(coeffs, scale):
    # even k only: the middle takes back what the equal ends gain
    k = len(coeffs) - 1
    if k % 2:
        return coeffs, scale
    c = list(coeffs)
    c[k // 2] -= 2 * c[0]
    c[0] *= 2
    c[k] *= 2
    return c, scale


def _double_over_two(coeffs, scale):
    # the same polynomial over a larger power of 2, for integral ones only
    if scale:
        return coeffs, scale
    return [2 * c for c in coeffs], 1


# the identity each fault breaks, as the fast checks name it; a zero
# constant term of a degree-k polynomial cannot keep the symmetry and p(1),
# so that fault breaks them too, after the degree check that comes first
FAST_CHECK_FAULTS = {
    "degree = k": _zero_constant_term,
    "symmetry p(1/t) ~ p(t)": _move_one_from_t2_to_t,
    "p(1) by parity of k": _add_one_to_the_middle,
    "leading coefficient |n1...nk| / 2^k": _double_the_ends,
    "integrality of all-even polynomials": _double_over_two,
}


@pytest.fixture(params=list(FAST_CHECK_FAULTS),
                ids=["degree", "symmetry", "p(1)", "leading", "integrality"])
def fast_check_fault(request, monkeypatch):
    """Make the report pass seen by ``bridgestate.checks`` hand the checks
    a determinant that breaks exactly one fast-check identity and keeps the
    others; the value is the name of that identity."""
    import bridgestate.checks as checks

    real = checks._report_pass
    perturb = FAST_CHECK_FAULTS[request.param]

    def faulty(knot):
        return ((report, perturb(*det)) for report, det in real(knot))

    monkeypatch.setattr(checks, "_report_pass", faulty)
    return request.param


@pytest.fixture
def walk_drops_a_leaf(monkeypatch):
    """Make every walk of an expansion tree below a node skip its first
    leaf, in ``bridgestate.continued_fractions`` (the surfaces, and the
    subtrees off the path of even terms) and ``bridgestate.invariants``
    (the other target of a report)."""
    import bridgestate.continued_fractions as cf
    import bridgestate.invariants as inv

    real = cf._expand_target

    def faulty(*args):
        leaves = real(*args)
        next(leaves)
        return leaves

    for module in (cf, inv):
        monkeypatch.setattr(module, "_expand_target", faulty)


@pytest.fixture
def transformations_double_the_matrix(monkeypatch):
    """Make the random moves of ``bridgestate.checks`` return 2V, whose
    polynomial is 2^k times that of V and whose signature is that of V."""
    import bridgestate.checks as checks
    from bridgestate.state_matrices import StateMatrix

    def faulty(v, rng):
        return StateMatrix(v.size, v.den,
                           frozenset((ij, 2 * x) for ij, x in v.nonzeros))

    monkeypatch.setattr(checks, "apply_random_transformations", faulty)


@pytest.fixture
def census_slopes_without_a_zero(monkeypatch):
    """Make every report the census computes or builds, whose slope set it
    checks for exactly one zero, lose its slope 0."""
    import bridgestate.census as census

    def faulty(real):
        def producer(*args):
            report = real(*args)
            fields = {name: getattr(report, name) for name in report._fields}
            fields["slopes"] = tuple([s for s in report.slopes if s])
            return type(report)(**fields)
        return producer

    for name in ("full_report", "_knot_report"):
        monkeypatch.setattr(census, name, faulty(getattr(census, name)))


@pytest.fixture
def report_pass_fault(monkeypatch):
    """Return ``install(fault)``, which makes the report pass of
    ``bridgestate.invariants`` yield (fault(i, report), det) for its i-th
    (surface report, det), the Seifert surface first at i = 0."""
    import bridgestate.invariants as inv

    real = inv._report_pass

    def install(fault):
        def faulty(knot, polys=None):
            for i, (report, det) in enumerate(real(knot, polys)):
                yield fault(i, report), det

        monkeypatch.setattr(inv, "_report_pass", faulty)

    return install


@pytest.fixture
def mirror_drops_a_nonorientable_surface(monkeypatch):
    """Make every move with the mirror, in ``bridgestate.census`` and
    ``bridgestate.checks`` (``verify``), drop the polynomial of the first
    nonorientable surface without which the report keeps its crosscap
    number and its slope set: the knot-level values and the output's slope
    column stay as they were."""
    import bridgestate.census as census
    import bridgestate.checks as checks

    real = census._moved_polys

    def faulty(report, reverse, mirror):
        moved = real(report, reverse, mirror)
        if not mirror:
            return moved
        # the moved terms come in the order of the report's surfaces
        for r, terms in zip(report.surfaces, list(moved)):
            others = [x for x in report.surfaces if x is not r]
            if r.surface.orientable or tuple(sorted(
                    {x.slope for x in others})) != report.slopes:
                continue
            if min([report.genus_twice + 1] + [
                    x.surface.genus_twice for x in others
                    if not x.surface.orientable]) == \
                    report.nonorientable_genus_twice:
                del moved[terms]
                break
        return moved

    for module in (census, checks):
        monkeypatch.setattr(module, "_moved_polys", faulty)


@pytest.fixture
def inverse_without_negation_for_even_k(monkeypatch):
    """Make every move with the inverse skip negating the reversed terms of
    surfaces with an even number k of bands, in ``bridgestate.census`` and
    ``bridgestate.checks`` (``verify``)."""
    import bridgestate.census as census
    import bridgestate.checks as checks

    real = census._moved_polys

    def faulty(report, reverse, mirror):
        moved = real(report, reverse, mirror)
        if not reverse:
            return moved
        return {terms if len(terms) & 1 else tuple(-n for n in terms): poly
                for terms, poly in moved.items()}

    for module in (census, checks):
        monkeypatch.setattr(module, "_moved_polys", faulty)


@pytest.fixture
def moves_swap_two_polynomials(monkeypatch):
    """Make every move that ``verify`` compares swap the polynomials of the
    first two moved surfaces with the same number of bands: both keep the
    degree, |p(-1)| = alpha and a positive constant term, so only the
    comparison with the computed report sees it."""
    import bridgestate.checks as checks

    real = checks._moved_polys

    def faulty(report, reverse, mirror):
        moved = real(report, reverse, mirror)
        first = {}
        for terms in moved:
            other = first.setdefault(len(terms), terms)
            if other is not terms:
                moved[terms], moved[other] = moved[other], moved[terms]
                break
        return moved

    monkeypatch.setattr(checks, "_moved_polys", faulty)
