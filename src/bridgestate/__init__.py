"""Exact invariants of the essential spanning surfaces of 2-bridge knots.

A 2-bridge knot K(alpha, beta) has finitely many essential spanning
surfaces, indexed by the continued fraction expansions of alpha/beta and
alpha/(beta - alpha) with all quotients of absolute value at least 2.  This
package enumerates them and computes, entirely in exact rational
arithmetic: the state polynomial det(V - t*V^T) and state signature
sigma(V + V^T) of every surface, boundary slopes as signature differences,
and the knot's determinant, signature, Alexander polynomial, genus and
crosscap number.
"""

from .continued_fractions import (
    Expansion,
    enumerate_expansions,
    surfaces_expansions,
)
from .errors import BridgestateError, ConsistencyError, InvalidInputError
from .invariants import (
    InvariantReport,
    StatePolynomial,
    SurfaceReport,
    full_report,
    state_polynomial,
    stream_report,
)
from .laurent import LaurentPolynomial
from .state_matrices import (
    GLMatrix,
    StateMatrix,
    flip_normal,
    flip_orientation,
    gl_matrix,
    standard_state_matrix,
    state_matrix,
    symmetric_signature,
)
from .surfaces import (
    EssentialSurface,
    TwoBridgeKnot,
    make_knot,
    make_surface,
    sign_counts,
)

__version__ = "0.1.0"
