"""Exact invariants of the essential spanning surfaces of 2-bridge knots.

A 2-bridge knot K(alpha, beta) has finitely many essential spanning
surfaces, indexed by the continued fraction expansions of alpha/beta and
alpha/(beta - alpha) with all quotients of absolute value at least 2.  This
package enumerates them and computes, exactly and in integers only: the
state polynomial det(V - t*V^T) and state signature sigma(V + V^T) of
every surface, boundary slopes as signature differences, and the knot's
determinant, signature, Alexander polynomial, genus and crosscap number.
Every name exported here is used by the package itself.
"""

from .continued_fractions import Expansion
from .errors import BridgestateError, ConsistencyError, InvalidInputError
from .invariants import (
    InvariantReport,
    StatePolynomial,
    SurfaceReport,
    full_report,
    state_polynomial,
    stream_report,
)
from .state_matrices import (
    GLMatrix,
    StateMatrix,
    flip_normal,
    flip_orientation,
    gl_matrix,
    standard_state_matrix,
)
from .surfaces import (
    EssentialSurface,
    TwoBridgeKnot,
    make_knot,
    make_surface,
    sign_counts,
)

__version__ = "0.1.0"
