"""Laurent polynomials: the one printing rule.

The package computes in integers: a state polynomial is carried as the
integer coefficients of 2**k times its canonical representative, and a
state matrix as integer rows over one denominator.  ``poly_text`` prints
such integers, for text output and failure messages.  No floating point
is used anywhere in the package, and no package code builds a Fraction:
``LaurentPolynomial``, a dense Laurent polynomial with ``Fraction``
coefficients, lowest degree first and its ends trimmed to nonzero
coefficients, is only the container the tests compare results in.
"""

from math import gcd, lcm

from .values import Value


def poly_text(coeffs, den: int = 1, low: int = 0) -> str:
    """sum_i coeffs[i] / den * t**(low + i), for ints ``coeffs`` and
    den >= 1, as in ``3/2 - 4*t + 3/2*t^2``: each coefficient reduced by
    its gcd with den, zero terms left out, and "0" if all are zero."""
    parts = []
    for d, c in enumerate(coeffs, low):
        if c:
            g = gcd(c, den)
            body = f"{abs(c) // g}" + (f"/{den // g}" if g != den else "")
            if d:
                tpow = "t" if d == 1 else f"t^{d}"
                body = tpow if abs(c) == den else f"{body}*{tpow}"
            parts.append(body if c > 0 else f"-{body}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


# no package code uses it: it stays because the benchmark's tracer
# (perfbench/spans.py, Tracer.install) and the traced gates in CI patch it
class LaurentPolynomial(Value):
    """A Laurent polynomial sum_i coeffs[i] * t**(min_degree + i).

    The zero polynomial is ``coeffs == ()`` with ``min_degree == 0``.  For a
    nonzero polynomial the first and last stored coefficients are nonzero.
    Construction normalizes: coefficients are coerced to Fraction and zero
    ends are trimmed (adjusting min_degree), so any ints/Fractions may be
    passed in.  Instances are immutable and safe to share between workers.
    """

    __slots__ = ("min_degree", "coeffs")

    def __init__(self, min_degree: int, coeffs: tuple):
        self._init(min_degree, coeffs)
        self.__post_init__()

    def __post_init__(self):
        from fractions import Fraction
        coeffs = [Fraction(c) for c in self.coeffs]
        lo = self.min_degree
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lo += 1
        if not coeffs:
            lo = 0
        self._init(lo, tuple(coeffs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other) -> "LaurentPolynomial":
        from fractions import Fraction
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial(
                self.min_degree, tuple(c * other for c in self.coeffs)
            )
        if self.is_zero or other.is_zero:
            return ZERO
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPolynomial(self.min_degree + other.min_degree, tuple(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        den = lcm(*[c.denominator for c in self.coeffs])
        return poly_text([c.numerator * (den // c.denominator)
                          for c in self.coeffs], den, self.min_degree)


ZERO = LaurentPolynomial._of(0, ())  # normal as it is, so no Fraction needed
