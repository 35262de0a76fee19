"""Laurent polynomials over the rationals: the exact display type.

The package computes in integers: a state polynomial is carried as the
integer coefficients of 2**k times its canonical representative, and a
state matrix as integer rows over one denominator.  ``LaurentPolynomial``
is the exact view of such values, with stdlib ``fractions.Fraction``
coefficients, built on demand for human output (``StatePolynomial.canonical``)
and for failure messages.  No floating point is used anywhere in the
package.  Laurent polynomials are stored densely, lowest degree first, with
the ends trimmed to nonzero coefficients.
"""

from .values import Value


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
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            d = self.min_degree + i
            if d == 0:
                body = str(abs(c))
            else:
                tpow = "t" if d == 1 else f"t^{d}"
                body = tpow if abs(c) == 1 else f"{abs(c)}*{tpow}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


ZERO = LaurentPolynomial._of(0, ())  # normal as it is, so no Fraction needed
