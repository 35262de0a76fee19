"""Laurent polynomials over the rationals: the exact display form.

The package computes in integers: a state polynomial is carried as the
integer coefficients of 2**k times its canonical representative, and a
state matrix as integer rows over one denominator.  ``LaurentPolynomial``
is the exact view of such values, with stdlib ``fractions.Fraction``
coefficients, built on demand for human output, for the public oracle
wrapper and for failure messages.  No floating point is used anywhere in
the package.  Laurent polynomials are stored densely, lowest degree first,
with the ends trimmed to nonzero coefficients.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError


@dataclass(frozen=True)
class LaurentPolynomial:
    """A Laurent polynomial sum_i coeffs[i] * t**(min_degree + i).

    The zero polynomial is ``coeffs == ()`` with ``min_degree == 0``.  For a
    nonzero polynomial the first and last stored coefficients are nonzero.
    Construction normalizes: coefficients are coerced to Fraction and zero
    ends are trimmed (adjusting min_degree), so any ints/Fractions may be
    passed in.  Instances are immutable and safe to share between workers.
    """

    min_degree: int
    coeffs: tuple

    def __post_init__(self):
        coeffs = [Fraction(c) for c in self.coeffs]
        lo = self.min_degree
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lo += 1
        if not coeffs:
            lo = 0
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "min_degree", lo)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_degree(self):
        """Top degree, or None for the zero polynomial."""
        if not self.coeffs:
            return None
        return self.min_degree + len(self.coeffs) - 1

    def coefficient(self, degree: int) -> Fraction:
        """Coefficient of t**degree (zero outside the stored span)."""
        i = degree - self.min_degree
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_degree, other.min_degree)
        hi = max(self.max_degree, other.max_degree)
        out = [self.coefficient(d) + other.coefficient(d) for d in range(lo, hi + 1)]
        return LaurentPolynomial(lo, tuple(out))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.min_degree, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "LaurentPolynomial":
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

    def evaluate(self, x) -> Fraction:
        """Exact value at the rational point x.

        Evaluation at 0 is only defined when there are no negative powers.
        """
        if self.is_zero:
            return Fraction(0)
        x = Fraction(x)
        if x == 0 and self.min_degree < 0:
            raise InvalidInputError(
                "cannot evaluate a polynomial with negative exponents at 0"
            )
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x**self.min_degree

    def reciprocal_substitute(self) -> "LaurentPolynomial":
        """The polynomial p(1/t): reversed coefficients, mirrored degrees."""
        if self.is_zero:
            return self
        return LaurentPolynomial(-self.max_degree, tuple(reversed(self.coeffs)))

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


ZERO = LaurentPolynomial(0, ())
