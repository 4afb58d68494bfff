"""Exact univariate polynomial and rational-function arithmetic over Q.

Scalars are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator).  A polynomial is a tuple of coefficients indexed by
power, low to high, with trailing zeros stripped; the zero polynomial is the
empty tuple and its degree is the sentinel ``None``.  There is no floating
point anywhere: every operation (arithmetic, differentiation, evaluation,
integration over [-1, 1], composition, splitting off a root) is exact.

`RationalFn` is a quotient of two polynomials kept in normal form:
gcd(numerator, denominator) = 1 and the denominator monic.  It exists because
differentiating ln(1-x^2) produces -2x/(1-x^2); see `germs`.  Most values
are polynomials (denominator 1): for those, construction only rescales by
the constant denominator and sum, product and derivative work on the
numerators, without Euclid's algorithm.

Endpoint limits need only the local behaviour at a root.  `Poly.split_root`
writes p = (x-c)^m q with q(c) != 0 by synthetic division and also returns
the value q(c), the remainder of its last pass.  `RationalFn.leading_at`
applies it once to the numerator and once to the denominator and reads the
valuation and the leading coefficient at c off the two splits, with no
further evaluation.

Text formats (used by the CLI layer):
  rational    "p/q" or "p", q > 0
  polynomial  comma-separated coefficients low-to-high, e.g. "0,0,1" is x^2
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int/Fraction (or exact string like '3/4') to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" (or "p") text format; the denominator must be positive."""
    text = text.strip()
    num_text, slash, den_text = text.partition("/")
    try:
        num, den = int(num_text), int(den_text) if slash else 1
    except ValueError:
        raise ValueError(f"expected an integer p or a fraction p/q, got {text!r}") from None
    if den <= 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(num, den)


def format_rational(value: Scalar) -> str:
    """Render a rational in the "p/q" (or "p") text format."""
    value = as_fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Poly:
    """Dense univariate polynomial over Q, immutable.

    ``Poly([a0, a1, a2])`` is a0 + a1*x + a2*x^2.  Trailing zero
    coefficients are stripped on construction; ``Poly()`` is the zero
    polynomial and has ``degree is None``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @staticmethod
    def monomial(power: int, c: Scalar = 1) -> "Poly":
        if power < 0:
            raise ValueError("monomial power must be non-negative")
        return Poly([0] * power + [c])

    @staticmethod
    def parse(text: str) -> "Poly":
        """Parse the comma-separated low-to-high coefficient text format."""
        parts = [p for p in (s.strip() for s in text.split(",")) if p]
        return Poly([parse_rational(p) for p in parts])

    # -- structure ----------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree, or None for the zero polynomial (distinguished sentinel)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[i] + other[i] for i in range(n)])

    def __radd__(self, other) -> "Poly":
        return self + other

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return self * other

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    @staticmethod
    def _coerce(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly([other])
        raise TypeError(f"cannot coerce {type(other).__name__} to Poly")

    # -- calculus -----------------------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        """Exact derivative of the given order (order >= 0)."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        p = self
        for _ in range(order):
            p = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
        return p

    def __call__(self, point: Scalar) -> Fraction:
        """Exact evaluation by Horner's rule."""
        point = as_fraction(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def integrate_unit_interval(self) -> Fraction:
        """Exact integral over [-1, 1]; odd monomials contribute 0."""
        total = Fraction(0)
        for i, c in enumerate(self.coeffs):
            if i % 2 == 0:
                total += 2 * c / (i + 1)
        return total

    def compose(self, inner: "Poly") -> "Poly":
        """Exact composition self(inner(x)) by Horner's rule."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly([c])
        return acc

    # -- division and roots --------------------------------------------

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division, (quotient, remainder)."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.leading_coefficient()
        quot = [Fraction(0)] * max(len(rem) - dd, 0)
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            shift = len(rem) - 1 - dd
            factor = rem[-1] / lead
            quot[shift] = factor
            for i, c in enumerate(divisor.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return Poly(quot), Poly(rem)

    def split_root(self, point: Scalar) -> tuple[int, "Poly", Fraction]:
        """(m, q, q(point)) with self = (x - point)^m q and q(point) != 0.

        Synthetic division: one Horner pass gives both the value at `point`
        (the remainder) and the quotient by (x - point), so each factor of
        the root costs one pass and no general division; the last pass's
        remainder is q(point), returned rather than recomputed.
        """
        if self.is_zero():
            raise ValueError("zero polynomial vanishes to every order")
        point = as_fraction(point)
        m, q = 0, self
        while True:
            acc = Fraction(0)
            partial = []
            for c in reversed(q.coeffs):
                acc = acc * point + c
                partial.append(acc)
            if acc != 0:
                return m, q, acc
            m, q = m + 1, Poly(reversed(partial[:-1]))

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * (1 / self.leading_coefficient())

    # -- rendering ------------------------------------------------------

    def format_coeffs(self) -> str:
        """Low-to-high comma-separated coefficient text ("0" for the zero poly)."""
        if not self.coeffs:
            return "0"
        return ",".join(format_rational(c) for c in self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_rational(c))
            elif i == 1:
                terms.append(f"{format_rational(c)}*x")
            else:
                terms.append(f"{format_rational(c)}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


_ONE = Poly([1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q by Euclid's algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


class RationalFn:
    """Quotient of polynomials in normal form (coprime, monic denominator)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _ONE):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), _ONE
        elif den.degree == 0:
            # gcd(num, c) = 1 for a nonzero constant c: only the scaling is left
            if den.coeffs[0] != 1:
                num = num * (1 / den.coeffs[0])
            den = _ONE
        else:
            g = poly_gcd(num, den)
            if g.degree and g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading_coefficient()
            num = num * (1 / lead)
            den = den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFn):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction, Poly)):
            return self == RationalFn(Poly._coerce(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other) -> "RationalFn":
        other = self._coerce(other)
        if self.den.degree == 0 and other.den.degree == 0:
            return RationalFn(self.num + other.num)
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __radd__(self, other) -> "RationalFn":
        return self + other

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __sub__(self, other) -> "RationalFn":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFn":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalFn":
        other = self._coerce(other)
        if self.den.degree == 0 and other.den.degree == 0:
            return RationalFn(self.num * other.num)
        return RationalFn(self.num * other.num, self.den * other.den)

    def __rmul__(self, other) -> "RationalFn":
        return self * other

    def __truediv__(self, other) -> "RationalFn":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFn(self.num * other.den, self.den * other.num)

    @staticmethod
    def _coerce(other) -> "RationalFn":
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, Poly):
            return RationalFn(other)
        if isinstance(other, (int, Fraction)):
            return RationalFn(Poly([other]))
        raise TypeError(f"cannot coerce {type(other).__name__} to RationalFn")

    def derivative(self) -> "RationalFn":
        """Quotient rule, exact."""
        if self.den.degree == 0:
            return RationalFn(self.num.derivative())
        return RationalFn(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def leading_at(self, point: Scalar) -> tuple[int, Fraction]:
        """(v, c) with self = (x - point)^v (c + o(1)) near `point`, c != 0.

        v = ord(num) - ord(den) is the valuation; when v = 0, c is the value
        at `point`.  Each of num and den is split at the root once; the zero
        function has no leading term and raises ValueError.
        """
        v_num, _, a = self.num.split_root(point)
        v_den, _, b = self.den.split_root(point)
        return v_num - v_den, a / b

    def __repr__(self) -> str:
        if self.is_polynomial():
            return f"RationalFn({self.num!r})"
        return f"RationalFn({self.num!r} / {self.den!r})"
