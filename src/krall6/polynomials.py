"""Exact univariate polynomial and rational-function arithmetic over Q.

Scalars are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator).  A `Poly` holds its value as integer numerators over
one common denominator, the representation of FLINT's `fmpq_poly`:

    p(x) = (n_0 + n_1 x + ... + n_d x^d) / den

with `_n` a tuple of ints, low to high, trailing zeros stripped, and `_d` a
positive int.  The invariant is gcd(n_0, ..., n_d, den) = 1, so each value
has exactly one representation and equality is a comparison of the two
fields.  The zero polynomial is `_n = ()`, `_d = 1`; its degree is the
sentinel ``None``.  Every value is built by `Poly._make(ints, den)`, which
strips and normalises.  Arithmetic runs on the integers: sums bring both
sides to one denominator, products convolve the numerators over the product
of the denominators, derivatives and `scale_terms` scale the numerators,
and evaluation at p/q is Horner's rule over ints with one division at the
end.  Division is fraction-free long division, so `poly_gcd` and
`RationalFn` build no Fraction per coefficient either.  `Poly.coeffs`, the
tuple of Fraction coefficients, is built on each read, for rendering only;
no polynomial keeps a second copy.  There is no floating point anywhere:
every operation (arithmetic, differentiation, evaluation, integration over
[-1, 1], composition, splitting off a root) is exact.

A constant polynomial equals its scalar (``Poly([3]) == 3``) and hashes as
it, and a `RationalFn` with denominator 1 equals and hashes as its
numerator, so `==` and `hash` agree across the three types.

`RationalFn` is a quotient of two polynomials kept in normal form:
gcd(numerator, denominator) = 1 and the denominator monic.  It exists because
differentiating ln(1-x^2) produces -2x/(1-x^2); see `germs`.  Most values
are polynomials (denominator 1): for those, construction only rescales by
the constant denominator and sum, product and derivative work on the
numerators, without Euclid's algorithm.

Endpoint limits need only the local behaviour at a root.  `Poly.split_root`
writes p = (x-c)^m q with q(c) != 0 by synthetic division (over the integer
numerators when c is an integer) and also returns the value q(c), the
remainder of its last pass.  `RationalFn.leading_at` applies it once to the
numerator and once to the denominator and reads the valuation and the
leading coefficient at c off the two splits, with no further evaluation.

Text formats (used by the CLI layer):
  rational    "p/q" or "p", q > 0
  polynomial  comma-separated coefficients low-to-high, e.g. "0,0,1" is x^2
"""

from __future__ import annotations

import math
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


_set = object.__setattr__


class Poly:
    """Dense univariate polynomial over Q, immutable.

    ``Poly([a0, a1, a2])`` is a0 + a1*x + a2*x^2; the coefficients may be
    ints, Fractions or "p/q" strings.  Trailing zero coefficients are
    stripped on construction; ``Poly()`` is the zero polynomial and has
    ``degree is None``.  The value is held as integer numerators `_n` over
    one positive denominator `_d`, in lowest terms (see the module
    docstring).
    """

    __slots__ = ("_n", "_d")

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        fs = [as_fraction(c) for c in coeffs]
        den = math.lcm(*[f.denominator for f in fs])
        return Poly._make([f.numerator * (den // f.denominator) for f in fs], den)

    @staticmethod
    def _make(ints, den: int) -> "Poly":
        """The polynomial sum(ints[i] x^i) / den (den != 0), in normal form."""
        size = len(ints)
        while size and not ints[size - 1]:
            size -= 1
        if not size:
            ints, den = (), 1
        else:
            g = math.gcd(den, *ints[:size]) if den != 1 else 1
            if den < 0:
                g = -g
            if g != 1:
                ints, den = tuple(c // g for c in ints[:size]), den // g
            else:
                ints = tuple(ints[:size])
        p = object.__new__(Poly)
        _set(p, "_n", ints)
        _set(p, "_d", den)
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def one() -> "Poly":
        return Poly._make((1,), 1)

    @staticmethod
    def x() -> "Poly":
        return Poly._make((0, 1), 1)

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
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, low to high; built on each read, for rendering."""
        d = self._d
        return tuple(Fraction(c, d) for c in self._n)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial (distinguished sentinel)."""
        return len(self._n) - 1 if self._n else None

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self) -> bool:
        return bool(self._n)

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self._n):
            return Fraction(self._n[power], self._d)
        return Fraction(0)

    def leading_coefficient(self) -> Fraction:
        if not self._n:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._n[-1], self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._n == other._n and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return self == Poly._coerce(other)
        return NotImplemented

    def __hash__(self):
        n, d = self._n, self._d
        if len(n) > 1:
            return hash((n, d))
        # a constant hashes as its scalar, since Poly([c]) == c
        c = n[0] if n else 0
        return hash(c if d == 1 else Fraction(c, d))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        a, b, da, db = self._n, other._n, self._d, other._d
        if da != db:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            a, b, da = [c * sa for c in a], [c * sb for c in b], da * sa
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._make(out, da)

    def __radd__(self, other) -> "Poly":
        return self + other

    def __neg__(self) -> "Poly":
        return Poly._make([-c for c in self._n], self._d)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return Poly._make([c * num for c in self._n], self._d * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._n, other._n
        if not a or not b:
            return _ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly._make(out, self._d * other._d)

    def __rmul__(self, other) -> "Poly":
        return self * other

    def scale_terms(self, values) -> "Poly":
        """sum_i values[i] a_i x^i for one int or Fraction per coefficient, one `_make`."""
        n = self._n
        if len(values) != len(n):
            raise ValueError(f"{len(values)} values for {len(n)} coefficients")
        den = math.lcm(*[v.denominator for v in values])
        ints = [c * v.numerator * (den // v.denominator) for c, v in zip(n, values)]
        return Poly._make(ints, self._d * den)

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
            return Poly._make((other.numerator,), other.denominator)
        raise TypeError(f"cannot coerce {type(other).__name__} to Poly")

    # -- calculus -----------------------------------------------------

    def derivative(self, order: int = 1) -> "Poly":
        """Exact derivative of the given order (order >= 0)."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        n = self._n
        return Poly._make([math.perm(i, order) * n[i] for i in range(order, len(n))], self._d)

    def __call__(self, point: Scalar) -> Fraction:
        """Exact evaluation at p/q by Horner's rule over the integers, one division."""
        if not isinstance(point, (int, Fraction)):
            point = as_fraction(point)
        p, q = point.numerator, point.denominator
        acc, q_power = 0, 1
        for c in reversed(self._n):
            acc = acc * p + c * q_power
            q_power *= q
        # acc = sum n_i p^i q^(deg - i) and q_power = q^(deg + 1)
        return Fraction(acc * q, self._d * q_power)

    def integrate_unit_interval(self) -> Fraction:
        """Exact integral over [-1, 1]; odd monomials contribute 0."""
        n = self._n
        den = math.lcm(*range(1, len(n) + 1, 2))
        total = sum(2 * n[i] * (den // (i + 1)) for i in range(0, len(n), 2))
        return Fraction(total, den * self._d)

    def compose(self, inner: "Poly") -> "Poly":
        """Exact composition self(inner(x)) by Horner's rule."""
        acc = Poly()
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    # -- division and roots --------------------------------------------

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division, (quotient, remainder).

        Fraction-free long division on the numerators: when the divisor's
        leading coefficient does not divide the top term, the running
        remainder and quotient are scaled by lead / gcd(top, lead), and the
        accumulated scale joins the denominators at the end.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        b = divisor._n
        lead, size = b[-1], len(b)
        rem = list(self._n)
        quot = [0] * max(len(rem) - size + 1, 0)
        scale = 1
        while len(rem) >= size:
            top = rem[-1]
            if top:
                if top % lead:
                    m = abs(lead) // math.gcd(top, lead)
                    rem = [c * m for c in rem]
                    quot = [c * m for c in quot]
                    scale *= m
                    top *= m
                f = top // lead
                shift = len(rem) - size
                quot[shift] = f
                for i, c in enumerate(b, shift):
                    rem[i] -= f * c
            rem.pop()
        den = self._d * scale
        return Poly._make([c * divisor._d for c in quot], den), Poly._make(rem, den)

    def split_root(self, point: Scalar) -> tuple[int, "Poly", Fraction]:
        """(m, q, q(point)) with self = (x - point)^m q and q(point) != 0.

        Synthetic division: one Horner pass gives both the value at `point`
        (the remainder) and the quotient by (x - point), so each factor of
        the root costs one pass and no general division; the last pass's
        remainder is q(point), returned rather than recomputed.  The passes
        run on the integer numerators, which stay integers at an integer
        point; at any other point they run over Fractions.
        """
        if self.is_zero():
            raise ValueError("zero polynomial vanishes to every order")
        if not isinstance(point, (int, Fraction)):
            point = as_fraction(point)
        if point.denominator == 1:
            point = point.numerator
        m, cs = 0, self._n
        while True:
            acc = 0
            partial = []
            for c in reversed(cs):
                acc = acc * point + c
                partial.append(acc)
            if acc != 0:
                break
            m, cs = m + 1, partial[-2::-1]
        d = self._d
        if not m:
            q = self
        elif isinstance(point, int):
            q = Poly._make(cs, d)
        else:
            q = Poly(cs) * Fraction(1, d)
        return m, q, Fraction(acc, d)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return Poly._make(self._n, self._n[-1])

    # -- rendering ------------------------------------------------------

    def format_coeffs(self) -> str:
        """Low-to-high comma-separated coefficient text ("0" for the zero poly)."""
        if not self._n:
            return "0"
        return ",".join(format_rational(c) for c in self.coeffs)

    def __repr__(self) -> str:
        if not self._n:
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


_ZERO = Poly()
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
            num, den = _ZERO, _ONE
        elif den.degree == 0:
            # gcd(num, c) = 1 for a nonzero constant c: only the scaling is left
            if den != _ONE:
                num = num * (1 / den[0])
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
        # a polynomial hashes as its numerator, since RationalFn(p) == p
        return hash(self.num) if self.den == _ONE else hash((self.num, self.den))

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
