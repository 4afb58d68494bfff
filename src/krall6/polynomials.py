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
strips and normalises.  `Poly._emit` brings a recurrence's numerators over
one growing denominator to the last one, by one backward pass of products of
the per-step factors (no lcm, no division); `_make`'s gcd starts at the top
coefficient, a series' newest, which the recurrence has just cut back, so it
is small after one step.  Arithmetic runs on the integers: sums bring both
sides to one denominator, products convolve the numerators over the product
of the denominators, derivatives scale the numerators, `scaled_sum` adds
shifted, term-by-term scaled polynomials over one denominator with a single
normalisation, and evaluation at p/q is Horner's rule over ints with one
division at the end (the integer value-and-slope rows of the expression's
stencil are `operator.LocalExpression.at`, on its own int coefficients).
`moments` gives the integrals of x^k p over [-1, 1] as ints over one
denominator, so the integral of a product is one integer dot product
(`integrate_against`, `integrate_product`) and the product is never built.
Division is fraction-free long division, so `poly_gcd` builds no Fraction
per coefficient either.  `Poly.coeffs`, the tuple of Fraction
coefficients, is built on each read, for rendering only;
no polynomial keeps a second copy.  There is no floating point anywhere:
every operation (arithmetic, differentiation, evaluation, integration over
[-1, 1], Taylor coefficients and shifts) is exact.

Both types are `values.Value`s, rebuilt by copy and pickle from `coeffs` and
from (`q`, `j`).  A constant polynomial equals its scalar
(``Poly([3]) == 3``) and hashes as it, and a polynomial `RationalFn` equals
and hashes as its polynomial, so `==` and `hash` agree across the three types.

`RationalFn` exists because differentiating ln(1-x^2) produces
-2x/(1-x^2); see `germs`.  Starting from polynomials, w = 1-x^2 is the only
divisor, so the type holds exactly the values

    r = q / w^j,    q a Poly,  j >= 0,

with w not dividing q when j > 0, and zero as (0, 0).  The form is unique,
so equality compares the two fields, and a polynomial is (q, 0).  No
operation runs Euclid's algorithm.  A product adds the exponents and a sum
brings both sides to the higher one; every value is normalised by `_fill`, which
tests w | q on the integer numerators (q(1) = 0 is a zero sum, q(-1) = 0 a
zero alternating sum) and only then divides w out, by running sums.  A
derivative only deepens the pole, so nothing divides out there.
``RationalFn(q, j)`` is the one constructor, so copy and pickle pass the
fields through unchanged; a power of a single endpoint factor is held over w,
(1 - x)^-k as ((1 + x)^k, k).  The tests check every result against the Euclid
normal form of the general quotient, built with `poly_gcd` and `Poly.divmod`,
which no library code calls.

Local behaviour at an integer point c has one kernel, `Poly.taylor(c)`: the
numerators of p^(m)(c) / m!, one synthetic-division pass on the ints each,
read lazily.  `Poly.shift(c)` is p(x + c) from them (`operator.power_stencil`
at each centre), `LocalExpression.indicial_roots` reads a root's multiplicity
as the index of the first nonzero one, and `RationalFn.laurent_at` gives the
Laurent coefficients in u = 1 - e x at e = +-1 up to a depth, as ints over
one denominator: its least order (the pole lowers it by j), and with it every
coefficient an endpoint limit reads.

Output text formats (reports, witnesses and dumps):
  rational    "p/q" or "p", q > 0 (`format_rational`)
  polynomial  comma-separated coefficients low-to-high, e.g. "0,0,1" is x^2
              (`Poly.format_coeffs`)
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate

from .values import Value

Scalar = int | Fraction


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int/Fraction to Fraction; a string is read by `parse_rational`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" (or "p") text format; the denominator must be positive.

    Only the text `format_rational` writes is read: ASCII digits, a sign only on
    p, and no spaces, underscores or other digits inside.
    """
    text = text.strip()
    num_text, slash, den_text = text.partition("/")
    digits = num_text[1:] if num_text[:1] in ("-", "+") else num_text
    if not (text.isascii() and digits.isdigit() and (den_text.isdigit() or not slash)):
        raise ValueError(f"expected an integer p or a fraction p/q, got {text!r}")
    num, den = _integer(digits), _integer(den_text) if slash else 1
    if den == 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(-num if num_text[:1] == "-" else num, den)


#: Decimal digits per piece in `_decimal`: below the least int-to-str limit
#: Python accepts (640 digits), so no piece is ever refused.
_PIECE_DIGITS = 512
_PIECE = 10**_PIECE_DIGITS


def _decimal(n: int) -> str:
    """The decimal text of an int of any size, with the bytes `str(n)` has where no
    limit applies, built from pieces of `_PIECE_DIGITS` digits; the process-wide
    int-to-str limit is read nowhere and changed nowhere."""
    if -_PIECE < n < _PIECE:
        return str(n)
    sign, n = ("-", -n) if n < 0 else ("", n)
    pieces = []
    while n >= _PIECE:
        n, low = divmod(n, _PIECE)
        pieces.append(f"{low:0{_PIECE_DIGITS}d}")
    return sign + str(n) + "".join(reversed(pieces))


def _integer(digits: str) -> int:
    """The int of an ASCII digit run of any length, read in `_PIECE_DIGITS`-digit pieces (as `_decimal`)."""
    head = len(digits) % _PIECE_DIGITS or _PIECE_DIGITS
    n = int(digits[:head])
    for i in range(head, len(digits), _PIECE_DIGITS):
        n = n * _PIECE + int(digits[i : i + _PIECE_DIGITS])
    return n


def format_rational(value: Scalar) -> str:
    """Render a rational in the "p/q" (or "p") text format, at any size."""
    value = as_fraction(value)
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


_set = object.__setattr__


class Poly(Value):
    """Dense univariate polynomial over Q, immutable.

    ``Poly([a0, a1, a2])`` is a0 + a1*x + a2*x^2; the coefficients may be
    ints, Fractions or "p/q" strings.  Trailing zero coefficients are
    stripped on construction; ``Poly()`` is the zero polynomial and has
    ``degree is None``.  The value is held as integer numerators `_n` over
    one positive denominator `_d`, in lowest terms (see the module
    docstring).
    """

    __slots__ = ("_n", "_d")
    _fields = ("coeffs",)

    def __new__(cls, coeffs: Iterable[Scalar] = ()):
        return Poly._ratios([(f.numerator, f.denominator) for f in map(as_fraction, coeffs)])

    @staticmethod
    def _ratios(pairs) -> "Poly":
        """sum (n_i / d_i) x^i over int pairs (n_i, d_i), any nonzero d_i: one lcm, one `_make`."""
        den = math.lcm(*[d for _, d in pairs])
        return Poly._make([n * (den // d) for n, d in pairs], den)

    @staticmethod
    def _emit(factors, *levels, descending: bool = False) -> tuple["Poly", ...]:
        """One Poly per level: levels[j][k] is the x^k coefficient (x^(len-1-k) if `descending`)
        over the denominator factors[0] ... factors[k] (nonzero ints); see the module docstring."""
        scales = list(accumulate(factors[:0:-1], operator.mul, initial=1))[::-1]
        den = scales[0] * factors[0]
        step = -1 if descending else 1
        return tuple(Poly._make(list(map(operator.mul, level, scales))[::step], den) for level in levels)

    @staticmethod
    def _make(ints, den: int) -> "Poly":
        """The polynomial sum(ints[i] x^i) / den (den != 0), in normal form."""
        size = len(ints)
        while size and not ints[size - 1]:
            size -= 1
        if not size:
            ints, den = (), 1
        else:
            # top coefficient first; zeros past it add nothing to the gcd, so `ints` needs no slice
            g = math.gcd(ints[size - 1], den, *ints) if den != 1 else 1
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

    # -- structure ----------------------------------------------------

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
        if other is NotImplemented:
            return other
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
        other = self._coerce(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other) -> "Poly":
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

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

    @staticmethod
    def scaled_sum(terms) -> "Poly":
        """sum of x^shift sum_i values[i] a_i x^i over (shift, p = sum_i a_i x^i, values), one int
        or Fraction per coefficient (more are unread): one denominator, ints, one `_make`."""
        terms = [(shift, p, values[: len(p._n)]) for shift, p, values in terms if p]
        den_p = math.lcm(*[p._d for _, p, _ in terms])
        den_v = math.lcm(*[v.denominator for _, _, values in terms for v in values])
        out = [0] * max((shift + len(p._n) for shift, p, _ in terms), default=0)
        for shift, p, values in terms:
            scale = den_p // p._d
            for i, (c, v) in enumerate(zip(p._n, values, strict=True), shift):
                out[i] += c * (v.numerator * (den_v // v.denominator) * scale)
        return Poly._make(out, den_p * den_v)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = None
        base = self
        e = exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return Poly.one() if result is None else result

    @staticmethod
    def _coerce(other) -> "Poly":
        """other as a Poly, or NotImplemented when it is not an exact scalar or a
        Poly, so that Python tries the other operand's reflected method."""
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly._make((other.numerator,), other.denominator)
        return NotImplemented

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

    def valuation(self):
        """The lowest power with a nonzero coefficient, or None for the zero polynomial."""
        return next((i for i, c in enumerate(self._n) if c), None)

    def moments(self, count: int) -> tuple[list[int], int]:
        """(nu, den) with nu[k] / den = integral over [-1, 1] of x^k p(x), for k < count.

        nu[k] = sum_i n_i H[i + k] over the numerators, with H[j] = 2D/(j+1)
        for even j and 0 for odd j, D the lcm of the odd numbers up to the
        table size len(n) + count - 1, and den = D times the denominator:
        ints over one denominator, so an integral of p times any polynomial
        of degree below `count` is one integer dot product (`integrate_against`).
        """
        n = self._n
        evens, odds = n[0::2], n[1::2]
        table, lcm_odd = _moment_table(len(n) + count - 1)
        # i + k even pairs n_i with H[i + k] = table[(i + k) // 2]
        nu = [sum(map(operator.mul, odds if k % 2 else evens, table[(k + 1) // 2 :])) for k in range(count)]
        return nu, lcm_odd * self._d

    def integrate_against(self, moments: tuple[list[int], int]) -> Fraction:
        """The integral of self against a measure given by `moments` = (nu, den), nu[k] / den
        its integral of x^k for k up to at least the degree of self: one dot product and
        one Fraction.  With p.moments(count), the integral of self times p over [-1, 1]."""
        nu, den = moments
        return Fraction(sum(map(operator.mul, self._n, nu)), den * self._d)

    def integrate_product(self, other: "Poly") -> Fraction:
        """Exact integral of self * other over [-1, 1], without building the product."""
        return self.integrate_against(other.moments(len(self._n)))

    def integrate_unit_interval(self) -> Fraction:
        """Exact integral over [-1, 1]: the first moment; odd monomials contribute 0."""
        nu, den = self.moments(1)
        return Fraction(nu[0], den)

    def taylor(self, point: int):
        """Yield the numerators over `_d` of t_m = p^(m)(point) / m!, m = 0 .. degree, so p(x) =
        sum_m t_m (x - point)^m: each is the remainder of one synthetic division by (x - point)
        on the ints, of the last pass's quotient.  TypeError, at the first read, for a point
        whose type is not `int` (`True`, `1.0` and `Fraction(1)` included)."""
        if type(point) is not int:
            raise TypeError(f"Taylor point must be an int, got {type(point).__name__}")
        ints = self._n
        while ints:
            acc, partial = 0, []
            for c in reversed(ints):
                acc = acc * point + c
                partial.append(acc)
            yield acc
            ints = partial[-2::-1]

    def shift(self, point: int) -> "Poly":
        """p(x + point), from the Taylor coefficients at `point`."""
        return Poly._make(list(self.taylor(point)), self._d)

    # -- division --------------------------------------------------------

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


def _moment_table(size: int) -> tuple[tuple[int, ...], int]:
    """((H[0], H[2], ...), D) for a table of `size` entries: H[j] = 2D/(j+1) = the
    integral of x^j over [-1, 1] times D, D = lcm of the odd numbers up to size.
    Built per call: it is cheap next to the dot products, and a memo of the
    tables raised peak memory more than it saved time."""
    lcm_odd = math.lcm(*range(1, size + 1, 2))
    return tuple(2 * lcm_odd // (j + 1) for j in range(0, size, 2)), lcm_odd


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q by Euclid's algorithm; gcd(0, 0) = 0."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def _as_poly(f) -> Poly:
    """f as a Poly: a Poly itself, or an exact scalar as a constant; any other type is a TypeError."""
    p = Poly._coerce(f)
    if p is NotImplemented:
        raise TypeError(f"expected a polynomial, not {type(f).__name__}")
    return p


#: w(x) = 1 - x^2, the weight whose powers vanish at both endpoints.
WEIGHT = Poly([1, 0, -1])


class RationalFn(Value):
    """r = q / w^j, w = 1 - x^2: a polynomial q and an int j >= 0, immutable.

    ``RationalFn(q, j=0)`` reads q through `_as_poly` (an exact scalar is a
    constant, any other type a TypeError), raises TypeError when j is not an
    int and ValueError when it is negative, and divides every factor of w out
    of q.  Normal form: w does not divide q when j > 0, and the zero function
    is q = 0, j = 0.  It is unique, so `==` and `hash` compare the fields.
    """

    __slots__ = _fields = ("q", "j")

    def __init__(self, q: Poly, j: int = 0):
        if type(j) is not int:
            raise TypeError(f"pole order must be an int, got {type(j).__name__}")
        if j < 0:
            raise ValueError("pole order must be non-negative")
        self._fill(_as_poly(q), j)

    def _fill(self, q: Poly, j: int) -> "RationalFn":
        """Set the fields to the normal form of q / w^j, j >= 0.

        w divides q exactly when q(1) = 0 and q(-1) = 0, read off the integer
        numerators: their sum and the sum of the even ones are 0.  Then
        q / w has even (odd) numerators the running sums of q's even (odd)
        ones, and the test repeats.
        """
        n = q._n
        if not n:
            j = 0
        while j and not sum(n) and not sum(n[::2]):
            quotient = list(n)
            quotient[::2], quotient[1::2] = accumulate(n[::2]), accumulate(n[1::2])
            q, j = Poly._make(quotient, q._d), j - 1
            n = q._n
        _set(self, "q", q)
        _set(self, "j", j)
        return self

    @staticmethod
    def _make(q: Poly, j: int = 0) -> "RationalFn":
        """A new value q / w^j in normal form; see `_fill`."""
        return object.__new__(RationalFn)._fill(q, j)

    @property
    def den(self) -> Poly:
        """w^j.  The benchmark's `RationalFn.init` span hook reads `den.degree`, which
        is 0 exactly when j = 0, as the Euclid normal form's denominator was."""
        return WEIGHT**self.j

    def is_zero(self) -> bool:
        return self.q.is_zero()

    def is_polynomial(self) -> bool:
        return not self.j

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFn):
            return self.j == other.j and self.q == other.q
        if isinstance(other, (int, Fraction, Poly)):
            return not self.j and self.q == other
        return NotImplemented

    def __hash__(self):
        # a polynomial hashes as q, since RationalFn(p) == p
        return hash((self.q, self.j)) if self.j else hash(self.q)

    def __add__(self, other) -> "RationalFn":
        other = self._coerce(other)
        a, i, b, k = self.q, self.j, other.q, other.j
        if i < k:
            a = a * WEIGHT ** (k - i)
        elif k < i:
            b = b * WEIGHT ** (i - k)
        return RationalFn._make(a + b, max(i, k))

    def __radd__(self, other) -> "RationalFn":
        return self + other

    def __neg__(self) -> "RationalFn":
        return RationalFn._make(-self.q, self.j)

    def __sub__(self, other) -> "RationalFn":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFn":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalFn":
        other = self._coerce(other)
        return RationalFn._make(self.q * other.q, self.j + other.j)

    def __rmul__(self, other) -> "RationalFn":
        return self * other

    @staticmethod
    def _coerce(other) -> "RationalFn":
        if isinstance(other, RationalFn):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return RationalFn._make(Poly._coerce(other))
        raise TypeError(f"cannot coerce {type(other).__name__} to RationalFn")

    def derivative(self) -> "RationalFn":
        """r' = (q' w + 2j x q) / w^(j+1), exact.

        For j > 0 the numerator is 2j q(1) at +1 and -2j q(-1) at -1, and q
        vanishes at one of them at most, so w never divides it: a derivative
        only deepens the pole.
        """
        q, j = self.q, self.j
        if not j:
            return RationalFn._make(q.derivative())
        return RationalFn._make(q.derivative() * WEIGHT + q * Poly([0, 2 * j]), j + 1)

    def laurent_at(self, e: int, depth: int) -> tuple[int, int, tuple[int, ...]]:
        """(v, den, nums) with self = sum_{n >= v} c_n u^n near e = +-1, u = 1 - e x,
        c_v != 0, and c_n = nums[n - v] / den for v <= n <= depth, zero past the end
        of nums (no nums when depth < v).

        x = e(1 - u), so q = sum_m (-e)^m t_m u^m with t_m = q^(m)(e) / m!, read off
        `Poly.taylor` only as deep as the depth needs; w = u(2 - u), so
        1/w^j = u^-j sum_m C(j+m-1, m) u^m / 2^(j+m).  All ints, over q's
        denominator, times 2^(2j + depth) when j > 0.  The zero function raises
        ValueError.
        """
        j = self.j
        if not self.q:
            raise ValueError("the zero function has no Laurent expansion")
        top, ts, v = depth + j, [], None
        for m, t in enumerate(self.q.taylor(e)):
            if t and v is None:
                v = m
            ts.append(-t if e > 0 and m % 2 else t)
            if v is not None and m >= top:
                break
        if not j or top < v:
            return v - j, self.q._d, tuple(ts[v : top + 1])
        weights = [math.comb(j + b - 1, b) << (top - b) for b in range(top - v + 1)]
        nums = tuple(sum(t * weights[s - a] for a, t in enumerate(ts[v : s + 1], v)) for s in range(v, top + 1))
        return v - j, self.q._d << (j + top), nums
