"""Endpoint germ algebra for functions on (-1, 1).

Near an endpoint e in {-1, +1} every function this library manipulates has
the shape

    sum_k  r_k(x) * L(x)^k,        L(x) = ln(1 - x^2),

with finitely many log powers k >= 0 and rational-function coefficients r_k.
Every r_k is q / (1-x^2)^j with j >= 0: the inputs are polynomials, and the
only divisor ever introduced is 1 - x^2, by d/dx L = -2x/(1-x^2).
`LogGerm` stores that shape in normal form (one `RationalFn` in that form
per log power, in ascending order of power, zero terms dropped), which makes
cancellation structural: endpoint limits reduce to counting orders of
vanishing, never to symbolic analysis.

Limits use the local coordinate u (u = 1-x at +1, u = 1+x at -1).  Writing
ord_k for the order of vanishing of r_k at the endpoint, the limit exists iff
ord_0 >= 0 and ord_k >= 1 for every k >= 1 (u^m ln^k u -> 0 for m >= 1, while
a nonvanishing coefficient on a log power diverges).  The value is the
coefficient of u^0 in r_0.  One function, `product_limit`, makes that test,
for the limit of any sum of products c a b such as a bracket's lines, and
builds no product: it reads the factors' principal parts, their Laurent
coefficients of u^n L^k up to a depth (`RationalFn.laurent_at`, ints over
one denominator per log power), with L kept a symbol.  `LogGerm.limit` is
the one product g * 1.  A failed limit raises `DivergentLimitError` -- the
typed "outside the limit class" outcome -- naming the lowest failing power
and its valuation.

Derivatives are memoised by value: `derivative(n)` is served by
`_derivative`, a `functools.lru_cache` keyed by (germ, n) and bounded at
4096 entries, whose order-n entry is one `_differentiate` step from its
order-(n-1) entry.  Principal parts are memoised the same way, by
`_principal`, keyed by (germ, depth).  Equal germs share entries whichever
objects hold them, and germs at different endpoints never compare equal, so
never share.  The memos hold germs and ints only, never limits.  A germ
computes its hash on the first lookup and keeps it.  `LogGerm` and
`EndpointFn` are `values.Value`s, rebuilt by copy and pickle from
(`endpoint`, `terms`) and from their two germs.

A function known on the whole interval is a `Poly`.  `EndpointFn` is a pair
of germs, one per endpoint, with the middle of the interval deliberately
unrepresented; any operation that would need its mid-interval values raises
`UnspecifiedInteriorError` instead of inventing data.  `germ_at` and
`value_at` read either kind: a polynomial's germ, or its derivatives at an
endpoint by evaluation; an `EndpointFn`'s own germ, or its germ's limits.
Every entry point that takes a polynomial reads it through `_as_poly` (an
exact scalar is a constant, any other type a TypeError), or through
`_as_global_poly` where it integrates over the interval.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .polynomials import Poly, RationalFn, _as_poly
from .values import Value

#: d/dx ln(1 - x^2) = -2x / (1 - x^2)
LOG_DERIVATIVE = RationalFn(Poly([0, -2]), 1)


class DivergentLimitError(ArithmeticError):
    """An endpoint limit does not exist for the given germ."""

    def __init__(self, endpoint: int, detail: str = ""):
        self.endpoint = endpoint
        self.detail = detail
        super().__init__(f"divergent limit at {endpoint:+d}" + (f": {detail}" if detail else ""))


class UnspecifiedInteriorError(TypeError):
    """An operation required mid-interval values of an `EndpointFn`."""


def _check_endpoint(endpoint: int) -> int:
    """The int -1 or +1; `True` and `1.0` equal 1, so a memo keyed by the endpoint would answer them."""
    if type(endpoint) is not int:
        raise TypeError(f"endpoint must be the int -1 or +1, got {type(endpoint).__name__}")
    if endpoint not in (-1, 1):
        raise ValueError("endpoint must be -1 or +1")
    return endpoint


class LogGerm(Value):
    """Normal-form germ sum_k r_k(x) L(x)^k at one endpoint; each power k is an
    int >= 0, and a Poly or exact scalar term is read as the polynomial
    `RationalFn` it equals."""

    __slots__ = ("endpoint", "terms", "_hash")
    _fields = ("endpoint", "terms")

    def __init__(self, endpoint: int, terms: dict[int, RationalFn] | None = None):
        _check_endpoint(endpoint)
        clean: dict[int, RationalFn] = {}
        for k, r in (terms or {}).items():
            if type(k) is not int:
                raise TypeError(f"log powers must be ints, got {type(k).__name__}")
            if k < 0:
                raise ValueError("log powers must be non-negative")
            if not isinstance(r, RationalFn):
                r = RationalFn._coerce(r)
            if not r.is_zero():
                clean[k] = r
        object.__setattr__(self, "endpoint", endpoint)
        object.__setattr__(self, "terms", {k: clean[k] for k in sorted(clean)})
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _make(endpoint: int, terms: dict[int, RationalFn]) -> "LogGerm":
        """A germ over `terms` as given: a dict no one else holds, of non-negative
        powers in ascending order to nonzero terms.  Negation and scaling by a
        nonzero factor keep every term nonzero and come here; a sum can cancel a
        term to zero, so sums, products of germs and derivatives go through the
        constructor's filter and sort."""
        g = object.__new__(LogGerm)
        object.__setattr__(g, "endpoint", endpoint)
        object.__setattr__(g, "terms", terms)
        object.__setattr__(g, "_hash", None)
        return g

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(endpoint: int) -> "LogGerm":
        return LogGerm(endpoint, {})

    @staticmethod
    def from_poly(p: Poly, endpoint: int) -> "LogGerm":
        return LogGerm(endpoint, {0: RationalFn(p)})

    @staticmethod
    def from_log_poly(p: Poly, endpoint: int) -> "LogGerm":
        """Germ p(x) * ln(1-x^2)."""
        return LogGerm(endpoint, {1: RationalFn(p)})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        # written out: memo lookups compare germs often, and `Value._key` is slower
        if not isinstance(other, LogGerm):
            return NotImplemented
        return self.endpoint == other.endpoint and self.terms == other.terms

    def __hash__(self):
        # computed once: every memo lookup keyed by this germ hashes it
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.endpoint, tuple(self.terms.items()))))
        return self._hash

    def _require_same_endpoint(self, other: "LogGerm"):
        if self.endpoint != other.endpoint:
            raise ValueError("germs live at different endpoints")

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "LogGerm") -> "LogGerm":
        if not isinstance(other, LogGerm):
            return NotImplemented
        self._require_same_endpoint(other)
        terms = dict(self.terms)
        for k, r in other.terms.items():
            _add_term(terms, k, r)
        return LogGerm(self.endpoint, terms)

    def __neg__(self) -> "LogGerm":
        return LogGerm._make(self.endpoint, {k: -r for k, r in self.terms.items()})

    def __sub__(self, other: "LogGerm") -> "LogGerm":
        return self + (-other) if isinstance(other, LogGerm) else NotImplemented

    def __mul__(self, other) -> "LogGerm":
        if isinstance(other, LogGerm):
            self._require_same_endpoint(other)
            terms: dict[int, RationalFn] = {}
            for k1, r1 in self.terms.items():
                for k2, r2 in other.terms.items():
                    _add_term(terms, k1 + k2, r1 * r2)
            return LogGerm(self.endpoint, terms)
        if isinstance(other, (int, Fraction, Poly, RationalFn)):
            factor = RationalFn._coerce(other)
            if factor.is_zero():
                return LogGerm._make(self.endpoint, {})
            # a product of nonzero rational functions is nonzero
            return LogGerm._make(self.endpoint, {k: r * factor for k, r in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other) -> "LogGerm":
        # not `self * other`, which would try other.__rmul__ again and recurse
        return self.__mul__(other)

    def derivative(self, order: int = 1) -> "LogGerm":
        """Exact derivative of the given order (order >= 0), memoised by value."""
        if not isinstance(order, int):
            raise TypeError("derivative order must be an int")
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        return self if order == 0 else _derivative(self, order)

    # -- limits -------------------------------------------------------------

    def limit(self) -> Fraction:
        """Endpoint limit, the product g * 1 through `product_limit`; raises DivergentLimitError."""
        return product_limit(((1, self, germ_at(1, self.endpoint)),))

    def has_limit(self) -> bool:
        try:
            self.limit()
            return True
        except DivergentLimitError:
            return False

    def __repr__(self) -> str:
        if not self.terms:
            return f"LogGerm({self.endpoint:+d}, 0)"
        body = " + ".join(f"[L^{k}]({r!r})" for k, r in self.terms.items())
        return f"LogGerm({self.endpoint:+d}, {body})"


def _differentiate(g: LogGerm) -> LogGerm:
    """First derivative: (r_k)' + (k+1) r_{k+1} * (-2x/(1-x^2)) per log power."""
    terms: dict[int, RationalFn] = {}
    for k, r in g.terms.items():
        _add_term(terms, k, r.derivative())
        if k >= 1:
            _add_term(terms, k - 1, r * LOG_DERIVATIVE * k)
    return LogGerm(g.endpoint, terms)


@functools.lru_cache(maxsize=4096)
def _derivative(g: LogGerm, n: int) -> LogGerm:
    """g^(n) for n >= 1: one `_differentiate` step from the memoised g^(n-1)."""
    return _differentiate(g if n == 1 else _derivative(g, n - 1))


@functools.lru_cache(maxsize=4096)
def _principal(g: LogGerm, depth: int) -> tuple[int | None, tuple]:
    """(v, parts): g = sum c_{k,n} u^n L^k near its endpoint, u = 1 - e x, L kept as a symbol,
    with v the least n (None for the zero germ) and one `RationalFn.laurent_at` triple
    (k, n0, den, nums) per log power k, its coefficients up to u^depth."""
    parts = tuple((k, *r.laurent_at(g.endpoint, depth)) for k, r in g.terms.items())
    return min((part[1] for part in parts), default=None), parts


def product_limit(products) -> Fraction:
    """The endpoint limit of sum c a b over (c, a, b) in `products` (c an int, a and b
    germs at one endpoint), read off principal parts without building a product.

    The u^n L^k are asymptotically independent, so the sum has a limit exactly when
    its coefficients at k = 0, n < 0 and at k >= 1, n <= 0 vanish, and the limit is
    its (0, 0) coefficient.  Otherwise DivergentLimitError names the lowest failing
    power k and its least n, the valuation of that power's coefficient in the built
    sum.  Those coefficients of a b need a only up to u^-v(b) and b only up to
    u^-v(a), one short integer convolution; the sums run over one denominator.
    """
    acc, den, endpoint = {}, 1, None
    for c, a, b in products:
        if endpoint is None:
            endpoint = a.endpoint
        if a.endpoint != endpoint or b.endpoint != endpoint:
            raise ValueError("germs live at different endpoints")
        va, vb = _principal(a, 0)[0], _principal(b, 0)[0]
        if va is None or vb is None or va + vb > 0:
            continue
        for ka, na, da, xs in _principal(a, -vb)[1]:
            for kb, nb, db, ys in _principal(b, -va)[1]:
                d = da * db
                if d != den:
                    g = math.gcd(den, d)
                    if d != g:
                        acc = {key: value * (d // g) for key, value in acc.items()}
                        den *= d // g
                scale, k = c * (den // d), ka + kb
                for start, x in enumerate(xs, na + nb):
                    if start > 0:
                        break
                    for n, y in enumerate(ys, start):
                        if n > 0:
                            break
                        acc[k, n] = acc.get((k, n), 0) + scale * x * y
    failing = [(k, n) for (k, n), value in acc.items() if value and (k or n < 0)]
    if failing:
        k, n = min(failing)
        raise DivergentLimitError(endpoint, f"term with log power {k} has valuation {n} (needs >= {1 if k else 0})")
    return Fraction(acc.get((0, 0), 0), den)


def _add_term(terms: dict[int, RationalFn], k: int, r: RationalFn) -> None:
    """terms[k] += r; a new power stores r itself, with no sum against zero."""
    terms[k] = terms[k] + r if k in terms else r


class EndpointFn(Value):
    """A pair of endpoint germs, one per endpoint, with the middle unspecified."""

    __slots__ = _fields = ("germ_minus", "germ_plus")

    def __init__(self, germ_minus: LogGerm, germ_plus: LogGerm):
        if not (isinstance(germ_minus, LogGerm) and isinstance(germ_plus, LogGerm)):
            raise TypeError(f"expected two germs, got {type(germ_minus).__name__} and {type(germ_plus).__name__}")
        if germ_minus.endpoint != -1 or germ_plus.endpoint != 1:
            raise ValueError("germs attached to the wrong endpoints")
        object.__setattr__(self, "germ_minus", germ_minus)
        object.__setattr__(self, "germ_plus", germ_plus)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _one_sided(germ: LogGerm) -> "EndpointFn":
        """`germ` at its endpoint, identically 0 near the other endpoint."""
        z = LogGerm.zero(-germ.endpoint)
        return EndpointFn(*((z, germ) if germ.endpoint == 1 else (germ, z)))

    @staticmethod
    def poly_near(endpoint: int, p: Poly) -> "EndpointFn":
        """p(x) near `endpoint`, identically 0 near the other endpoint."""
        return EndpointFn._one_sided(LogGerm.from_poly(p, endpoint))

    @staticmethod
    def log_poly_near(endpoint: int, p: Poly) -> "EndpointFn":
        """p(x) * ln(1-x^2) near `endpoint`, 0 near the other endpoint."""
        return EndpointFn._one_sided(LogGerm.from_log_poly(p, endpoint))

    # -- algebra ------------------------------------------------------------

    def map(self, kernel) -> "EndpointFn":
        """`kernel` (written once for Poly and LogGerm) applied to each endpoint germ."""
        return EndpointFn(kernel(self.germ_minus), kernel(self.germ_plus))

    def __add__(self, other) -> "EndpointFn":
        """Sum with another EndpointFn, a Poly or an exact scalar."""
        return EndpointFn(self.germ_minus + germ_at(other, -1), self.germ_plus + germ_at(other, 1))

    __radd__ = __add__

    def __neg__(self) -> "EndpointFn":
        return self.map(lambda f: -f)

    def __sub__(self, other) -> "EndpointFn":
        return self + (-other)

    def __rsub__(self, other) -> "EndpointFn":
        return -self + other

    def __mul__(self, other) -> "EndpointFn":
        """Multiplication by an exact scalar or a global polynomial."""
        if isinstance(other, (int, Fraction, Poly)):
            return self.map(lambda f: f * other)
        return NotImplemented

    def __rmul__(self, other) -> "EndpointFn":
        return self.__mul__(other)

    def derivative(self, order: int = 1) -> "EndpointFn":
        return self.map(lambda f: f.derivative(order))


def _as_global_poly(f, operation: str) -> Poly:
    """f as a Poly for an `operation` that integrates over the interval: an
    EndpointFn raises UnspecifiedInteriorError, any other input is read by `_as_poly`."""
    if isinstance(f, EndpointFn):
        raise UnspecifiedInteriorError(
            f"{operation} needs mid-interval values, but this function is only"
            " specified near the endpoints"
        )
    return _as_poly(f)


def germ_at(f, endpoint: int) -> LogGerm:
    """f's germ at `endpoint`: a polynomial's (an exact scalar is a constant one),
    or an EndpointFn's own."""
    _check_endpoint(endpoint)
    if isinstance(f, EndpointFn):
        return f.germ_plus if endpoint == 1 else f.germ_minus
    return LogGerm.from_poly(_as_poly(f), endpoint)


def value_at(f, endpoint: int, order: int = 0) -> Fraction:
    """f^(order)(e): a polynomial's by evaluation, an EndpointFn's as its germ's limit."""
    if isinstance(f, EndpointFn):
        return germ_at(f, endpoint).derivative(order).limit()
    return _as_poly(f).derivative(order)(_check_endpoint(endpoint))
