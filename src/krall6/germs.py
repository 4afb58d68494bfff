"""Endpoint germ algebra for functions on (-1, 1).

Near an endpoint e in {-1, +1} every function this library manipulates has
the shape

    sum_k  r_k(x) * L(x)^k,        L(x) = ln(1 - x^2),

with finitely many log powers k >= 0 and rational-function coefficients r_k.
`LogGerm` stores that shape in normal form (one reduced RationalFn per log
power, zero terms dropped), which makes cancellation structural: endpoint
limits reduce to counting orders of vanishing, never to symbolic analysis.

Limits use the local coordinate u (u = 1-x at +1, u = 1+x at -1).  Writing
ord_k for the order of vanishing of r_k at the endpoint, the limit exists iff
ord_0 >= 0 and ord_k >= 1 for every k >= 1 (u^m ln^k u -> 0 for m >= 1, while
a nonvanishing coefficient on a log power diverges).  The value is the
leading coefficient of r_0 when ord_0 = 0, and 0 when ord_0 > 0 or the
log-free term is absent.  One `RationalFn.leading_at` call per term gives
both its order and its leading coefficient, so each numerator and
denominator is split at the endpoint once.  A failed limit raises
`DivergentLimitError` -- the typed "outside the limit class" outcome.

Derivatives are memoised by value: `derivative(n)` is served by
`_derivative`, a `functools.lru_cache` keyed by (germ, n) and bounded at
4096 entries, whose order-n entry is one `_differentiate` step from its
order-(n-1) entry.  Equal germs share entries whichever objects hold them,
and germs at different endpoints never compare equal, so never share.  The
memo holds germs only, never limits.

`EndpointFn` is the tagged union the rest of the library passes around:
either a single global polynomial, or a pair of germs (one per endpoint) with
the middle of the interval deliberately unrepresented.  Any operation that
would need mid-interval values of a piecewise function raises
`UnspecifiedInteriorError` instead of inventing data.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional

from .polynomials import Poly, RationalFn

#: d/dx ln(1 - x^2) = -2x / (1 - x^2)
LOG_DERIVATIVE = RationalFn(Poly([0, -2]), Poly([1, 0, -1]))


class DivergentLimitError(ArithmeticError):
    """An endpoint limit does not exist for the given germ."""

    def __init__(self, endpoint: int, detail: str = ""):
        self.endpoint = endpoint
        self.detail = detail
        super().__init__(f"divergent limit at {endpoint:+d}" + (f": {detail}" if detail else ""))


class UnspecifiedInteriorError(TypeError):
    """An operation required mid-interval values of a piecewise function."""


def _check_endpoint(endpoint: int) -> int:
    if endpoint not in (-1, 1):
        raise ValueError("endpoint must be -1 or +1")
    return endpoint


class LogGerm:
    """Normal-form germ sum_k r_k(x) L(x)^k at one endpoint."""

    __slots__ = ("endpoint", "terms")

    def __init__(self, endpoint: int, terms: Optional[dict[int, RationalFn]] = None):
        _check_endpoint(endpoint)
        clean: dict[int, RationalFn] = {}
        for k, r in (terms or {}).items():
            if k < 0:
                raise ValueError("log powers must be non-negative")
            if not r.is_zero():
                clean[k] = r
        object.__setattr__(self, "endpoint", endpoint)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LogGerm is immutable")

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
        if not isinstance(other, LogGerm):
            return NotImplemented
        return self.endpoint == other.endpoint and self.terms == other.terms

    def __hash__(self):
        return hash((self.endpoint, tuple(sorted(self.terms.items()))))

    def _require_same_endpoint(self, other: "LogGerm"):
        if self.endpoint != other.endpoint:
            raise ValueError("germs live at different endpoints")

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "LogGerm") -> "LogGerm":
        self._require_same_endpoint(other)
        terms = dict(self.terms)
        for k, r in other.terms.items():
            _add_term(terms, k, r)
        return LogGerm(self.endpoint, terms)

    def __neg__(self) -> "LogGerm":
        return LogGerm(self.endpoint, {k: -r for k, r in self.terms.items()})

    def __sub__(self, other: "LogGerm") -> "LogGerm":
        return self + (-other)

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
            return LogGerm(self.endpoint, {k: r * factor for k, r in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other) -> "LogGerm":
        return self * other

    def derivative(self, order: int = 1) -> "LogGerm":
        """Exact derivative of the given order (order >= 0), memoised by value."""
        if not isinstance(order, int):
            raise TypeError("derivative order must be an int")
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        return self if order == 0 else _derivative(self, order)

    # -- limits -------------------------------------------------------------

    def limit(self) -> Fraction:
        """Endpoint limit by valuation counting; raises DivergentLimitError."""
        value = Fraction(0)
        for k, r in self.terms.items():
            val, lead = r.leading_at(self.endpoint)
            needed = 0 if k == 0 else 1
            if val < needed:
                raise DivergentLimitError(
                    self.endpoint,
                    f"term with log power {k} has valuation {val} (needs >= {needed})",
                )
            if k == 0 and val == 0:
                value = lead
        return value

    def has_limit(self) -> bool:
        try:
            self.limit()
            return True
        except DivergentLimitError:
            return False

    def __repr__(self) -> str:
        if not self.terms:
            return f"LogGerm({self.endpoint:+d}, 0)"
        body = " + ".join(f"[L^{k}]({r!r})" for k, r in sorted(self.terms.items()))
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


def _add_term(terms: dict[int, RationalFn], k: int, r: RationalFn) -> None:
    """terms[k] += r; a new power stores r itself, with no sum against zero."""
    terms[k] = terms[k] + r if k in terms else r


class EndpointFn:
    """A global polynomial, or a pair of endpoint germs with unspecified middle."""

    __slots__ = ("poly", "germ_minus", "germ_plus")

    def __init__(self, poly: Optional[Poly], germ_minus: Optional[LogGerm], germ_plus: Optional[LogGerm]):
        if poly is not None:
            if germ_minus is not None or germ_plus is not None:
                raise ValueError("global polynomial carries no explicit germs")
        else:
            if germ_minus is None or germ_plus is None:
                raise ValueError("piecewise function needs germs at both endpoints")
            if germ_minus.endpoint != -1 or germ_plus.endpoint != 1:
                raise ValueError("germs attached to the wrong endpoints")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "germ_minus", germ_minus)
        object.__setattr__(self, "germ_plus", germ_plus)

    def __setattr__(self, name, value):
        raise AttributeError("EndpointFn is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_poly(p) -> "EndpointFn":
        if isinstance(p, EndpointFn):
            return p
        if isinstance(p, (int, Fraction)):
            p = Poly([p])
        if not isinstance(p, Poly):
            raise TypeError("from_poly expects a Poly")
        return EndpointFn(p, None, None)

    @staticmethod
    def piecewise(germ_minus: LogGerm, germ_plus: LogGerm) -> "EndpointFn":
        return EndpointFn(None, germ_minus, germ_plus)

    @staticmethod
    def _one_sided(germ: LogGerm) -> "EndpointFn":
        """`germ` at its endpoint, identically 0 near the other endpoint."""
        z = LogGerm.zero(-germ.endpoint)
        return EndpointFn.piecewise(*((z, germ) if germ.endpoint == 1 else (germ, z)))

    @staticmethod
    def poly_near(endpoint: int, p: Poly) -> "EndpointFn":
        """p(x) near `endpoint`, identically 0 near the other endpoint."""
        return EndpointFn._one_sided(LogGerm.from_poly(p, endpoint))

    @staticmethod
    def log_poly_near(endpoint: int, p: Poly) -> "EndpointFn":
        """p(x) * ln(1-x^2) near `endpoint`, 0 near the other endpoint."""
        return EndpointFn._one_sided(LogGerm.from_log_poly(p, endpoint))

    # -- structure --------------------------------------------------------

    def is_global(self) -> bool:
        return self.poly is not None

    def germ_at(self, endpoint: int) -> LogGerm:
        _check_endpoint(endpoint)
        if self.poly is not None:
            return LogGerm.from_poly(self.poly, endpoint)
        return self.germ_plus if endpoint == 1 else self.germ_minus

    def require_global(self, operation: str) -> Poly:
        if self.poly is None:
            raise UnspecifiedInteriorError(
                f"{operation} needs mid-interval values, but this function is only"
                " specified near the endpoints"
            )
        return self.poly

    def __eq__(self, other) -> bool:
        if not isinstance(other, EndpointFn):
            return NotImplemented
        if self.is_global() and other.is_global():
            return self.poly == other.poly
        return self.germ_at(-1) == other.germ_at(-1) and self.germ_at(1) == other.germ_at(1)

    # -- algebra ------------------------------------------------------------

    def map(self, kernel) -> "EndpointFn":
        """`kernel` (written once for Poly and LogGerm) applied to the global
        polynomial, or to each endpoint germ of a piecewise function."""
        if self.is_global():
            return EndpointFn.from_poly(kernel(self.poly))
        return EndpointFn.piecewise(kernel(self.germ_minus), kernel(self.germ_plus))

    def __add__(self, other) -> "EndpointFn":
        other = EndpointFn.from_poly(other)
        if self.is_global() and other.is_global():
            return EndpointFn.from_poly(self.poly + other.poly)
        return EndpointFn.piecewise(
            self.germ_at(-1) + other.germ_at(-1), self.germ_at(1) + other.germ_at(1)
        )

    def __neg__(self) -> "EndpointFn":
        return self.map(lambda f: -f)

    def __sub__(self, other) -> "EndpointFn":
        other = EndpointFn.from_poly(other)
        return self + (-other)

    def __mul__(self, other) -> "EndpointFn":
        """Multiplication by an exact scalar or a global polynomial."""
        if isinstance(other, (int, Fraction, Poly)):
            return self.map(lambda f: f * other)
        return NotImplemented

    def __rmul__(self, other) -> "EndpointFn":
        return self * other

    def derivative(self, order: int = 1) -> "EndpointFn":
        return self.map(lambda f: f.derivative(order))

    def value_at(self, endpoint: int) -> Fraction:
        """Endpoint value as a germ limit (exact polynomial evaluation if global)."""
        _check_endpoint(endpoint)
        if self.poly is not None:
            return self.poly(endpoint)
        return self.germ_at(endpoint).limit()

    def __repr__(self) -> str:
        if self.is_global():
            return f"EndpointFn({self.poly!r})"
        return f"EndpointFn(minus={self.germ_minus!r}, plus={self.germ_plus!r})"
