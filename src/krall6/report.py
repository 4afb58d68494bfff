"""Report objects and their JSON/CSV renderings.

A report is one suite's outcome: a tuple of cases, each with exact lhs/rhs
text and a verdict in {pass, fail, inconclusive}.  Rendering is fully
deterministic (cases sorted by name, no timestamps anywhere in the body);
the CLI writes an optional sidecar file for the single run timestamp.  The
bundle is rendered in one pass over the cases' fields, each string through
the C escaper `json.dumps` uses, into fixed indentation templates, and the
bytes are those of `json.dumps(<the bundle as dicts>, indent=2) + "\n"`.

JSON schema per report:

    {"suite": str,
     "params": {"A": "p/q", "B": "p/q"},
     "cases": [{"name": str, "paper_item": str, "lhs": str, "rhs": str,
                "verdict": "pass"|"fail"|"inconclusive", "witness": str|null}],
     "passed": int, "failed": int, "inconclusive": int}

CSV matrices are row-major with exact "p/q" cells, comma-separated.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .operator import KrallParams
from .polynomials import Poly, format_rational
from .values import Value

_set = object.__setattr__


def render_value(value) -> str:
    """Exact text for report fields (rationals as p/q, polys as coeff lists)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    if isinstance(value, Poly):
        return value.format_coeffs()
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return "[" + "; ".join(render_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + "; ".join(f"{k}={render_value(v)}" for k, v in sorted(value.items())) + "}"
    return str(value)


class Case(Value):
    __slots__ = _fields = ("name", "paper_item", "lhs", "rhs", "verdict", "witness")

    def __init__(self, name: str, paper_item: str, lhs: str, rhs: str, verdict: str, witness: str | None = None):
        _set(self, "name", name)
        _set(self, "paper_item", paper_item)
        _set(self, "lhs", lhs)
        _set(self, "rhs", rhs)
        _set(self, "verdict", verdict)
        _set(self, "witness", witness)


def make_case(name: str, paper_item: str, lhs, rhs, witness=None, inconclusive: bool = False) -> Case:
    """Case with verdict from exact lhs == rhs comparison (unless inconclusive)."""
    if inconclusive:
        verdict = "inconclusive"
    else:
        verdict = "pass" if lhs == rhs else "fail"
    return Case(
        name=name,
        paper_item=paper_item,
        lhs=render_value(lhs),
        rhs=render_value(rhs),
        verdict=verdict,
        witness=render_value(witness) if witness is not None else None,
    )


class Report(Value):
    """One suite's cases, read once from any iterable into a tuple."""

    __slots__ = _fields = ("suite", "params", "cases")

    def __init__(self, suite: str, params: KrallParams, cases=()):
        _set(self, "suite", suite)
        _set(self, "params", params)
        _set(self, "cases", tuple(cases))

    def count(self, verdict: str) -> int:
        return sum(1 for c in self.cases if c.verdict == verdict)

    @property
    def failed(self) -> int:
        return self.count("fail")


#: A case, a report and the bundle's tail as `json.dumps(indent=2)` lays them out in the bundle.
_CASE = (
    '\n        {\n          "name": %s,\n          "paper_item": %s,\n          "lhs": %s,'
    '\n          "rhs": %s,\n          "verdict": %s,\n          "witness": %s\n        }'
)
_REPORT = (
    '\n    {\n      "suite": %s,\n      "params": {\n        "A": %s,\n        "B": %s\n      },'
    '\n      "cases": [%s%s,\n      "passed": %d,\n      "failed": %d,\n      "inconclusive": %d\n    }'
)
_TAIL = '%s,\n  "summary": {\n    "passed": %d,\n    "failed": %d,\n    "inconclusive": %d\n  }\n}\n'


def bundle_to_json(reports: list[Report]) -> str:
    """Deterministic JSON for a list of reports, in one pass (see the module docstring)."""
    out, totals = ['{\n  "reports": ['], [0, 0, 0]
    for i, r in enumerate(reports):
        cases = ",".join([
            _CASE % (_quote(c.name), _quote(c.paper_item), _quote(c.lhs), _quote(c.rhs), _quote(c.verdict),
                     "null" if c.witness is None else _quote(c.witness))
            for c in sorted(r.cases, key=lambda c: c.name)
        ])
        counts = [r.count(verdict) for verdict in ("pass", "fail", "inconclusive")]
        totals = [t + n for t, n in zip(totals, counts)]
        A, B = (_quote(format_rational(v)) for v in (r.params.A, r.params.B))
        out += ("," if i else "", _REPORT % (_quote(r.suite), A, B, cases, "\n      ]" if cases else "]", *counts))
    out.append(_TAIL % ("\n  ]" if reports else "]", *totals))
    return "".join(out)


def matrix_to_csv(matrix) -> str:
    """Row-major CSV with exact p/q cells (no quoting needed)."""
    lines = [",".join(format_rational(v) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"
