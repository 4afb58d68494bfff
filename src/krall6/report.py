"""Report objects and their JSON/CSV renderings.

A report is one suite's outcome: a list of cases, each with exact lhs/rhs
text and a verdict in {pass, fail, inconclusive}.  Rendering is fully
deterministic (cases sorted by name, no timestamps anywhere in the body);
the CLI writes an optional sidecar file for the single run timestamp.

JSON schema per report:

    {"suite": str,
     "params": {"A": "p/q", "B": "p/q"},
     "cases": [{"name": str, "paper_item": str, "lhs": str, "rhs": str,
                "verdict": "pass"|"fail"|"inconclusive", "witness": str|null}],
     "passed": int, "failed": int, "inconclusive": int}

CSV matrices are row-major with exact "p/q" cells, comma-separated.
"""

from __future__ import annotations

import json
from fractions import Fraction

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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "paper_item": self.paper_item,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "witness": self.witness,
        }


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
    """One suite's cases, a list that grows only through `add` and `extend` (so no hash)."""

    __slots__ = _fields = ("suite", "params", "cases")

    def __init__(self, suite: str, params: KrallParams, cases: list | None = None):
        _set(self, "suite", suite)
        _set(self, "params", params)
        _set(self, "cases", [] if cases is None else cases)

    def add(self, case: Case):
        self.cases.append(case)

    def extend(self, cases):
        self.cases.extend(cases)

    def sorted_cases(self) -> list:
        return sorted(self.cases, key=lambda c: c.name)

    def count(self, verdict: str) -> int:
        return sum(1 for c in self.cases if c.verdict == verdict)

    @property
    def failed(self) -> int:
        return self.count("fail")

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": {"A": format_rational(self.params.A), "B": format_rational(self.params.B)},
            "cases": [c.to_dict() for c in self.sorted_cases()],
            "passed": self.count("pass"),
            "failed": self.count("fail"),
            "inconclusive": self.count("inconclusive"),
        }


def bundle_to_json(reports: list[Report]) -> str:
    """Deterministic JSON for a list of reports (byte-identical across reruns)."""
    payload = {
        "reports": [r.to_dict() for r in reports],
        "summary": {
            "passed": sum(r.count("pass") for r in reports),
            "failed": sum(r.count("fail") for r in reports),
            "inconclusive": sum(r.count("inconclusive") for r in reports),
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def matrix_to_csv(matrix) -> str:
    """Row-major CSV with exact p/q cells (no quoting needed)."""
    lines = [",".join(format_rational(v) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"
