"""The one-pass report renderer against `json.dumps` of the bundle as dicts."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krall6.operator import KrallParams
from krall6.polynomials import format_rational
from krall6.report import Case, Report, bundle_to_json, make_case
from krall6.suites import RunConfig, run_suites

VERDICTS = ("pass", "fail", "inconclusive")
COUNTS = ("passed", "failed", "inconclusive")


def reference(reports) -> str:
    """The bundle as a tree of dicts and lists, rendered by `json.dumps(indent=2)`."""
    dicts = [
        {
            "suite": r.suite,
            "params": {"A": format_rational(r.params.A), "B": format_rational(r.params.B)},
            "cases": [
                {
                    "name": c.name,
                    "paper_item": c.paper_item,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "verdict": c.verdict,
                    "witness": c.witness,
                }
                for c in sorted(r.cases, key=lambda c: c.name)
            ],
            **{key: sum(c.verdict == v for c in r.cases) for key, v in zip(COUNTS, VERDICTS)},
        }
        for r in reports
    ]
    summary = {key: sum(d[key] for d in dicts) for key in COUNTS}
    return json.dumps({"reports": dicts, "summary": summary}, indent=2) + "\n"


P = KrallParams(Fraction(1, 3), Fraction(7, 2))
HUGE = KrallParams(Fraction(7, 10**600 + 1), 10**5000)
AWKWARD = ('say "no"', "back\\slash", "two\nlines", "bell\x07 nul\x00 tab\t", "λ = −1/2", "", "\U0001d4c1")


@pytest.mark.parametrize(
    "reports",
    [
        [],
        [Report("eigen", P)],
        [Report("eigen", P), Report("gram", KrallParams(1, 2))],
        [Report("gkn", P, [Case("a", "item", "1", "1", "pass")])],
        [Report("errata", P, [Case("b", "i", "1", "2", "fail", None), Case("a", "i", "x", "y", "inconclusive")])],
        [Report(text or "suite", P, [Case(text, text, text, text, "pass", text)]) for text in AWKWARD],
        [Report("polys", HUGE, [make_case("big", "item", 10**5000, 1)])],
    ],
    ids=["no-reports", "no-cases", "two-empty", "one-case", "none-witness-and-order", "escapes", "huge-params"],
)
def test_bundle_equals_json_dumps_of_the_dict_tree(reports):
    text = bundle_to_json(reports)
    assert text == reference(reports)
    assert text.isascii()


fields = st.text(max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            fields,
            st.lists(st.tuples(fields, fields, fields, fields, st.sampled_from(VERDICTS), st.none() | fields)),
        ),
        max_size=3,
    )
)
def test_bundle_of_any_text_equals_json_dumps(spec):
    reports = [Report(suite, P, [Case(*c) for c in cases]) for suite, cases in spec]
    assert bundle_to_json(reports) == reference(reports)


def test_bundle_of_a_real_run_equals_json_dumps():
    config = RunConfig(A=Fraction(1, 3), B=Fraction(7, 2), nmax=3, suites=("polys", "gkn", "errata"), seed=3)
    reports = run_suites(config)
    assert sum(len(r.cases) for r in reports) > 20
    assert bundle_to_json(reports) == reference(reports)
