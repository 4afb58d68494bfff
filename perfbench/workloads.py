"""The three benchmark workloads: inputs from a seed, the verification work,
and known-answer checks that come from the README and independent routes,
never from a snapshot of the program's own output.

Library calls go through module attributes (`op.eigen_polynomial`, not a
name imported here), so the spans `tracing.Tracer.install` puts in place
also see the benchmark's own calls.

- verify-all: `krall6 run all --A 1 --B 2 --nmax 8 --seed S`, exactly as
  users run it; about 85% of its time is in the germ calculus under the
  concomitant, extension and operator-matrix suites.
- spectral-deep: germ-free exact work (kernel solver, Gram matrix,
  Frobenius series) at awkward rationals A=1/100, B=3.  Germ-kernel changes
  predict no change here.
- endpoint-log: the germ layer with log-bearing and piecewise inputs only,
  at A=1/3, B=7/2.  Every bracket has a non-polynomial argument, so a
  global-polynomial fast path is bypassed while a jet or derivative memo
  shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from krall6 import cli
from krall6 import concomitant as con
from krall6 import extension as ext
from krall6 import frobenius as fro
from krall6 import inner_products as ip
from krall6 import operator as op
from krall6.germs import EndpointFn
from krall6.polynomials import Poly
from tracing import SUITE_NAMES

# The two structural inconclusive cases documented for `run all`.
EXPECTED_INCONCLUSIVE = {
    ("gram", "completeness-analytic-claim"),
    ("concomitant", "log-probe-reduction:out-of-class-input"),
}


def _seeded_poly(rng: random.Random, degree: int) -> Poly:
    """Random small-rational coefficients at a fixed degree, so the seed changes
    the values and not the amount of work."""
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    return Poly(coeffs + [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_verdicts(inputs: dict, verdicts) -> tuple[list[str], dict]:
    """Verdicts are (name, lhs, rhs) triples that hold when lhs == rhs."""
    failures = [f"{name}: {lhs} != {rhs}" for name, lhs, rhs in verdicts if lhs != rhs]
    digest = _digest(json.dumps([[name, str(lhs), str(rhs)] for name, lhs, rhs in verdicts]))
    return failures, {"digest": digest, "cases": len(verdicts)}


class VerifyAll:
    """The CLI's full verification run with default flags."""

    @staticmethod
    def prepare(seed: int, serial: bool = False) -> dict:
        argv = ["run", "all", "--A", "1", "--B", "2", "--nmax", "8", "--seed", str(seed)]
        return {"argv": argv + (["--serial"] if serial else [])}

    @staticmethod
    def execute(inputs: dict):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(inputs["argv"])
        return code, out.getvalue()

    @staticmethod
    def check(inputs: dict, outcome) -> tuple[list[str], dict]:
        code, text = outcome
        failures = []
        if code != 0:
            failures.append(f"exit status {code}")
        bundle = json.loads(text)
        summary = bundle["summary"]
        if summary["failed"] != 0:
            failures.append(f"{summary['failed']} failed cases")
        names = tuple(r["suite"] for r in bundle["reports"])
        if names != SUITE_NAMES:
            failures.append(f"suites {names}")
        inconclusive = {
            (r["suite"], c["name"])
            for r in bundle["reports"]
            for c in r["cases"]
            if c["verdict"] == "inconclusive"
        }
        if inconclusive != EXPECTED_INCONCLUSIVE:
            failures.append(f"inconclusive cases {sorted(inconclusive)}")
        info = {
            "digest": _digest(text),
            "cases": summary["passed"] + summary["failed"] + summary["inconclusive"],
        }
        return failures, info


class SpectralDeep:
    """K_0..K_32, their Gram matrix, eigen-expansions and Frobenius series."""

    N = 32
    ORDER = 120

    @staticmethod
    def prepare(seed: int, serial: bool = False) -> dict:
        rng = random.Random(seed)
        return {
            "params": op.KrallParams(Fraction(1, 100), Fraction(3)),
            "polys": [_seeded_poly(rng, 24) for _ in range(6)],
        }

    @classmethod
    def execute(cls, inputs: dict):
        params = inputs["params"]
        verdicts = []
        # The child interpreter is fresh, so the eigenpolynomial cache is cold.
        for n in range(cls.N + 1):
            k_n = op.eigen_polynomial(n, params)
            lhs = op.apply_expression(k_n, params)
            verdicts.append((f"l[K_{n}]", lhs, op.eigenvalue(n, params) * k_n))
        gram = ip.gram_matrix(cls.N, params)
        for i, row in enumerate(gram):
            for j, value in enumerate(row):
                if i != j:
                    verdicts.append((f"gram[{i}][{j}]", value, 0))
        for i, f in enumerate(inputs["polys"]):
            verdicts.append((f"reconstruct-{i}", ip.expansion_reconstruction(f, params), f))
        for endpoint in (1, -1):
            for sol in fro.solution_basis(endpoint, cls.ORDER, params):
                order = fro.residual_order(sol, params)
                # None: the truncated series solves the equation exactly.
                verdicts.append(
                    (f"residual-order {sol.label}@{endpoint:+d} > 100", order is None or order > 100, True)
                )
        verdicts.append(("deficiency-index", fro.deficiency_index(params), 4))
        return verdicts

    check = staticmethod(_check_verdicts)


class EndpointLog:
    """Brackets among log-bearing and piecewise endpoint functions."""

    @staticmethod
    def prepare(seed: int, serial: bool = False) -> dict:
        params = op.KrallParams(Fraction(1, 3), Fraction(7, 2))
        functions = []
        for endpoint in (1, -1):
            functions += [
                con.one_near(endpoint),
                con.weight_near(endpoint),
                con.weight_sq_near(endpoint),
                con.quasi_probe(endpoint, params),
                con.log_probe(endpoint, params),
            ]
        rng = random.Random(seed)
        for endpoint in (1, -1, 1, -1, 1, -1):
            c = Fraction(rng.choice([k for k in range(-9, 10) if k != 0]), rng.randint(1, 4))
            q = _seeded_poly(rng, 8)
            functions.append(c * con.log_probe(endpoint, params) + EndpointFn.poly_near(endpoint, q))
        return {
            "params": params,
            "functions": functions,
            "reduction_polys": [_seeded_poly(rng, 8) for _ in range(8)],
            "probes": {e: con.log_probe(e, params) for e in (1, -1)},
            "candidates": [ext.GknCandidate.plain(y) for y in con.boundary_condition_functions(params)],
            "certificate_probes": [ext.GknCandidate.plain(p) for p in con.probe_functions(params)],
        }

    @staticmethod
    def execute(inputs: dict):
        params, functions, probes = inputs["params"], inputs["functions"], inputs["probes"]
        verdicts = []
        for i, f in enumerate(functions):
            for j in range(i, len(functions)):
                g = functions[j]
                for e in (1, -1):
                    verdicts.append(
                        (f"[f{i},f{j}]({e:+d})", con.concomitant(f, g, e, params),
                         -con.concomitant(g, f, e, params))
                    )
        for i, q in enumerate(inputs["reduction_polys"]):
            for e in (1, -1):
                verdicts.append(
                    (f"log-probe-reduction q{i}({e:+d})", con.concomitant(q, probes[e], e, params),
                     con.log_probe_reduction(q, e, params))
                )
        for e in (1, -1):
            verdicts.append((f"Lam[log_probe]({e:+d})", con.quasi_derivative_at(probes[e], e, params), 32))
        cert = ext.independence_certificate(inputs["candidates"], inputs["certificate_probes"], params)
        verdicts.append(("independence-certificate", cert.conclusive, True))
        return verdicts

    check = staticmethod(_check_verdicts)


WORKLOADS = {
    "verify-all": VerifyAll,
    "spectral-deep": SpectralDeep,
    "endpoint-log": EndpointLog,
}
