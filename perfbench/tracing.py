"""Per-layer spans for the krall6 benchmark, recorded from outside the library.

Each span wraps one public function (or method) of a `krall6` module.  The
wrapper replaces the function in its defining module, in every `krall6`
module that imported it by name, and in module-level dicts such as
`suites.SUITE_BUILDERS`, so no call site keeps the untraced original.
Methods are replaced on their class.

Spans are aggregated in memory per name and per thread (call count,
inclusive time, time covered by nested spans) and merged when the run ends;
a run makes millions of calls, so individual span records are not kept.
Self time is inclusive time minus the time of directly nested spans.

Which end-to-end metric each layer should move, and on which workload:

- `suites.*`, `report.*`: `norm_cpu_s` on verify-all (thread pool,
  per-suite cost).  `suites.overlap_ratio` > 1 means pooled suites waited
  on each other.
- `concomitant.*`: `norm_cpu_s` on verify-all (global-polynomial fast path) and
  endpoint-log (jet restructure).
- `extension.*`: `norm_cpu_s` on verify-all (membership and Omega computed once
  per vector).
- `germs.*`: `norm_cpu_s` on endpoint-log and verify-all; `peak_rss_mb` if
  derivatives are memoised.
- `polynomials.*`: `norm_cpu_s` on verify-all and endpoint-log; zero
  calls on spectral-deep.
- `operator.*`, `linalg.*`, `inner_products.*`, `frobenius.*`: `norm_cpu_s` on
  spectral-deep.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter

VERIFY_ALL = "verify-all"
SPECTRAL = "spectral-deep"
ENDPOINT = "endpoint-log"

TIMED = "timed"
COUNTED = "counted"

# (span name, module, attribute path, kind, workloads meant to exercise it)
SPANS = (
    ("suites.run_suites", "krall6.suites", "run_suites", TIMED, (VERIFY_ALL,)),
    ("report.bundle_to_json", "krall6.report", "bundle_to_json", TIMED, (VERIFY_ALL,)),
    ("concomitant.concomitant", "krall6.concomitant", "concomitant", TIMED, (VERIFY_ALL, ENDPOINT)),
    ("concomitant.quasi_derivative_at", "krall6.concomitant", "quasi_derivative_at", TIMED,
     (VERIFY_ALL, ENDPOINT)),
    ("concomitant.log_probe_reduction", "krall6.concomitant", "log_probe_reduction", TIMED,
     (VERIFY_ALL, ENDPOINT)),
    ("concomitant.general_endpoint_reduction", "krall6.concomitant", "general_endpoint_reduction",
     TIMED, (VERIFY_ALL,)),
    ("concomitant.greens_formula_check", "krall6.concomitant", "greens_formula_check", TIMED,
     (VERIFY_ALL,)),
    ("extension.domain_membership", "krall6.extension", "domain_membership", TIMED, (VERIFY_ALL,)),
    ("extension.apply_extended", "krall6.extension", "apply_extended", TIMED, (VERIFY_ALL,)),
    ("extension.omega", "krall6.extension", "omega", COUNTED, (VERIFY_ALL, ENDPOINT)),
    ("extension.operator_matrix", "krall6.extension", "operator_matrix", TIMED, (VERIFY_ALL,)),
    ("extension.independence_certificate", "krall6.extension", "independence_certificate", TIMED,
     (VERIFY_ALL, ENDPOINT)),
    ("germs.LogGerm.derivative", "krall6.germs", "LogGerm.derivative", TIMED, (VERIFY_ALL, ENDPOINT)),
    ("germs.LogGerm.limit", "krall6.germs", "LogGerm.limit", TIMED, (VERIFY_ALL, ENDPOINT)),
    ("polynomials.RationalFn.init", "krall6.polynomials", "RationalFn.__init__", TIMED,
     (VERIFY_ALL, ENDPOINT)),
    ("polynomials.poly_gcd", "krall6.polynomials", "poly_gcd", TIMED, (VERIFY_ALL, ENDPOINT)),
    ("polynomials.Poly.mul", "krall6.polynomials", "Poly.__mul__", COUNTED,
     (VERIFY_ALL, SPECTRAL, ENDPOINT)),
    ("polynomials.Poly.divmod", "krall6.polynomials", "Poly.divmod", TIMED, (VERIFY_ALL, ENDPOINT)),
    ("operator.eigen_polynomial", "krall6.operator", "eigen_polynomial", TIMED, (VERIFY_ALL, SPECTRAL)),
    ("operator.apply_expression", "krall6.operator", "apply_expression", TIMED, (VERIFY_ALL, SPECTRAL)),
    ("linalg.kernel_vector", "krall6.linalg", "kernel_vector", TIMED, (VERIFY_ALL, SPECTRAL)),
    ("inner_products.kappa_inner", "krall6.inner_products", "kappa_inner", TIMED,
     (VERIFY_ALL, SPECTRAL)),
    ("inner_products.gram_matrix", "krall6.inner_products", "gram_matrix", TIMED,
     (VERIFY_ALL, SPECTRAL)),
    ("frobenius.solution_basis", "krall6.frobenius", "solution_basis", TIMED, (VERIFY_ALL, SPECTRAL)),
    ("frobenius.residual_order", "krall6.frobenius", "residual_order", TIMED, (VERIFY_ALL, SPECTRAL)),
)

# The ten suites of `run all`, in report order (README).  Suite spans are
# named `suites.<suite>` and wrap the `SUITE_BUILDERS` entries.
SUITE_NAMES = (
    "eigen", "polys", "gram", "green", "concomitant",
    "delta", "frobenius", "gkn", "operator-matrix", "errata",
)


class Tracer:
    """In-memory span aggregates, one table per thread, merged by `metrics`."""

    def __init__(self):
        self._local = threading.local()
        self._tables = []
        self._derivative_keys = set()
        self._eigen_cache = None
        self.missing = []
        self.replaced = []  # originals of module-level targets, now unreachable from krall6

    def _state(self):
        local = self._local
        try:
            return local.table, local.stack
        except AttributeError:
            local.table, local.stack = {}, []
            self._tables.append(local.table)
            return local.table, local.stack

    def _record(self, table, key, calls=1, incl=0.0, nested=0.0):
        rec = table.get(key)
        if rec is None:
            rec = table[key] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += incl
        rec[2] += nested

    def timed(self, name, fn, after=None):
        """Wrap `fn` in a span; `after(args, kwargs, result)` observes a success."""
        state, record = self._state, self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table, stack = state()
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record(table, name + ".raised:" + type(exc).__name__)
                raise
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record(table, name, 1, elapsed, nested)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        state, record = self._state, self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record(state()[0], name)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, fn, kind):
        if kind == COUNTED:
            return self.counted(name, fn)
        if name == "germs.LogGerm.derivative":
            keys = self._derivative_keys

            def after(args, kwargs, result):
                order = args[1] if len(args) > 1 else kwargs.get("order", 1)
                keys.add((hash(args[0]), order))

            return self.timed(name, fn, after)
        if name == "polynomials.RationalFn.init":
            state, record = self._state, self._record

            def after(args, kwargs, result):
                if args[0].den.degree == 0:
                    record(state()[0], name + ".const_den")

            return self.timed(name, fn, after)
        if name == "operator.eigen_polynomial" and hasattr(fn, "cache_info"):
            return self._wrap_cached(name, fn)
        return self.timed(name, fn)

    def _wrap_cached(self, name, fn):
        """Span on an lru_cache'd function; time of calls that missed is kept apart."""
        self._eigen_cache = (fn, fn.cache_info().misses)
        state, record = self._state, self._record
        inner = self.timed(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = fn.cache_info().misses
            start = perf_counter()
            result = inner(*args, **kwargs)
            if fn.cache_info().misses > before:
                record(state()[0], name + ".miss", 1, perf_counter() - start)
            return result

        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self):
        """Wrap every span target; targets missing from the library are listed."""
        from krall6 import suites

        for name, module_name, path, kind, _ in SPANS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, kind)
            if owner_path:
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)
                self.replaced.append(original)
        for suite in SUITE_NAMES:
            original = getattr(suites, "SUITE_BUILDERS", {}).get(suite)
            if original is None:
                self.missing.append("suites." + suite)
                continue
            _rebind(original, self.timed("suites." + suite, original))
            self.replaced.append(original)

    def metrics(self) -> dict:
        """Every per-span aggregate plus the derived ratios, keyed by metric name."""
        merged = {}
        for table in list(self._tables):
            for key, (calls, incl, nested) in list(table.items()):
                self._record(merged, key, calls, incl, nested)

        def get(key):
            return merged.get(key, (0, 0.0, 0.0))

        out = {}
        names = [s[0] for s in SPANS] + ["suites." + s for s in SUITE_NAMES]
        for name in names:
            calls, incl, nested = get(name)
            out[name + ".calls"] = calls
            out[name + ".s"] = incl
            out[name + ".self_s"] = incl - nested

        run_s = out["suites.run_suites.s"]
        suite_s = sum(out["suites." + s + ".s"] for s in SUITE_NAMES)
        out["suites.overlap_ratio"] = suite_s / run_s if run_s else 0.0

        calls = out["germs.LogGerm.derivative.calls"]
        out["germs.LogGerm.derivative.distinct_ratio"] = (
            len(self._derivative_keys) / calls if calls else 0.0
        )
        out["germs.divergent_limits"] = get("germs.LogGerm.limit.raised:DivergentLimitError")[0]

        calls = out["polynomials.RationalFn.init.calls"]
        const_den = get("polynomials.RationalFn.init.const_den")[0]
        out["polynomials.RationalFn.const_den_ratio"] = const_den / calls if calls else 0.0

        name = "operator.eigen_polynomial"
        misses = 0
        if self._eigen_cache is not None:
            fn, misses_at_install = self._eigen_cache
            misses = fn.cache_info().misses - misses_at_install
        calls = out[name + ".calls"]
        out[name + ".misses"] = misses
        out[name + ".hit_ratio"] = (calls - misses) / calls if calls else 0.0
        out[name + ".miss_s"] = get(name + ".miss")[1]
        return out


def krall6_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "krall6" or name.startswith("krall6."))
    ]


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` wherever a krall6 module holds it."""
    for module in krall6_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
            elif type(value) is dict:
                for dict_key, item in list(value.items()):
                    if item is original:
                        value[dict_key] = wrapper
