"""The benchmark's tracer wraps package functions by (module, attribute),
and its runner imports names from the package top level; a rename or a
dropped import there should fail here, not in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [(module, attr) for module, attr, _, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []


def test_package_exports_resolve():
    import jacobsthal
    assert [name for name in jacobsthal.__all__
            if not hasattr(jacobsthal, name)] == []


def test_benchmark_top_level_names_stay_exported():
    import jacobsthal
    used = ("default_h_table", "find_prime", "make_eligible", "first_primes",
            "JacobsthalError")
    assert [name for name in used if name not in jacobsthal.__all__] == []
