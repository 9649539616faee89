"""The benchmark's tracer wraps package functions by (module, attribute),
and its runner imports names from the package top level; a rename or a
dropped import there should fail here, not in a benchmark run."""

import importlib

from conftest import tracing_targets


def test_tracing_targets_resolve():
    targets = tracing_targets()
    assert targets
    missing = [(module, attr) for module, attr, _, _ in targets
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
