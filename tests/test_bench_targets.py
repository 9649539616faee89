"""The benchmark's tracer wraps package functions by (module, attribute);
a rename or a dropped import there should fail here, not in a traced run."""

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
