import importlib.util
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

import jacobsthal

# the checkout's src, whichever way the test process found the package
SRC = os.path.dirname(os.path.dirname(jacobsthal.__file__))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def run_python(*args, **kwargs):
    """``python ARGS`` in a fresh process that imports the package under
    test: SRC goes ahead of any PYTHONPATH already set, so a child starts
    the same with or without one.  Output is captured as text."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kwargs)


def tracing_targets():
    """``TARGETS`` of the benchmark's tracer, ``perfbench/tracing.py``,
    loaded from its file without installing the tracer."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.fixture(scope="session")
def shipped_table():
    from jacobsthal import default_h_table
    return default_h_table()


class AcceptanceGate:
    """Collects one PASS/FAIL line per acceptance criterion.

    The lines are printed as the tests run (visible under ``pytest -s``)
    and replayed in the terminal summary so they also appear in captured
    runs.
    """

    def __init__(self):
        self.lines = []

    @contextmanager
    def criterion(self, number, seconds):
        started = time.perf_counter()
        try:
            yield
            elapsed = time.perf_counter() - started
            assert elapsed < seconds, (
                f"criterion {number:02d} took {elapsed:.2f}s "
                f"(limit {seconds}s)")
        except BaseException:
            self._emit(f"ACCEPTANCE {number:02d} FAIL")
            raise
        self._emit(f"ACCEPTANCE {number:02d} PASS")

    def _emit(self, line):
        self.lines.append(line)
        print(line)


_GATE = AcceptanceGate()


@pytest.fixture
def acceptance():
    return _GATE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _GATE.lines:
        terminalreporter.section("acceptance criteria")
        for line in _GATE.lines:
            terminalreporter.write_line(line)
