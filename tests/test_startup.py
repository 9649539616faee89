"""What a fresh process loads: each CLI command imports only the modules it
runs, and the package's top-level names load their module on first use."""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import jacobsthal

SRC = os.path.dirname(os.path.dirname(jacobsthal.__file__))
SUBMODULES = ("arith", "certify", "cli", "cover", "errors", "gaps",
              "progressions")
# what h, g and h-search never need
CERTIFY_ONLY = {"dataclasses", "fractions", "jacobsthal.certify",
                "jacobsthal.progressions"}


def _traced(*args, cwd=None) -> tuple[set[str], str]:
    """The modules a fresh ``python -X importtime ARGS`` process imports,
    read from the report it writes to stderr, and its stdout."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=dict(os.environ, PYTHONPATH=SRC), cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = {line.rsplit("|", 1)[1].strip()
               for line in proc.stderr.splitlines()
               if line.startswith("import time:") and "[us]" not in line}
    return modules, proc.stdout


def _command(*argv, cwd=None) -> set[str]:
    return _traced("-m", "jacobsthal", *argv, cwd=cwd)[0]


@pytest.mark.parametrize("argv", [("h", "12", "--compute", "--json"),
                                  ("g", "30030", "--json"),
                                  ("h-search", "20", "--primes", "5")])
def test_h_g_and_h_search_load_no_certify_code(argv):
    modules = _command(*argv)
    assert "jacobsthal.cover" in modules  # the report was read
    assert modules & CERTIFY_ONLY == set()
    if argv[0] == "h":
        assert "jacobsthal.gaps" not in modules


def test_certify_commands_load_no_gaps_or_fractions(tmp_path):
    found, cert = _traced("-m", "jacobsthal", "find-prime", "1", "76")
    assert "jacobsthal.certify" in found
    assert found & {"jacobsthal.gaps", "fractions"} == set()
    (tmp_path / "cert.json").write_text(cert)
    checked = _command("verify", "cert.json", cwd=tmp_path)
    assert "jacobsthal.certify" in checked
    assert checked & {"jacobsthal.gaps", "fractions"} == set()


def test_bare_package_import_loads_no_submodule():
    modules = _traced("-c", "import jacobsthal")[0]
    assert "jacobsthal" in modules
    assert {m for m in modules if m.startswith("jacobsthal.")} == set()


EXPORTS = [name for name in jacobsthal.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_resolves_to_its_home_object_and_stays_bound(name,
                                                            monkeypatch):
    monkeypatch.delitem(vars(jacobsthal), name, raising=False)
    value = getattr(jacobsthal, name)
    assert vars(jacobsthal)[name] is value
    homes = [vars(import_module(f"jacobsthal.{module}"))
             for module in SUBMODULES]
    bound = [home[name] for home in homes if name in home]
    assert bound and all(other is value for other in bound)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from jacobsthal import *", namespace)
    assert [name for name in jacobsthal.__all__
            if namespace.get(name, namespace) is not getattr(jacobsthal,
                                                             name)] == []


def test_unknown_names_raise_attribute_error():
    from jacobsthal import cli
    for module in (jacobsthal, cli):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018
