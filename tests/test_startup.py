"""What a fresh process loads: each CLI command imports only the modules it
runs, and the package's top-level names load their module on first use."""

from importlib import import_module

import pytest

import jacobsthal
from conftest import run_python

SUBMODULES = ("arith", "bounds", "certify", "cli", "cover", "errors", "gaps",
              "progressions")
# what h, g and h-search never need
CERTIFY_ONLY = {"dataclasses", "fractions", "jacobsthal.bounds",
                "jacobsthal.certify", "jacobsthal.progressions"}
# what importlib.resources pulls in: the packaged table is a plain file
RESOURCES_CHAIN = {"importlib.resources", "pathlib", "zipfile", "tempfile"}


def _traced(*args, cwd=None) -> tuple[set[str], str]:
    """The modules a fresh ``python -X importtime ARGS`` process imports,
    read from the report it writes to stderr, and its stdout."""
    proc = run_python("-X", "importtime", *args, cwd=cwd, timeout=60)
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


@pytest.mark.parametrize("argv", [
    ("find-prime", "1", "76"), ("max-d",), ("max-d", "--mode", "cw"),
    ("bound-table",), ("bound-table", "--mode", "cw"),
    ("primes", "1", "3", "--count", "2"),
], ids=["find-prime", "max-d", "max-d-cw", "bound-table", "bound-table-cw",
        "primes"])
def test_certify_commands_load_no_gaps_or_fractions(tmp_path, argv):
    # a bound row holds integers only, and bound-table prints its 3-decimal
    # text from them: no command loads fractions or decimal
    found, out = _traced("-m", "jacobsthal", *argv)
    assert ("jacobsthal.bounds" if argv[0] in ("max-d", "bound-table")
            else "jacobsthal.certify") in found
    assert found & {"jacobsthal.gaps", "fractions", "decimal"} == set()
    if argv[0] != "find-prime":
        return
    (tmp_path / "cert.json").write_text(out)
    checked = _command("verify", "cert.json", cwd=tmp_path)
    assert "jacobsthal.certify" in checked
    assert checked & {"jacobsthal.gaps", "fractions", "decimal"} == set()


@pytest.mark.parametrize("args", [
    ("-m", "jacobsthal", "max-d"),
    ("-m", "jacobsthal", "max-d", "--mode", "cw"),
    ("-m", "jacobsthal", "bound-table"),
    ("-c", "from jacobsthal import max_provable_d, default_h_table; "
           "max_provable_d(default_h_table())"),
], ids=["max-d", "max-d-cw", "bound-table", "library"])
def test_bound_questions_load_no_certificate_code(args):
    # the bound walk lives in bounds, below certify: asking how far the
    # bounds reach loads no certificate record, no dataclass machinery and
    # no progressions
    found = _traced(*args)[0]
    assert "jacobsthal.bounds" in found
    assert found & {"jacobsthal.certify", "jacobsthal.progressions",
                    "dataclasses"} == set()


@pytest.mark.parametrize("argv", [
    ("h", "5", "--compute", "--json"), ("g", "30030"),
    ("h-search", "20", "--primes", "5"), ("witness-lower", "5"),
    ("iso", "1", "3", "--k", "2"), ("find-prime", "1", "76"),
    ("primes", "1", "3", "--count", "2"), ("bound-table",), ("max-d",),
], ids=lambda argv: argv[0])
def test_clean_interpreter_commands_load_no_resources_chain(tmp_path, argv):
    # python -S runs no site hook that could preload these modules, so the
    # report shows what the command itself imports
    found, out = _traced("-S", "-m", "jacobsthal", *argv)
    assert "jacobsthal.cover" in found
    assert found & RESOURCES_CHAIN == set()
    if argv[0] != "find-prime":
        return
    (tmp_path / "cert.json").write_text(out)
    checked = _traced("-S", "-m", "jacobsthal", "verify", "cert.json",
                      cwd=tmp_path)[0]
    assert "jacobsthal.certify" in checked
    assert checked & RESOURCES_CHAIN == set()


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
