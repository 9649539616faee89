"""Checks on the package source itself."""

import ast
import re
import sys
from pathlib import Path

import jacobsthal
from conftest import tracing_targets

SOURCES = sorted(Path(jacobsthal.__file__).parent.glob("*.py"))


def _nodes():
    """``(file name, node)`` for every syntax node of the package."""
    assert SOURCES
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield from ((path.name, node) for node in ast.walk(tree))


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so a self-check written as one would
    # silently stop running; the engine raises typed errors instead
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the engine is stdlib-only: every import is relative or a stdlib module
    found = []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{name}:{node.lineno} {module}" for module in modules
                  if module.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def _references(node, name):
    """Loads of ``name`` under ``node``, skipping the body of a function or
    class that defines it (recursion is no use from outside)."""
    if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name == name):
        return 0
    found = int(isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name)
    return found + sum(_references(child, name)
                       for child in ast.iter_child_nodes(node))


def test_every_export_has_a_user_or_a_readme_entry():
    # an export that only tests use is surface without a product reason:
    # each public name is used by the package beyond its own definition or
    # documented in the README
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES
             if path.name != "__init__.py"]
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    unused = [name for name in jacobsthal.__all__
              if not name.startswith("__")
              and not any(_references(tree, name) for tree in trees)
              and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def _top_level_users(*names):
    """``module.name`` of each top-level function, class or statement of
    the package that references one of ``names``."""
    users = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if any(_references(node, name) for name in names):
                name = getattr(node, "name", node.lineno)
                users.add(f"{path.stem}.{name}")
    return users


def test_only_h_of_and_g_of_run_the_walk():
    # one way to turn an engine run into a value: the CLI resolves h(k)
    # through cover.h_of and g(n) through gaps.g_of, never the walk itself
    assert _top_level_users("max_cover_length") == {"cover.h_of", "gaps.g_of"}


def test_only_witness_integer_solves_congruences():
    # one path from a cover to integers: every cover the package turns
    # into a run, the elementary construction's included, goes through
    # cover.witness_integer, the one caller of the CRT and its self-check
    assert _top_level_users("crt_solve") == {"cover.witness_integer"}


def test_the_elementary_construction_has_one_home():
    # the elementary bound h(k) >= 2 p_{k-1} is proved once, by
    # cover._elementary_cover: witness-lower turns that cover into a run and
    # the h(k) walk starts from it, so no search proves it again.  The walk
    # searches only inside its loop, where the cover it holds stops reaching
    assert _top_level_users("_elementary_cover") == {
        "cover.elementary_lower_witness", "cover.max_cover_length"}
    walk = next(node for node in _tree("cover").body
                if isinstance(node, ast.FunctionDef)
                and node.name == "max_cover_length")
    loops = [node for node in walk.body if isinstance(node, ast.While)]
    assert len(loops) == 1
    searches = [node for node in ast.walk(walk) if isinstance(node, ast.Call)
                and _references(node.func, "coverable")]
    assert len(searches) == 1
    assert searches[0] in list(ast.walk(loops[0]))


def test_only_arith_owns_the_run_scan():
    # one scan of one period serves g(n) and h's least witness: only
    # arith.first_longest_run reads the windows and their size limit, and
    # no module imports them
    names = ("RUN_SIEVE_LIMIT", "shared_factor_windows")
    assert _top_level_users(*names) == {"arith.first_longest_run"}
    imported = [f"{name}:{node.lineno}" for name, node in _nodes()
                if isinstance(node, ast.alias) and node.name in names]
    assert imported == []


def test_the_cover_search_keeps_one_copy_of_its_state():
    # the count table has one writer (_shift) and one reader
    # (_capacity_prune) after __init__ builds it; nodes and limits live on
    # the walk's allowance alone, and no residue table or per-offset mask
    # table is kept.  The search is one recursion: a wheel node and a
    # positions node are the same method and differ only in how they
    # branch, so every node reaches the one capacity rule (_capacity_prune)
    # and the one shortcut (_finish) through the same call.
    path = Path(jacobsthal.__file__).parent / "cover.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    search = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_Search")
    methods = {node.name: node for node in search.body
               if isinstance(node, ast.FunctionDef)}
    users = {name for name, method in methods.items()
             if _references(method, "counts")}
    assert users == {"__init__", "_shift", "_capacity_prune"}
    copies = [f"{node.attr}:{node.lineno}" for node in ast.walk(search)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and node.attr in ("nodes", "max_nodes", "deadline", "residues",
                                "masks")]
    assert copies == []

    def calls(node, name):
        return [call for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == name]

    recursive = [name for name, method in methods.items()
                 if calls(method, name)]
    assert recursive == ["_node"]
    node = methods["_node"]
    assert [arg.arg for arg in node.args.args] == [
        "self", "uncov", "rem", "caps", "wheel"]
    for name in ("_capacity_prune", "_finish"):
        assert len(calls(search, name)) == len(calls(node, name)) == 1, name
    assert [name for name in ("_wheel_rec", "_dfs_pos", "search_wheel")
            if name in methods] == []


def test_verify_walks_the_first_k_primes_in_one_helper():
    # one walk forms each block product, once: no other certify function
    # multiplies primes out or reads the kept primorials, and the per-clause
    # helpers and their shared product cache are gone
    users = {user for user in _top_level_users("prod", "primorial")
             if user.startswith("certify.")}
    assert users == {"certify._prime_clauses"}
    from jacobsthal import certify
    retired = ("_block_product", "_first_missing_factor", "_shares_a_prime")
    assert [name for name in retired if hasattr(certify, name)] == []


def test_only_progressions_computes_the_coprime_factor():
    # c = f * (a * f^-1 mod d) has one home, progressions._coprime_factor:
    # certify inverts nothing modulo d (only the general crt_solve does,
    # elsewhere), and find_prime builds no map and slices or validates no
    # primes, reading c's factor off the table's record instead
    inverters = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "pow"
                        and len(node.args) == 3
                        and ast.unparse(node.args[1]) == "-1"):
                    inverters.add(f"{path.stem}.{top.name}")
    assert inverters == {"arith.crt_solve", "progressions._coprime_factor"}
    path = Path(jacobsthal.__file__).parent / "certify.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    find = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "find_prime")
    assert [name for name in ("coprime_iso", "validated_primes",
                              "first_primes")
            if _references(find, name)] == []


def test_only_the_cli_resolves_the_h_table():
    # one way to resolve the table: library calls take the table they are
    # given, and only cli._table picks the packaged file or a --table path;
    # default_h_table is the packaged table's own definition, read through
    # the one file reader
    assert _top_level_users("default_h_table", "load_h_table") == {
        "cli._table", "cover.default_h_table"}


def test_compute_policies_are_built_once():
    # no compute policy record or module default is left: the cap and the
    # budget are keywords of h_of, and only the h command sets the cap,
    # from its flags
    retired = {"ComputePolicy", "DEFAULT_POLICY", "_NO_COMPUTE", "_policy",
               "policy"}
    # the fields that hold a name read, bound, passed or imported
    fields = ("id", "attr", "arg", "name", "asname")
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if any(getattr(node, field, None) in retired
                    for field in fields)]
    assert found == []
    setters = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and "h_of" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))
                        and any(kw.arg == "max_compute_k"
                                for kw in node.keywords)):
                    setters.add(f"{path.stem}.{top.name}")
    assert setters == {"cli.cmd_h"}


def _tree(module):
    path = Path(jacobsthal.__file__).parent / f"{module}.py"
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_public_certify_function_takes_a_policy():
    # certify and its bounds compute a missing h(k) with h_of's default cap
    # and no budget: their callers pick a table, not a compute cap or a
    # budget
    found = [node.name for module in ("bounds", "certify")
             for node in _tree(module).body
             if isinstance(node, ast.FunctionDef)
             and not node.name.startswith("_")
             and any(arg.arg in ("policy", "max_compute_k", "budget")
                     for arg in ast.walk(node.args)
                     if isinstance(arg, ast.arg))]
    assert found == []


def test_bounds_loads_no_certificate_code():
    # the bound layer sits below certify: it imports the standard library,
    # arith, cover and errors, and nothing from certify or progressions
    imported = set()
    for node in ast.walk(_tree("bounds")):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= ({node.module} if node.module else
                         {alias.name for alias in node.names})
    assert imported == {"arith", "cover", "errors"}


def test_every_certify_question_reads_one_bound_walk():
    # bounds._bounds(table, mode) is the one walk over k: the least row and
    # the largest reach read it, the row carries p_{k+1} to find_prime, and
    # no cap picks a second walk.  bound is the one place a row is built:
    # the walk yields what it returns, and only it and verify read p_{k+1}
    trees = {module: _tree(module) for module in ("bounds", "certify")}
    functions = {module: {node.name: node for node in tree.body
                          if isinstance(node, ast.FunctionDef)}
                 for module, tree in trees.items()}
    walk_fn = functions["bounds"]["_bounds"]
    walk = walk_fn.args
    assert [arg.arg for arg in walk.posonlyargs + walk.args
            + walk.kwonlyargs] == ["table", "mode"]
    assert walk.vararg is walk.kwarg is None
    assert _top_level_users("_bounds") == {"bounds._least_row",
                                           "bounds.max_provable_d"}
    assert not _references(functions["certify"]["find_prime"], "nth_prime")
    assert {f"{module}.{getattr(node, 'name', node.lineno)}"
            for module, tree in trees.items() for node in tree.body
            if _references(node, "nth_prime")} == {
        "bounds.bound", "certify.verify_certificate"}
    assert {f"{module}.{name}" for module, named in functions.items()
            for name, function in named.items()
            if any(_references(statement, "BoundRow")
                   for statement in function.body)} == {"bounds.bound"}
    assert [ast.unparse(node.value) for node in ast.walk(walk_fn)
            if isinstance(node, (ast.Yield, ast.YieldFrom))] == [
        "bound(k, table, mode=mode)"]
    assert [name for name in ("_h_at", "nth_prime", "BoundRow")
            if _references(walk_fn, name)] == []
    capped = [f"{module}:{node.lineno}" for module, tree in trees.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.arg, ast.keyword))
              and node.arg == "max_compute_k"]
    assert capped == []


def test_only_records_that_need_it_are_dataclasses():
    # a record is a NamedTuple unless it validates on construction
    # (EligibleAP, ApIso) or the benchmark's forge copies it with
    # dataclasses.replace (PrimeCertificate, until ROADMAP item 6)
    import dataclasses
    found = {name for name in jacobsthal.__all__
             if dataclasses.is_dataclass(getattr(jacobsthal, name))}
    assert found == {"PrimeCertificate", "EligibleAP", "ApIso"}


def _unread_imports(path):
    """``(line, name, kept)`` for each name an import binds in ``path``
    that the module never reads; ``kept`` when the import is marked
    ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        kept = any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                yield node.lineno, name, kept


def test_no_module_imports_a_name_it_never_reads():
    # an import nothing reads is dead weight and a false lead about what a
    # module depends on; the few kept on purpose, such as the names the
    # benchmark's tracer wraps, say so with "# noqa: F401"
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert tests
    found = [f"{path.name}:{line} {name}" for path in SOURCES + tests
             for line, name, kept in _unread_imports(path) if not kept]
    assert found == []


def test_a_kept_import_only_binds_a_name_the_tracer_wraps():
    # "# noqa: F401" keeps an unread import only for the benchmark's
    # tracer, which wraps a module's attribute by name: each kept name is
    # one that perfbench/tracing.py's TARGETS wraps in that module, so a
    # noqa cannot hide a dead import, and the set below is what remains to
    # delete once the tracer wraps the functions where they live
    wrapped = {(module.rpartition(".")[2], attr)
               for module, attr, _, _ in tracing_targets()}
    kept = {(path.stem, name) for path in SOURCES
            for _, name, marked in _unread_imports(path) if marked}
    assert kept - wrapped == set()
    assert kept == {
        ("certify", "bound"), ("certify", "min_k_for"),
        ("certify", "default_h_table"), ("certify", "h_of"),
        ("certify", "coprime_iso"), ("cover", "is_prime"),
        ("progressions", "crt_solve"), ("progressions", "is_prime")}
