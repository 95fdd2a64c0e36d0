"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hsagg"


def _nodes():
    """(file name, node) for every AST node of the library."""
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources found in {SRC}"
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_library_has_no_assert_statements():
    """`python -O` strips assert, so every check in the library must be an explicit raise."""
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/hsagg: {found}"


def _float_log(module: str | None, name: str) -> bool:
    if module == "math":
        return name.startswith("log") or name == "e"
    return module in ("np", "numpy") and name.startswith("log")


def test_library_has_no_float_logs():
    """Exact decisions stay on integers: no math.log*, math.e or np.log* anywhere in the library."""
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and _float_log(node.value.id, node.attr)
        or isinstance(node, ast.ImportFrom)
        and any(_float_log(node.module, alias.name) for alias in node.names)
    ]
    assert not found, f"float logs in src/hsagg: {found}"


def _numpy_random(node) -> bool:
    """np.random / numpy.random as an attribute, or an import of numpy.random or of names from it."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy") and node.attr == "random"
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.random") or (
            node.module == "numpy" and any(alias.name == "random" for alias in node.names)
        )
    return False


def test_library_draws_without_numpy_generators():
    """Draws come from linalg.random_mats alone: no np.random / numpy.random anywhere in the library."""
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if _numpy_random(node)]
    assert not found, f"numpy.random in src/hsagg: {found}"


def _stderr_prints(tree) -> set[int]:
    """Line numbers of the print(..., file=sys.stderr) calls under an AST node."""
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords)
    }


def test_cli_prints_to_stderr_only_in_main():
    """Subcommands raise; cli.main alone maps an exception to its exit code and stderr line."""
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    in_main = _stderr_prints(main)
    assert in_main, "cli.main prints no error line"
    outside = sorted(_stderr_prints(tree) - in_main)
    assert not outside, f"print(..., file=sys.stderr) outside cli.main, at cli.py lines {outside}"


def _indented_json_dump(node) -> bool:
    """A json.dump / json.dumps call (or a bare dump / dumps) with an indent= keyword."""
    if not isinstance(node, ast.Call) or not any(kw.arg == "indent" for kw in node.keywords):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else func.id if isinstance(func, ast.Name) else None
    return name in ("dump", "dumps")


def test_library_writes_json_without_the_indenting_encoder():
    """json.dump(s) with indent= always runs CPython's pure-Python encoder; files go through cli's writer."""
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if _indented_json_dump(node)]
    assert not found, f"json.dump(s) with indent= in src/hsagg: {found}"


def _combinations_uses(path: Path) -> list[str]:
    """Where a module names itertools.combinations, outside scheme._members and the import it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    if path.name == "scheme.py":
        members = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_members"]
        allowed = {id(node) for f in members for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named = any(alias.name.rpartition(".")[2] == "combinations" for alias in node.names)
            named = named and path.name != "scheme.py"
        else:
            named = getattr(node, "id", getattr(node, "attr", None)) == "combinations" and id(node) not in allowed
        if named:
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_groups_are_enumerated_only_by_scheme_members():
    """A scheme is its encoding matrix, and scheme._members is the library's one group
    enumeration: itertools.combinations is called nowhere else in it."""
    found = [use for path in sorted(SRC.glob("*.py")) for use in _combinations_uses(path)]
    assert not found, f"itertools.combinations outside scheme._members: {found}"


# Public functions that nothing in the library calls, each with the reason it stays.
_ENTRY_POINTS = {
    "audit.entropy_oracle_relay": "the benchmark's oracle_guard calls it (perfbench/run.py)",
    "audit.entropy_oracle_server": "the benchmark's oracle_guard calls it (perfbench/run.py)",
}


def _loaded_name(node) -> str | None:
    """The name a node reads: a loaded variable, or an attribute of anything."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_every_public_function_is_used_in_the_library():
    """No API that nothing needs: every public module-level function is called, or handed on to be
    called (as the parser hands on the cmd_* handlers), somewhere in src/hsagg outside its own body,
    unless _ENTRY_POINTS names it; a helper only the tests need belongs in tests/reference.py."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    public = {
        f"{module}.{f.name}": f
        for module, tree in trees.items()
        for f in tree.body
        if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
    }
    body_of = {id(node): f.name for f in public.values() for node in ast.walk(f)}
    used = {
        name
        for tree in trees.values()
        for node in ast.walk(tree)
        if (name := _loaded_name(node)) is not None and body_of.get(id(node)) != name
    }
    unused = {qualified for qualified, f in public.items() if f.name not in used}
    assert not unused - set(_ENTRY_POINTS), f"public functions nothing in src/hsagg uses: {sorted(unused - set(_ENTRY_POINTS))}"
    assert not set(_ENTRY_POINTS) - unused, f"entry points the library now uses: {sorted(set(_ENTRY_POINTS) - unused)}"


def _numpy_roll(node) -> bool:
    """np.roll / numpy.roll as an attribute, or roll imported from numpy."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy") and node.attr == "roll"
    return isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(a.name == "roll" for a in node.names)


def test_library_translates_tallies_without_np_roll():
    """np.roll over k axes copies 2^k strided pieces; the oracle translates a slice by
    two gathers (audit._roll), and np.roll stays a reference in the tests alone."""
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if _numpy_roll(node)]
    assert not found, f"np.roll in src/hsagg: {found}"


# The functions that rank a gate's matrix: every security verdict takes its
# (matrix, target) pairs from scheme.gates, so no other gate definition grows back.
_RANKERS = {"scheme.py": "scheme_rank_checks_pass", "audit.py": "full_audit"}


def _rank_calls(path: Path) -> list[str]:
    """Where a module calls linalg.rank (or rank imported from linalg), outside the one function _RANKERS allows it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {
        id(node)
        for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name == _RANKERS.get(path.name)
        for node in ast.walk(f)
    }
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("linalg.rank", "rank") and id(node) not in allowed
    ]


def test_rank_is_called_only_by_the_two_gate_checks():
    """linalg.rank ranks the gates' matrices in scheme.scheme_rank_checks_pass (build) and
    audit.full_audit (verify) alone; every other verdict reads scheme.gates through them or the oracles."""
    found = [use for path in sorted(SRC.glob("*.py")) for use in _rank_calls(path)]
    assert not found, f"linalg.rank outside scheme_rank_checks_pass and full_audit: {found}"


# The definitions that may name gf.FieldSpec: the class itself, and linalg's Mat, which
# carries it, with from_array, the one place that makes one. Everywhere else the modulus is
# ProblemConfig.q, an int checked once, so neither a factory nor a second carrier grows back.
_FIELD_SPEC_USERS = {"gf.py": {"FieldSpec"}, "linalg.py": {"Mat", "from_array"}}


def _field_spec_uses(path: Path) -> list[str]:
    """Where a module names FieldSpec outside the definitions _FIELD_SPEC_USERS allows and linalg's import of it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = {
        id(node)
        for f in tree.body
        if isinstance(f, (ast.ClassDef, ast.FunctionDef)) and f.name in _FIELD_SPEC_USERS.get(path.name, ())
        or isinstance(f, ast.ImportFrom) and path.name == "linalg.py" and f.module == "gf"
        for node in ast.walk(f)
    }
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in allowed and "FieldSpec" in (getattr(node, a, None) for a in ("id", "attr", "name"))
    ]


def test_field_spec_is_only_the_field_a_mat_carries():
    """q is a plain int outside Mat: FieldSpec is named only where gf defines it and where
    linalg's Mat holds it and from_array makes it (the benchmark's tracer reads Mat.field)."""
    found = [use for path in sorted(SRC.glob("*.py")) for use in _field_spec_uses(path)]
    assert not found, f"FieldSpec outside gf.FieldSpec, linalg.Mat and linalg.from_array: {found}"


# The functions that keep a per-config or per-process result: the member index, the gates'
# column index and the parser. Each gate takes its columns from the one index, so no second
# per-config column index grows back.
_CACHED = {"scheme._members", "scheme.gate_columns", "cli.build_parser"}


def _cache_decorated(node) -> bool:
    """A function decorated with functools.lru_cache or functools.cache, called or bare, by attribute or by name."""
    if not isinstance(node, ast.FunctionDef):
        return False
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(_loaded_name(d) in ("lru_cache", "cache") for d in decorators)


def test_only_the_member_index_the_gate_columns_and_the_parser_are_cached():
    """scheme._members, scheme.gate_columns and cli.build_parser are the library's only lru_cache or cache functions."""
    found = {f"{name.removesuffix('.py')}.{node.name}" for name, node in _nodes() if _cache_decorated(node)}
    assert found == _CACHED, f"cached functions in src/hsagg: {sorted(found)}, expected {sorted(_CACHED)}"
