"""Every name a piforge module imports is used in that module, every private
name it defines is read there, no module reaches into another's private
names, no module calls `rref`, and no function but `core.reduce_dims`
rebinds module state.

No linter ships with the project, so this stands in for the checks of one: a
fold that moves code between modules must not leave its imports behind, nor
leave one module reading a leading-underscore helper of another, and a fold
within a module must not leave a private helper, table or value-class field
that nothing reads. A name counts as used when the module reads it (as a
name, or as the base of an attribute). The package file re-exports nothing
by import: it resolves its public names on first use, so no module imports a
name only to list it.
"""

import ast
import importlib

import pytest

import piforge

from support import ROOT

MODULES = sorted((ROOT / "src" / "piforge").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module binds by an import, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items() if name not in _used(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(tree: ast.Module) -> list[tuple[str, int]]:
    """Each leading-underscore name the module imports from another piforge
    module, or reads as an attribute of one it imported, with its line."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("piforge")):
            for alias in node.names:
                if _private(alias.name):
                    found.append((alias.name, node.lineno))
                elif node.module in (None, "piforge"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            if _private(node.attr):
                found.append((f"{node.value.id}.{node.attr}", node.lineno))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_of_another_module(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _private_reads(tree)
    assert not found, f"{path.name} reads private names of other piforge modules: {found}"


def _module_private_names(tree: ast.Module) -> set[str]:
    """Each leading-underscore name the module binds at its top level, by a
    def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if _private(name)}


def _private_value_class_fields(tree: ast.Module) -> dict[str, list[str]]:
    """The fields of each private `@frozen` value class the module defines."""
    fields = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _private(node.name) and any(
            getattr(d, "id", None) == "frozen" for d in node.decorator_list
        ):
            fields[node.name] = [
                item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return fields


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    loads = [node for node in ast.walk(tree) if isinstance(getattr(node, "ctx", None), ast.Load)]
    names = {node.id for node in loads if isinstance(node, ast.Name)}
    attributes = {node.attr for node in loads if isinstance(node, ast.Attribute)}
    unread = sorted(_module_private_names(tree) - names)
    unread += [f"{cls}.{field}" for cls, fields in _private_value_class_fields(tree).items()
               for field in fields if field not in attributes]
    assert not unread, f"{path.name} defines private names it never reads: {unread}"


def test_private_value_classes_are_found():
    """The field check above reads something: dsl's token class is one."""
    tree = ast.parse((ROOT / "src" / "piforge" / "dsl.py").read_text())
    assert _private_value_class_fields(tree).get("_Token") == ["kind", "text"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_calls_rref(path):
    """The Fraction RREF is output only: library code reads the integer rows
    of `exactlin.eliminate`, so no second reduced form comes back."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and "rref" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not calls, f"{path.name} calls rref at lines {calls}"


class TestPackageNamespace:
    """`import piforge` binds its public names lazily, each to the object its
    defining module holds."""

    def test_every_public_name_is_its_modules_object(self):
        for name in set(piforge.__all__) - {"__version__"}:
            value = getattr(piforge, name)
            binders = [vars(m) for m in _submodules() if name in vars(m)]
            assert binders and all(b[name] is value for b in binders), name

    def test_star_import_and_dir(self):
        namespace = {}
        exec("from piforge import *", namespace)
        assert set(piforge.__all__) <= namespace.keys()
        assert set(piforge.__all__) <= set(dir(piforge))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            piforge.no_such_name
        assert not hasattr(piforge, "no_such_name")


def _submodules():
    return [importlib.import_module(f"piforge.{p.stem}") for p in MODULES if p.stem != "__init__"]


# the one module-level slot: pi_basis, special_basis and is_consistent,
# called in turn on the very same DimVectors, share one elimination
ALLOWED_GLOBALS = {"core.py": ["_last_reduction"]}


@pytest.mark.parametrize("name", sorted(p.name for p in MODULES))
def test_no_global_statement(name):
    """No function rebinds module state, so no evaluation, proof or
    reduction cache lives at module level: what is worked out once per
    relation or basis is kept on the handle the caller holds
    (`CompiledRelation`, `ProblemSpec.fuzz_plan`, `PiBasis`). The one
    exception is `core.reduce_dims`'s last reduction. `core`'s table of
    orbit-gap makers, one per slot count, holds code only, no
    float of any basis, and needs no global statement."""
    tree = ast.parse((ROOT / "src" / "piforge" / name).read_text())
    found = [n for node in ast.walk(tree) if isinstance(node, ast.Global) for n in node.names]
    assert found == ALLOWED_GLOBALS.get(name, []), f"{name} has global statements for {found}"


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_match_statement(path):
    """Every walker of a relation dispatches on `node.__class__ is ...`
    (`dsl`'s rule): a `match` class pattern would take an instance of a
    subclass of a node class for a node, which the other walkers refuse."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Match)]
    assert not lines, f"{path.name} has match statements at lines {lines}"


def test_cli_main_is_the_one_output_site():
    """Each `cli.cmd_*` returns (exit code, --json payload, text lines):
    only `main` calls `print`, reads `--json` off the arguments, or loads
    the spec."""
    tree = ast.parse((ROOT / "src" / "piforge" / "cli.py").read_text())
    found = [
        node.lineno
        for stmt in tree.body if getattr(stmt, "name", None) != "main"
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        or isinstance(node, ast.Attribute) and node.attr in ("json", "load_problem_spec")
    ]
    assert not found, f"cli.py prints or picks the output format outside main at lines {found}"


# what reads a spec, registry or bindings file, or the environment
INPUT_CALLS = ("load_problem_spec", "UnitRegistry.load", "_load_bindings", "read_json")
INPUT_ATTRIBUTES = ("environ", "getenv")


def test_cli_main_is_the_one_input_site():
    """Each `cli.cmd_*` is a function of the values `main` put on the
    arguments: neither it nor a cli.py function it calls reads a file the
    command line names, or the environment."""
    tree = ast.parse((ROOT / "src" / "piforge" / "cli.py").read_text())
    functions = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    reached, todo = set(), [name for name in functions if name.startswith("cmd_")]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(functions[name])
                     if isinstance(node, ast.Name) and node.id in functions]
    found = sorted(
        (name, node.lineno)
        for name in reached for node in ast.walk(functions[name])
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(INPUT_CALLS)
        or isinstance(node, ast.Attribute) and node.attr in INPUT_ATTRIBUTES
    )
    assert not found, f"cli.py reads input outside main at {found}"


def test_cli_main_fails_only_in_its_handlers():
    """`main` turns a failure into an error line and exit 2 only in an
    `except` handler: a usage error is raised as a PiforgeError and reaches
    the one handler that prints it, so no check prints and returns early."""
    tree = ast.parse((ROOT / "src" / "piforge" / "cli.py").read_text())
    main = next(stmt for stmt in tree.body if getattr(stmt, "name", None) == "main")
    handled = {
        id(node)
        for handler in ast.walk(main) if isinstance(handler, ast.ExceptHandler)
        for node in ast.walk(handler)
    }
    found = sorted(
        node.lineno
        for node in ast.walk(main) if id(node) not in handled
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        and any(k.arg == "file" for k in node.keywords)
        or isinstance(node, ast.Return) and getattr(node.value, "value", None) == 2
    )
    assert not found, f"cli.main prints an error or returns 2 outside a handler at lines {found}"
