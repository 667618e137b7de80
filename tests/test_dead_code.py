"""Every public module-level function of the package has a user: it is
exported in `gbei.__all__`, or code in the package refers to it (another
module by importing it, its own module by name).  Every private one is
referred to somewhere in the package outside its own body.  A helper that
nothing calls is deleted, not left behind.  Likewise every module-level
import of the package and of the tests is used by the file that makes it,
the report turns only a size cap into a skipped verdict, every
function the benchmark's tracer looks up by name and every name the
benchmark's files take from gbei is still there, every exported name has
a user outside the tests, every dataclass field is read, every method
and property of a package class is read by the package or the README,
and each method name that two package classes share is listed with where
each class's method is read."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from collections import Counter, defaultdict
from pathlib import Path

import gbei

PACKAGE = Path(gbei.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "perfbench"
WORKER = BENCH / "worker.py"
README = TESTS.parent / "README.md"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _trees() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def _public_functions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _names_used_from(tree: ast.Module, module: str) -> set[str]:
    """Names that `tree` takes from the sibling `module`, by a relative
    import or as an attribute of the module itself."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            used.add(node.attr)
    return used


def test_every_public_function_is_exported_or_used_in_the_package():
    trees = _trees()
    exported = set(gbei.__all__)
    unused = []
    for module, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used = used.union(*(_names_used_from(t, module) for m, t in trees.items() if m != module))
        unused.extend(
            f"{module}.{name}"
            for name in _public_functions(tree)
            if name not in exported and name not in used
        )
    assert unused == []


def _references(node: ast.AST) -> Counter:
    """Names read under `node`, bare or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_function_is_used_in_the_package():
    trees = _trees()
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and everywhere[node.name] == _references(node)[node.name]
    ]
    assert unused == []


def test_the_scan_sees_every_module():
    assert {"cli", "graphs", "homology", "ideals", "poly", "report"} <= set(_trees())


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of `tree` that nothing in it
    reads.  `from __future__` imports and names listed in `__all__` (the
    package's re-exports) are exempt."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.extend((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used and name not in exported]


def test_every_module_level_import_is_used():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    unused = [
        f"{path.parent.name}/{path.name}: {name}"
        for path in paths
        for name in _unused_imports(_parse(path))
    ]
    assert unused == []


def test_the_import_scan_sees_the_package_and_the_tests():
    names = {path.name for path in PACKAGE.glob("*.py")} | {path.name for path in TESTS.glob("*.py")}
    assert {"__init__.py", "report.py", "conftest.py", "test_dead_code.py"} <= names


def _broad_handlers(tree: ast.Module) -> list[int]:
    """Lines of the `except` clauses of `tree` that are bare or name
    ValueError, Exception or BaseException."""
    broad = {"ValueError", "Exception", "BaseException"}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and (node.type is None or any(isinstance(n, ast.Name) and n.id in broad for n in ast.walk(node.type)))
    ]


def test_report_skips_on_size_caps_only():
    """Any other error propagates to the CLI's input-error exit, so a
    defect cannot read as a skipped check."""
    assert _broad_handlers(_parse(PACKAGE / "report.py")) == []


def _traced() -> set[str]:
    """The `<layer>.<name>` strings by which the benchmark worker names the
    functions its tracer reports."""
    layer_name = re.compile(r"(cli|report|graphs|ideals|poly|homology)\.(\w+)")
    return {
        node.value
        for node in ast.walk(_parse(WORKER))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and layer_name.fullmatch(node.value)
    }


def test_every_traced_name_is_a_public_function():
    """A name the tracer cannot find raises."""
    traced = _traced()
    assert {"poly.normal_form", "poly.is_groebner_basis", "homology.hochster_betti"} <= traced
    missing = []
    for name in sorted(traced):
        layer, attr = name.split(".")
        module = importlib.import_module(f"gbei.{layer}")
        fn = getattr(module, attr, None)
        if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            missing.append(name)
    assert missing == []


def _gbei_reads(tree: ast.Module) -> set[str]:
    """The dotted names `tree` takes from gbei: `gbei.x.a` for each
    `from gbei.x import a`, and each `gbei.x.attr` it reads."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "gbei":
            reads.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Attribute) and re.fullmatch(r"gbei(\.\w+)+", dotted := ast.unparse(node)):
            reads.add(dotted)
    return reads


def test_every_name_the_benchmark_takes_from_gbei_exists():
    """A name the benchmark's own files import or read from gbei, which a
    change to the package removed, would break the benchmark at import or
    at collection, outside the tier-1 run."""
    reads = set().union(*(_gbei_reads(_parse(path)) for path in sorted(BENCH.glob("*.py"))))
    assert {"gbei.cli.main", "gbei.graphs.is_connected", "gbei.poly.normal_form"} <= reads
    missing = []
    for name in sorted(reads):
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


# exports that neither the package, the README's Library section nor the
# benchmark's tracer uses, each with the reason it stays
UNUSED_EXPORTS = {
    "hilbert_check": "the Hilbert-series reference the tests compare the oracle against, and the base of the planned Hilbert checks",
    "is_connected": "perfbench/test_perfbench.py imports it to check that the generated inputs are connected",
}


def _loads(node: ast.AST) -> Counter:
    """Bare names read under `node`."""
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_export_is_used_documented_or_traced():
    """A name earns its place in `gbei.__all__` by one of three users:
    package code outside the name's own definition (the re-exports of
    `__init__.py` do not count), the README's Library section, or the
    benchmark's tracer."""
    trees = [tree for module, tree in _trees().items() if module != "__init__"]
    reads = sum((_loads(tree) for tree in trees), Counter())
    for tree in trees:
        for node in tree.body:
            for name in _defined(node):
                reads[name] -= _loads(node)[name]
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"\w+", library))
    traced = {name.split(".")[1] for name in _traced()}
    unused = [name for name in gbei.__all__ if reads[name] <= 0 and name not in documented | traced]
    assert sorted(unused) == sorted(UNUSED_EXPORTS)


def _dataclass_fields(tree: ast.Module):
    """(class node, field name) for every annotated field of the
    module-level dataclasses of `tree`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(d, ast.Name) and d.id == "dataclass"
            or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
            for d in node.decorator_list
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node, stmt.target.id


def _attribute_reads(node: ast.AST) -> Counter:
    """Attribute names read under `node`."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_dataclass_field_is_read():
    """A field is read as an attribute somewhere in the package or the
    tests; its own class's `__post_init__`, which only validates it, does
    not count."""
    trees = _trees()
    everywhere = [*trees.values(), *map(_parse, TESTS.glob("*.py"))]
    reads = sum((_attribute_reads(tree) for tree in everywhere), Counter())
    unread = []
    for module, tree in trees.items():
        for cls, name in _dataclass_fields(tree):
            post_init = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
            own = sum((_attribute_reads(f) for f in post_init), Counter())
            if reads[name] <= own[name]:
                unread.append(f"{module}.{cls.name}.{name}")
    assert unread == []


def test_the_field_scan_sees_the_dataclasses():
    fields = {f"{cls.name}.{name}" for tree in _trees().values() for cls, name in _dataclass_fields(tree)}
    assert {"Graph.n", "FormulaResult.kind", "MinimalPrime.dimension"} <= fields


# methods and properties that neither the package nor the README's Library
# section reads, each with the reason it stays
UNUSED_METHODS = {
    "Polynomial.scaled": "the tests' reference Buchberger in tests/test_poly.py forms its S-polynomials with it",
    "Polynomial.monic": "the tests' reference Buchberger in tests/test_poly.py normalises its basis with it",
}


def _methods(tree: ast.Module):
    """(class node, function node) for every method and property of the
    module-level classes of `tree` whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and not re.fullmatch(r"__\w+__", stmt.name):
                    yield node, stmt


def _library_examples() -> list[ast.Module]:
    """The python blocks of the README's Library section, parsed."""
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", library, re.DOTALL)]


def test_every_method_is_read_or_listed():
    """A method or property earns its place by a read of its name as an
    attribute: in package code outside its own body, or in an example of
    the README's Library section (its prose does not count).  The scan
    goes by name, so a method that shares its name with a read one passes
    here; SHARED_METHOD_NAMES lists those names."""
    trees = _trees()
    reads = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    documented = set().union(*map(_attribute_reads, _library_examples()))
    unused = [
        f"{cls.name}.{fn.name}"
        for tree in trees.values()
        for cls, fn in _methods(tree)
        if reads[fn.name] <= _attribute_reads(fn)[fn.name] and fn.name not in documented
    ]
    assert sorted(unused) == sorted(UNUSED_METHODS)


def test_the_method_scan_sees_the_classes():
    methods = {f"{cls.name}.{fn.name}" for tree in _trees().values() for cls, fn in _methods(tree)}
    assert {"Polynomial.leading", "_Packing.lcm", "Analysis.census", "Graph._adj", "BettiTable.depth"} <= methods
    assert not any(name.endswith("__") for name in methods)
    assert {"groebner", "render", "depth", "counts"} <= set().union(*map(_attribute_reads, _library_examples()))


# the non-dunder method names that two or more package classes define.  The
# scan above goes by name, so a read of one counts for all of them; here
# each class says where its own method is read: in a package function
# ("module.function" or "module.Class.method"), in the README's Library
# section, or only by the tests, with the reason it stays
SHARED_METHOD_NAMES = {
    "coprime": {
        "Monomial": "tests: test_poly.py checks _Packing.coprime against it and its reference Buchberger reads it",
        "_Packing": "poly.is_groebner_basis",
    },
    "degree": {
        "Monomial": "tests: test_poly.py checks _Packing.degree against it and conftest.minimal_generators sorts by it",
        "_Packing": "poly.buchberger",
    },
    "depth": {"Analysis": "report._formula_block", "BettiTable": "report._verification_block"},
    "lcm": {
        "Monomial": "tests: test_poly.py checks _Packing.lcm against it and its reference Buchberger reads it",
        "_Packing": "poly.buchberger",
    },
    "regularity": {"Analysis": "report._formula_block", "BettiTable": "report._verification_block"},
    "render": {"BettiTable": "README", "Monomial": "poly.Polynomial.render", "Polynomial": "poly.Polynomial.__repr__"},
}


def _function(trees: dict[str, ast.Module], place: str) -> ast.FunctionDef:
    """The function or method that "module.function" or
    "module.Class.method" names."""
    module, *path = place.split(".")
    node = trees[module]
    for name in path:
        node = next(n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)
    return node


def test_every_shared_method_name_is_listed():
    """SHARED_METHOD_NAMES lists exactly the method names that two or more
    package classes define, each with exactly the classes that define it,
    and each place it names reads the name as an attribute.  Like the scan
    above, this cannot tell receivers apart: that the read is of that
    class's method is the table's word, which the test does not check."""
    trees = _trees()
    owners = defaultdict(set)
    for tree in trees.values():
        for cls, fn in _methods(tree):
            owners[fn.name].add(cls.name)
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    listed = {name: set(places) for name, places in SHARED_METHOD_NAMES.items()}
    # each name shared but unlisted, or listed but no longer shared by those
    # classes, with the classes that define it now
    moved = {name: owners[name] for name in shared.keys() | listed.keys() if shared.get(name) != listed.get(name)}
    assert moved == {}
    tests = sum((_attribute_reads(_parse(path)) for path in TESTS.glob("*.py")), Counter())
    documented = set().union(*map(_attribute_reads, _library_examples()))
    unread = []
    for name, places in SHARED_METHOD_NAMES.items():
        for cls, place in places.items():
            if place.startswith("tests: "):
                read = tests[name] > 0
            elif place == "README":
                read = name in documented
            else:
                read = _attribute_reads(_function(trees, place))[name] > 0
            if not read:
                unread.append(f"{cls}.{name}: {place}")
    assert unread == []
