import ast
import importlib
from pathlib import Path

import hamnt


def test_star_import_resolves_every_export():
    # a name left in __all__ after its definition is gone breaks the star import
    namespace: dict = {}
    exec("from hamnt import *", namespace)
    assert len(set(hamnt.__all__)) == len(hamnt.__all__)
    assert all(name in namespace and hasattr(hamnt, name) for name in hamnt.__all__)


def test_every_tracer_target_resolves():
    # the benchmark's tracer reads each target as vars(owner)[attr] on the
    # package modules and classes, so deleting one breaks traced runs
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assigned = {node.targets[0].id: node.value for node in tree.body
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    package = ast.literal_eval(assigned["PACKAGE"])
    targets = ast.literal_eval(assigned["TARGETS"])
    assert package == "hamnt" and len(targets) > 20
    for layer, target, *_ in targets:
        owner = importlib.import_module(f"{package}.{layer}")
        *cls_path, attr = target.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{layer}.{target}"


def test_every_import_in_the_package_is_used():
    # no linter runs on the package, so this is its unused-import check;
    # __init__.py re-exports and a line marked noqa is kept on purpose
    root = Path(hamnt.__file__).resolve().parent
    unused = []
    for path in sorted(root.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_module_name_in_the_package_is_used():
    # a module-level _name that nothing else in the package reads is dead
    # code, even when a test or the benchmark still calls it; a reference
    # inside the name's own definition (recursion) does not count
    root = Path(hamnt.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("*.py"))}
    refs: dict[str, list] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((module, node.lineno))
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(m != module or not node.lineno <= line <= node.end_lineno
                           for m, line in refs.get(name, [])):
                    orphans.append(f"{module}:{node.lineno} {name}")
    assert orphans == []
