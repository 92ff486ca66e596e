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


def tracer_targets():
    """(package, targets) as perfbench/tracer.py assigns them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assigned = {node.targets[0].id: node.value for node in tree.body
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    return ast.literal_eval(assigned["PACKAGE"]), ast.literal_eval(assigned["TARGETS"])


def test_every_tracer_target_resolves():
    # the benchmark's tracer reads each target as vars(owner)[attr] on the
    # package modules and classes, so deleting one breaks traced runs
    package, targets = tracer_targets()
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


# Public names that no module of the package reads, kept on purpose: the
# documented boundary, one reason per group.
BOUNDARY = (
    ("types and constructors a caller builds its inputs with",
     ("HammingScheme", "Vertex", "Triple", "Automorphism", "GeneratorSet", "Code",
      "StabilizerChain", "translation", "full_group_generators")),
    ("the code file format", ("parse_code_text", "code_to_text", "read_code_file",
                              "write_code_file", "vertex_to_text", "vertex_from_text")),
    ("errors a caller catches", ("SchemeMismatchError", "FeasibilityError", "CodeFormatError",
                                 "HypothesisError", "MinDistanceError", "NotACodewordError",
                                 "NotNeighbourStabilizerError", "ImageInCodeError")),
    ("report records and verdict constants a caller reads",
     ("PreReport", "ClassificationReport", "StabilizerAnalysis", "FamilyInstance",
      "FamilyReport", "LemmaSuiteReport", "ClauseResult", "VERDICT_FIXED",
      "VERDICT_NONFIXING", "CASE2", "CASE3", "VIOLATION")),
    ("the set-fixing rule on vertices", ("stabilizes_set",)),
    ("the setwise stabilizer as a chain, from vertices", ("stabilizer_chain",)),
    ("the least equivalence, the oracle for searches on relabelled codes",
     ("find_equivalence",)),
)


def test_every_public_name_has_a_reader():
    # each name in __all__ is read by a package module other than __init__
    # outside its own definition, wrapped by the benchmark's tracer, or
    # listed in BOUNDARY; a name that only the tests call is dead code
    root = Path(hamnt.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("*.py")) if path.name != "__init__.py"}
    spans: dict[str, list] = {}
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
                spans.setdefault(name, []).append((module, node.lineno, node.end_lineno))
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if not any(m == module and lo <= node.lineno <= hi
                       for m, lo, hi in spans.get(name, [])):
                read.add(name)
    _, targets = tracer_targets()
    traced = {target.split(".")[0] for _, target, *_ in targets}
    boundary = [name for _, names in BOUNDARY for name in names]
    assert len(set(boundary)) == len(boundary) and set(boundary) <= set(hamnt.__all__)
    assert [name for name in hamnt.__all__
            if name not in read and name not in traced and name not in boundary] == []
