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
