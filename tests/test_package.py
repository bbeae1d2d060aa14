import ast
from collections import Counter
from pathlib import Path

import ckomega

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ckomega"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_name_resolves():
    # `from ckomega import *` breaks if __all__ names a deleted module
    missing = [name for name in ckomega.__all__ if not hasattr(ckomega, name)]
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    # no linter is available, so this is the unused-import check; the
    # package __init__ imports to re-export and is exempt
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_private_helper_is_named_outside_its_definition():
    # a private top-level name of the package that no code in src/, tests/ or
    # perfbench/ reads, calls or imports is dead
    named = Counter()
    for path in (p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named[node.id] += 1
            elif isinstance(node, ast.Attribute):
                named[node.attr] += 1
            elif isinstance(node, ast.alias):
                named[node.name] += 1
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{node.lineno} {name}" for name in names
                     if name.startswith("_") and not name.startswith("__") and not named[name]]
    assert dead == []


def test_every_distance_comes_from_the_one_kernel():
    # fields._distances is the one distance kernel (README, "Conventions"):
    # no module calls linalg.norm or imports norm from numpy.linalg, whose
    # summation order differs from the kernel's at n >= 2; mentions in
    # docstrings and comments are not calls
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if (isinstance(node, ast.Attribute) and node.attr == "norm"
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                calls.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                calls += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "norm"]
    assert calls == []


def test_every_factorial_comes_from_the_one_table():
    # fields._mi_table does the jet arithmetic (README, "One multi-index
    # table"): outside fields.py only the integer Hermite cardinal table,
    # extension._cardinal, calls math.factorial, math.comb or math.perm or
    # imports them from math; mentions in docstrings are not calls
    names = {"factorial", "comb", "perm"}
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "fields.py":
            continue
        for top in _parse(path).body:
            if (path.name, getattr(top, "name", None)) == ("extension.py", "_cardinal"):
                continue
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in names
                        and isinstance(node.value, ast.Name) and node.value.id == "math"):
                    calls.append(f"{path.name}:{node.lineno} math.{node.attr}")
                elif isinstance(node, ast.ImportFrom) and node.module == "math":
                    calls += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in names]
    assert calls == []


def test_every_public_lru_cache_is_typed():
    # lru_cache keys 1.0 and 1 alike, so an untyped cache answers a float
    # call from an int entry before the function can reject it
    untyped = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            for dec in node.decorator_list:
                func = dec.func if isinstance(dec, ast.Call) else dec
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name != "lru_cache":
                    continue
                typed = [kw.value for kw in getattr(dec, "keywords", []) if kw.arg == "typed"]
                if not (typed and isinstance(typed[0], ast.Constant) and typed[0].value is True):
                    untyped.append(f"{path.name}:{node.lineno} {node.name}")
    assert untyped == []
