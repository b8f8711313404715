"""Guards on the library source: nothing in src/diffcontact/ is kept for
the tests alone, and no module imports a name it does not use. Test-only
reference code belongs in tests/oracles.py."""
import ast
import importlib
from collections import Counter
from pathlib import Path

import diffcontact

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diffcontact"


def _names_used(node) -> Counter:
    """Identifiers a syntax tree refers to: names, attributes, imported
    names and string constants that spell an identifier (setattr targets)."""
    used = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            used[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            used[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            used[sub.value] += 1
    return used


def _definitions(tree):
    """(label, name, node) of each module-level def and class and of each
    method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name, item


def test_every_library_definition_has_a_user_outside_the_tests():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmark").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for label, name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            # uses inside the definition itself (recursion) do not count
            if used[name] - _names_used(node)[name] <= 0 and name not in diffcontact.__all__:
                unused.append(f"{path.name}: {label}")
    assert not unused, f"defined in src/ but named nowhere in src/ or benchmark/: {unused}"


def test_every_module_level_import_is_used_in_its_module():
    """A module-level import in src/ is used in its own module, is named in
    the module's __all__, or carries `# noqa: F401` and a reason (as the
    names that only the benchmark tracer patches do)."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        exported = getattr(importlib.import_module(f"diffcontact.{path.stem}"), "__all__", ())
        loads = Counter(sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                _, noqa, reason = lines[alias.lineno - 1].partition("# noqa: F401")
                if loads[name] or name in exported or noqa and reason.strip():
                    continue
                unused.append(f"{path.name}: {name}")
    assert not unused, f"imported in src/ but not used in the importing module: {unused}"


def test_only_model_and_dynamics_read_private_model_attributes():
    """The model's private layout (`model._...`) is read by model.py and
    dynamics.py alone; every other module goes through the model's public
    attributes, as the contact layer does through model.pair_table."""
    private = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("model.py", "dynamics.py"):
            continue
        for sub in ast.walk(ast.parse(path.read_text())):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                    and sub.value.id == "model" and sub.attr.startswith("_"):
                private.setdefault(path.name, set()).add(sub.attr)
    assert not private, f"private model attributes read outside model.py and dynamics.py: {private}"


def test_only_contact_names_the_contact_modes():
    """Which rows a mode acts on and how F moves with mu are decided in
    contact.py (mode_rows, mode_equations); no other module in src/ imports
    or names Mode, except __init__.py's re-export."""
    naming = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("contact.py", "__init__.py"):
            continue
        if _names_used(ast.parse(path.read_text()))["Mode"]:
            naming.append(path.name)
    assert not naming, f"modules other than contact.py that name Mode: {naming}"
