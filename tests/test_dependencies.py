"""The runtime dependencies declared in pyproject.toml are the ones the
package imports.

A missing declaration does not fail loudly: ``repro.stg.markov`` imports
scipy lazily for every solve over ``SPARSE_THRESHOLD`` states, and a
``ModuleNotFoundError`` there surfaces as a ``MarkovError`` that scores
the design unschedulable.  So every non-stdlib module imported anywhere
under ``src/repro`` (function-level imports included) must be listed in
``[project].dependencies``, and every listed dependency must be imported
somewhere.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

pytestmark = pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="sys.stdlib_module_names needs Python 3.10")


def declared_dependencies():
    """Distribution names in ``[project].dependencies``, normalized to
    import spelling (tomllib needs Python 3.11, so this reads the list
    with a regex)."""
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text,
                        re.M | re.S)
    assert project is not None, "pyproject.toml has no [project] table"
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1),
                     re.M | re.S)
    assert deps is not None, "[project] has no dependencies list"
    return {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0]
            .lower().replace("-", "_")
            for spec in re.findall(r"[\"']([^\"']+)[\"']", deps.group(1))}


def imported_modules():
    """Top-level names of every absolute import under ``src/repro``."""
    found = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0]
                             for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def third_party_imports():
    return {name for name in imported_modules()
            if name not in sys.stdlib_module_names and name != "repro"}


def test_every_third_party_import_is_declared():
    missing = third_party_imports() - declared_dependencies()
    assert not missing, f"imported but not in [project].dependencies: " \
                        f"{sorted(missing)}"


def test_every_declared_dependency_is_imported():
    unused = declared_dependencies() - third_party_imports()
    assert not unused, f"in [project].dependencies but never imported: " \
                       f"{sorted(unused)}"


def _annotation_names(tree):
    """Names read inside type expressions, quoted ones included: every
    annotation, and every subscript (``Union[str, "os.PathLike[str]"]``
    in a type alias)."""
    found = set()
    types = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            types.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            types.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            types.append(node.annotation)
        elif isinstance(node, ast.Subscript):
            types.append(node.slice)
    for root in types:
        for sub in ast.walk(root):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    quoted = ast.parse(sub.value, mode="eval")
                except SyntaxError:
                    continue
                found.update(n.id for n in ast.walk(quoted)
                             if isinstance(n, ast.Name))
    return found


def _exported_names(tree):
    """Strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path):
    """Names ``path`` imports but never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    used |= _annotation_names(tree) | _exported_names(tree)
    return sorted(f"{name} (line {line})"
                  for name, line in imported.items() if name not in used)


def test_every_imported_name_is_used():
    """A package's ``__init__`` re-exports what it imports; any other
    module must read every name it imports, as a name, inside a quoted
    annotation, or in ``__all__``."""
    unused = {str(path.relative_to(PACKAGE)): names
              for path in sorted(PACKAGE.rglob("*.py"))
              if path.name != "__init__.py"
              for names in [unused_imports(path)] if names}
    assert not unused, f"imported but never used: {unused}"
