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
