"""Every module the package imports is in the standard library or declared.

A clean install gets only the dependencies ``pyproject.toml`` declares,
so an import of anything else fails there even when the development
machine happens to have it.  Imports anywhere in a module count, not
only at its top, because a lazy import fails just the same when it runs.
"""

import ast
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def declared_dependencies():
    """Import names of the ``[project] dependencies`` in pyproject.toml."""
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    return {
        re.match(r"[A-Za-z0-9_.\-]+", spec).group(0).lower().replace("-", "_")
        for spec in project.get("dependencies", [])
    }


def imported_packages(path):
    """(line, top-level package) of every absolute import in one module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_declared_dependencies_parse():
    assert "numpy" in declared_dependencies()


def test_every_import_is_stdlib_repro_or_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_dependencies()
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    undeclared = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        for line, name in imported_packages(path)
        if name not in allowed
    ]
    assert not undeclared, "undeclared imports:\n" + "\n".join(undeclared)
