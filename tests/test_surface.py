"""The package exports no function that only the tests call, and stays
within its line budget.

A function exported from nbmle/__init__.py must be loaded by some other
module of the package (a name read in code, or imported), so that a
command or verify can reach it, unless it is a documented library entry
point.  Comments, docstrings, attribute reads such as gh.loglik and
dataclass fields do not count.  Reference implementations that only the
tests compare against live in tests/oracles.py.
"""

import ast
import inspect
from pathlib import Path

import nbmle

LIBRARY_ENTRY_POINTS = {"loglik"}

# Lines of src/nbmle/*.py (ROADMAP item 6).
LINE_BUDGET = 2700


def _loaded_names(package: Path) -> set:
    names = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_function_is_reached_from_the_package():
    package = Path(nbmle.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    functions = [n for n in exported if inspect.isfunction(getattr(nbmle, n))]
    loaded = _loaded_names(package)
    unreached = sorted(n for n in functions
                       if n not in loaded and n not in LIBRARY_ENTRY_POINTS)
    assert not unreached, f"exported but reached by no package module: {unreached}"
    assert LIBRARY_ENTRY_POINTS <= set(functions)


def test_src_stays_within_the_line_budget():
    package = Path(nbmle.__file__).parent
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in package.glob("*.py"))
    assert lines <= LINE_BUDGET, f"src/nbmle/*.py has {lines} lines"
