"""No module of the package imports a name it never uses.

`__init__.py` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "obscert"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no name in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\nimport numpy.linalg\nimport math as m\n"
        "from .errors import ConfigError, ResolutionError\n"
        "def f(x: ResolutionError) -> float:\n    return m.pi + numpy.linalg.norm(x)\n"
    )
    assert _unused_imports(source) == ["ConfigError"]


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources
    unused = {
        (path.name, name) for path in sources for name in _unused_imports(path.read_text())
    }
    assert unused == set()
