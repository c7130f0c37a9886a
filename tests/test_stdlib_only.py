"""The library imports nothing outside the Python standard library."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).parent.parent / "src" / "euctype"


def test_the_library_imports_only_the_standard_library():
    """Every absolute import in ``src/euctype``, at module level or inside a
    function, names a standard-library module; relative imports stay in
    the package."""
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    seen = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
                seen.add(top)
    assert {"itertools", "math", "json"} <= seen
