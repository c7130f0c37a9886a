"""The library imports nothing outside the Python standard library, and
exports each public name once."""

import ast
import pathlib
import subprocess
import sys
import types

import euctype

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


COLD_START_FREE = ("dataclasses", "inspect", "ast", "dis", "tokenize", "copy",
                   "fractions", "decimal", "numbers")


def test_the_cli_import_loads_no_dataclasses_inspect_or_fractions():
    """``import euctype.cli`` in a fresh interpreter, run with ``-S`` so no
    site hook imports anything, loads none of ``COLD_START_FREE``, and
    ``localization_function`` still builds its ``Fraction`` after it."""
    script = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import euctype.cli\n"
        f"print(sorted(set({COLD_START_FREE!r}) & set(sys.modules)))\n"
        "from fractions import Fraction\n"
        "from euctype.models import localization_function\n"
        "print(localization_function([2], Fraction(8)))\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["[]", "3"]


def test_the_export_list_is_every_public_attribute_once():
    """``__all__`` has no duplicate and names exactly the package's public
    attributes that are not modules, so a name dropped from the imports
    cannot stay behind in it."""
    public = {name for name, value in vars(euctype).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(euctype.__all__)) == len(euctype.__all__)
    assert set(euctype.__all__) == public
