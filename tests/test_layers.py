"""The package's modules import one another in layers: ``geometry`` on
``errors`` alone, ``sampling`` and ``quadrature`` on ``errors`` and
``geometry``.  Imports inside functions count as much as those at the top.
"""

import ast
from pathlib import Path

import pytest

import cauchypot

PACKAGE = Path(cauchypot.__file__).parent

ALLOWED = {
    "geometry": {"errors"},
    "sampling": {"errors", "geometry"},
    "quadrature": {"errors", "geometry"},
}


def package_imports(source):
    """The modules of the package that ``source`` imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            name = ("cauchypot." if node.level else "") + (node.module or "")
            parts = name.split(".")
            if parts[0] != "cauchypot":
                continue
            # from . import x, from cauchypot import x: the names are modules
            found |= {parts[1]} if len(parts) > 1 and parts[1] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("cauchypot.")}
    return found


def test_the_parser_finds_imports_at_the_top_and_inside_functions():
    source = ("from .errors import GeometryError\n"
              "def f():\n"
              "    from .quadrature import _held\n"
              "    from . import arcs\n"
              "    import cauchypot.potential\n"
              "    from cauchypot.cauchy import singular_S\n"
              "    import numpy\n")
    assert package_imports(source) == {"errors", "quadrature", "arcs", "potential", "cauchy"}


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_a_lower_module_imports_only_the_layers_below_it(module):
    found = package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert found <= ALLOWED[module], f"{module} imports {sorted(found - ALLOWED[module])}"
