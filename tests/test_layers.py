"""The package's modules import one another in layers: ``geometry`` on
``errors`` alone, ``sampling`` and ``quadrature`` on ``errors`` and
``geometry``.  Imports inside functions count as much as those at the top.
``geometry`` also does no file I/O: the tables are written where their
formats live.
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

# the modules through which a file is read or written
FILE_IO = {"csv", "json", "io", "pathlib"}


def file_io(source):
    """The modules of ``FILE_IO`` that ``source`` imports, and ``open`` if it
    calls a function or method of that name, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            found |= {"open"} if name == "open" else set()
    return found & (FILE_IO | {"open"})


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


def test_the_file_io_parser_finds_imports_and_calls_of_open():
    source = ("import csv\n"
              "import numpy as np\n"
              "def f(path):\n"
              "    from pathlib import Path\n"
              "    import io, json.decoder\n"
              "    from .errors import GeometryError\n"
              "    return Path(path).open().read() + open(path).read()\n")
    assert file_io(source) == {"csv", "pathlib", "io", "json", "open"}
    assert file_io("def g(path):\n    return open(path)\n") == {"open"}
    assert file_io("import numpy\nx = numpy.ones(3)\n") == set()


def test_geometry_does_no_file_io():
    found = file_io((PACKAGE / "geometry.py").read_text(encoding="utf-8"))
    assert not found, f"geometry does file I/O through {sorted(found)}"
