"""The package's modules import one another in layers: ``geometry`` on
``errors`` alone, ``sampling`` and ``quadrature`` on ``errors`` and
``geometry``.  Imports inside functions count as much as those at the top.
File I/O lives in two modules: ``sampling`` reads and writes every data
table, and ``cli`` reads the config and writes ``summary.json``, whose JSON
form no numerics module knows.
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

# the modules that compute, and so read and write no file
NUMERICS = ("geometry", "quadrature", "potential", "cauchy", "closed", "arcs")


def source(module):
    return (PACKAGE / f"{module}.py").read_text(encoding="utf-8")


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
# the functions and methods that open a file: open itself, and numpy's
# readers and writers (np.loadtxt, np.savetxt, np.fromfile, x.tofile,
# np.load, np.save)
FILE_CALLS = {"open", "loadtxt", "savetxt", "fromfile", "tofile", "load", "save"}


def file_io(source):
    """The modules of ``FILE_IO`` that ``source`` imports, and the names of
    ``FILE_CALLS`` that it calls as a function or method, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call):
            found.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    return found & (FILE_IO | FILE_CALLS)


def defined(source):
    """The names of the functions and classes that ``source`` defines, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
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
    found = package_imports(source(module))
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


def test_the_file_io_parser_finds_numpy_file_calls():
    numpy_io = ("import numpy as np\n"
                "def h(path, x):\n"
                "    np.savetxt(path, np.loadtxt(path))\n"
                "    x.astype('<f8').tofile(path)\n"
                "    np.save(path, np.fromfile(path))\n"
                "    return np.load(path)\n")
    assert file_io(numpy_io) == {"loadtxt", "savetxt", "fromfile", "tofile", "load", "save"}


@pytest.mark.parametrize("module", NUMERICS)
def test_a_numerics_module_does_no_file_io(module):
    found = file_io(source(module))
    assert not found, f"{module} does file I/O through {sorted(found)}"


def test_the_cli_opens_no_file_and_does_json_and_pathlib_io_only():
    # the config in, summary.json out; every table goes through sampling
    found = file_io(source("cli"))
    assert found <= {"json", "pathlib"}, f"cli does file I/O through {sorted(found)}"


def test_only_sampling_and_the_cli_know_the_file_and_summary_forms():
    potential, arcs = source("potential"), source("arcs")
    assert "json" not in file_io(potential) | file_io(arcs)
    forms = {"PotentialField", "read_potential_csv", "write_potential_csv",
             "read_potential_binary", "write_potential_binary", "_write_grid_csv"}
    assert not defined(potential) & forms
    assert not defined(arcs) & {"to_json", "from_json"}
