"""Package rules that no single behaviour test would notice breaking.

Production code does no spectral work through numpy.linalg: every
eigenvalue and rank comes from the package's own eigen kernel
(Householder reduction and implicit-shift QL in wsq.linalg), so each
claim can be traced to code in this repository.  Only harness.py, the
independent oracle, may call numpy's solvers.  scipy is not a
dependency, so production code imports none of it: its tridiagonal and
dense eigensolvers would bypass the kernel just as numpy's would.
"""

import ast
from pathlib import Path

import pytest

FORBIDDEN = {"eig", "eigh", "eigvals", "eigvalsh", "svd", "pinv", "lstsq", "matrix_rank"}
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wsq"


def numpy_solver_uses(source: str) -> list[str]:
    """Every reference to a forbidden numpy.linalg function, as 'line: name'."""
    tree = ast.parse(source)
    numpy_names, linalg_names, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("numpy", "numpy.linalg") and not alias.asname:
                    numpy_names.add("numpy")
                elif alias.name == "numpy":
                    numpy_names.add(alias.asname)
                elif alias.name == "numpy.linalg":
                    linalg_names.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                if node.module == "numpy" and alias.name == "linalg":
                    linalg_names.add(alias.asname or "linalg")
                elif node.module == "numpy.linalg" and alias.name in FORBIDDEN | {"*"}:
                    found.append(f"{node.lineno}: import {alias.name}")

    def is_linalg(expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in linalg_names
        return (isinstance(expr, ast.Attribute) and expr.attr == "linalg"
                and isinstance(expr.value, ast.Name) and expr.value.id in numpy_names)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN and is_linalg(node.value):
            found.append(f"{node.lineno}: {node.attr}")
    return found


def scipy_imports(source: str) -> list[str]:
    """Every import of scipy or of one of its modules, as 'line: module'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.linalg.eigvalsh(m)",
    "import numpy\nw = numpy.linalg.svd(m)",
    "import numpy.linalg\nnumpy.linalg.pinv(m)",
    "import numpy.linalg as la\nla.lstsq(a, b)",
    "from numpy import linalg\nlinalg.matrix_rank(m)",
    "from numpy import linalg as nl\nsolve = nl.eig",
    "from numpy.linalg import eigh\n",
    "from numpy.linalg import *\n",
])
def test_scanner_sees_every_spelling(source):
    assert numpy_solver_uses(source)


def test_scanner_ignores_allowed_calls():
    source = ("import numpy as np\nfrom .linalg import hermitian_eig\nfrom . import linalg\n"
              "np.linalg.norm(v)\nnp.linalg.cholesky(m)\nlinalg.hermitian_eig(m)\n")
    assert numpy_solver_uses(source) == []


@pytest.mark.parametrize("source", [
    "import scipy.linalg\nscipy.linalg.eigh(m)",
    "from scipy import linalg\nlinalg.eigh(m)",
    "from scipy.linalg import eigh_tridiagonal\n",
    "import numpy as np, scipy as sp\n",
])
def test_scanner_sees_every_scipy_import(source):
    assert scipy_imports(source)


def test_scanner_ignores_modules_named_like_scipy():
    source = "import numpy\nimport scipyish\nfrom .scipy import x\nfrom wsq import linalg\n"
    assert scipy_imports(source) == []


def test_production_code_calls_no_numpy_solver():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "harness.py")
    assert len(modules) >= 10
    offenders = {p.name: numpy_solver_uses(p.read_text()) for p in modules}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_production_code_imports_no_scipy():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "harness.py")
    assert len(modules) >= 10
    offenders = {p.name: scipy_imports(p.read_text()) for p in modules}
    assert {name: uses for name, uses in offenders.items() if uses} == {}
