"""Package rules that no single behaviour test would notice breaking.

Production code does no spectral work through numpy.linalg: every
eigenvalue, rank and pseudo-inverse comes from the package's own Jacobi
kernel, so each claim can be traced to code in this repository.  Only
harness.py, the independent oracle, may call numpy's solvers.
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


def test_production_code_calls_no_numpy_solver():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "harness.py")
    assert len(modules) >= 10
    offenders = {p.name: numpy_solver_uses(p.read_text()) for p in modules}
    assert {name: uses for name, uses in offenders.items() if uses} == {}
