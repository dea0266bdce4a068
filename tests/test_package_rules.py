"""Package rules that no single behaviour test would notice breaking.

Production code does no spectral work through numpy.linalg: every
eigenvalue and rank comes from the package's own eigen kernel
(Householder reduction and implicit-shift QL in wsq.linalg), so each
claim can be traced to code in this repository.  Only harness.py, the
independent oracle, may call numpy's solvers.  scipy is not a
dependency, so production code imports none of it: its tridiagonal and
dense eigensolvers would bypass the kernel just as numpy's would.
Production modules import the harness only inside the functions that
need it (the command line's oracle and selftest), so importing wsq
never loads the oracles.  The certificate verifier replays each verdict
at the tolerances the certificate records, so neither verify_certificate
nor any fileio function it reaches names a default tolerance.  It
recomputes the quantities a certificate names instead of deciding the
question again, so none of them names a decision function either.
"""

import ast
import subprocess
import sys
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


def module_level_harness_imports(source: str) -> list[str]:
    """Every import of wsq.harness run when the module loads, as 'line: name'.

    Function bodies run only when called, so imports there are skipped;
    class bodies and if/try blocks at module level run on import.
    """
    found, pending = [], [ast.parse(source)]
    while pending:
        for node in ast.iter_child_nodes(pending.pop()):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                names = [module] + [f"{module}.{alias.name}" for alias in node.names]
            else:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    pending.append(node)
                continue
            hits = [name for name in names if "harness" in name.split(".")]
            if hits:
                found.append(f"{node.lineno}: {hits[0]}")
    return found


@pytest.mark.parametrize("source", [
    "from . import harness\n",
    "from .harness import generate\n",
    "from . import fileio, harness as h\n",
    "import wsq.harness\n",
    "from wsq import harness\n",
    "from wsq.harness import generate\n",
    "try:\n    from . import harness\nexcept ImportError:\n    pass\n",
    "class Suite:\n    from .harness import generate\n",
])
def test_scanner_sees_module_level_harness_imports(source):
    assert module_level_harness_imports(source)


def test_scanner_allows_harness_imports_inside_functions():
    source = ("from . import fileio\nfrom .fileio import harnessed\nimport harness_tools\n"
              "def oracle():\n    from . import harness\n"
              "class C:\n    def run(self):\n        import wsq.harness\n")
    assert module_level_harness_imports(source) == []


def test_production_code_loads_no_harness_on_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "harness.py")
    assert len(modules) >= 10
    offenders = {p.name: module_level_harness_imports(p.read_text()) for p in modules}
    assert {name: uses for name, uses in offenders.items() if uses} == {}
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, wsq; print('wsq.harness' in sys.modules)"],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert loaded.stdout.strip() == "False"


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


DEFAULT_TOLERANCES = {"RANK_TOL", "ANGLE_TOL", "FEASIBILITY_TOL", "WITNESS_TOL"}
# minimal_statistic stays allowed: the minimal partition is re-derived
DECISIONS = {"analyze", "check_weak_sufficiency", "exists_weakly_sufficient",
             "family_constraints", "align_phases", "gram_rank"}


def verifier_names(source: str, names: set[str]) -> list[str]:
    """Every one of names named by verify_certificate or a module function
    it reaches, as 'function: name'."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    found, seen, pending = [], set(), ["verify_certificate"]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            ident = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if ident in names:
                found.append(f"{name}: {ident}")
            elif ident in functions:
                pending.append(ident)
    return found


def test_verifier_names_no_default_tolerance():
    source = (PACKAGE / "fileio.py").read_text()
    assert verifier_names(source, DEFAULT_TOLERANCES) == []
    # an edit replaying existence cycles at the default angle again is caught
    replay = 'payload.get("phase_cycle"), tols["angle"])'
    assert source.count(replay) == 1
    edited = source.replace(replay, replay.replace('tols["angle"]', "phases.ANGLE_TOL"))
    assert verifier_names(edited, DEFAULT_TOLERANCES) == ["_replay: ANGLE_TOL"]


def test_verifier_runs_no_decision():
    source = (PACKAGE / "fileio.py").read_text()
    assert verifier_names(source, DECISIONS) == []
    # an edit deciding a refusal again before replaying it is caught
    replay = '        if verdict == "not_sufficient":\n'
    assert source.count(replay) == 1
    edited = source.replace(
        replay, replay + '            sufficiency.analyze(statistic, family, tols["rank"])\n')
    assert verifier_names(edited, DECISIONS) == ["_replay: analyze"]


@pytest.mark.parametrize("body", [
    "    return _helper()\ndef _helper():\n    return RANK_TOL\n",
    "    return sufficiency.verify_witness(s, f, w, tol=sufficiency.WITNESS_TOL)\n",
    "    x = [petz.FEASIBILITY_TOL]\n",
], ids=["helper", "witness", "feasibility"])
def test_scanner_follows_the_verifier_into_its_helpers(body):
    source = "RANK_TOL = 1\ndef make():\n    return RANK_TOL\ndef verify_certificate():\n" + body
    assert verifier_names(source, DEFAULT_TOLERANCES)
    assert verifier_names(source.replace("verify_certificate", "unrelated")
                          + "def verify_certificate():\n    pass\n", DEFAULT_TOLERANCES) == []
