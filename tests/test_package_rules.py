"""Package rules that no single behaviour test would notice breaking.

Production code does not reference numpy.linalg at all: every
eigenvalue and rank comes from the package's own eigen kernel
(Householder reduction and implicit-shift QL in wsq.linalg), and no
answer needs a factorization (a petz answer's rho's are PSD by
construction), so each claim can be traced to code in this repository.
Only harness.py, the independent oracle, may use numpy.linalg.  scipy is not a
dependency, so production code imports none of it: its tridiagonal and
dense eigensolvers would bypass the kernel just as numpy's would.
Production modules import the harness only inside the functions that
need it (the command line's oracle and selftest), so importing wsq
never loads the oracles.  The certificate verifier replays each verdict
at the tolerances the certificate records, so neither verify_certificate
nor any fileio function it reaches names a default tolerance.  It
recomputes the quantities a certificate names instead of deciding the
question again, so none of them names a decision function either (the
minimal statistic and its classes included), nor hard-codes a float
threshold.  A petz answer's rho's are rebuilt only through
petz.rhos_from_owners, and a minimal statistic through
minimality.statistic_from_partition, the functions the decisions use.
Only statistic_from_spectrum builds a DiscreteStatistic without its
constructor's checks, from covariants it has just run them on.
Production code is what the commands reach: every top-level definition
outside harness.py is reached from the command line, the verifier, the
package exports or the benchmark's workloads, so an oracle that only the
tests use lives in the harness.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wsq"


def numpy_linalg_uses(source: str) -> list[str]:
    """Every reference to numpy.linalg, as 'line: spelling'."""
    tree = ast.parse(source)
    numpy_names, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[:2] == ["numpy", "linalg"]:
                    found.append(f"{node.lineno}: import {alias.name}")
                elif alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[:2] == ["numpy", "linalg"]:
                found.append(f"{node.lineno}: from {node.module}")
            elif node.module == "numpy" and any(a.name == "linalg" for a in node.names):
                found.append(f"{node.lineno}: from numpy import linalg")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg" \
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names:
            found.append(f"{node.lineno}: {node.value.id}.linalg")
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


# every name the package root exports, by the module that defines it
ROOT_EXPORTS = {
    "spectral": ["DiscreteStatistic", "StateFamily"],
    "sufficiency": ["ConstructedStatistic", "NonExistence", "PhaseObstruction", "RankViolation",
                    "SufficiencyVerdict", "WitnessFactorization", "check_weak_sufficiency",
                    "exists_weakly_sufficient", "verify_witness"],
    "minimality": ["AtomClasses", "MinimalStatistic", "NoMinimalExists", "minimal_statistic"],
    "petz": ["Feasible", "InfeasibleOrthogonality", "InfeasibleSharedAtoms", "PetzInstance",
             "petz_feasibility"],
    "fileio": ["SchemaError", "VerificationReport", "load_bundled_instance", "make_certificate",
               "parse_certificate", "serialize_certificate", "serialize_instance",
               "verify_certificate"],
}
LAZY_PROBE = """
import importlib, json, sys
exports = json.loads(sys.argv[1])
def loaded():
    return sorted({"wsq.fileio", "wsq.petz"} & set(sys.modules))
import wsq.minimality, wsq.sufficiency, wsq.spectral
seen = {"decision modules": loaded()}
import wsq
try:
    wsq.no_such_export
except AttributeError:
    seen["unknown name"] = loaded()
wsq.Feasible
seen["a petz export"] = loaded()
seen["unlisted by dir"] = [name for names in exports.values()
    for name in names if name not in dir(wsq)]
from wsq import fileio
seen["fileio module"] = [fileio is sys.modules["wsq.fileio"], loaded()]
seen["not the module's own"] = [f"{module}.{name}" for module, names in exports.items()
    for name in names if getattr(wsq, name) is not getattr(importlib.import_module(
        "wsq." + module), name)]
print(json.dumps(seen))
"""


def test_the_root_loads_petz_and_fileio_on_first_use():
    done = subprocess.run([sys.executable, "-c", LAZY_PROBE, json.dumps(ROOT_EXPORTS)],
                          capture_output=True, text=True, check=True, cwd=PACKAGE.parent)
    assert json.loads(done.stdout) == {
        "decision modules": [], "unknown name": [], "a petz export": ["wsq.petz"],
        "unlisted by dir": [],
        "fileio module": [True, ["wsq.fileio", "wsq.petz"]], "not the module's own": []}


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.linalg.eigvalsh(m)",
    "import numpy\nw = numpy.linalg.svd(m)",
    "import numpy.linalg\nnumpy.linalg.pinv(m)",
    "import numpy.linalg as la\nla.lstsq(a, b)",
    "from numpy import linalg\nlinalg.matrix_rank(m)",
    "from numpy import linalg as nl\nsolve = nl.eig",
    "from numpy.linalg import eigh\n",
    "from numpy.linalg import *\n",
    "import numpy as np\nnp.linalg.cholesky(m)",
    "import numpy as np\ntry:\n    pass\nexcept np.linalg.LinAlgError:\n    pass\n",
    "from numpy.linalg import LinAlgError\n",
    "import numpy as np\nnp.linalg.norm(v)",
])
def test_scanner_sees_every_spelling(source):
    assert numpy_linalg_uses(source)


def test_scanner_ignores_allowed_calls():
    source = ("import numpy as np\nfrom .linalg import hermitian_eig\nfrom . import linalg\n"
              "np.dot(a, b)\nlinalg.hermitian_eig(m)\nfrom numpy import eye\n")
    assert numpy_linalg_uses(source) == []


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
    offenders = {p.name: numpy_linalg_uses(p.read_text()) for p in modules}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


def test_production_code_imports_no_scipy():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "harness.py")
    assert len(modules) >= 10
    offenders = {p.name: scipy_imports(p.read_text()) for p in modules}
    assert {name: uses for name, uses in offenders.items() if uses} == {}


# the default tolerances, and the function that derives a block from one
DEFAULT_TOLERANCES = {"RANK_TOL", "FEASIBILITY_TOL", "WITNESS_FACTOR", "tolerances"}
DECISIONS = {"decide", "Decision", "check_weak_sufficiency", "check_coarse_sufficient",
             "exists_weakly_sufficient", "family_constraints", "_phase_constraints",
             "align_phases", "gram_rank", "petz_feasibility", "minimal_statistic",
             "equivalence_classes"}
# Decision's methods, named as attributes: the verifier's own locals may be
# called verdict
DECISION_METHODS = {"verdict", "coarse_sufficient"}
# names that build a density matrix; of them the verifier names rhos_from_owners alone
RHO_BUILDERS = {"outer", "einsum", "eye", "rhos_from_owners"}


def verifier_nodes(source: str):
    """(function, node) for every node of verify_certificate and of each
    module function it reaches."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    seen, pending = set(), ["verify_certificate"]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            yield name, node
            if identifier(node) in functions:
                pending.append(identifier(node))


def identifier(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def verifier_names(source: str, names: set[str]) -> list[str]:
    """Every one of names named by verify_certificate or a module function
    it reaches, as 'function: name'."""
    return [f"{function}: {identifier(node)}" for function, node in verifier_nodes(source)
            if identifier(node) in names]


def verifier_methods(source: str, names: set[str]) -> list[str]:
    """Every attribute in names that verify_certificate or a module function
    it reaches reads, as 'function: name'."""
    return [f"{function}: {node.attr}" for function, node in verifier_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr in names]


def verifier_floats(source: str) -> list[str]:
    """Every float literal in verify_certificate or a module function it
    reaches, as 'function: value'."""
    return [f"{function}: {node.value!r}" for function, node in verifier_nodes(source)
            if isinstance(node, ast.Constant) and type(node.value) is float]


def test_verifier_names_no_default_tolerance():
    source = (PACKAGE / "fileio.py").read_text()
    assert verifier_names(source, DEFAULT_TOLERANCES) == []
    # an edit replaying existence cycles at the default angle again is caught
    replay = 'return _cycle_report(None, family, cycle, tols["angle"])'
    assert source.count(replay) == 1
    edited = source.replace(replay, replay.replace('tols["angle"]',
                                                   'sufficiency.tolerances()["angle"]'))
    assert verifier_names(edited, DEFAULT_TOLERANCES) == ["_replay: tolerances"]


def test_verifier_runs_no_decision():
    source = (PACKAGE / "fileio.py").read_text()
    assert verifier_names(source, DECISIONS) == []
    assert verifier_methods(source, DECISION_METHODS) == []
    # an edit deciding a refusal again before replaying it is caught
    replay = '        if verdict == "not_sufficient":\n'
    assert source.count(replay) == 1
    edited = source.replace(
        replay, replay + '            sufficiency.decide(statistic, family, tols["rank"])\n')
    assert verifier_names(edited, DECISIONS) == ["_replay: decide"]
    # and so is one reading a verdict off a decision it was handed
    edited = source.replace(replay, replay + "            decision.verdict()\n")
    assert verifier_methods(edited, DECISION_METHODS) == ["_replay: verdict"]
    # and so is one taking a feasible answer's rho's from the decision
    replay = '    if verdict == "feasible":\n'
    assert source.count(replay) == 1
    edited = source.replace(replay, replay + "        petz.petz_feasibility(instance)\n")
    assert verifier_names(edited, DECISIONS) == ["_replay: petz_feasibility"]
    # and one re-deriving the minimal statistic instead of checking its proof
    replay = '        if verdict == "minimal_constructed":\n'
    assert source.count(replay) == 1
    edited = source.replace(
        replay, replay + "            minimality.minimal_statistic(statistic, family)\n")
    assert verifier_names(edited, DECISIONS) == ["_replay: minimal_statistic"]


def test_verifier_builds_the_minimal_statistic_as_the_decision_does():
    source = (PACKAGE / "fileio.py").read_text()
    shared = {"statistic_from_partition", "pair_rank_two"}
    assert sorted(verifier_names(source, shared)) == [
        "_minimal_report: pair_rank_two", "_minimal_report: statistic_from_partition",
        "_rank_report: pair_rank_two", "_replay: pair_rank_two"]


def test_verifier_builds_rhos_only_through_rhos_from_owners():
    source = (PACKAGE / "fileio.py").read_text()
    assert verifier_names(source, RHO_BUILDERS) == ["_replay: rhos_from_owners"]
    # an edit rebuilding an owner's projector by hand is caught
    replay = "        _, residual = petz.rhos_from_owners("
    assert source.count(replay) == 1
    edited = source.replace(replay, "        np.outer(u, u.conj())\n" + replay)
    assert sorted(verifier_names(edited, RHO_BUILDERS)) == [
        "_replay: outer", "_replay: rhos_from_owners"]


def test_verifier_hard_codes_no_threshold():
    source = (PACKAGE / "fileio.py").read_text()
    assert verifier_floats(source) == []
    # an edit checking a trace against a literal again is caught
    replay = "        if residual > petz.RECONSTRUCTION_TOL:\n"
    assert source.count(replay) == 1
    edited = source.replace(replay, "        if residual > 1e-6:\n")
    assert verifier_floats(edited) == ["_replay: 1e-06"]


@pytest.mark.parametrize("body", [
    "    return _helper()\ndef _helper():\n    return RANK_TOL\n",
    "    return sufficiency.verify_witness(s, f, w, tol=sufficiency.tolerances()['witness'])\n",
    "    x = [petz.FEASIBILITY_TOL]\n",
], ids=["helper", "witness", "feasibility"])
def test_scanner_follows_the_verifier_into_its_helpers(body):
    source = "RANK_TOL = 1\ndef make():\n    return RANK_TOL\ndef verify_certificate():\n" + body
    assert verifier_names(source, DEFAULT_TOLERANCES)
    assert verifier_names(source.replace("verify_certificate", "unrelated")
                          + "def verify_certificate():\n    pass\n", DEFAULT_TOLERANCES) == []


def unchecked_constructions(sources: dict[str, str]) -> list[str]:
    """Every naming of __new__, which builds an object without running its
    constructor, as 'module.definition' for the top-level definition that
    holds it."""
    return sorted(f"{module}.{definition.name}" for module, text in sources.items()
                  for definition in ast.parse(text).body
                  for node in ast.walk(definition) if identifier(node) == "__new__")


def test_only_the_covariants_skip_the_partition_checks():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert len(sources) >= 11 and "harness" in sources
    assert unchecked_constructions(sources) == ["spectral.statistic_from_spectrum"]
    # an edit building a coarse statistic without its checks is caught
    build = "    coarse = DiscreteStatistic(eigenvalues, projections)\n"
    assert sources["spectral"].count(build) == 1
    sources["spectral"] = sources["spectral"].replace(build, (
        "    coarse = object.__new__(DiscreteStatistic)\n"
        "    coarse.eigenvalues, coarse.projections = eigenvalues, projections\n"))
    assert unchecked_constructions(sources) == [
        "spectral.apply_coarse", "spectral.statistic_from_spectrum"]


WORKLOADS = PACKAGE.parent.parent / "perfbench" / "workloads.py"
ROOTS = [("cli", "run_cli"), ("cli", "main"), ("fileio", "verify_certificate")]


def top_level_definitions(tree) -> dict:
    """name -> node for each function, class and assigned name at module level."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((name.id, node) for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return found


def wsq_imports(tree) -> dict:
    """local name -> (module, name) for every import of a wsq module, in the
    module or in its functions; name is None when the module itself is bound."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "wsq"
                                                 or (node.module or "").startswith("wsq.")):
            module = (node.module or "").removeprefix("wsq").lstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = (module, alias.name) if module else (alias.name, None)
    return bound


def unreached_definitions(sources: dict[str, str], workloads: str) -> list[str]:
    """Every top-level definition of sources (module -> text) that no root
    reaches, as 'module.name'.

    The roots are ROOTS, everything wsq/__init__.py and __main__.py define
    or import, and every module.attr that workloads names.  Identifiers are
    followed through top-level definitions, through imports to their source
    name (``from . import x as y``, re-exports included) and through
    module.attr; modules missing from sources are not followed.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {module: top_level_definitions(tree) for module, tree in trees.items()}
    imported = {module: wsq_imports(tree) for module, tree in trees.items()}
    pending = [(module, name) for module in ("__init__", "__main__")
               for name in [*defined[module], *imported[module]]] + ROOTS
    modules = wsq_imports(ast.parse(workloads))
    pending += [(modules[node.value.id][0], node.attr) for node in ast.walk(ast.parse(workloads))
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules]
    seen = set()
    while pending:
        module, name = pending.pop()
        if module not in trees or (module, name) in seen:
            continue
        seen.add((module, name))
        if name in imported[module] and name not in defined[module]:
            pending.append(imported[module][name])
            continue
        for node in ast.walk(defined[module].get(name, ast.Pass())):
            if isinstance(node, ast.Name):
                pending.append((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                source, target = imported[module].get(node.value.id, (None, ""))
                if target is None:
                    pending.append((source, node.attr))
    return sorted(f"{module}.{name}" for module, names in defined.items()
                  for name in names if (module, name) not in seen)


def test_production_code_is_what_the_commands_reach():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py") if p.name != "harness.py"}
    assert len(sources) >= 10
    assert unreached_definitions(sources, WORKLOADS.read_text()) == []
    # an added definition that nothing calls is caught
    sources["petz"] += "\n\ndef orphan(instance):\n    return petz_feasibility(instance)\n"
    assert unreached_definitions(sources, WORKLOADS.read_text()) == ["petz.orphan"]


@pytest.mark.parametrize("cli", [
    "from .a import f as g\ndef run_cli():\n    return g()\n",
    "from . import a as b\ndef run_cli():\n    return b.f()\n",
    "from .c import f\ndef run_cli():\n    return f()\n",
])
def test_scanner_follows_aliases_to_their_source(cli):
    sources = {"__init__": "", "__main__": "", "fileio": "def verify_certificate():\n    pass\n",
               "a": "def f():\n    return _h()\ndef _h():\n    pass\ndef dead():\n    pass\n",
               "c": "from .a import f\n", "cli": cli + "def main():\n    pass\n"}
    assert unreached_definitions(sources, "") == ["a.dead"]
