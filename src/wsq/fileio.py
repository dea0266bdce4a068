"""Instance files, certificate files, and independent re-verification.

Instances are JSON objects with a dimension, a map of labeled states,
and an optional statistic (dense Hermitian matrix, or explicit
eigenvalues plus projections).  Complex numbers are always two-element
[re, im] arrays.  ``read_instance`` reads and validates the whole file
at once: its schema, every number, the state family, an explicit
statistic, and a dense matrix's Hermitian check.  The states and a dense
matrix take one numpy conversion each, as do a certificate's witness chi
and constructed directions (_converted).  The path-addressed walker
reads explicit projections, and the others only to name an error:
anything but finite numbers of the right shape, booleans included.  A
dimension above linalg.MAX_DIM, or more states than linalg.MAX_STATES,
is refused, whatever the encoding.  Only a dense matrix's decomposition
waits until a question reads the statistic, so **construct** and a
**petz** refusal of overlapping states never run it, nor meet its
errors.  It takes the eigenvalues from e1's Krylov block and the atoms
from their Frobenius covariants (spectral.statistic_from_matrix), and
builds eigenvectors only where those fail their checks, as where e1
misses an eigenspace.  Certificates mirror the in-memory verdict types
and carry the tool version and the tolerances that produced them, and
every verdict that reads the statistic records its spectrum, so a
verifier holding only the instance file and the certificate file can
re-check the verdict from scratch, at those same tolerances, and without
decomposing a dense matrix again.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from itertools import combinations

import numpy as np

from . import __version__ as TOOL_VERSION
from . import minimality, petz, phases, spectral, sufficiency
from .linalg import (MAX_DIM, MAX_STATES, RANK_TOL, as_hermitian, gram_matrix, inner, norm,
                     pair_rank_two)

BUNDLED_INSTANCE = "two_state_example.json"

CERTIFICATE_KINDS = ("weak_sufficiency", "existence", "minimality", "petz")
TOL_RANGE = (1e-14, 1e-3)
AMPLITUDE_RANGE = (sufficiency.tolerances(TOL_RANGE[0])["angle"],
                   sufficiency.tolerances(TOL_RANGE[1])["witness"])


class SchemaError(ValueError):
    """Structural problem in an instance or certificate file.

    The message always starts with a path like ``$.states.phi1[0]`` so
    the offending node can be found without guessing.
    """


def _fail(path: str, problem: str):
    raise SchemaError(f"{path}: {problem}")


def check_tolerance(value, span: tuple[float, float] = TOL_RANGE) -> None:
    """ValueError unless value is a float inside span.

    The command line checks --tol with it, the verifier every recorded
    tolerance: nothing is decided or verified at nan, inf, 0 or below,
    or at a value so large that any two states look parallel.
    """
    low, high = span
    if not isinstance(value, float) or not low <= value <= high:
        raise ValueError(f"tolerance must be a number in [{low:g}, {high:g}], got {value!r}")


def _real(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a real number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:
        _fail(path, "integer beyond the float range")
    if not np.isfinite(value):
        _fail(path, "number must be finite")
    return value


def _pair(node, path: str) -> complex:
    if not isinstance(node, list) or len(node) != 2:
        _fail(path, "expected an [re, im] pair")
    return complex(_real(node[0], f"{path}[0]"), _real(node[1], f"{path}[1]"))


def _vector(node, path: str, dim: int) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        _fail(path, f"expected a list of {dim} [re, im] pairs")
    return np.array([_pair(entry, f"{path}[{i}]") for i, entry in enumerate(node)])


def _matrix(node, path: str, dim: int) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        _fail(path, f"expected a {dim}x{dim} matrix of [re, im] pairs")
    return np.array([_vector(row, f"{path}[{i}]", dim) for i, row in enumerate(node)])


def _converted(node, shape: tuple) -> np.ndarray | None:
    """node as a complex array of the given shape, from one numpy conversion,
    or None unless node is exactly shape + (2,) finite numbers.  numpy reads
    a JSON boolean as 1 or 0, so the entries equal to 0 or 1 are looked up
    in node, and one bool among them gives None."""
    try:
        a = np.array(node)
    except ValueError:   # ragged
        return None
    if a.dtype.kind not in "if" or a.shape != shape + (2,) or not np.isfinite(a).all():
        return None
    for index in np.argwhere((a == 0) | (a == 1)).tolist():
        if isinstance(functools.reduce(list.__getitem__, index, node), bool):
            return None
    # bitwise what complex(re, im) gives, -0.0 included
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def _pair_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_json(v: np.ndarray) -> list:
    """Each entry of v as an [re, im] pair of floats, from one tolist()."""
    return np.stack((v.real, v.imag), axis=-1).tolist()


class Instance:
    """A read instance file: its state family and its statistic, if any.

    ``statistic`` is the DiscreteStatistic or None.  From a dense matrix
    it is decomposed the first time it is read, and raises then if the
    decomposition fails; ``has_statistic`` answers without decomposing.
    ``matrix`` is the dense matrix, made exactly Hermitian, or None.
    """

    def __init__(self, family: spectral.StateFamily, statistic=None, matrix=None):
        self.family = family
        self.has_statistic = statistic is not None or matrix is not None
        self._explicit = statistic
        self.matrix = matrix

    @functools.cached_property
    def statistic(self):
        if self.matrix is None:
            return self._explicit
        return spectral.statistic_from_matrix(self.matrix)


def read_instance(text: str) -> Instance:
    """Read and validate an instance file; see ``Instance`` for what waits."""
    try:
        root = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"$: invalid JSON: {exc}") from exc
    if not isinstance(root, dict):
        _fail("$", "expected a JSON object")
    if "dimension" not in root:
        _fail("$", "missing required key 'dimension'")
    dim = root["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        _fail("$.dimension", "expected a positive integer")
    if dim > MAX_DIM:
        _fail("$.dimension", f"dimension {dim} exceeds the desk-scale limit {MAX_DIM}")
    states = root.get("states")
    if not isinstance(states, dict) or not states:
        _fail("$.states", "expected a nonempty object of labeled states")
    if len(states) > MAX_STATES:
        _fail("$.states", f"{len(states)} states exceed the desk-scale limit {MAX_STATES}")
    labels = sorted(states)
    vectors = _converted([states[label] for label in labels], (len(labels), dim))
    if vectors is None:
        vectors = np.array([_vector(states[label], f"$.states.{label}", dim) for label in labels])
    family = spectral.StateFamily(labels=tuple(labels), vectors=vectors)

    statistic = matrix = None
    node = root.get("statistic")
    if node is not None:
        if not isinstance(node, dict):
            _fail("$.statistic", "expected an object")
        if "matrix" in node:
            matrix = _converted(node["matrix"], (dim, dim))
            if matrix is None:
                matrix = _matrix(node["matrix"], "$.statistic.matrix", dim)
            matrix = as_hermitian(matrix)   # raises now; the decomposition waits
        elif "eigenvalues" in node or "projections" in node:
            evs = node.get("eigenvalues")
            projs = node.get("projections")
            if not isinstance(evs, list) or not evs:
                _fail("$.statistic.eigenvalues", "expected a nonempty list of reals")
            if not isinstance(projs, list) or len(projs) != len(evs):
                _fail("$.statistic.projections",
                      "expected one projection matrix per eigenvalue")
            eigenvalues = np.array(
                [_real(v, f"$.statistic.eigenvalues[{i}]") for i, v in enumerate(evs)]
            )
            projections = np.array(
                [_matrix(p, f"$.statistic.projections[{i}]", dim)
                 for i, p in enumerate(projs)]
            )
            statistic = spectral.DiscreteStatistic(
                eigenvalues=eigenvalues, projections=projections
            )
        else:
            _fail("$.statistic", "expected 'matrix' or 'eigenvalues'+'projections'")
    return Instance(family, statistic=statistic, matrix=matrix)


def serialize_instance(statistic, family) -> str:
    """Serialize (statistic or None, family) to canonical instance JSON."""
    order = sorted(range(len(family)), key=lambda i: family.labels[i])
    root: dict = {
        "dimension": family.dim,
        "states": {
            family.labels[i]: _vector_json(family.vectors[i]) for i in order
        },
    }
    if statistic is not None:
        root["statistic"] = {
            "eigenvalues": [float(v) for v in statistic.eigenvalues],
            "projections": [[_vector_json(row) for row in p] for p in statistic.projections],
        }
    return json.dumps(root, indent=2, sort_keys=True)


def load_bundled_instance():
    """The instance shipped with the package: T = diag(1, -1) and two states."""
    instance = read_instance(
        resources.files("wsq").joinpath("data").joinpath(BUNDLED_INSTANCE).read_text())
    return instance.statistic, instance.family


# ---------------------------------------------------------------------------
# Certificates


def _witness_json(witness: sufficiency.WitnessFactorization) -> dict:
    # a table keyed by the statistic's eigenvalues lists, in ascending
    # key order, one value per atom
    return {
        "chi": _vector_json(witness.chi),
        "functions": {
            label: [float(val) for _, val in sorted(table.items())]
            for label, table in sorted(witness.functions.items())
        },
        "versions": {
            label: _pair_json(value)
            for label, value in sorted(witness.versions.phases.items())
        },
    }


def _witness_from_json(node: dict, path: str, statistic) -> sufficiency.WitnessFactorization:
    """The witness, with entry k of each function keyed by atom k's eigenvalue."""
    _exact_keys(node, path, ["chi", "functions", "versions"])
    chi = _converted(node["chi"], (statistic.dim,))
    if chi is None:
        chi = _vector(node["chi"], f"{path}.chi", statistic.dim)
    if not isinstance(node["functions"], dict):
        _fail(f"{path}.functions", "expected an object of per-state lists")
    functions = {}
    for label, values in node["functions"].items():
        here = f"{path}.functions.{label}"
        if not isinstance(values, list) or len(values) != len(statistic):
            _fail(here, f"expected a list of {len(statistic)} reals, one per atom")
        functions[label] = {float(lam): _real(value, f"{here}[{k}]") for k, (lam, value)
                            in enumerate(zip(statistic.eigenvalues, values))}
    if not isinstance(node["versions"], dict):
        _fail(f"{path}.versions", "expected an object of [re, im] pairs")
    versions = phases.VersionAssignment({
        label: _pair(value, f"{path}.versions.{label}")
        for label, value in node["versions"].items()
    })
    return sufficiency.WitnessFactorization(chi=chi, functions=functions, versions=versions)


def _cycle_json(cycle) -> dict:
    return {"constraints": [{"left": c.left, "right": c.right, "atom": c.atom} for c in cycle]}


def _directions_from_json(node, path: str, dim: int):
    """The statistic a constructed payload's directions name, or SchemaError;
    the rows are read as _witness_from_json reads chi."""
    if not isinstance(node, list) or not 1 <= len(node) <= dim:
        _fail(path, f"expected a list of 1 to {dim} directions")
    rows = _converted(node, (len(node), dim))
    if rows is None:
        rows = [_vector(row, f"{path}[{n}]", dim) for n, row in enumerate(node)]
    try:
        return sufficiency.statistic_from_directions(rows)
    except ValueError as exc:
        _fail(path, str(exc))


def make_certificate(kind: str, result, parameters: dict | None = None,
                     tol: float | None = None) -> dict:
    """Build a certificate dictionary from a module-level result object.

    The tolerance block records what the kind's decision applied at
    ``tol``, the one tolerance the caller passed to it (its default when
    None): petz's feasibility tolerance, or the Gram tolerance of check,
    construct and minimal with the two it derives (sufficiency.tolerances).
    """
    if kind not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind '{kind}'")
    if tol is not None:
        check_tolerance(tol)
    cert: dict = {
        "kind": kind,
        "tool_version": TOOL_VERSION,
        "tolerances": {"petz_feasibility": petz.FEASIBILITY_TOL if tol is None else tol}
        if kind == "petz" else sufficiency.tolerances(RANK_TOL if tol is None else tol),
    }
    if parameters:
        cert["parameters"] = dict(parameters)

    if kind == "weak_sufficiency":
        verdict: sufficiency.SufficiencyVerdict = result
        if verdict.sufficient:
            cert["verdict"] = "sufficient"
            cert["payload"] = {"witness": _witness_json(verdict.witness)}
        else:
            # one kind of evidence: the rank violations if any, else the cycle
            cert["verdict"] = "not_sufficient"
            rank = [{"atom": v.atom, "states": list(v.states)} for v in verdict.violations
                    if isinstance(v, sufficiency.RankViolation)]
            cycles = [v.cycle for v in verdict.violations
                      if isinstance(v, sufficiency.PhaseObstruction)]
            cert["payload"] = ({"rank_violations": rank} if rank
                               else {"phase_cycle": _cycle_json(cycles[0])})
    elif kind == "existence":
        if isinstance(result, sufficiency.ConstructedStatistic):
            cert["verdict"] = "constructed"
            cert["payload"] = {"directions": [_vector_json(xi) for xi in result.directions],
                               "witness": _witness_json(result.witness)}
        elif isinstance(result, sufficiency.NonExistence):
            cert["verdict"] = "no_statistic_exists"
            cert["payload"] = {"phase_cycle": _cycle_json(result.cycle)}
    elif kind == "minimality":
        if isinstance(result, minimality.MinimalStatistic):
            cert["verdict"] = "minimal_constructed"
            # the partition of T's atoms and the class values 1..m name the
            # minimal statistic, so its projections are not written out
            cert["payload"] = {
                "partition": [list(block) for block in result.partition],
                "witness": _witness_json(result.witness),
                "separations": [{"atoms": list(atoms), "states": list(states)}
                                for atoms, states in result.classes.separations],
            }
        elif isinstance(result, minimality.NoMinimalExists):
            cert["verdict"] = "no_minimal_exists"
            cert["payload"] = {"dead_atom": result.dead_atom}
    elif kind == "petz":
        if isinstance(result, petz.Feasible):
            cert["verdict"] = "feasible"
            cert["payload"] = {"owners": list(result.owners)}
        elif isinstance(result, petz.InfeasibleOrthogonality):
            cert["verdict"] = "infeasible_orthogonality"
            cert["payload"] = {"pair": list(result.pair)}
        elif isinstance(result, petz.InfeasibleSharedAtoms):
            cert["verdict"] = "infeasible_shared_atoms"
            cert["payload"] = {"state": result.state,
                               "pairs": [[k, other] for k, other in result.pairs]}
    if "verdict" not in cert:
        raise ValueError(f"unsupported {kind} result {type(result).__name__}")
    # every verdict but these rests on the statistic, and records its spectrum
    if kind != "existence" and cert["verdict"] != "infeasible_orthogonality":
        if not result.spectrum:
            raise ValueError(f"{type(result).__name__} result carries no spectrum")
        cert["payload"]["spectrum"] = list(result.spectrum)
    return cert


def serialize_certificate(cert: dict) -> str:
    """Compact JSON with sorted keys, which CPython encodes in C."""
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


def parse_certificate(text: str) -> dict:
    try:
        cert = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"$: invalid JSON: {exc}") from exc
    if not isinstance(cert, dict):
        _fail("$", "expected a JSON object")
    kind = cert.get("kind")
    if kind not in CERTIFICATE_KINDS:
        _fail("$.kind", f"expected one of {', '.join(CERTIFICATE_KINDS)}")
    if "verdict" not in cert:
        _fail("$", "missing required key 'verdict'")
    if not isinstance(cert.get("payload"), dict):
        _fail("$.payload", "expected an object")
    extra = set(cert) - {"kind", "verdict", "payload", "tolerances", "tool_version"}
    for key in sorted(extra - ({"parameters"} if kind == "petz" else set())):
        _fail(f"$.{key}", "unexpected key")
    return cert


@dataclass
class VerificationReport:
    ok: bool
    detail: str


def _named_rows(statistic, family, node: dict, labels, path: str) -> np.ndarray:
    """The named states projected onto atom node["atom"] of statistic, or
    unprojected when statistic is None, which admits only a null atom;
    SchemaError when the atom or a label names nothing in the instance."""
    atom = node["atom"]
    if statistic is None:
        if atom is not None:
            _fail(f"{path}.atom", "expected null")
    elif type(atom) is not int or not 0 <= atom < len(statistic):
        _fail(f"{path}.atom", f"expected an atom index below {len(statistic)}")
    try:
        rows = np.array([family.vector(label) for label in labels])
    except ValueError as exc:
        _fail(path, str(exc))
    return rows if statistic is None else rows @ statistic.projections[atom].T


def _exact_keys(node, path: str, keys: list[str]) -> dict:
    """node, an object holding exactly keys; SchemaError at the first key amiss."""
    expected = f"expected an object with the keys {', '.join(keys)}"
    if not isinstance(node, dict):
        _fail(path, expected)
    for key in [key for key in keys if key not in node] + sorted(set(node) - set(keys)):
        _fail(f"{path}.{key}", f"{'missing' if key in keys else 'unexpected'} key; {expected}")
    return node


def _rank_report(statistic, family, items, tol: float) -> VerificationReport:
    """Project each violation's two states onto its atom and require their
    2x2 Gram matrix to have rank 2 at tol; SchemaError when unreadable."""
    if not isinstance(items, list) or not items:
        return VerificationReport(False, "rank_violations is not a nonempty list")
    for n, item in enumerate(items):
        here = f"$.payload.rank_violations[{n}]"
        pair = _exact_keys(item, here, ["atom", "states"])["states"]
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{here}.states", "expected two state labels")
        if not pair_rank_two(gram_matrix(_named_rows(statistic, family, item, pair, here)),
                             tol)[0]:
            return VerificationReport(
                False, f"states {pair} are not independent on atom {item['atom']}")
    return VerificationReport(True, "rank violations confirmed")


def _cycle_report(statistic, family, node, tol: float) -> VerificationReport:
    """Recompute each edge's overlap from the instance and compare the walk's
    defect with tol, the angle; SchemaError when the cycle cannot be read.

    Edge {left, right, atom} stands for <e_atom phi_left, e_atom phi_right>,
    or for <phi_left, phi_right> in a cycle of the family alone (statistic
    None), whose atoms are all null.  As the decision cut it, an edge must
    exceed tol sqrt(w), w the larger weight of its states on its atom, or
    tol on a family edge.
    """
    path = "$.payload.phase_cycle"
    edges = _exact_keys(node, path, ["constraints"])["constraints"]
    if not isinstance(edges, list) or not edges:
        _fail(path, "expected a cycle object with a nonempty 'constraints' list")
    cycle = []
    for i, edge in enumerate(edges):
        here = f"{path}.constraints[{i}]"
        _exact_keys(edge, here, ["atom", "left", "right"])
        ends = [edge["left"], edge["right"]]
        rows = _named_rows(statistic, family, edge, ends, here)
        value = inner(*rows)
        cut = tol if statistic is None else tol * max(norm(row) for row in rows)
        if abs(value) <= cut:
            return VerificationReport(
                False, f"cycle edge {i} has overlap {abs(value):.3e}, at most {cut:.3e}, "
                       f"which constrains nothing")
        cycle.append(phases.PhaseConstraint(*ends, value, edge["atom"]))
    try:
        defect = phases.cycle_defect(cycle)
    except ValueError as exc:
        _fail(path, str(exc))
    if defect <= tol:
        return VerificationReport(False, f"cycle defect {defect:.3e} is below tolerance")
    return VerificationReport(True, f"cycle of length {len(cycle)} with defect {defect:.6f}")


def verify_certificate(instance_text: str, certificate_text: str) -> VerificationReport:
    """Re-check a certificate using only the two files.

    A verdict that reads the statistic records its eigenvalues as
    ``payload.spectrum``, and the verifier takes the statistic from them
    (_recorded_statistic).  The tolerance block must hold exactly the
    keys make_certificate writes, each a check_tolerance (angle and
    witness in AMPLITUDE_RANGE), and every verdict is replayed at them:
    witnesses at ``witness``; rank violations, a minimal statistic's live
    atoms (with two blocks or more) and separations, and a dead atom,
    with a pair of states of rank 2 in the family's Gram matrix, at
    ``rank``; cycle edges and defects at ``angle``; petz owners and
    shared atoms at ``petz_feasibility``.  Each object must hold exactly
    the keys its verdict writes, and only petz records ``parameters``.
    What a certificate names is recomputed, never decided again: the rank
    of two named states on an atom (pair_rank_two), each cycle edge's
    overlap, a witness (one value per atom, in ascending eigenvalue
    order) on the statistic it claims, rebuilt from directions or a
    partition by the decision's own function, and petz rho's from their
    owners by petz.rhos_from_owners, within RECONSTRUCTION_TOL.  A
    certificate that does not prove its claim or cannot be read, earlier
    encodings and a JSON boolean in place of a number included, yields
    ok=False.  Only a malformed instance raises: at read time, or when a
    dense matrix whose recorded spectrum the covariants cannot prove fails
    to decompose; ``existence`` and ``infeasible_orthogonality`` never
    read the statistic.
    """
    instance = read_instance(instance_text)
    try:
        return _replay(instance, parse_certificate(certificate_text))
    except SchemaError as exc:
        return VerificationReport(False, f"malformed certificate: {exc}")


def _witness_report(statistic, family, payload: dict, tol: float,
                    verified: str) -> VerificationReport:
    """Replay the payload's witness at tol; SchemaError when it does not fit the instance."""
    witness = _witness_from_json(payload["witness"], "$.payload.witness", statistic)
    try:
        check = sufficiency.verify_witness(statistic, family, witness, tol=tol)
    except ValueError as exc:
        _fail("$.payload.witness", str(exc))
    if not check.ok:
        return VerificationReport(
            False, f"witness residual {check.max_residual:.3e} exceeds {tol:.1e}")
    return VerificationReport(True, f"{verified} {check.max_residual:.3e}")


def _minimal_report(statistic, family, payload: dict, tols: dict) -> VerificationReport:
    """Prove that the partition's statistic S is minimal; SchemaError when unreadable.

    S's witness (at ``witness``) makes each block's rows proportional to one
    vector, nonzero as every atom is live (at ``rank``), so two states of rank
    2 on e_a + e_b, a and b in blocks i < j, show by Cauchy interlacing that
    no sufficient statistic merges the blocks.  A one-block S is constant, a
    function of every statistic, so its witness alone proves it minimal and
    its atoms need not be live.
    """
    partition, separations = payload["partition"], payload["separations"]
    try:
        minimal = minimality.statistic_from_partition(statistic, partition)
    except ValueError as exc:
        return VerificationReport(False, f"no minimal statistic to confirm: {exc}")
    heaviest = spectral.project_states(statistic, family).weights.max(axis=0)
    if len(partition) > 1 and (heaviest <= tols["rank"]).any():
        k = int(np.argmax(heaviest <= tols["rank"]))
        return VerificationReport(False, f"no minimal statistic to confirm: atom {k} "
                                         f"carries weight {heaviest[k]:.3e}")
    report = _witness_report(minimal, family, payload, tols["witness"], "witness residual")
    if not report.ok:
        return report
    pairs = list(combinations(range(len(partition)), 2))
    if not isinstance(separations, list) or len(separations) != len(pairs):
        _fail("$.payload.separations", f"expected {len(pairs)} separations, one per pair of blocks")
    for n, ((i, j), item) in enumerate(zip(pairs, separations)):
        here = f"$.payload.separations[{n}]"
        atoms, labels = _exact_keys(item, here, ["atoms", "states"])["atoms"], item["states"]
        if not (isinstance(atoms, list) and len(atoms) == 2 and all(type(k) is int for k in atoms)
                and atoms[0] in partition[i] and atoms[1] in partition[j]):
            _fail(f"{here}.atoms", f"expected an atom of block {i} and one of block {j}")
        if not isinstance(labels, list) or len(labels) != 2:
            _fail(f"{here}.states", "expected two state labels")
        # the two states projected onto e_a + e_b
        rows = sum(_named_rows(statistic, family, {"atom": k}, labels, here) for k in atoms)
        if not pair_rank_two(gram_matrix(rows), tols["rank"])[0]:
            return VerificationReport(
                False, f"states {labels} do not separate atoms {atoms} of blocks {i} and {j}")
    return VerificationReport(True, f"minimal partition {partition} confirmed, {report.detail}")


def _recorded_statistic(instance: Instance, payload: dict) -> spectral.DiscreteStatistic:
    """The instance's statistic, whose eigenvalues payload["spectrum"]
    records; SchemaError unless they are its eigenvalues.

    Explicit projections: the record must equal the eigenvalues exactly.
    A dense matrix: the record must hold at most one value per dimension,
    ascending by more than spectral.GROUP_FACTOR times its largest
    modulus, the cutoff statistic_from_matrix groups by, so it cannot
    split an atom.  spectral.statistic_from_values then builds the
    statistic as the command line does: from the values' Frobenius
    covariants, which prove them the matrix's spectrum, or, where those
    fail their checks, from the matrix's eigenpairs, whose eigenvalues the
    record must hold; its SpectrumError is this SchemaError, and a matrix
    that fails to decompose raises.
    """
    path, node = "$.payload.spectrum", payload["spectrum"]
    if not isinstance(node, list) or not node:
        _fail(path, "expected a nonempty list of reals, one per atom")
    values = np.array([_real(value, f"{path}[{k}]") for k, value in enumerate(node)])
    if instance.matrix is None:
        if not np.array_equal(values, instance.statistic.eigenvalues):
            _fail(path, "expected the eigenvalues of the instance's statistic")
        return instance.statistic
    if len(values) > instance.family.dim:
        _fail(path, f"expected at most {instance.family.dim} values, one per atom")
    cutoff = spectral.GROUP_FACTOR * float(np.abs(values).max())
    if not (np.diff(values) > cutoff).all():
        _fail(path, f"expected values ascending by more than the grouping cutoff {cutoff:.3e}")
    try:
        return spectral.statistic_from_values(instance.matrix, values)
    except spectral.SpectrumError as exc:
        _fail(path, str(exc))


def _tolerances_from_json(node, kind: str) -> dict[str, float]:
    """The recorded tolerance block: exactly the kind's keys, each valid."""
    keys = ["petz_feasibility"] if kind == "petz" else ["angle", "rank", "witness"]
    _exact_keys(node, "$.tolerances", keys)
    for key in keys:
        try:
            check_tolerance(node[key], AMPLITUDE_RANGE if key in ("angle", "witness")
                            else TOL_RANGE)
        except ValueError as exc:
            _fail(f"$.tolerances.{key}", str(exc))
    return node


def _replay(instance: Instance, cert: dict) -> VerificationReport:
    """verify_certificate on a read instance; SchemaError means an unreadable payload.

    Only the verdicts that rest on the statistic read it, from the
    spectrum their payload records, which the exact-key reader requires
    there and refuses in ``existence`` and petz overlap payloads.  Each
    payload's keys are checked before its spectrum is read, and a dense
    matrix is decomposed only when its covariants fail.
    """
    kind, verdict, payload = cert["kind"], cert["verdict"], cert["payload"]
    tols = _tolerances_from_json(cert.get("tolerances"), kind)
    family = instance.family
    if kind != "existence" and not instance.has_statistic:
        return VerificationReport(False, "instance file carries no statistic")

    if kind == "weak_sufficiency":
        if verdict == "sufficient":
            _exact_keys(payload, "$.payload", ["spectrum", "witness"])
            return _witness_report(_recorded_statistic(instance, payload), family, payload,
                                   tols["witness"], "witness verified, max residual")
        if verdict == "not_sufficient":
            evidence = "rank_violations" if "rank_violations" in payload else "phase_cycle"
            node = _exact_keys(payload, "$.payload", [evidence, "spectrum"])[evidence]
            statistic = _recorded_statistic(instance, payload)
            if evidence == "rank_violations":
                return _rank_report(statistic, family, node, tols["rank"])
            return _cycle_report(statistic, family, node, tols["angle"])
        return VerificationReport(False, f"unknown verdict '{verdict}'")

    if kind == "existence":
        if verdict == "constructed":
            _exact_keys(payload, "$.payload", ["directions", "witness"])
            built = _directions_from_json(payload["directions"], "$.payload.directions",
                                          family.dim)
            return _witness_report(built, family, payload, tols["witness"],
                                   "constructed statistic verified, residual")
        if verdict == "no_statistic_exists":
            cycle = _exact_keys(payload, "$.payload", ["phase_cycle"])["phase_cycle"]
            return _cycle_report(None, family, cycle, tols["angle"])
        return VerificationReport(False, f"unknown verdict '{verdict}'")

    if kind == "minimality":
        if verdict == "minimal_constructed":
            _exact_keys(payload, "$.payload", ["partition", "separations", "spectrum", "witness"])
            return _minimal_report(_recorded_statistic(instance, payload), family, payload, tols)
        if verdict == "no_minimal_exists":
            k = _exact_keys(payload, "$.payload", ["dead_atom", "spectrum"])["dead_atom"]
            statistic = _recorded_statistic(instance, payload)
            if type(k) is not int or not 0 <= k < len(statistic):
                return VerificationReport(False, f"bad dead atom index {k!r}")
            if not pair_rank_two(gram_matrix(family.stack), tols["rank"]).any():
                return VerificationReport(False, "the family spans one dimension, "
                                                 "where the constant statistic is minimal")
            heaviest = float(spectral.project_states(statistic, family).weights[:, k].max())
            if heaviest > tols["rank"]:
                return VerificationReport(False,
                                          f"atom {k} carries weight {heaviest:.3e}, not dead")
            return VerificationReport(True, f"atom {k} confirmed dead")
        return VerificationReport(False, f"unknown verdict '{verdict}'")

    # kind == "petz"
    unital = _exact_keys(cert.get("parameters", {"unital": True}), "$.parameters",
                         ["unital"])["unital"]
    if not isinstance(unital, bool):
        return VerificationReport(False, "parameters must be an object with a boolean 'unital'")
    if verdict == "infeasible_orthogonality":
        pair = _exact_keys(payload, "$.payload", ["pair"])["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            return VerificationReport(False, "payload carries no state pair")
        try:
            overlap = abs(inner(*(family.vector(label) for label in pair)))
        except ValueError:
            return VerificationReport(False, f"pair {pair} not in the instance")
        if overlap <= petz.ORTHOGONALITY_TOL:
            return VerificationReport(False,
                                      f"states {pair} are orthogonal (overlap {overlap:.3e})")
        return VerificationReport(True, f"overlap |{overlap:.8f}| confirmed for {pair}")
    if verdict not in ("feasible", "infeasible_shared_atoms"):
        return VerificationReport(False, f"unknown verdict '{verdict}'")
    _exact_keys(payload, "$.payload", ["owners", "spectrum"] if verdict == "feasible"
                else ["pairs", "spectrum", "state"])
    statistic = _recorded_statistic(instance, payload)
    weights = petz.PetzInstance.from_parts(statistic, family, unital=unital).weights
    loads = weights > tols["petz_feasibility"]
    if verdict == "feasible":
        owners = payload["owners"]
        if not isinstance(owners, list) or len(owners) != len(statistic):
            _fail("$.payload.owners", f"expected {len(statistic)} labels or nulls, one per atom")
        for k, label in enumerate(owners):
            loaders = [family.labels[n] for n in np.flatnonzero(loads[:, k])]
            if label is not None and loaders != [label]:
                return VerificationReport(False, f"{label!r} is not the one loader of atom {k}")
            if label is None and unital and loaders:
                return VerificationReport(False, f"atom {k} is loaded but names no owner")
        unowned = sorted(set(family.labels) - set(owners))
        if unowned and not unital:
            return VerificationReport(False, f"state {unowned[0]!r} owns no atom")
        _, residual = petz.rhos_from_owners(family, weights, owners, unital)
        if residual > petz.RECONSTRUCTION_TOL:
            return VerificationReport(False, f"state reconstruction residual {residual:.3e} "
                                             f"exceeds {petz.RECONSTRUCTION_TOL:.0e}")
        return VerificationReport(True, f"feasible solution verified, residual {residual:.3e}")
    pairs = payload["pairs"]   # infeasible_shared_atoms
    if not isinstance(pairs, list):
        return VerificationReport(False, "payload carries no list of pairs")
    try:
        n = family.index(payload["state"])
        named = [(k, family.index(other)) for k, other in pairs]
    except (TypeError, ValueError):
        return VerificationReport(False, f"pairs {pairs} do not name atoms and states")
    for k, j in named:
        if type(k) is not int or not 0 <= k < len(statistic) or j == n \
                or not (loads[n, k] and loads[j, k]):
            return VerificationReport(False, f"atom {k!r} is not loaded by both states")
    missed = set(np.flatnonzero(loads[n]).tolist()) - {k for k, _ in named}
    if (unital and not named) or (not unital and missed):
        return VerificationReport(False, "the shared atoms do not block the state")
    return VerificationReport(True, f"shared atoms of {family.labels[n]!r} confirmed")
