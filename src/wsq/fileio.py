"""Instance files, certificate files, and independent re-verification.

Instances are JSON objects with a dimension, a map of labeled states,
and an optional statistic (dense Hermitian matrix, or explicit
eigenvalues plus projections).  Complex numbers are always two-element
[re, im] arrays.  Certificates mirror the in-memory verdict types and
carry the tool version and the tolerances that produced them, so a
verifier holding only the instance file and the certificate file can
re-check the verdict from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import __version__ as TOOL_VERSION
from . import minimality, petz, phases, spectral, sufficiency
from .linalg import RANK_TOL, hermitian_part, inner

BUNDLED_INSTANCE = "two_state_example.json"

CERTIFICATE_KINDS = ("weak_sufficiency", "existence", "minimality", "petz")


class SchemaError(ValueError):
    """Structural problem in an instance or certificate file.

    The message always starts with a path like ``$.states.phi1[0]`` so
    the offending node can be found without guessing.
    """


def _fail(path: str, problem: str):
    raise SchemaError(f"{path}: {problem}")


def _real(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"expected a real number, got {type(node).__name__}")
    value = float(node)
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


def _pair_json(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_json(v: np.ndarray) -> list:
    return [_pair_json(z) for z in v]


def _matrix_json(m: np.ndarray) -> list:
    return [_vector_json(row) for row in np.asarray(m)]


def parse_instance(text: str):
    """Parse an instance file into (statistic or None, state family)."""
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: invalid JSON: {exc}") from exc
    if not isinstance(root, dict):
        _fail("$", "expected a JSON object")
    if "dimension" not in root:
        _fail("$", "missing required key 'dimension'")
    dim = root["dimension"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        _fail("$.dimension", "expected a positive integer")
    states = root.get("states")
    if not isinstance(states, dict) or not states:
        _fail("$.states", "expected a nonempty object of labeled states")
    labels = sorted(states)
    vectors = np.array(
        [_vector(states[label], f"$.states.{label}", dim) for label in labels]
    )
    family = spectral.StateFamily(labels=tuple(labels), vectors=vectors)

    statistic = None
    node = root.get("statistic")
    if node is not None:
        if not isinstance(node, dict):
            _fail("$.statistic", "expected an object")
        if "matrix" in node:
            statistic = spectral.statistic_from_matrix(
                _matrix(node["matrix"], "$.statistic.matrix", dim)
            )
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
    return statistic, family


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
            "projections": [_matrix_json(p) for p in statistic.projections],
        }
    return json.dumps(root, indent=2, sort_keys=True)


def load_bundled_instance():
    """The instance shipped with the package: T = diag(1, -1) and two states."""
    text = resources.files("wsq").joinpath("data").joinpath(BUNDLED_INSTANCE).read_text()
    return parse_instance(text)


# ---------------------------------------------------------------------------
# Certificates


def _witness_json(witness: sufficiency.WitnessFactorization) -> dict:
    return {
        "chi": _vector_json(witness.chi),
        "functions": {
            label: [[float(ev), float(val)] for ev, val in sorted(table.items())]
            for label, table in sorted(witness.functions.items())
        },
        "versions": {
            label: _pair_json(value)
            for label, value in sorted(witness.versions.phases.items())
        },
    }


def _witness_from_json(node: dict, path: str, dim: int) -> sufficiency.WitnessFactorization:
    if not isinstance(node, dict):
        _fail(path, "expected a witness object")
    for key in ("chi", "functions", "versions"):
        if key not in node:
            _fail(path, f"missing required key '{key}'")
    chi = _vector(node["chi"], f"{path}.chi", dim)
    if not isinstance(node["functions"], dict):
        _fail(f"{path}.functions", "expected an object of per-state tables")
    functions = {}
    for label, rows in node["functions"].items():
        if not isinstance(rows, list):
            _fail(f"{path}.functions.{label}", "expected a list of [value, image] rows")
        table = {}
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != 2:
                _fail(f"{path}.functions.{label}[{i}]", "expected a [value, image] row")
            table[_real(row[0], f"{path}.functions.{label}[{i}][0]")] = _real(
                row[1], f"{path}.functions.{label}[{i}][1]"
            )
        functions[label] = table
    if not isinstance(node["versions"], dict):
        _fail(f"{path}.versions", "expected an object of [re, im] pairs")
    pairs = {
        label: _pair(value, f"{path}.versions.{label}")
        for label, value in node["versions"].items()
    }
    try:
        versions = phases.VersionAssignment(phases=pairs)
    except ValueError as exc:
        _fail(f"{path}.versions", str(exc))
    return sufficiency.WitnessFactorization(
        chi=chi, functions=functions, versions=versions
    )


def _cycle_json(cycle) -> dict:
    return {
        "constraints": [
            {
                "left": c.left,
                "right": c.right,
                "value": _pair_json(c.value),
                "atom": c.atom,
            }
            for c in cycle
        ],
        "defect": phases.cycle_defect(cycle),
    }


def _cycle_from_json(node: dict, path: str) -> tuple[phases.PhaseConstraint, ...]:
    if not isinstance(node, dict) or not isinstance(node.get("constraints"), list) \
            or not node["constraints"]:
        _fail(path, "expected a cycle object with a nonempty 'constraints' list")
    out = []
    for i, c in enumerate(node["constraints"]):
        here = f"{path}.constraints[{i}]"
        if not isinstance(c, dict):
            _fail(here, "expected a constraint object")
        atom = c.get("atom")
        if atom is not None and (isinstance(atom, bool) or not isinstance(atom, int)):
            _fail(f"{here}.atom", "expected an integer atom index or null")
        value = _pair(c.get("value"), f"{here}.value")
        if value == 0:
            _fail(f"{here}.value", "expected a nonzero [re, im] pair")
        out.append(
            phases.PhaseConstraint(
                left=str(c.get("left")),
                right=str(c.get("right")),
                value=value,
                atom=atom,
            )
        )
    return tuple(out)


def _statistic_json(statistic) -> dict:
    return {
        "eigenvalues": [float(v) for v in statistic.eigenvalues],
        "projections": [_matrix_json(p) for p in statistic.projections],
    }


def _statistic_from_json(node: dict, path: str, dim: int):
    if not isinstance(node, dict):
        _fail(path, "expected a statistic object")
    evs = node.get("eigenvalues")
    projs = node.get("projections")
    if not isinstance(evs, list) or not isinstance(projs, list):
        _fail(path, "expected 'eigenvalues' and 'projections' lists")
    eigenvalues = np.array(
        [_real(v, f"{path}.eigenvalues[{i}]") for i, v in enumerate(evs)]
    )
    projections = np.array(
        [_matrix(p, f"{path}.projections[{i}]", dim) for i, p in enumerate(projs)]
    )
    try:
        return spectral.DiscreteStatistic(eigenvalues=eigenvalues, projections=projections)
    except ValueError as exc:
        _fail(path, str(exc))


def make_certificate(kind: str, result, parameters: dict | None = None,
                     tolerances: dict | None = None) -> dict:
    """Build a certificate dictionary from a module-level result object.

    ``tolerances`` overrides individual entries of the recorded tolerance
    block, so certificates reflect the thresholds that actually applied.
    """
    if kind not in CERTIFICATE_KINDS:
        raise ValueError(f"unknown certificate kind '{kind}'")
    tol_block = {
        "angle": phases.ANGLE_TOL,
        "rank": RANK_TOL,
        "witness": 1e-7,
        "petz_feasibility": petz.FEASIBILITY_TOL,
        "petz_structural": petz.STRUCTURAL_TOL,
    }
    if tolerances:
        for key, value in tolerances.items():
            if key not in tol_block:
                raise ValueError(f"unknown tolerance key '{key}'")
            tol_block[key] = float(value)
    cert: dict = {
        "kind": kind,
        "tool_version": TOOL_VERSION,
        "tolerances": tol_block,
    }
    if parameters:
        cert["parameters"] = dict(parameters)

    if kind == "weak_sufficiency":
        verdict: sufficiency.SufficiencyVerdict = result
        if verdict.sufficient:
            cert["verdict"] = "sufficient"
            cert["payload"] = {"witness": _witness_json(verdict.witness)}
        else:
            cert["verdict"] = "not_sufficient"
            payload: dict = {}
            rank = [v for v in verdict.violations
                    if isinstance(v, sufficiency.RankViolation)]
            cycles = [v for v in verdict.violations
                      if isinstance(v, sufficiency.PhaseObstruction)]
            if rank:
                payload["rank_violations"] = [
                    {"atom": v.atom, "dimension": v.dim} for v in rank
                ]
            if cycles:
                payload["phase_cycle"] = _cycle_json(cycles[0].cycle)
            cert["payload"] = payload
    elif kind == "existence":
        if isinstance(result, sufficiency.ConstructedStatistic):
            cert["verdict"] = "constructed"
            cert["payload"] = {
                "statistic": _statistic_json(result.statistic),
                "witness": _witness_json(result.witness),
            }
        elif isinstance(result, sufficiency.NonExistence):
            cert["verdict"] = "no_statistic_exists"
            cert["payload"] = {"phase_cycle": _cycle_json(result.cycle)}
        else:
            raise ValueError(f"unsupported existence result {type(result).__name__}")
    elif kind == "minimality":
        if isinstance(result, minimality.MinimalStatistic):
            cert["verdict"] = "minimal_constructed"
            cert["payload"] = {
                "statistic": _statistic_json(result.statistic),
                "partition": [list(block) for block in result.partition],
                "classes": [list(block) for block in result.classes.classes],
            }
        elif isinstance(result, minimality.NoMinimalExists):
            cert["verdict"] = "no_minimal_exists"
            cert["payload"] = {"dead_atom": result.dead_atom}
        else:
            raise ValueError(f"unsupported minimality result {type(result).__name__}")
    elif kind == "petz":
        if isinstance(result, petz.Feasible):
            cert["verdict"] = "feasible"
            cert["payload"] = {
                "rhos": [_matrix_json(rho) for rho in result.rhos],
                "max_constraint_residual": result.max_constraint_residual,
            }
        elif isinstance(result, petz.InfeasibleOrthogonality):
            cert["verdict"] = "infeasible_orthogonality"
            cert["payload"] = {
                "pair": list(result.pair),
                "overlap": _pair_json(result.overlap),
            }
        elif isinstance(result, petz.InfeasibleSharedAtoms):
            cert["verdict"] = "infeasible_shared_atoms"
            cert["payload"] = {
                "state": result.state,
                "pairs": [[k, other] for k, other in result.pairs],
            }
        else:
            raise ValueError(f"unsupported petz result {type(result).__name__}")
    return cert


def serialize_certificate(cert: dict) -> str:
    return json.dumps(cert, indent=2, sort_keys=True)


def parse_certificate(text: str) -> dict:
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as exc:
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
    return cert


@dataclass
class VerificationReport:
    ok: bool
    detail: str


def _verify_cycle_against(constraint_pool, cycle, tol: float):
    """Check every cycle edge is a genuine instance constraint, then the defect."""
    pool = {}
    for c in constraint_pool:
        pool.setdefault((c.left, c.right, c.atom), []).append(c.value)
        pool.setdefault((c.right, c.left, c.atom), []).append(np.conj(c.value))
    for c in cycle:
        candidates = pool.get((c.left, c.right, c.atom), [])
        if not any(abs(v - c.value) <= 1e-6 * max(1.0, abs(v)) for v in candidates):
            return False, (
                f"cycle edge {c.left}->{c.right} (atom {c.atom}) "
                "is not a constraint of this instance"
            )
    defect = phases.cycle_defect(cycle)
    if defect <= tol:
        return False, f"cycle defect {defect:.3e} is below tolerance"
    return True, f"cycle of length {len(cycle)} with defect {defect:.6f}"


def verify_certificate(instance_text: str, certificate_text: str,
                       tol: float = 1e-7) -> VerificationReport:
    """Re-check a certificate using only the two files.

    Positive verdicts are re-verified directly (witness residuals, PSD
    checks, constraint residuals).  Negative verdicts are re-verified
    through their own evidence: rank violations are recomputed, cycle
    constraints are matched against the instance, overlaps are
    recomputed, and each shared atom of a petz refusal is replayed from
    the recomputed weights and the recorded petz_feasibility tolerance.
    A certificate that does not prove its claim, or cannot be read,
    yields ok=False; only a malformed instance raises.
    """
    statistic, family = parse_instance(instance_text)
    try:
        return _replay(statistic, family, parse_certificate(certificate_text), tol)
    except SchemaError as exc:
        return VerificationReport(False, f"malformed certificate: {exc}")


def _check_witness(statistic, family, payload: dict, tol: float) -> sufficiency.WitnessCheck:
    """Replay the payload's witness; SchemaError when it does not fit the instance."""
    witness = _witness_from_json(payload.get("witness"), "$.payload.witness", family.dim)
    try:
        return sufficiency.verify_witness(statistic, family, witness, tol=tol)
    except ValueError as exc:
        _fail("$.payload.witness", str(exc))


def _replay(statistic, family, cert: dict, tol: float) -> VerificationReport:
    """verify_certificate on a parsed instance; SchemaError means an unreadable payload."""
    kind, verdict, payload = cert["kind"], cert["verdict"], cert["payload"]

    if kind == "weak_sufficiency":
        if statistic is None:
            return VerificationReport(False, "instance file carries no statistic")
        if verdict == "sufficient":
            check = _check_witness(statistic, family, payload, tol)
            if not check.ok:
                return VerificationReport(
                    False, f"witness residual {check.max_residual:.3e} exceeds {tol:.1e}"
                )
            return VerificationReport(
                True, f"witness verified, max residual {check.max_residual:.3e}"
            )
        if verdict == "not_sufficient":
            analysis = sufficiency.analyze(statistic, family)
            if "rank_violations" in payload:
                items = payload["rank_violations"]
                if not isinstance(items, list) or not items:
                    return VerificationReport(False, "rank_violations is not a nonempty list")
                for item in items:
                    if not isinstance(item, dict):
                        return VerificationReport(False, f"bad rank violation {item!r}")
                    k = item.get("atom")
                    if not isinstance(k, int) or not 0 <= k < len(statistic):
                        return VerificationReport(False, f"bad atom index {k!r}")
                    rank = analysis.ranks[k]
                    if rank != item.get("dimension") or rank <= 1:
                        return VerificationReport(
                            False,
                            f"atom {k} has component rank {rank}, "
                            f"certificate claims {item.get('dimension')}",
                        )
                return VerificationReport(True, "rank violations confirmed")
            if "phase_cycle" in payload:
                cycle = _cycle_from_json(payload["phase_cycle"], "$.payload.phase_cycle")
                ok, detail = _verify_cycle_against(
                    analysis.constraints, cycle, phases.ANGLE_TOL)
                return VerificationReport(ok, detail)
            return VerificationReport(False, "negative verdict carries no evidence")
        return VerificationReport(False, f"unknown verdict '{verdict}'")

    if kind == "existence":
        if verdict == "constructed":
            built = _statistic_from_json(
                payload.get("statistic"), "$.payload.statistic", family.dim
            )
            check = _check_witness(built, family, payload, tol)
            if not check.ok:
                return VerificationReport(
                    False, f"witness residual {check.max_residual:.3e} exceeds {tol:.1e}"
                )
            return VerificationReport(
                True, f"constructed statistic verified, residual {check.max_residual:.3e}"
            )
        if verdict == "no_statistic_exists":
            cycle = _cycle_from_json(payload.get("phase_cycle"), "$.payload.phase_cycle")
            pool = sufficiency.family_constraints(family)
            ok, detail = _verify_cycle_against(pool, cycle, phases.ANGLE_TOL)
            return VerificationReport(ok, detail)
        return VerificationReport(False, f"unknown verdict '{verdict}'")

    if kind == "minimality":
        if statistic is None:
            return VerificationReport(False, "instance file carries no statistic")
        if verdict == "minimal_constructed":
            partition = payload.get("partition")
            if not isinstance(partition, list):
                return VerificationReport(False, "payload carries no partition")
            try:
                minimal = minimality.minimal_statistic(statistic, family)
            except ValueError as exc:
                return VerificationReport(False, f"no minimal statistic to confirm: {exc}")
            if isinstance(minimal, minimality.NoMinimalExists):
                return VerificationReport(False, "re-derivation found no minimal statistic")
            derived = [list(block) for block in minimal.partition]
            if derived != partition:
                return VerificationReport(
                    False, f"re-derived partition {derived} != certified {partition}"
                )
            return VerificationReport(True, f"minimal partition {partition} confirmed")
        if verdict == "no_minimal_exists":
            k = payload.get("dead_atom")
            if not isinstance(k, int) or not 0 <= k < len(statistic):
                return VerificationReport(False, f"bad dead atom index {k!r}")
            weights = spectral.project_states(statistic, family).weights
            heaviest = float(weights[:, k].max())
            if heaviest > RANK_TOL:
                return VerificationReport(
                    False, f"atom {k} carries weight {heaviest:.3e}, not dead"
                )
            return VerificationReport(True, f"atom {k} confirmed dead")
        return VerificationReport(False, f"unknown verdict '{verdict}'")

    # kind == "petz"
    if statistic is None:
        return VerificationReport(False, "instance file carries no statistic")
    params = cert.get("parameters", {})
    unital = bool(params.get("unital", True)) if isinstance(params, dict) else True
    instance = petz.PetzInstance.from_parts(statistic, family, unital=unital)
    if verdict == "feasible":
        rho_nodes = payload.get("rhos")
        if not isinstance(rho_nodes, list) or len(rho_nodes) != len(statistic):
            return VerificationReport(False, "payload carries wrong number of rhos")
        rhos = [
            _matrix(node, f"$.payload.rhos[{k}]", family.dim)
            for k, node in enumerate(rho_nodes)
        ]
        worst = 0.0
        for n in range(len(family)):
            mix = sum(instance.weights[n, k] * rhos[k] for k in range(len(statistic)))
            target = np.outer(family.vectors[n], family.vectors[n].conj())
            worst = max(worst, float(np.abs(mix - target).max()))
        if worst > 1e-6:
            return VerificationReport(
                False, f"state reconstruction residual {worst:.3e} exceeds 1e-06"
            )
        for k, rho in enumerate(rhos):
            # a Cholesky factor of rho + 1e-8 I exists iff no eigenvalue of
            # rho lies below -1e-8; no eigensolver is needed for that
            try:
                np.linalg.cholesky(hermitian_part(rho) + 1e-8 * np.eye(family.dim))
            except np.linalg.LinAlgError:
                return VerificationReport(
                    False, f"rho[{k}] has an eigenvalue below -1e-08"
                )
            if unital and abs(np.trace(rho).real - 1.0) > 1e-6:
                return VerificationReport(
                    False, f"rho[{k}] has trace {np.trace(rho).real:.8f}, expected 1"
                )
        return VerificationReport(True, f"feasible solution verified, residual {worst:.3e}")
    if verdict == "infeasible_orthogonality":
        pair = payload.get("pair")
        if not isinstance(pair, list) or len(pair) != 2:
            return VerificationReport(False, "payload carries no state pair")
        try:
            u = family.vector(pair[0])
            v = family.vector(pair[1])
        except ValueError:
            return VerificationReport(False, f"pair {pair} not in the instance")
        overlap = abs(inner(u, v))
        if overlap <= petz.ORTHOGONALITY_TOL:
            return VerificationReport(
                False, f"states {pair} are orthogonal (overlap {overlap:.3e})"
            )
        return VerificationReport(True, f"overlap |{overlap:.8f}| confirmed for {pair}")
    if verdict == "infeasible_shared_atoms":
        tols, pairs = cert.get("tolerances"), payload.get("pairs")
        tol = tols.get("petz_feasibility") if isinstance(tols, dict) else None
        if not isinstance(tol, float) or not tol >= 0 or not isinstance(pairs, list):
            return VerificationReport(False, "payload or petz_feasibility tolerance missing")
        loads = instance.weights > tol
        try:
            n = family.index(payload.get("state"))
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
    return VerificationReport(False, f"unknown verdict '{verdict}'")
