import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsq import cli, fileio, harness, linalg
from wsq.cli import run_cli
from wsq.fileio import (
    load_bundled_instance,
    make_certificate,
    parse_certificate,
    parse_instance,
    serialize_certificate,
    serialize_instance,
    verify_certificate,
)
from wsq.spectral import StateFamily
from wsq.sufficiency import check_weak_sufficiency


@pytest.fixture
def bundled_path(tmp_path):
    statistic, family = load_bundled_instance()
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(statistic, family))
    return path


@pytest.fixture
def obstructed_path(tmp_path):
    s = 1.0 / math.sqrt(2.0)
    family = StateFamily(
        labels=("a", "b", "c"),
        vectors=np.array([[1.0, 0.0], [s, s], [s, 1j * s]], dtype=complex),
    )
    path = tmp_path / "obstructed.json"
    path.write_text(serialize_instance(None, family))
    return path


def test_check_affirmative(bundled_path, capsys):
    code = run_cli(["check", "--input", str(bundled_path)])
    out = capsys.readouterr()
    assert code == 0
    cert = parse_certificate(out.out)
    assert cert["kind"] == "weak_sufficiency"
    assert cert["verdict"] == "sufficient"
    report = verify_certificate(bundled_path.read_text(), out.out)
    assert report.ok, report.detail


def test_check_negative_exit_code(tmp_path, capsys):
    s = 1.0 / math.sqrt(2.0)
    family = StateFamily(
        labels=("u", "v"),
        vectors=np.array([[s, s], [s, 1j * s]], dtype=complex),
    )
    from wsq.spectral import statistic_from_matrix
    statistic = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
    path = tmp_path / "bad.json"
    path.write_text(serialize_instance(statistic, family))
    code = run_cli(["check", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 1
    cert = parse_certificate(out.out)
    assert cert["verdict"] == "not_sufficient"


def test_petz_negative_on_bundled_instance(bundled_path, capsys):
    code = run_cli(["petz", "--input", str(bundled_path)])
    out = capsys.readouterr()
    assert code == 1
    cert = parse_certificate(out.out)
    assert cert["verdict"] == "infeasible_orthogonality"
    assert cert["payload"] == {"pair": ["phi1", "phi2"]}
    overlap = float(out.err.split("overlap by ")[1])
    assert abs(overlap - 1.0 / math.sqrt(2.0)) <= 1e-8


def test_construct_both_ways(tmp_path, obstructed_path, capsys):
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(3, 4))
    vectors /= np.linalg.norm(vectors, axis=1)[:, None]
    family = StateFamily(labels=("a", "b", "c"), vectors=vectors.astype(complex))
    good = tmp_path / "good.json"
    good.write_text(serialize_instance(None, family))

    code = run_cli(["construct", "--input", str(good)])
    out = capsys.readouterr()
    assert code == 0
    assert parse_certificate(out.out)["verdict"] == "constructed"

    code = run_cli(["construct", "--input", str(obstructed_path)])
    out = capsys.readouterr()
    assert code == 1
    assert parse_certificate(out.out)["verdict"] == "no_statistic_exists"


def test_minimal_subcommand(bundled_path, capsys):
    code = run_cli(["minimal", "--input", str(bundled_path)])
    out = capsys.readouterr()
    assert code == 0
    cert = parse_certificate(out.out)
    assert cert["verdict"] == "minimal_constructed"
    assert cert["payload"]["partition"] == [[0], [1]]


def insufficient_path(tmp_path, kind):
    """T = diag(1, 1, 2) with states e0, e1 (atom 0 holds both at rank 2),
    or T = diag(1, -1) with (1, 1)/sqrt2 and (1, i)/sqrt2 (no dressing
    makes both atoms' overlaps real)."""
    from wsq.spectral import statistic_from_matrix
    s = 1.0 / math.sqrt(2.0)
    if kind == "rank":
        statistic = statistic_from_matrix(np.diag([1.0, 1.0, 2.0]).astype(complex))
        vectors = np.eye(3, dtype=complex)[:2]
    else:
        statistic = statistic_from_matrix(np.diag([1.0, -1.0]).astype(complex))
        vectors = np.array([[s, s], [s, 1j * s]], dtype=complex)
    path = tmp_path / f"{kind}.json"
    path.write_text(serialize_instance(statistic, StateFamily(("u", "v"), vectors)))
    return path


@pytest.mark.parametrize("kind, payload", [("rank", "rank_violations"),
                                           ("cycle", "phase_cycle")])
def test_minimal_on_an_insufficient_statistic_prints_checks_certificate(
        tmp_path, capsys, kind, payload):
    path = insufficient_path(tmp_path, kind)
    assert run_cli(["check", "--input", str(path)]) == 1
    checked = capsys.readouterr().out
    assert run_cli(["minimal", "--input", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == checked
    assert out.err.startswith("not sufficient (") and out.err.count("\n") == 1
    cert = parse_certificate(out.out)
    assert (cert["kind"], cert["verdict"]) == ("weak_sufficiency", "not_sufficient")
    assert list(cert["payload"]) == [payload, "spectrum"]
    report = verify_certificate(path.read_text(), out.out)
    assert report.ok, report.detail


def test_oracle_subcommand(bundled_path, capsys):
    code = run_cli(["oracle", "--input", str(bundled_path)])
    out = capsys.readouterr()
    assert code == 0
    report = json.loads(out.out)
    assert report["checker"] is True
    assert report["brute_force"] is True
    assert report["agreement"] is True


def test_selftest_subcommand(capsys):
    code = run_cli(["selftest", "--count", "4", "--seed", "1"])
    out = capsys.readouterr()
    assert code == 0
    assert "PASS" in out.out
    assert "FAIL" not in out.out


@pytest.mark.parametrize("count", ["0", "-3"])
def test_selftest_refuses_a_count_below_one(count, capsys):
    code = run_cli(["selftest", "--count", count])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: --count must be at least 1, not {count}\n"


def test_a_state_the_reader_accepts_is_answered_by_every_command(tmp_path, capsys):
    # norm 1 + 0.9e-8 lies within the reader's unit-norm tolerance, so
    # no derived table may refuse it
    from wsq.spectral import statistic_from_matrix
    family = StateFamily(labels=("a", "b"),
                         vectors=np.array([[1.0 + 0.9e-8, 0.0], [0.0, 1.0]], dtype=complex))
    path = tmp_path / "near_unit.json"
    path.write_text(serialize_instance(statistic_from_matrix(np.diag([1.0, 2.0])), family))
    for command in ("check", "construct", "minimal", "petz"):
        code = run_cli([command, "--input", str(path)])
        out = capsys.readouterr()
        assert code == 0, (command, out.err)
        report = verify_certificate(path.read_text(), out.out)
        assert report.ok, (command, report.detail)


def test_petz_shared_atom_refusal_is_a_proof(tmp_path, capsys):
    # two basis states against a single atom: orthogonal, yet refused,
    # with a certificate the verifier replays from the instance alone
    from wsq.spectral import statistic_from_matrix
    statistic = statistic_from_matrix(3.0 * np.eye(2, dtype=complex))
    family = StateFamily(labels=("e1", "e2"), vectors=np.eye(2, dtype=complex))
    path = tmp_path / "shared.json"
    path.write_text(serialize_instance(statistic, family))
    for flags in ([], ["--non-unital"]):
        code = run_cli(["petz", "--input", str(path)] + flags)
        out = capsys.readouterr()
        assert code == 1
        cert = parse_certificate(out.out)
        assert cert["verdict"] == "infeasible_shared_atoms"
        assert cert["parameters"] == {"unital": not flags}
        assert verify_certificate(path.read_text(), out.out).ok
        assert "'e1' shares atoms 0 (with 'e2')" in out.err


def test_removed_solver_flags_are_errors(bundled_path, capsys):
    for argv in (["petz", "--max-iters", "10"], ["check", "--statistic", "from-file"]):
        code = run_cli(argv + ["--input", str(bundled_path)])
        out = capsys.readouterr()
        assert code == 2
        assert "unrecognized arguments" in out.err


def test_malformed_input_is_an_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    code = run_cli(["check", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert "error:" in out.err


def test_integer_beyond_the_float_range_is_an_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"dimension": 1, "states": {"x": [[1.0, %d]]}}' % 10**400)
    code = run_cli(["check", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: $.states.x[0][1]: ")


def test_missing_file_is_an_error(tmp_path, capsys):
    code = run_cli(["check", "--input", str(tmp_path / "absent.json")])
    out = capsys.readouterr()
    assert code == 2
    assert "error:" in out.err


def test_unknown_flag_is_an_error(bundled_path, capsys):
    code = run_cli(["check", "--input", str(bundled_path), "--frobnicate"])
    out = capsys.readouterr()
    assert code == 2
    assert "usage" in out.err.lower()


def test_missing_subcommand_is_an_error(capsys):
    code = run_cli([])
    capsys.readouterr()
    assert code == 2


def test_parser_is_built_once_per_process(bundled_path, capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(["check", "--input", str(bundled_path)]) == 0
    assert run_cli(["minimal", "--input", str(bundled_path)]) == 0
    assert built.count("wsq") == 1
    # the reused parser still turns usage errors into exit code 2
    for argv in ([], ["check"], ["check", "--input", str(bundled_path), "--frobnicate"]):
        capsys.readouterr()
        assert run_cli(argv) == 2
        assert "usage" in capsys.readouterr().err.lower()
    assert run_cli(["check", "--input", str(bundled_path)]) == 0
    assert built.count("wsq") == 1


def test_tol_flag_is_recorded(bundled_path, capsys):
    cases = [
        ("check", 0, {"rank": 1e-10, "angle": 1e-6, "witness": 1e-10}),
        ("construct", 0, {"rank": 1e-10, "angle": 1e-6, "witness": 1e-10}),
        ("minimal", 0, {"rank": 1e-10, "angle": 1e-6, "witness": 1e-10}),
        ("petz", 1, {"petz_feasibility": 1e-10}),
    ]
    for command, code, block in cases:
        capsys.readouterr()
        assert run_cli([command, "--input", str(bundled_path), "--tol", "1e-10"]) == code, command
        out = capsys.readouterr().out
        assert parse_certificate(out)["tolerances"] == block, command
        assert verify_certificate(bundled_path.read_text(), out).ok, command


def test_oracle_takes_no_tol(bundled_path, capsys):
    code = run_cli(["oracle", "--input", str(bundled_path), "--tol", "5"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "usage" in out.err.lower() and "unrecognized arguments: --tol 5" in out.err


def test_certificates_go_to_stdout_diagnostics_to_stderr(bundled_path, capsys):
    code = run_cli(["check", "--input", str(bundled_path)])
    out = capsys.readouterr()
    assert code == 0
    parse_certificate(out.out)  # stdout is pure certificate JSON
    assert "sufficient" in out.err  # human-readable verdict on stderr


def test_module_entry_point(bundled_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wsq", "check", "--input", str(bundled_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_certificate(proc.stdout)["verdict"] == "sufficient"



# ------------------------------------- dense-matrix instances: work and errors


def dense_instance(path, matrix, states):
    """An instance file whose statistic is a dense matrix, as users write them."""
    def pairs(v):
        return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]

    path.write_text(json.dumps({
        "dimension": len(matrix),
        "states": {label: pairs(v) for label, v in states.items()},
        "statistic": {"matrix": [pairs(row) for row in matrix]},
    }))
    return path


def fourier_instance(tmp_path):
    """T = F diag(1, 2, 3) F^H, F the 3-point Fourier matrix.  The states
    F e0 and F (e0 + e1) / sqrt2 overlap, T is weakly sufficient, and its
    last atom carries no state."""
    f = np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3.0)
    matrix = f @ np.diag([1.0, 2.0, 3.0]) @ f.conj().T
    return dense_instance(tmp_path / "fourier.json", matrix,
                          {"a": f[:, 0], "b": (f[:, 0] + f[:, 1]) / np.sqrt(2.0)})


def explicit_fourier_instance(tmp_path):
    """The same instance with T written as eigenvalues and projections."""
    path = fourier_instance(tmp_path)
    path.write_text(serialize_instance(*parse_instance(path.read_text())))
    return path


def count_kernel_runs(monkeypatch):
    """Record (shape, eigenvectors built) for every matrix the eigen kernel
    solves, on the eigenpair path and on the values-only one alike."""
    calls = []
    original = linalg._eigen

    def counting(a, *args, **kwargs):
        w, v = original(a, *args, **kwargs)
        calls.append((a.shape, v is not None))
        return w, v

    monkeypatch.setattr(linalg, "_eigen", counting)
    return calls


def statistic_solves(path, command, runs, capsys):
    """Exit code, then the 3x3 kernel runs (decompositions of T) of the
    command and of replaying its certificate."""
    capsys.readouterr()
    code = run_cli([command, "--input", str(path)])
    certificate = capsys.readouterr().out
    in_cli = sum(shape == (3, 3) for shape, _ in runs)
    report = verify_certificate(path.read_text(), certificate)
    assert report.ok, report.detail
    return code, in_cli, sum(shape == (3, 3) for shape, _ in runs) - in_cli


@pytest.mark.parametrize("command, code, cli_solves, verifier_solves", [
    ("construct", 0, 0, 0),     # the family alone decides existence
    ("petz", 1, 0, 0),          # the states overlap: refused before T is read
    ("check", 0, 1, 0),         # the verifier checks the recorded spectrum instead
    ("minimal", 1, 1, 0),       # the dead atom is read from T's weights
])
def test_dense_statistic_is_decomposed_only_where_read(
        tmp_path, monkeypatch, capsys, command, code, cli_solves, verifier_solves):
    path = fourier_instance(tmp_path)
    runs = count_kernel_runs(monkeypatch)
    assert statistic_solves(path, command, runs, capsys) == \
        (code, cli_solves, verifier_solves)
    # T's eigenvalues are well apart: its atoms are covariants of values-only QL
    assert not any(vectors for _, vectors in runs)


@pytest.mark.parametrize("command, code", [
    ("construct", 0), ("petz", 1), ("check", 0), ("minimal", 1),
])
def test_explicit_statistic_is_never_decomposed(tmp_path, monkeypatch, capsys,
                                                command, code):
    path = explicit_fourier_instance(tmp_path)
    runs = count_kernel_runs(monkeypatch)
    assert statistic_solves(path, command, runs, capsys) == (code, 0, 0)


def test_dense_matrix_is_checked_once_per_read_and_once_per_solve(
        tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(32)
    basis, _ = np.linalg.qr(rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    blocks = np.split(basis, 4, axis=1)
    matrix = sum(k * (b @ b.conj().T) for k, b in enumerate(blocks))
    path = dense_instance(tmp_path / "dense.json", matrix,
                          {"a": basis[:, 0], "b": basis[:, 8]})
    checked = []
    original = linalg.as_hermitian

    def counting(m, *args, **kwargs):
        if np.shape(m) == matrix.shape and np.allclose(m, matrix):
            checked.append(m)
        return original(m, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "wsq" or name.startswith("wsq."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    capsys.readouterr()
    assert run_cli(["check", "--input", str(path)]) == 0
    report = verify_certificate(path.read_text(), capsys.readouterr().out)
    assert report.ok, report.detail
    # at read time on both sides, and in the command line's hermitian_eig: the
    # verifier builds the atoms from the recorded spectrum, with no eigensolve
    assert len(checked) == 3


def test_non_hermitian_matrix_is_refused_at_read_time(tmp_path, capsys):
    path = dense_instance(tmp_path / "skew.json", np.array([[1.0, 1.0], [0.0, 2.0]]),
                          {"a": [1.0, 0.0], "b": [0.0, 1.0]})
    message = ("error: matrix is not hermitian: asymmetry 1.000e+00 exceeds "
               "1.0e-10 relative to scale 2.000e+00\n")
    for command in ("check", "construct", "minimal", "petz", "oracle"):
        capsys.readouterr()
        assert run_cli([command, "--input", str(path)]) == 2, command
        assert capsys.readouterr().err == message, command
    with pytest.raises(ValueError, match="not hermitian"):
        verify_certificate(path.read_text(), "{}")


def test_undecomposable_matrix_fails_only_the_questions_that_read_it(tmp_path, capsys):
    # diag(0, 1e-13): two eigenvalues too close to be two atoms, too far
    # apart to be grouped into one; decomposing it raises
    s = 1.0 / math.sqrt(2.0)
    matrix = np.diag([0.0, 1e-13])
    message = "error: eigenvalues must be strictly ascending and separated\n"
    orthogonal = dense_instance(tmp_path / "orthogonal.json", matrix,
                                {"a": [1.0, 0.0], "b": [0.0, 1.0]})
    overlapping = dense_instance(tmp_path / "overlapping.json", matrix,
                                 {"a": [1.0, 0.0], "b": [s, s]})
    for command in ("check", "minimal", "petz", "oracle"):
        capsys.readouterr()
        assert run_cli([command, "--input", str(orthogonal)]) == 2, command
        assert capsys.readouterr().err == message, command

    # construct reads only the family, and so does a petz overlap refusal
    for command, code in (("construct", 0), ("petz", 1)):
        capsys.readouterr()
        assert run_cli([command, "--input", str(overlapping)]) == code, command
        certificate = capsys.readouterr().out
        report = verify_certificate(overlapping.read_text(), certificate)
        assert report.ok, report.detail

    # a verdict that rests on the statistic still raises in the verifier
    bundled, family = load_bundled_instance()
    cert = serialize_certificate(
        make_certificate("weak_sufficiency", check_weak_sufficiency(bundled, family)))
    with pytest.raises(ValueError, match="strictly ascending"):
        verify_certificate(orthogonal.read_text(), cert)


# ------------------------------------------- tolerances: range and replay


def diagonal_instance(path, diagonal, states):
    """An instance file with T = diag(diagonal) and real states a, b, ..."""
    labels = "abcdefgh"[:len(states)]
    return dense_instance(path, np.diag(diagonal), dict(zip(labels, states)))


def near_parallel_path(tmp_path):
    """T = diag(1, 1, 2) and states e0, (e0 + 1e-5 e1)/|.|: at the default
    rank tolerance one atom holds both at rank 1, but the witness leaves
    the 1e-5 component out."""
    b = np.array([1.0, 1e-5, 0.0]) / math.hypot(1.0, 1e-5)
    return diagonal_instance(tmp_path / "near.json", [1.0, 1.0, 2.0], [[1.0, 0.0, 0.0], b])


def reproduction_paths(tmp_path):
    b = [0.3, 0.303, math.sqrt(1.0 - 0.09 - 0.303 ** 2)]
    return {
        "A": diagonal_instance(tmp_path / "A.json", [1.0, 1.0, 2.0],
                               [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]]),
        "B": diagonal_instance(tmp_path / "B.json", [1.0, 2.0, 3.0],
                               [[0.6, 0.6, math.sqrt(0.28)], b]),
        "C": near_parallel_path(tmp_path),
    }


def run_and_verify(path, argv, capsys):
    """Exit code and certificate of one command; an emitted certificate
    (exit 0 or 1) must pass verify_certificate, and exit 2 prints none."""
    capsys.readouterr()
    code = run_cli(argv + ["--input", str(path)])
    out = capsys.readouterr()
    assert "Traceback" not in out.err, (argv, out.err)
    if code == 2:
        assert out.out == "", argv
        return code, None
    report = verify_certificate(path.read_text(), out.out)
    assert report.ok, (path.name, argv, report.detail)
    return code, parse_certificate(out.out)


def test_check_refuses_a_witness_that_fails_its_recorded_tolerance(tmp_path, capsys):
    path = near_parallel_path(tmp_path)
    code = run_cli(["check", "--input", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == ("error: the decision passed but its witness residual "
                       "1.000e-05 exceeds 1.0e-07\n")


def run_verify_cli(path, cert, tmp_path, capsys):
    """wsq verify on a certificate written to a file: its exit code."""
    certificate = tmp_path / f"{path.stem}.cert.json"
    certificate.write_text(serialize_certificate(cert))
    code = run_cli(["verify", "--input", str(path), "--certificate", str(certificate)])
    capsys.readouterr()
    return code


def test_check_certifies_an_atom_loaded_below_the_rank_tolerance(tmp_path, capsys):
    # T = diag(1, 2) and real states (sqrt(1 - w), +-sqrt(w)), w = 5e-9: atom 1
    # is not active, but the witness covers it; left out, it would cost each
    # state sqrt(w), 7.071e-05
    w = 5e-9
    a, b = math.sqrt(1.0 - w), math.sqrt(w)
    path = diagonal_instance(tmp_path / "light.json", [1.0, 2.0], [[a, b], [a, -b]])
    code, cert = run_and_verify(path, ["check"], capsys)
    assert code == 0 and cert["verdict"] == "sufficient"
    assert run_verify_cli(path, cert, tmp_path, capsys) == 0


@pytest.mark.parametrize("diagonal, phi, partition", [
    ([1.0, 2.0, 3.0], np.array([1.0, 0.0, 0.0]), [[0, 1, 2]]),   # atoms 1 and 2 dead
    ([1.0, 1.0, 2.0], np.array([0.6, 0.0, 0.8]), [[0, 1]]),      # every atom live
], ids=["dead_atoms", "all_live"])
def test_minimal_of_a_one_dimensional_family_is_the_constant_statistic(
        tmp_path, capsys, diagonal, phi, partition):
    path = dense_instance(tmp_path / "line.json", np.diag(diagonal),
                          {"a": phi, "b": 1j * phi, "c": -phi})
    code, cert = run_and_verify(path, ["minimal"], capsys)
    assert code == 0 and cert["verdict"] == "minimal_constructed"
    assert cert["payload"]["partition"] == partition
    assert cert["payload"]["separations"] == []
    assert run_verify_cli(path, cert, tmp_path, capsys) == 0


def test_minimal_refuses_a_witness_that_fails_its_recorded_tolerance(tmp_path, capsys):
    path = reproduction_paths(tmp_path)["B"]
    code = run_cli(["minimal", "--input", str(path), "--tol", "1e-4"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: the decision passed but its witness residual ")
    assert out.err.endswith(" exceeds 1.0e-04\n")


def test_reproductions_verify_or_exit_2(tmp_path, capsys):
    paths = reproduction_paths(tmp_path)
    for command in ("check", "construct"):
        for tol in ("1", "nan", "-1"):
            assert run_and_verify(paths["A"], [command, "--tol", tol], capsys)[0] == 2
    code, cert = run_and_verify(paths["B"], ["minimal"], capsys)
    assert code == 0 and cert["payload"]["partition"] == [[0], [1], [2]]
    # at 1e-4 atoms 0 and 1 merge, but the merge's witness misses by about 2e-3
    assert run_and_verify(paths["B"], ["minimal", "--tol", "1e-4"], capsys)[0] == 2
    code, cert = run_and_verify(paths["C"], ["check", "--tol", "1e-12"], capsys)
    assert code == 1
    assert cert["payload"] == {"rank_violations": [{"atom": 0, "states": ["a", "b"]}],
                               "spectrum": [1.0, 2.0]}


def tolerance_band_path(tmp_path, theta_squared):
    """T = diag(1, 2, 3, 4) and two real states whose coordinate pairs lie
    at angles theta, 0 and 2 theta on atoms 0-2 and at (0, 1) on atom 3."""
    theta = math.sqrt(theta_squared)
    pairs = [(math.cos(x), math.sin(x)) for x in (theta, 0.0, 2.0 * theta)] + [(0.0, 1.0)]
    a, b = (np.array(coords) / np.linalg.norm(coords) for coords in zip(*pairs))
    return diagonal_instance(tmp_path / "band.json", [1.0, 2.0, 3.0, 4.0], [a, b])


def test_minimal_in_the_rank_tolerance_band_verifies_or_exits_2(tmp_path, capsys):
    # at theta^2 = 3e-9 no atom is spread, and the block sum of atoms 0-2
    # passes the rank test too, so minimal may merge them; that merge leaves
    # a witness residual of about the square root of the block sum's smaller
    # Gram eigenvalue, 7.7e-5, far above WITNESS_TOL
    path = tolerance_band_path(tmp_path, 3e-9)
    code, cert = run_and_verify(path, ["check"], capsys)
    assert code == 0 and cert["verdict"] == "sufficient"
    code, cert = run_and_verify(path, ["minimal"], capsys)
    assert code in (0, 2)
    if code == 0:
        assert run_verify_cli(path, cert, tmp_path, capsys) == 0


def near_threshold_triple_path(tmp_path, delta):
    """States e0, (e0 + e1)/sqrt2 and (e0 + (2 + i delta) e1)/|.|, no
    statistic.  The cycle a -> b -> c has defect about delta/3, so a
    statistic exists for delta below 3e-6; the statistic built for it
    keeps two directions, and its witness misses by about delta/(2 sqrt2)."""
    s = 1.0 / math.sqrt(2.0)
    c = np.array([1.0, 2.0 + 1j * delta]) / math.sqrt(5.0 + delta ** 2)
    family = StateFamily(labels=("a", "b", "c"),
                         vectors=np.array([[1.0, 0.0], [s, s], c], dtype=complex))
    path = tmp_path / f"triple_{delta!r}.json"
    path.write_text(serialize_instance(None, family))
    return path


def test_construct_near_the_angle_threshold_keeps_its_exit_contract(tmp_path, capsys):
    paths = {delta: near_threshold_triple_path(tmp_path, delta)
             for delta in (2.5e-6, 2.9e-6, 4e-6)}
    assert run_and_verify(paths[2.5e-6], ["construct"], capsys)[0] == 2
    assert run_and_verify(paths[2.9e-6], ["construct"], capsys)[0] == 2
    code, cert = run_and_verify(paths[2.5e-6], ["construct", "--tol", "1e-3"], capsys)
    assert code == 0 and cert["verdict"] == "constructed"
    code, cert = run_and_verify(paths[4e-6], ["construct"], capsys)
    assert code == 1 and cert["verdict"] == "no_statistic_exists"


def test_construct_near_a_real_plane_verifies_or_exits_2(tmp_path, capsys):
    # three states in a random real plane of C^3 plus complex noise eps,
    # log-uniform in [1e-8, 1e-5]: phase defects straddle ANGLE_TOL
    rng = np.random.default_rng(0)
    path = tmp_path / "plane.json"
    codes = []
    for _ in range(300):
        plane, _ = np.linalg.qr(rng.normal(size=(3, 2)))
        eps = 10.0 ** rng.uniform(-8.0, -5.0)
        noise = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        vectors = rng.normal(size=(3, 2)) @ plane.T + eps * noise
        vectors /= np.linalg.norm(vectors, axis=1)[:, None]
        path.write_text(serialize_instance(None, StateFamily(("a", "b", "c"), vectors)))
        codes.append(run_and_verify(path, ["construct"], capsys)[0])
    assert set(codes) == {0, 1, 2}


def test_unconverged_decomposition_exits_2(tmp_path, monkeypatch, capsys):
    path = fourier_instance(tmp_path)
    monkeypatch.setattr(linalg, "QL_SWEEPS", 0)
    capsys.readouterr()
    assert run_cli(["check", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: eigenvalue 0 not split off after 0 QL sweeps\n"


def light_atom_path(tmp_path):
    """T = P + 2 (I - P), P the projector onto (cos t, sin t) with
    sin^2 t = 5e-4, and states e0, e1: each state puts weight 5e-4 on the
    other's atom.  At --tol 1e-3 petz ignores that weight, and the
    solution it builds rebuilds each state only to within 5e-4."""
    u = np.array([math.sqrt(1.0 - 5e-4), math.sqrt(5e-4)])
    matrix = 2.0 * np.eye(2) - np.outer(u, u)
    return dense_instance(tmp_path / "light.json", matrix, {"e0": [1.0, 0.0], "e1": [0.0, 1.0]})


def sweep_paths(tmp_path):
    paths = dict(reproduction_paths(tmp_path), bundled=tmp_path / "bundled.json",
                 light=light_atom_path(tmp_path))
    paths["bundled"].write_text(serialize_instance(*load_bundled_instance()))
    for flavor in harness.FLAVORS:
        for seed in range(2):
            spec = harness.GeneratorSpec(dim=4, n_states=3, flavor=flavor, seed=seed)
            path = tmp_path / f"{flavor}{seed}.json"
            path.write_text(serialize_instance(*harness.generate(spec)))
            paths[path.stem] = path
    return paths


def test_certificates_verify_across_the_tolerance_range(tmp_path, capsys):
    low, high = fileio.TOL_RANGE
    grid = np.geomspace(low, high, 12)
    assert grid[0] == low and math.isclose(grid[-1], high)
    codes = set()
    for path in sweep_paths(tmp_path).values():
        for command in ("check", "construct", "minimal", "petz"):
            for tol in grid:
                codes.add(run_and_verify(path, [command, "--tol", repr(float(tol))], capsys)[0])
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "1", "1e-15", "0.002"])
def test_tolerance_outside_the_range_exits_2(bundled_path, capsys, tol):
    for command in ("check", "construct", "minimal", "petz"):
        capsys.readouterr()
        assert run_cli([command, "--input", str(bundled_path), "--tol", tol]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: tolerance must be a number in [1e-14, 0.001]")


# ------------------------------------------------- one dimension limit, wsq verify


def family_only_text(d):
    states = {"a": [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1),
              "b": [[0.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * (d - 2)}
    return {"dimension": d, "states": states}


def identity_instance_text(d):
    """One atom, the identity, written as eigenvalues and projections."""
    root = family_only_text(d)
    root["statistic"] = {"eigenvalues": [1.0], "projections": [
        [[[float(i == j), 0.0] for j in range(d)] for i in range(d)]]}
    return json.dumps(root)


@pytest.mark.parametrize("encoding", ["explicit", "family_only"])
def test_a_dimension_above_the_limit_exits_2_on_every_command(tmp_path, capsys, encoding):
    d = linalg.MAX_DIM + 1
    path = tmp_path / "big.json"
    path.write_text(identity_instance_text(d) if encoding == "explicit"
                    else json.dumps(family_only_text(d)))
    certificate = tmp_path / "certificate.json"
    certificate.write_text("{}")
    message = f"error: $.dimension: dimension {d} exceeds the desk-scale limit {linalg.MAX_DIM}\n"
    for command in ("check", "construct", "minimal", "petz", "oracle", "verify"):
        argv = [command, "--input", str(path)]
        capsys.readouterr()
        assert run_cli(argv + (["--certificate", str(certificate)]
                               if command == "verify" else [])) == 2, command
        assert capsys.readouterr().err == message, command


def test_the_dimension_limit_still_reads(tmp_path, capsys):
    d = linalg.MAX_DIM
    instance = fileio.read_instance(identity_instance_text(d))
    assert instance.statistic.dim == d
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(family_only_text(d)))
    assert run_cli(["construct", "--input", str(path)]) == 0
    assert verify_certificate(path.read_text(), capsys.readouterr().out).ok


DEMO = Path(__file__).resolve().parent.parent / "demos" / "two_state_instance.json"


@pytest.mark.parametrize("command, code", [
    ("check", 0), ("construct", 0), ("minimal", 0), ("petz", 1),
])
def test_verify_replays_each_commands_certificate(tmp_path, capsys, command, code):
    capsys.readouterr()
    assert run_cli([command, "--input", str(DEMO)]) == code
    certificate = tmp_path / f"{command}.json"
    certificate.write_text(capsys.readouterr().out)
    assert run_cli(["verify", "--input", str(DEMO), "--certificate", str(certificate)]) == 0
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("verified: ")


def test_verify_exits_1_on_a_tampered_spectrum_and_2_on_a_missing_file(tmp_path, capsys):
    capsys.readouterr()
    assert run_cli(["check", "--input", str(DEMO)]) == 0
    cert = parse_certificate(capsys.readouterr().out)
    assert cert["payload"]["spectrum"] == [-1.0, 1.0]
    cert["payload"]["spectrum"] = [-1.0, 1.0 + 1e-6]
    certificate = tmp_path / "tampered.json"
    certificate.write_text(serialize_certificate(cert))
    assert run_cli(["verify", "--input", str(DEMO), "--certificate", str(certificate)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("not verified: malformed certificate: $.payload.spectrum")
    assert err.count("\n") == 1
    for argv in (["--input", str(tmp_path / "missing.json"), "--certificate", str(certificate)],
                 ["--input", str(DEMO), "--certificate", str(tmp_path / "missing.json")]):
        assert run_cli(["verify", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file")


@pytest.mark.parametrize("command", ["check", "construct", "minimal"])
def test_verify_exits_1_on_a_zeroed_chi(tmp_path, capsys, command):
    capsys.readouterr()
    assert run_cli([command, "--input", str(DEMO)]) == 0
    cert = parse_certificate(capsys.readouterr().out)
    chi = cert["payload"]["witness"]["chi"]
    cert["payload"]["witness"]["chi"] = [[0.0, 0.0]] * len(chi)
    certificate = tmp_path / "zeroed.json"
    certificate.write_text(serialize_certificate(cert))
    assert run_cli(["verify", "--input", str(DEMO), "--certificate", str(certificate)]) == 1
    assert capsys.readouterr().err == "not verified: witness residual 1.000e+00 exceeds 1.0e-07\n"


def test_an_empty_atom_in_an_instance_file_exits_2(tmp_path, capsys):
    # T = diag(1, 2) with a third atom, eigenvalue 3, whose projection is zero
    projections = [[[[x, 0] for x in row] for row in np.diag(d).tolist()]
                   for d in ([1, 0], [0, 1], [0, 0])]
    root = {"dimension": 2,
            "states": {"a": [[1, 0], [0, 0]], "b": [[0.6, 0], [0.8, 0]]},
            "statistic": {"eigenvalues": [1, 2, 3], "projections": projections}}
    path = tmp_path / "empty-atom.json"
    path.write_text(json.dumps(root))
    capsys.readouterr()
    for command in ("check", "minimal", "petz"):
        assert run_cli([command, "--input", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: projection 2 is empty (trace 0.000e+00)\n"
    del root["statistic"]["eigenvalues"][2], root["statistic"]["projections"][2]
    path.write_text(json.dumps(root))
    assert run_cli(["minimal", "--input", str(path)]) == 0
