import json
import math
import subprocess
import sys

import numpy as np
import pytest

from wsq.cli import run_cli
from wsq.fileio import (
    load_bundled_instance,
    parse_certificate,
    serialize_instance,
    verify_certificate,
)
from wsq.spectral import StateFamily


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
    overlap = complex(*cert["payload"]["overlap"])
    assert abs(abs(overlap) - 1.0 / math.sqrt(2.0)) <= 1e-12


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


def test_witness_out_writes_verifiable_file(bundled_path, tmp_path, capsys):
    dest = tmp_path / "cert.json"
    code = run_cli([
        "check", "--input", str(bundled_path), "--witness-out", str(dest)
    ])
    capsys.readouterr()
    assert code == 0
    report = verify_certificate(bundled_path.read_text(), dest.read_text())
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


def test_tolerance_env_var(bundled_path, capsys, monkeypatch):
    monkeypatch.setenv("WSQ_TOL", "1e-9")
    code = run_cli(["check", "--input", str(bundled_path)])
    out = capsys.readouterr()
    assert code == 0
    cert = parse_certificate(out.out)
    assert cert["tolerances"]["witness"] == 1e-9

    monkeypatch.setenv("WSQ_TOL", "not-a-number")
    code = run_cli(["check", "--input", str(bundled_path)])
    out = capsys.readouterr()
    assert code == 2
    assert "error:" in out.err


def test_tol_flag_beats_env_var(bundled_path, capsys, monkeypatch):
    monkeypatch.setenv("WSQ_TOL", "1e-3")
    code = run_cli(["check", "--input", str(bundled_path), "--tol", "1e-10"])
    out = capsys.readouterr()
    assert code == 0
    cert = parse_certificate(out.out)
    assert cert["tolerances"]["witness"] == 1e-10


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
