import json

import numpy as np
import pytest

from trinion.cli import main


def run(args):
    return main(args)


def test_verify_single_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["--out", str(out), "verify", "--suite", "rmatrix"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert all(r["status"] == "pass" for r in report["checks"])
    assert (tmp_path / "report.json.csv").exists()


def test_verify_broken_tolerance_fails(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"check_scale": 0.0}}))
    out = tmp_path / "report.json"
    code = run(["--config", str(cfg), "--out", str(out), "verify", "--suite", "iwasawa"])
    assert code == 1
    report = json.loads(out.read_text())
    assert any(r["status"] == "FAIL" for r in report["checks"])


def test_malformed_config_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["--config", str(cfg), "verify"]) == 2
    cfg.write_text(json.dumps({"n": 1}))
    assert run(["--config", str(cfg), "verify"]) == 2
    cfg.write_text(json.dumps({"u": [[0.0, 1.0], [1.0, 0.0]], "n": 3}))
    assert run(["--config", str(cfg), "verify"]) == 2


def test_solve_writes_solution(tmp_path):
    out = tmp_path / "sol.json"
    code = run(["--out", str(out), "solve", "zero"])
    assert code == 0
    sol = json.loads(out.read_text())
    assert sol["residual"] <= 1e-10
    assert sol["kind"] == "zero"
    assert len(sol["points"]) == 3


def test_solve_infeasible_exit_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thetas": [[1.0, -1.0], [0.2, -0.2], [0.2, -0.2]]}))
    out = tmp_path / "sol.json"
    code = run(["--config", str(cfg), "--out", str(out), "solve", "zero"])
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["status"] == "no_solution"


def test_solve_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["--out", str(a), "--seed", "5", "solve", "zero"]) == 0
    assert run(["--out", str(b), "--seed", "5", "solve", "zero"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_kstar(tmp_path):
    out = tmp_path / "sol.json"
    code = run(["--out", str(out), "--t", "0.7", "solve", "kstar"])
    assert code == 0
    sol = json.loads(out.read_text())
    assert sol["kind"] == "dual"
    assert sol["residual"] <= 1e-9


def test_map_xi_and_chi(tmp_path):
    out = tmp_path / "xi.json"
    assert run(["--out", str(out), "map", "xi"]) == 0
    payload = json.loads(out.read_text())
    x1 = np.array([[complex(a, b) for a, b in row] for row in payload["X1"]])
    x3 = np.array([[complex(a, b) for a, b in row] for row in payload["X3"]])
    x2 = np.array([[complex(a, b) for a, b in row] for row in payload["X2"]])
    assert np.linalg.norm(x1 + x2 + x3) < 1e-12

    mats = tmp_path / "mats.json"
    ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    mats.write_text(json.dumps({"matrices": [ident, ident, ident]}))
    out2 = tmp_path / "chi.json"
    assert run(["--out", str(out2), "map", "chi", "--input", str(mats)]) == 0
    chi = json.loads(out2.read_text())
    k1 = np.array([[complex(a, b) for a, b in row] for row in chi["kstar1"]])
    assert np.linalg.norm(k1 - np.eye(2)) < 1e-12


def test_bracket_commands(tmp_path):
    for kind, extra in (("kk", []), ("goldman", []), ("fr", []),
                        ("sklyanin", ["--space", "double"])):
        out = tmp_path / f"{kind}.json"
        assert run(["--out", str(out), "bracket", kind] + extra) == 0
        assert out.exists()


def test_goldman_bracket_disjoint_zero(tmp_path):
    out = tmp_path / "g.json"
    assert run(["--out", str(out), "bracket", "goldman",
                "--contours", "gamma1", "gamma2"]) == 0
    payload = json.loads(out.read_text())
    assert payload["points"] == 0


def test_holonomy_command(tmp_path):
    out = tmp_path / "h.json"
    assert run(["--out", str(out), "holonomy", "gamma1"]) == 0
    payload = json.loads(out.read_text())
    h = np.array([[complex(a, b) for a, b in row] for row in payload["holonomy"]])
    assert abs(np.linalg.det(h) - 1.0) < 1e-9


def test_holonomy_unknown_contour_exit_2(capsys):
    assert run(["holonomy", "no_such_loop"]) == 2
    err = capsys.readouterr().err.strip()
    assert "no_such_loop" in err and len(err.splitlines()) == 1


def test_holonomy_missing_residues_exit_2(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert run(["holonomy", "gamma1", "--residues", str(missing)]) == 2
    err = capsys.readouterr().err.strip()
    assert "absent.json" in err and len(err.splitlines()) == 1


def test_saved_catalogue_drives_goldman_bracket(tmp_path):
    from trinion.holonomy import builtin_catalogue

    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps(builtin_catalogue().to_dict()))
    saved, builtin = tmp_path / "saved.json", tmp_path / "builtin.json"
    assert run(["--out", str(saved), "bracket", "goldman", "--catalogue", str(cat)]) == 0
    assert run(["--out", str(builtin), "bracket", "goldman"]) == 0
    a, b = json.loads(saved.read_text()), json.loads(builtin.read_text())
    assert a["points"] > 0
    assert a["casimir_form"] == b["casimir_form"]

    payload = builtin_catalogue().to_dict()
    for contour in payload["contours"]:
        for datum in contour["intersections"]:
            del datum["seg_param"], datum["other_seg_param"]
    cat.write_text(json.dumps(payload))
    assert run(["bracket", "goldman", "--catalogue", str(cat)]) == 1


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("case", ["contours", "input_missing", "input_no_matrices",
                                  "thetas_length", "tolerance_type"])
def test_malformed_input_exit_2(tmp_path, capsys, case):
    if case == "contours":
        args = ["bracket", "goldman", "--contours", "foo", "bar"]
    elif case == "input_missing":
        args = ["map", "chi", "--input", str(tmp_path / "absent.json")]
    elif case == "input_no_matrices":
        args = ["map", "chi", "--input", _write_json(tmp_path / "m.json", {"foo": 1})]
    elif case == "thetas_length":
        args = ["--config", _write_json(tmp_path / "c.json", {"n": 3}), "solve", "zero"]
    else:
        args = ["--config", _write_json(tmp_path / "c.json", {"tolerances": {"ode": "x"}}),
                "holonomy", "gamma1"]
    assert run(args) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1
