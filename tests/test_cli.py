import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import trinion
from trinion.cli import main
from trinion.verify import SUITES


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


def test_global_options_after_subcommand(tmp_path, capsys):
    out = tmp_path / "p"
    assert run(["verify", "--suite", "rmatrix", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"]
    capsys.readouterr()
    assert run(["solve", "zero", "--seed", "3"]) == 0
    after = capsys.readouterr().out
    assert run(["--seed", "3", "solve", "zero"]) == 0
    assert capsys.readouterr().out == after


def test_n2_only_suites_name_records_n2():
    records = SUITES["moment_oracle"](grid=2) + SUITES["bracket_axioms"](triples=1)
    assert records and all(r.name.endswith(".n2") for r in records)


def test_bracket_axioms_run_at_n3(tmp_path):
    out = tmp_path / "axioms.json"
    assert run(["--n", "3", "--out", str(out), "verify", "--suite", "bracket_axioms"]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 10
    assert all(c["name"].endswith(".n3") and c["status"] == "pass" for c in checks)


def test_runs_without_scipy():
    code = ("import sys; sys.modules['scipy'] = None\n"
            "import trinion, trinion.verify, trinion.cli\n"
            "assert trinion.cli.main(['verify', '--suite', 'rmatrix']) == 0\n"
            "assert trinion.cli.main(['bracket', 'sklyanin']) == 0\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trinion.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_verify_broken_tolerance_fails(tmp_path, monkeypatch):
    from trinion.verify import CheckRecord

    monkeypatch.setitem(SUITES, "iwasawa",
                        lambda **kw: [CheckRecord("iwasawa.broken", 1.0, 0.5, 0.0)])
    out = tmp_path / "report.json"
    code = run(["--out", str(out), "verify", "--suite", "iwasawa"])
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
    assert sol["trial"] == 0


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


@pytest.mark.parametrize("cfg", [{"t": 20.0}, {"thetas": [[3, -3]] * 3}])
def test_solve_kstar_large_t_theta(tmp_path, cfg):
    """Large ``t theta`` makes some damped normal matrices singular: still JSON, exit 0 or 1."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trinion.__file__)))
    proc = subprocess.run([sys.executable, "-m", "trinion.cli", "--config",
                           _write_json(tmp_path / "c.json", cfg), "solve", "kstar"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr
    assert isinstance(json.loads(proc.stdout), dict)


@pytest.mark.parametrize("t", ["400", "1e5"])
def test_solve_kstar_non_finite_state(capsys, t):
    """A dressing state that overflows from the start ends in one error line, exit 1,
    with no JSON and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--t", t, "solve", "kstar"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: non-finite") and len(captured.err.splitlines()) == 1


def test_solve_kstar_refuses_a_t_below_the_tolerance(tmp_path, capsys):
    """At t = 1e-12 every triple's residual is below tol = 1e-10, so spectra the zero level
    rules out would "solve": one config-error line, exit 2, no JSON.  At t = 1e-8 the same
    spectra still end ``no_solution``."""
    cfg = _write_json(tmp_path / "c.json", {"thetas": [[0.9, -0.9], [0.1, -0.1], [0.1, -0.1]]})
    assert run(["--config", cfg, "--t", "1e-12", "solve", "kstar"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: t = 1e-12") and "tol = 1e-10" in captured.err
    assert run(["--config", cfg, "--t", "1e-8", "solve", "kstar"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "no_solution"


@pytest.mark.parametrize("level", ["zero", "kstar"])
def test_solve_huge_spectra_exit_1(tmp_path, capsys, level):
    """Spectra of size 1e300 overflow either solver's state from the start: one error line,
    exit 1, and no numpy warning."""
    cfg = _write_json(tmp_path / "c.json", {"thetas": [[1e300, -1e300]] * 3})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", cfg, "solve", level]) == 1
    err = capsys.readouterr().err
    assert "Warning" not in err and len(err.splitlines()) == 1, err


def test_solve_kstar(tmp_path):
    out = tmp_path / "sol.json"
    code = run(["--out", str(out), "--t", "0.7", "solve", "kstar"])
    assert code == 0
    sol = json.loads(out.read_text())
    assert sol["kind"] == "dual"
    assert sol["residual"] <= 1e-9


def test_solve_kstar_passes_the_configured_tolerance(tmp_path, monkeypatch):
    """Both solve levels take ``tolerances.constraint`` as it is configured."""
    from trinion import cli
    from trinion.orbits import NoSolution

    seen = []
    monkeypatch.setattr(cli, "solve_moment_kstar",
                        lambda *a, tol, **k: seen.append(tol) or NoSolution(1.0, 1))
    cfg = _write_json(tmp_path / "c.json", {"tolerances": {"constraint": 1e-12}})
    assert run(["--config", cfg, "solve", "kstar"]) == 1
    assert seen == [1e-12]


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


@pytest.mark.parametrize("n", [2, 3])
def test_bracket_fr_prints_the_per_perturbation_reference(n, capsys):
    """``bracket fr`` prints, byte for byte, the report of the unstacked reference."""
    from fr_reference import fr_vs_kstar as reference_fr_vs_kstar
    from trinion.graph_poisson import figure_three
    from trinion.lie_core import build_algebra, r_matrix
    from trinion.verify import _random_sl

    assert run(["--n", str(n), "--seed", "4", "bracket", "fr"]) == 0
    ctx = build_algebra(n)
    rng = np.random.default_rng(4)
    gs = [_random_sl(ctx, rng, 0.4) for _ in range(3)]
    want = reference_fr_vs_kstar(ctx, figure_three(), 0, lambda m: m[..., 0, 0].real,
                                 0, lambda m: m[..., 0, 1].imag, gs, r_matrix(ctx, np.pi))
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"


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


def test_saved_catalogue_holonomy_same_bytes(tmp_path, capsys):
    from trinion.holonomy import builtin_catalogue

    cat = tmp_path / "saved.json"
    cat.write_text(json.dumps(builtin_catalogue().to_dict()))
    assert run(["holonomy", "gamma1"]) == 0
    builtin = capsys.readouterr().out
    assert run(["holonomy", "gamma1", "--catalogue", str(cat)]) == 0
    assert capsys.readouterr().out == builtin


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


_BAD_CONFIGS = {
    "thetas_length": ({"n": 3}, ["solve", "zero"]),
    "tolerance_type": ({"tolerances": {"ode": "x"}}, ["holonomy", "gamma1"]),
    "u_text": ({"u": [["a"]]}, ["solve", "kstar"]),
    "u_ragged": ({"n": 3, "u": [[0.0, 1.0], [-1.0]]}, ["solve", "kstar"]),
    "unknown_key": ({"theta": [0.3, -0.3]}, ["solve", "zero"]),
    "unknown_tolerance": ({"tolerances": {"odee": 1e-8}}, ["holonomy", "gamma1"]),
    "profile": ({"profile": "fast"}, ["verify", "--suite", "rmatrix"]),
    "seed_negative": ({"seed": -1}, ["solve", "zero"]),
    "t_nan": ({"t": float("nan")}, ["solve", "kstar"]),
    "check_scale": ({"tolerances": {"check_scale": 1.0}}, ["verify", "--suite", "rmatrix"]),
    "thetas_short": ({"n": 3, "thetas": [[0], [0], [0]]}, ["solve", "zero"]),
    "thetas_empty": ({"n": 3, "thetas": [[], [], []]}, ["verify", "--suite", "rmatrix"]),
    "thetas_sum": ({"n": 3, "thetas": [[0.5, 0.1, -0.5]] * 3}, ["solve", "zero"]),
    "thetas_repeated": ({"n": 3, "thetas": [[0.1, 0.1, -0.2]] * 3}, ["solve", "kstar"]),
}


def _edited_catalogue(edit):
    from trinion.holonomy import builtin_catalogue

    payload = builtin_catalogue().to_dict()
    edit(payload, {c["name"]: c for c in payload["contours"]})
    return payload


def _first_crossing(contours, **change):
    contours["eight_narrow"]["intersections"][0].update(change)


# each edit of the built-in catalogue is read by `bracket goldman --catalogue`
_BAD_CATALOGUES = {
    "catalogue_no_segments": lambda p, c: c["gamma1"].update(segments=[]),
    "catalogue_seg_index": lambda p, c: _first_crossing(c, seg_param=[7, 0.5]),
    "catalogue_other_seg_index": lambda p, c: _first_crossing(c, other_seg_param=[7, 0.5]),
    "catalogue_seg_index_fraction": lambda p, c: _first_crossing(c, seg_param=[0.7, 0.5]),
    "catalogue_param_range": lambda p, c: _first_crossing(c, seg_param=[0, 1.7]),
    "catalogue_unknown_pair": lambda p, c: p["pairs"].append(["nope", "gamma1"]),
    "catalogue_nan_radius": lambda p, c: c["circle_plus"]["segments"][0].update(
        radius=float("nan")),
    "catalogue_gap": lambda p, c: c["gamma1"]["segments"][0].update(end=[0.4, 0.0]),
    "catalogue_pair_one_name": lambda p, c: p["pairs"].append(["gamma1"]),
    "catalogue_pair_three_names": lambda p, c: p["pairs"].append(["gamma1", "gamma2", "gamma3"]),
    "catalogue_seg_index_bool": lambda p, c: _first_crossing(c, seg_param=[True, 0.5]),
    "catalogue_param_string": lambda p, c: _first_crossing(c, seg_param=[0, "0.5"]),
    "catalogue_param_bool": lambda p, c: _first_crossing(c, seg_param=[0, True]),
    **{f"catalogue_sign_{v!r}": lambda p, c, v=v: _first_crossing(c, sign=v)
       for v in ("1", 1.7, True, 0, 5)},
}


def _real(rows):
    return [[[float(x), 0.0] for x in row] for row in rows]


_EYE2 = _real(np.eye(2))
_BAD_MATRICES = {
    "chi_nonsquare": (["map", "chi", "--input"],
                      {"matrices": [_real([[1, 2, 3], [4, 5, 6]])] * 3}),
    "chi_singular": (["map", "chi", "--input"],
                     {"matrices": [_real([[1, 0], [0, 0]]), _EYE2, _EYE2]}),
    "chi_nan": (["map", "chi", "--input"],
                {"matrices": [[[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                              _EYE2, _EYE2]}),
    "chi_size_not_n": (["map", "chi", "--input"], {"matrices": [_real(np.eye(3))] * 3}),
    "xi_two_sizes": (["map", "xi", "--input"],
                     {"matrices": [_real([[0, 1], [-1, 0]]), _real(np.zeros((3, 3)))]}),
    "residues_two_sizes": (["holonomy", "gamma1", "--residues"],
                           {"X1": _real([[0, 1], [-1, 0]]), "X2": _real(np.zeros((3, 3)))}),
    "residues_list": (["holonomy", "gamma1", "--residues"], [1, 2]),
    "residues_hermitian": (["holonomy", "gamma1", "--residues"],
                           {"X1": _real(np.diag([1, -1])), "X2": _real(np.diag([1, -1]))}),
    "xi_hermitian": (["map", "xi", "--input"], {"matrices": [_real(np.diag([1, -1]))] * 2}),
    "xi_sum_nonzero": (["map", "xi", "--input"],
                       {"matrices": [[[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]] * 3}),
}


@pytest.mark.parametrize("case", ["contours", "contours_reversed", "input_missing",
                                  "input_no_matrices", "verify_n4", "kstar_t0", *_BAD_CONFIGS,
                                  *_BAD_CATALOGUES, *_BAD_MATRICES])
def test_malformed_input_exit_2(tmp_path, capsys, case):
    if case == "contours":
        args = ["bracket", "goldman", "--contours", "foo", "bar"]
    elif case == "contours_reversed":  # the curated pair, in the order it has no records of
        args = ["bracket", "goldman", "--contours", "eight_wide_rev", "eight_narrow"]
    elif case == "input_missing":
        args = ["map", "chi", "--input", str(tmp_path / "absent.json")]
    elif case == "input_no_matrices":
        args = ["map", "chi", "--input", _write_json(tmp_path / "m.json", {"foo": 1})]
    elif case == "verify_n4":
        args = ["--n", "4", "verify", "--suite", "rmatrix"]
    elif case == "kstar_t0":
        args = ["--t", "0", "solve", "kstar"]
    elif case in _BAD_CATALOGUES:
        path = _write_json(tmp_path / "cat.json", _edited_catalogue(_BAD_CATALOGUES[case]))
        args = ["bracket", "goldman", "--catalogue", path]
    elif case in _BAD_MATRICES:
        command, payload = _BAD_MATRICES[case]
        args = [*command, _write_json(tmp_path / "m.json", payload)]
    else:
        cfg, command = _BAD_CONFIGS[case]
        args = ["--config", _write_json(tmp_path / "c.json", cfg), *command]
    assert run(args) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("config error:") and len(err.splitlines()) == 1
