"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a pass/fail line per check so a verbose run reads as the
acceptance report.  Desk scale throughout: n in {2, 3}.
"""

import time

from trinion.verify import SUITES


def _run(name, **kw):
    t0 = time.perf_counter()
    records = SUITES[name](**kw)
    elapsed = time.perf_counter() - t0
    for r in records:
        print(f"[{'PASS' if r.status else 'FAIL'}] {r.name}: "
              f"residual {r.residual:.3e} vs tol {r.tolerance:.1e}")
    print(f"[time] {name}: {elapsed:.1f}s")
    return records, elapsed


def _assert_all(records):
    bad = [r for r in records if not r.status]
    assert not bad, "failed checks: " + ", ".join(
        f"{r.name} ({r.residual:.3e} > {r.tolerance:.1e})" for r in bad)


def test_criterion_1_iwasawa_roundtrip():
    records, elapsed = _run("iwasawa", seed=0)
    _assert_all(records)
    assert elapsed < 5.0


def test_criterion_2_rmatrix():
    records, _ = _run("rmatrix", seed=0)
    _assert_all(records)


def test_criterion_3_emap():
    records, _ = _run("emap", seed=0)
    _assert_all(records)


def test_criterion_4_xi_geometry():
    records, _ = _run("xi_geometry", seed=0)
    _assert_all(records)


def test_criterion_5_main_theorem_xi_side():
    records, _ = _run("goldman", seed=0)
    _assert_all(records)


def test_criterion_6_main_theorem_chi_side():
    records, _ = _run("chi_side", seed=0)
    _assert_all(records)


def test_criterion_7_dimension_formula():
    records, _ = _run("dimension", seed=0)
    _assert_all(records)


def test_criterion_8_bracket_axioms():
    records, _ = _run("bracket_axioms", seed=0)
    _assert_all(records)


def test_criterion_9_moment_solver_vs_oracle():
    records, elapsed = _run("moment_oracle", seed=0, ns=(2, 3))
    _assert_all(records)
    assert [r.name for r in records] == ["moment.oracle_agreement.n2",
                                         "moment.feasible_residual.n2",
                                         "moment.infeasible_distance.n2",
                                         "moment.oracle_agreement.n3",
                                         "moment.infeasible_bound.n3"]
    assert elapsed < 60.0
