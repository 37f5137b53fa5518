"""The nine subcommands' reports on the default config against the reports
recorded in ``tests/data/default_reports``, and the thin-film
``nonlinear-study`` (degree 5, h down to 5e-4) against the report and the
``meta.json`` descent counts recorded in ``tests/data/thin_film``, and the
invariant leaves of the full-SO(3) run (beta = 0, degree 6) recorded in
``tests/data/cylinder_so3`` (``gap-report``'s under ``gap_report``).

A change meant to keep the numbers keeps every numeric leaf within 1e-12
relative or 1e-15 absolute, and every other leaf exactly.  The
nonlinear-study rows are compared at 1e-9 absolute: the descent stops once a
round lowers the value by less than ALTERNATION_TOL = 1e-10, so they are
resolved to about that level only.  The descent counts (rounds, steps,
backtracks, stop reasons) must match exactly.  A ``results.residual_norm``
leaf is the norm of a residual that is exactly zero in exact arithmetic; its
round-off depends on the BLAS reduction order (thread count, blocking), so
it is held to the bound ZERO_NORM_BOUND instead of to its recorded value.
On a full-SO(3) kernel the relaxed minimizers form a family and round-off
picks which one is reported, so only its value and its rotation angle are
held, not the rotation matrix.

The ``report.csv`` of ``kernel``, ``gap-report`` and ``nonlinear-study`` on
the default config is recorded next to its report: the header must match
exactly, every cell within the tolerance of the report leaves (the
nonlinear-study rows within 1e-9 absolute), and no other subcommand writes
a CSV.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from traction_gap import cli
from traction_gap.rotations import rotation_angle

RECORDED = Path(__file__).parent / "data" / "default_reports"
THIN_FILM = Path(__file__).parent / "data" / "thin_film"
CYLINDER_SO3 = Path(__file__).parent / "data" / "cylinder_so3"
REL, ABS = 1e-12, 1e-15
DESCENT_ABS = 1e-9
ZERO_NORM_BOUND = 1e-12


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for n, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{n}]")
    else:
        yield path, obj


def _assert_report_matches(sub, out, recorded):
    got = dict(_leaves(json.loads((out / "report.json").read_text())))
    want = dict(_leaves(json.loads(recorded.read_text())))
    assert got.keys() == want.keys()
    for path, expected in want.items():
        value = got[path]
        if isinstance(expected, bool) or not isinstance(expected, (int, float)):
            assert value == expected, path
        elif path == "results.residual_norm":
            assert 0.0 <= value <= ZERO_NORM_BOUND, path
        elif sub == "nonlinear-study" and path.startswith("results.rows"):
            assert abs(value - expected) <= DESCENT_ABS, path
        else:
            assert abs(value - expected) <= max(REL * abs(expected), ABS), path


def _assert_csv_matches(sub, out, recorded):
    got = (out / "report.csv").read_text().splitlines()
    want = recorded.read_text().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    abs_tol, rel_tol = (DESCENT_ABS, 0.0) if sub == "nonlinear-study" else (ABS, REL)
    for n, (row, expected_row) in enumerate(zip(got[1:], want[1:]), start=2):
        values, expected = map(float, row.split(",")), map(float, expected_row.split(","))
        for value, expect in zip(values, expected, strict=True):
            assert abs(value - expect) <= max(rel_tol * abs(expect), abs_tol), (n, row)


@pytest.mark.parametrize("sub", sorted(cli.SUBCOMMANDS))
def test_default_report_matches_the_recorded_one(tmp_path, sub):
    assert cli.main([sub, "--out", str(tmp_path)]) == 0
    _assert_report_matches(sub, tmp_path, RECORDED / f"{sub}.json")
    csv = RECORDED / f"{sub}.csv"
    assert (tmp_path / "report.csv").exists() == csv.exists()
    if csv.exists():
        _assert_csv_matches(sub, tmp_path, csv)


def test_thin_film_study_matches_the_recorded_one(tmp_path):
    config = THIN_FILM / "config.json"
    assert cli.main(["nonlinear-study", "--config", str(config), "--out", str(tmp_path)]) == 0
    _assert_report_matches("nonlinear-study", tmp_path, THIN_FILM / "nonlinear-study.json")
    descent = json.loads((tmp_path / "meta.json").read_text())["descent"]
    assert descent == json.loads((THIN_FILM / "descent.json").read_text())


def test_cylinder_so3_invariant_leaves(tmp_path):
    want = json.loads((CYLINDER_SO3 / "invariants.json").read_text())
    results = {}
    for sub in ("check-loads", "solve-limit", "rotated-check", "gap-report"):
        out = tmp_path / sub
        assert cli.main([sub, "--config", str(CYLINDER_SO3 / "config.json"), "--out", str(out)]) == 0
        results[sub] = json.loads((out / "report.json").read_text())["results"]
    # the closed form is a minimum over one axis here, so no report names it
    # min_G or calls the gap it leaves a margin
    names = {path.split(".")[-1] for sub in results for path, _ in _leaves(results[sub])}
    assert not names & {"min_G", "margin", "relative_margin"}
    gap = dict(_leaves(results["gap-report"]))
    for path, expected in _leaves(want["gap_report"]):
        if isinstance(expected, bool):
            assert gap[path] is expected, path
        elif path == "optimal_theta":
            assert gap[path] == pytest.approx(expected, abs=1e-9)
        else:
            assert gap[path] == pytest.approx(expected, rel=1e-12), path
    assert results["check-loads"]["classification"] == want["classification"]
    assert results["solve-limit"]["value"] == pytest.approx(want["min_limit_value"], rel=1e-12)
    angle = rotation_angle(np.array(results["solve-limit"]["rotation"]))
    assert angle == pytest.approx(want["rotation_angle"], abs=1e-9)
    assert results["rotated-check"]["rotation_theta"] == pytest.approx(want["rotation_angle"],
                                                                       abs=1e-9)
