import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from conftest import node_moment
from traction_gap import cli, limits, scaled
from traction_gap.cli import DEFAULT_CONFIG, config_hash, main
from traction_gap.galerkin import (GalerkinSpace, SolverError, assemble, build_space,
                                   solve_quadratic)
from traction_gap.limits import RotatedCheck
from traction_gap.loads import classify_moments, compatibility_report, default_rules
from traction_gap.rotations import rotation_angle


def run_cli(args, tmp_path, config=None):
    argv = list(args)
    if config is not None:
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    out = tmp_path / "out"
    (out / "report.json").unlink(missing_ok=True)  # no stale report from an earlier run
    argv += ["--out", str(out)]
    code = main(argv)
    report = None
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
    return code, report, out


def test_suite_runs_blas_on_the_package_thread_count():
    # conftest imports the package before numpy, so OpenBLAS runs on the
    # package's choice, as in every CLI run: the exported value, else 1
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if not libs:
        pytest.skip("numpy bundles no OpenBLAS")
    dll = ctypes.CDLL(str(libs[0]))
    getters = [getattr(dll, name, None) for name in ("scipy_openblas_get_num_threads64_",
                                                    "openblas_get_num_threads64_",
                                                    "openblas_get_num_threads")]
    getter = next((g for g in getters if g is not None), None)
    if getter is None:
        pytest.skip("the bundled OpenBLAS exports no thread-count getter")
    getter.argtypes, getter.restype = [], ctypes.c_int
    assert getter() == int(os.environ["OPENBLAS_NUM_THREADS"])


def test_unknown_subcommand(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert "unknown subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--bogus"], ["--config"]])
def test_bad_subcommand_arguments_exit_one(tmp_path, capsys, args):
    # a usage error returns 1, not argparse's SystemExit(2), the config code
    assert main(["solve-linear", *args, "--out", str(tmp_path)]) == 1
    assert "usage: traction-gap solve-linear" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_options_take_equals_and_the_last_occurrence_wins(tmp_path):
    # --opt=value and --opt value; a repeated option keeps its last value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"beta": 0.0}))
    first, last = tmp_path / "first", tmp_path / "last"
    assert main(["check-loads", "--config", "missing.json", f"--config={cfg}",
                 f"--out={first}", "--out", str(last)]) == 0
    report = json.loads((last / "report.json").read_text())
    assert report["results"]["classification"] == "full_so3"
    assert not first.exists()


@pytest.mark.parametrize("args", [["--conf", "x.json"], ["--config", "--out", "x"], ["stray"]])
def test_abbreviations_and_stray_arguments_are_usage_errors(tmp_path, capsys, args):
    assert main(["check-loads", *args, "--out", str(tmp_path)]) == 1
    assert "usage: traction-gap check-loads" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "traction-gap" in capsys.readouterr().out


def test_subcommand_help_exits_zero(capsys):
    assert main(["solve-linear", "-h"]) == 0
    assert "--config" in capsys.readouterr().out


def test_check_loads_default(tmp_path):
    code, report, out = run_cli(["check-loads"], tmp_path)
    assert code == 0
    assert report["results"]["classification"] == "axis_subgroup"
    assert report["results"]["reversed_witness"] is None
    meta = json.loads((out / "meta.json").read_text())
    assert meta["subcommand"] == "check-loads"
    assert meta["peak_rss_mb"] > 0.0
    assert meta["numpy_version"] == np.__version__
    assert meta["environment"] == {var: os.environ.get(var) for var in
                                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "PYTHONDONTWRITEBYTECODE")}


@pytest.mark.parametrize("sub", ["check-loads", "kernel"])
def test_low_quadrature_order_classifies_exactly(tmp_path, sub):
    # the moments are closed forms, so every quadrature_order gives the
    # order-16 spin form
    _, ref, _ = run_cli([sub], tmp_path, {"quadrature_order": 16})
    for order in (1, 2, 3):
        code, report, _ = run_cli([sub], tmp_path, {"quadrature_order": order})
        assert code == 0
        assert report["results"]["classification"] == "axis_subgroup"
        assert np.allclose(report["results"]["spin_form_eigenvalues"],
                           ref["results"]["spin_form_eigenvalues"], rtol=0.0, atol=1e-12)


def _numbers_in(obj) -> list[float]:
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _numbers_in(obj[key])]
    if isinstance(obj, list):
        return [x for v in obj for x in _numbers_in(v)]
    return [float(obj)] if isinstance(obj, (int, float)) else []


@pytest.mark.parametrize("sub", ["nonuniqueness", "gap-report", "verify-explicit"])
def test_low_quadrature_order_integrates_the_closed_forms_exactly(tmp_path, sub):
    # the closed-form fields' integrands are integrated at an order derived
    # from the profile degrees, so low orders give the order-16 results
    # (verify-explicit does not read quadrature_order at all)
    base = {"basis": {"degree": 5}}
    code, ref, _ = run_cli([sub], tmp_path, {**base, "quadrature_order": 16})
    assert code == 0
    for order in (1, 2, 3):
        code, report, _ = run_cli([sub], tmp_path, {**base, "quadrature_order": order})
        assert code == 0
        got, want = _numbers_in(report["results"]), _numbers_in(ref["results"])
        assert len(got) == len(want)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def _admissible_phi(n: int) -> list[float]:
    """Coefficients of a + b r^2 + c r^4 + r^n with phi(1) = phi'(1) = 0 and
    a vanishing moment of r^2 phi', rounded once from exact fractions."""
    c = Fraction(3 * n * (2 - n), 4 * (n + 2))
    b = Fraction(-n, 2) - 2 * c
    phi = [0.0] * (n + 1)
    phi[0], phi[2], phi[4], phi[n] = float(-1 - b - c), float(b), float(c), 1.0
    return phi


# the preset psi with phi = -91/16 + (195/8) r^2 - (315/16) r^4 + r^30
_R30 = {"phi_coeffs": _admissible_phi(30)}


def test_profile_order_past_the_cap_is_a_config_error(tmp_path, capsys):
    # the moments of a degree-64 profile are closed forms, so check-loads and
    # kernel classify it on either domain; its work needs order 33, so every
    # path that assembles refuses it before integrating inexactly
    classification = {"cylinder": "full_so3", "ball": "identity_only"}
    for domain in ("cylinder", "ball"):
        cfg = {"domain": {"kind": domain}, "beta": 0.0, "phi_coeffs": _admissible_phi(64)}
        for sub in ("check-loads", "kernel"):
            code, report, _ = run_cli([sub], tmp_path, cfg)
            assert code == 0
            assert report["results"]["classification"] == classification[domain]
        capsys.readouterr()
        for sub in ("solve-linear", "solve-limit"):
            code, report, _ = run_cli([sub], tmp_path, cfg)
            assert code == 2
            assert report is None
            assert "past the cap 32" in capsys.readouterr().err


def test_high_degree_profile_solves_the_limit(tmp_path):
    # an r^30 term puts the work at degree 29 + 8; at the order the fields
    # alone need, the load vector did 2e-5 of work on a rigid rotation
    code, _, _ = run_cli(["solve-limit"], tmp_path, _R30)
    assert code == 0


def test_high_degree_profile_linear_minimum_is_exact(tmp_path):
    code, report, _ = run_cli(["solve-linear"], tmp_path, _R30)
    assert code == 0
    spec = cli.spec_from_config(cli.validate_config(cli.load_config(str(tmp_path / "config.json"))))
    system = assemble(build_space("full", 8, spec.domain), spec, rules=default_rules(spec, 32))
    assert report["results"]["value"] == pytest.approx(solve_quadratic(system).value,
                                                       rel=1e-12, abs=0.0)


def test_odd_profile_powers_integrate_exactly(tmp_path):
    # phi'(r) (x, y) / r of an r^5 term is 5 r^3 (x, y), no polynomial: the
    # moment integrand r^6 and the degree-3 work r^8 (jacobian included) need
    # orders 4 and 5, one more than a degree-4 force would give
    cfg = {"phi_coeffs": _admissible_phi(5), "basis": {"degree": 3}}
    code, report, _ = run_cli(["solve-linear"], tmp_path, cfg)
    assert code == 0
    spec = cli.spec_from_config(cli.validate_config(cli.load_config(str(tmp_path / "config.json"))))
    exact = default_rules(spec, 32)
    system = assemble(build_space("full", 3, spec.domain), spec, rules=exact)
    assert report["results"]["value"] == pytest.approx(solve_quadratic(system).value,
                                                       rel=1e-12, abs=0.0)
    vol = exact.volume
    reference = classify_moments(node_moment(spec, exact, vol.points),
                                 node_moment(spec, exact, np.ones((len(vol), 1)))[:, 0])
    derived = compatibility_report(spec)
    assert np.allclose(derived.eigenvalues, reference.eigenvalues, rtol=0.0, atol=1e-14)
    assert np.allclose(derived.resultant, reference.resultant, rtol=0.0, atol=1e-14)


def test_high_degree_ball_work_runs_without_node_tables(tmp_path, monkeypatch):
    # a compatible degree-20 profile on the ball: its moments need order 11
    # and its degree-8 work 27 order 14, assembled from the ball's sliced
    # factors like the cylinder's
    def refuse(*args, **kwargs):
        raise AssertionError("node tables built for a ball linear system")

    monkeypatch.setattr(GalerkinSpace, "tables", refuse)
    cfg = {"domain": {"kind": "ball"}, "beta": 0.0, "phi_coeffs": _admissible_phi(20)}
    for sub in ("solve-linear", "solve-limit"):
        code, report, _ = run_cli([sub], tmp_path, cfg)
        assert code == 0 and np.isfinite(report["results"]["value"])
    code, report, _ = run_cli(["check-loads"], tmp_path, cfg)
    assert code == 0 and report["results"]["classification"] == "identity_only"
    # moments needing order 16 run as well
    for sub in ("check-loads", "kernel"):
        code, _, _ = run_cli([sub], tmp_path, {**cfg, "phi_coeffs": _admissible_phi(30)})
        assert code == 0


def test_every_subcommand_classifies_with_the_configured_tolerance(tmp_path, capsys):
    # at beta = 1e-6 the axial spin eigenvalue lies far below a 1e-3
    # tolerance, so every subcommand sees the full-SO(3) kernel check-loads sees
    cfg = {"beta": 1e-6, "tolerances": {"classification": 1e-3}, "h_schedule": [0.2, 0.1]}
    code, report, _ = run_cli(["check-loads"], tmp_path, cfg)
    assert code == 0 and report["results"]["classification"] == "full_so3"
    code, report, _ = run_cli(["nonlinear-study"], tmp_path, cfg)
    assert code == 2 and report is None
    assert "full-SO(3) kernel" in capsys.readouterr().err
    code, report, _ = run_cli(["nonuniqueness"], tmp_path, cfg)
    assert code == 3 and report is None
    assert "axis-subgroup kernel" in capsys.readouterr().err


def test_rotation_work_is_named_a_rotation(tmp_path, capsys):
    # at beta = 1e-6 a 1e-3 tolerance classifies the loads as full SO(3), and
    # the searched rotation leaves work of about 2e-7 on a rigid spin (the
    # resultant stays zero); the message names the rigid row doing the work
    cfg = {"beta": 1e-6, "tolerances": {"classification": 1e-3}}
    code, report, _ = run_cli(["solve-limit"], tmp_path, cfg)
    assert code == 3 and report is None
    err = capsys.readouterr().err
    assert "infinitesimal rotation" in err and "translation" not in err


def test_odd_profile_powers_are_refused_on_the_ball(tmp_path, capsys):
    # no ball rule integrates r^5 exactly: on a slice of radius rho it carries
    # rho^7, which is no polynomial in z; the cylinder runs the same profile
    cfg = {"domain": {"kind": "ball"}, "beta": 0.0, "phi_coeffs": _admissible_phi(5)}
    code, report, _ = run_cli(["check-loads"], tmp_path, cfg)
    assert code == 2 and report is None
    assert "odd powers of r" in capsys.readouterr().err
    code, _, _ = run_cli(["check-loads"], tmp_path, {**cfg, "domain": {"kind": "cylinder"}})
    assert code == 0


@pytest.mark.parametrize("cfg,path", [({"basis": 5}, "basis"), ({"domain": 3}, "domain"),
                                      ({"tolerances": [1]}, "tolerances")],
                         ids=["basis", "domain", "tolerances"])
def test_non_object_for_an_object_field_is_a_config_error(tmp_path, capsys, cfg, path):
    code, report, _ = run_cli(["check-loads"], tmp_path, cfg)
    assert code == 2 and report is None
    assert f"config field '{path}': must be an object" in capsys.readouterr().err


def test_check_loads_ball_pull_in(tmp_path):
    cfg = {"builtin": "ball_pull_in", "domain": {"kind": "ball"}}
    code, report, _ = run_cli(["check-loads"], tmp_path, cfg)
    assert code == 0  # diagnosis is success
    assert report["results"]["classification"] == "incompatible"
    # T = -(4 pi / 15) I, so every half-turn does the maximal work; which one
    # is reported is left to round-off, so only its kind and work are checked
    R = np.array(report["results"]["reversed_witness"])
    assert np.allclose(R.T @ R, np.eye(3), rtol=0.0, atol=1e-14)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-14)
    assert np.trace(R) == pytest.approx(-1.0, abs=1e-14)
    work = -(4.0 * math.pi / 15.0) * (np.trace(R) - 3.0)
    assert work == pytest.approx(16.0 * math.pi / 15.0, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("cfg,message", [
    ({"builtin": "ball_pull_in"}, "lives on a ball"),
    ({"builtin": "ball_pull_in", "domain": {"kind": "ball"}, "surface_pressure": 1.0},
     "no profile or pressure"),
], ids=["cylinder", "pressure"])
def test_builtin_keeps_domain_and_pressure(tmp_path, capsys, cfg, message):
    # the builtin load is built with the config's domain and pressure, which
    # the load itself rejects: exit 2 instead of a silent run on the unit ball
    code, report, _ = run_cli(["check-loads"], tmp_path, cfg)
    assert code == 2 and report is None
    assert message in capsys.readouterr().err


def test_builtin_uses_the_ball_radius(tmp_path):
    # f = -x on a ball of radius 2: the spin form scales with radius^5
    unit = run_cli(["check-loads"], tmp_path, {"builtin": "ball_pull_in",
                                                "domain": {"kind": "ball"}})[1]
    code, report, _ = run_cli(["check-loads"], tmp_path, {
        "builtin": "ball_pull_in", "domain": {"kind": "ball", "radius": 2.0}})
    assert code == 0
    assert np.allclose(report["results"]["spin_form_eigenvalues"],
                       32.0 * np.array(unit["results"]["spin_form_eigenvalues"]), rtol=1e-12)


def test_check_loads_strong_tension_pressure(tmp_path):
    # a tension pressure is strictly compatible at any size: it adds
    # lambda |Omega| I to T and nothing to the resultant
    code, report, _ = run_cli(["check-loads"], tmp_path, {"surface_pressure": 1e6})
    assert code == 0
    assert report["results"]["classification"] == "identity_only"


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_ball_pressure_linear_minimum(tmp_path, degree):
    # lambda n on the unit ball: u = lambda x / 8, value -3 lambda^2 |Omega| / 16
    cfg = {"domain": {"kind": "ball"}, "phi_coeffs": [], "beta": 0.0, "surface_pressure": 0.5,
           "basis": {"degree": degree}}
    code, report, _ = run_cli(["solve-linear"], tmp_path, cfg)
    assert code == 0
    assert report["results"]["value"] == pytest.approx(-math.pi * 0.5 ** 2 / 4.0, rel=1e-13)


@pytest.mark.parametrize("cfg", [{"builtin": "ball_pull_in", "domain": {"kind": "ball"}},
                                 {"surface_pressure": -0.5}], ids=["pull_in", "compression"])
def test_linear_minimum_of_incompatible_loads(tmp_path, cfg):
    # a positive spin-form eigenvalue leaves the linear energy bounded: only
    # the relaxed energy, and the subcommands built on it, are refused
    code, report, _ = run_cli(["check-loads"], tmp_path, cfg)
    assert code == 0 and report["results"]["classification"] == "incompatible"
    code, report, _ = run_cli(["solve-linear"], tmp_path, cfg)
    assert code == 0 and report["results"]["value"] < 0.0
    if "builtin" in cfg:
        assert report["results"]["value"] == pytest.approx(-2.0 * math.pi / 175.0, rel=1e-13)
    for sub in ("solve-limit", "gap-report", "nonlinear-study"):
        assert run_cli([sub], tmp_path, cfg)[0] == 3, sub


def test_check_loads_beta_zero(tmp_path):
    code, report, _ = run_cli(["check-loads"], tmp_path, {"beta": 0.0})
    assert code == 0
    assert report["results"]["classification"] == "full_so3"


def test_malformed_config_rejected(tmp_path, capsys):
    code, report, _ = run_cli(["check-loads"], tmp_path, {"beta": "small"})
    assert code == 2
    assert "beta" in capsys.readouterr().err
    for cfg in ({"no_such_field": 1}, {"penalty_kappa": 1e4}, {"basis": {"kind": "full"}},
                {"tolerances": {"cg": 1e-12}}, {"basis": {"degree": True}},
                {"tolerances": {"classification": True}}):
        code2, _, _ = run_cli(["check-loads"], tmp_path, cfg)
        assert code2 == 2


@pytest.mark.parametrize("cfg", [{"beta": float("inf")}, {"beta": float("nan")},
                                 {"phi_coeffs": [-1.0, 0.0, float("inf")]},
                                 {"psi_coeffs": [float("-inf"), 1.0]},
                                 {"surface_pressure": float("nan")},
                                 {"domain": {"radius": float("inf")}},
                                 {"beta": 10 ** 400},
                                 {"tolerances": {"classification": float("inf")}}])
def test_non_finite_numbers_rejected(tmp_path, capsys, cfg):
    # json reads NaN and Infinity; they are config errors, not tracebacks
    for sub in ("check-loads", "kernel", "solve-linear", "solve-limit", "nonuniqueness"):
        code, report, _ = run_cli([sub], tmp_path, cfg)
        assert code == 2
        assert report is None
        assert "finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite input on purpose
def test_overflowing_domain_is_a_solver_error(tmp_path, capsys):
    # finite but overflowing geometry breaks the eigensolvers: exit 3
    cfg = {"domain": {"radius": 2.4e295}, "basis": {"degree": 2}}
    for sub in ("check-loads", "solve-limit"):
        code, _, _ = run_cli([sub], tmp_path, cfg)
        assert code == 3
    assert "solver error" in capsys.readouterr().err


# the closed-form pull-in moment a^5 and a huge pressure overflow or leave NaN
# in the solves; check-loads and kernel of the pressure alone stay finite
_OVERFLOWING = {
    "pull_in_1e70": {"domain": {"kind": "ball", "radius": 1e70}, "builtin": "ball_pull_in"},
    "pressure_1e160": {"surface_pressure": 1e160, "basis": {"degree": 2}},
    "pressure_1e300": {"surface_pressure": 1e300, "basis": {"degree": 2}},
}


def _refuse_constant(name):
    raise ValueError(f"report.json holds {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
@pytest.mark.parametrize("name", sorted(_OVERFLOWING))
def test_overflowing_loads_write_no_non_finite_report(tmp_path, capsys, name):
    # a report with NaN or an infinity is a solver error (3) and is not written
    for sub in sorted(cli.SUBCOMMANDS):
        code, _, out = run_cli([sub], tmp_path, _OVERFLOWING[name])
        err = capsys.readouterr().err
        if name.startswith("pressure") and sub in ("check-loads", "kernel"):
            assert code == 0, sub
            json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
            continue
        assert code in (2, 3), sub
        assert not (out / "report.json").exists(), sub
        if sub in ("solve-linear", "solve-limit") and name.startswith("pressure"):
            assert code == 3 and f"{sub}: solver error" in err and "non-finite" in err


def test_failed_nonlinear_rows_are_null(tmp_path, monkeypatch):
    # a row whose descent fails keeps its h and status; its numbers are null
    # in report.json and empty in report.csv, and the study exits 3
    minimize = scaled.minimize_scaled

    def failing(spec, coeffs, R, h, *args, **kwargs):
        if h == 0.1:
            raise SolverError("no descent")
        return minimize(spec, coeffs, R, h, *args, **kwargs)

    monkeypatch.setattr(scaled, "minimize_scaled", failing)
    code, report, out = run_cli(["nonlinear-study"], tmp_path, {"h_schedule": [0.2, 0.1]})
    assert code == 3
    assert report["results"]["errors"] == 1
    failed = report["results"]["rows"][1]
    assert failed["h"] == 0.1 and failed["status"] == "error: no descent"
    assert [failed[k] for k in ("value", "gap_to_limit", "rotation_distance",
                                "strain_rescaled")] == [None] * 4
    assert report["results"]["rows"][0]["value"] is not None
    assert (out / "report.csv").read_text().splitlines()[2] == "0.1,,,,"


def test_gap_report_of_zero_load_is_a_config_error(tmp_path, capsys):
    # no load, no gap: the relative errors would divide by a zero minimum
    code, report, _ = run_cli(["gap-report"], tmp_path,
                              {"phi_coeffs": [], "psi_coeffs": [], "basis": {"degree": 2}})
    assert code == 2
    assert report is None
    assert "nonzero load" in capsys.readouterr().err


def test_rotated_check_without_work_is_a_solver_error(tmp_path, capsys):
    # without loads the linear minimum is 0 and the relative difference 0/0
    code, report, _ = run_cli(["rotated-check"], tmp_path,
                              {"phi_coeffs": [], "psi_coeffs": [], "basis": {"degree": 1}})
    assert code == 3
    assert report is None
    assert "no work" in capsys.readouterr().err


def test_invalid_profile_rejected(tmp_path, capsys):
    code, _, _ = run_cli(["check-loads"], tmp_path, {"phi_coeffs": [1.0, 0.0, 1.0]})
    assert code == 2
    assert "phi" in capsys.readouterr().err


def test_kernel_subcommand_writes_csv_deterministically(tmp_path):
    cfg = {"kernel_samples": 50}
    code, _, out1 = run_cli(["kernel"], tmp_path, cfg)
    assert code == 0
    csv = (out1 / "report.csv").read_text().splitlines()
    assert csv[0] == "wx,wy,wz,work_quadratic"
    assert len(csv) == 51
    first = (out1 / "report.json").read_bytes()
    (tmp_path / "out2").mkdir()
    code2 = main(["kernel", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out2")])
    assert code2 == 0
    assert (tmp_path / "out2" / "report.json").read_bytes() == first


def test_verify_explicit(tmp_path):
    code, report, _ = run_cli(["verify-explicit"], tmp_path)
    assert code == 0
    assert report["results"]["ode_residual"] < 1e-12


@pytest.mark.parametrize("cfg", [{}, {"beta": 0.0}, {"phi_coeffs": [0.0]},
                                 {"psi_coeffs": [], "beta": 0.5}])
def test_verify_explicit_residual_bounds_are_exact_zeros(tmp_path, cfg):
    # the closed form's coefficients are exact binary fractions on these
    # profiles, so each residual polynomial cancels to exact zeros
    code, report, _ = run_cli(["verify-explicit"], tmp_path, cfg)
    assert code == 0
    for key in ("ode_residual", "biharmonic_residual", "euler_lagrange_interior",
                "boundary_traction"):
        assert report["results"][key] == 0.0, key


def test_verify_explicit_catches_a_wrong_field(tmp_path, monkeypatch):
    # p(s) + 1e-3 s and w(z) + 1e-3 z^3 break the interior equilibrium and
    # the traction-free boundary: every residual of u0 reads it, and the
    # run exits 4
    exact = limits.explicit_minimizers

    def perturbed(spec):
        sol = exact(spec)
        return dataclasses.replace(sol, planar=sol.planar + Polynomial([0.0, 1e-3]),
                                   axial=sol.axial + Polynomial([0.0, 0.0, 0.0, 1e-3]))

    monkeypatch.setattr(limits, "explicit_minimizers", perturbed)
    code, report, _ = run_cli(["verify-explicit"], tmp_path)
    assert code == 4
    assert report["results"]["euler_lagrange_interior"] == pytest.approx(0.063, rel=0.05)
    assert report["results"]["boundary_traction"] == pytest.approx(0.003, rel=0.05)
    assert report["results"]["ode_residual"] == pytest.approx(0.008, rel=0.05)
    assert report["results"]["biharmonic_residual"] == pytest.approx(0.128, rel=0.05)


def test_solve_linear_and_limit(tmp_path):
    cfg = {"basis": {"degree": 6}}
    code, report, _ = run_cli(["solve-linear"], tmp_path, cfg)
    assert code == 0
    assert report["results"]["value"] < 0
    code, report, _ = run_cli(["solve-limit"], tmp_path, cfg)
    assert code == 0
    assert report["results"]["value"] < 0


def test_solve_linear_off_unit_cylinder_has_no_lower_bound(tmp_path):
    # the dual lower bound needs the pressure-free unit-cylinder closed form;
    # the divergence-free upper bound does not
    for cfg in ({"domain": {"radius": 2.0}, "basis": {"degree": 3}},
                {"surface_pressure": 0.5, "basis": {"degree": 3}}):
        code, report, _ = run_cli(["solve-linear"], tmp_path, cfg)
        assert code == 0
        inc = report["results"]["incompressible"]
        assert inc["lower"] is None
        assert inc["upper"] < 0


# admissible, but phi' has an r^2 term, so eta has even powers of r
_ODD_PHI = [-1.0, 0.0, 12.0, -20.0, 9.0]


def test_odd_radial_profile_has_no_closed_form(tmp_path, capsys):
    cfg = {"phi_coeffs": _ODD_PHI, "basis": {"degree": 3}}
    code, report, _ = run_cli(["solve-linear"], tmp_path, cfg)
    assert code == 0
    assert report["results"]["incompressible"]["lower"] is None
    for sub in ("verify-explicit", "gap-report", "nonlinear-study"):
        code, _, _ = run_cli([sub], tmp_path, cfg)
        assert code == 2
    assert "odd radial profile" in capsys.readouterr().err


def test_gap_report_cli(tmp_path):
    code, report, out = run_cli(["gap-report"], tmp_path, {"basis": {"degree": 8}})
    assert code == 0
    res = report["results"]
    assert res["margin"] > 0
    inc = res["incompressible"]
    assert inc["certified"] is True
    assert inc["min_EI_lower"] == pytest.approx(-0.0112200828458989, rel=1e-12)
    assert not any("kappa" in key for key in inc)
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "theta,value,predicted,residual"


def test_nonlinear_study_cli(tmp_path):
    cfg = {"h_schedule": [0.2, 0.1], "nonlinear_degree": 4}
    code, report, out = run_cli(["nonlinear-study"], tmp_path, cfg)
    assert code == 0
    header = (out / "report.csv").read_text().splitlines()[0]
    assert header == "h,value_Gh,gap_to_limit,rot_dist,strain_rescaled"
    assert report["results"]["errors"] == 0
    # meta.json, not report.json, carries each row's descent work
    rows = report["results"]["rows"]
    descent = json.loads((out / "meta.json").read_text())["descent"]
    assert [(d["h"], d["status"]) for d in descent] == [(r["h"], r["status"]) for r in rows]
    for d in descent:
        assert d["rounds"] == len(d["descent_stops"]) >= 1
        assert d["steps"] >= 0 and d["backtracks"] >= 0
    assert "descent" not in json.dumps(report)


def test_rotated_check_cli(tmp_path):
    code, report, _ = run_cli(["rotated-check"], tmp_path, {"basis": {"degree": 6}})
    assert code == 0
    assert report["results"]["relative_difference"] < 1e-6


def test_rotated_check_folds_in_the_so3_minimizer(tmp_path):
    # on a full-SO(3) kernel the folded rotation is solve-limit's minimizer,
    # so the rotated loads' relaxed minimum is solve-limit's value
    cfg = {"beta": 0.0, "basis": {"degree": 6}}
    code, rotated, _ = run_cli(["rotated-check"], tmp_path, cfg)
    assert code == 0
    code, limit, _ = run_cli(["solve-limit"], tmp_path, cfg)
    assert code == 0
    res, value = rotated["results"], limit["results"]["value"]
    assert res["min_G_rotated"] == pytest.approx(value, rel=1e-12, abs=0.0)
    assert res["relative_difference"] < 1e-6
    angle = rotation_angle(np.array(limit["results"]["rotation"]))
    assert res["rotation_theta"] == pytest.approx(angle, rel=1e-12)


def test_solve_linear_incompressible_upper_at_degree_8(tmp_path):
    # the divergence-free fields of degree 8, the kernel of div in the full space
    code, report, _ = run_cli(["solve-linear"], tmp_path)
    assert code == 0
    upper = report["results"]["incompressible"]["upper"]
    assert upper == pytest.approx(-0.00614485494319541, rel=1e-13, abs=0.0)


def test_nonuniqueness_cli(tmp_path):
    code, report, _ = run_cli(["nonuniqueness"], tmp_path)
    assert code == 0
    assert report["results"]["distinct"] is True


def test_certification_failure_exit_code(tmp_path, monkeypatch):
    # a rotated check whose relative difference exceeds the tolerance exits 4;
    # the real difference is round-off, often exactly 0, so it is injected
    failed = RotatedCheck(rotation_theta=-0.5 * math.pi, min_E_rotated=-1.0,
                          min_G_rotated=-0.999, difference=1e-3, relative_difference=1e-3,
                          kernel_unchanged=True, gap_at_identity=0.5)
    monkeypatch.setattr(cli, "rotated_no_gap_check", lambda *args, **kwargs: failed)
    code, report, _ = run_cli(["rotated-check"], tmp_path)
    assert code == 4
    assert report["results"]["relative_difference"] > report["results"]["tolerance"]


def test_uncertified_gap_report_exit_code(tmp_path):
    # at degree 2 the divergence-free relaxed upper bound is not below the dual
    # lower bound: a real certification failure, exit 4 with the report written
    code, report, _ = run_cli(["gap-report"], tmp_path, {"basis": {"degree": 2}})
    assert code == 4
    assert report["results"]["margin"] > 0
    assert report["results"]["incompressible"]["certified"] is False


def test_gap_report_certifies_from_degree_3(tmp_path):
    # the divergence-free relaxed minimum over the kernel, -0.01178, already
    # sits below the dual lower bound of the linear minimum, -0.01122
    code, report, _ = run_cli(["gap-report"], tmp_path, {"basis": {"degree": 3}})
    assert code == 0
    inc = report["results"]["incompressible"]
    assert inc["certified"] is True
    assert inc["min_GI_upper"] < inc["min_EI_lower"]


def test_solver_error_exit_code(tmp_path):
    # the pull-in load is incompatible: limit minimization must refuse
    cfg = {"builtin": "ball_pull_in", "domain": {"kind": "ball"}, "basis": {"degree": 2}}
    code, _, _ = run_cli(["solve-limit"], tmp_path, cfg)
    assert code == 3


_CLOSED_FORM_SUBCOMMANDS = ("gap-report", "verify-explicit", "nonlinear-study")


@pytest.mark.parametrize("sub,cfg,message", [
    *(pytest.param(sub, {"domain": {"radius": 2.0}}, "unit cylinder", id=sub)
      for sub in _CLOSED_FORM_SUBCOMMANDS),
    *(pytest.param(sub, {"surface_pressure": 0.5, "basis": {"degree": 6}}, "surface pressure",
                   id=f"pressure-{sub}") for sub in _CLOSED_FORM_SUBCOMMANDS),
])
def test_off_unit_cylinder_is_a_config_error(tmp_path, capsys, sub, cfg, message):
    # the closed forms exist only on the unit cylinder without surface
    # pressure: exit 2, no traceback
    code, report, _ = run_cli([sub], tmp_path, cfg)
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("domain", [{"height": 2.0}, {"kind": "ball"}], ids=["height2", "ball"])
def test_axial_resultant_on_the_load_domain_is_a_config_error(tmp_path, capsys, domain):
    # psi = beta (z - 1/2) has zero mean on (0, 1) but not on [0, 2] (resultant
    # pi beta) or against the ball's slices on [-1, 1]: every subcommand
    # exits 2 and names the resultant
    for sub in cli.SUBCOMMANDS:
        code, report, _ = run_cli([sub], tmp_path, {"domain": domain})
        assert (code, report) == (2, None), sub
        err = capsys.readouterr().err
        assert "nonzero resultant" in err and "Traceback" not in err, sub


def test_incompressible_subcommands_assemble_one_system(tmp_path, monkeypatch):
    # solve-linear and gap-report restrict the full system they assemble to
    # its divergence-free fields; they assemble no second system
    kinds = []

    def counted(space, *args, **kwargs):
        kinds.append(space.kind)
        return assemble(space, *args, **kwargs)

    monkeypatch.setattr(cli, "assemble", counted)
    monkeypatch.setattr(limits, "assemble", counted)
    for sub in ("solve-linear", "gap-report"):
        kinds.clear()
        code, _, _ = run_cli([sub], tmp_path, {"basis": {"degree": 4}})
        assert code == 0 and kinds == ["full"], sub


def test_gap_report_on_a_full_so3_kernel_exits_on_the_margin_bound(tmp_path, monkeypatch):
    # at beta = 0 the closed form is an upper bound and min_E - galerkin_min_G
    # the proven lower bound of the gap; the exit code follows that bound
    cfg = {"beta": 0.0, "basis": {"degree": 8}}
    code, report, _ = run_cli(["gap-report"], tmp_path, cfg)
    assert code == 0
    res = report["results"]
    assert not {"min_G", "margin", "relative_margin", "galerkin_rel_err_G"} & res.keys()
    assert res["min_G_axis_upper"] == pytest.approx(-0.0336599, abs=1e-7)
    assert res["galerkin_min_G"] == pytest.approx(-0.0412950, abs=1e-7)
    assert res["margin_lower"] == res["min_E"] - res["galerkin_min_G"]
    gap_report = cli.gap_report

    def no_bound(*args, **kwargs):
        return dataclasses.replace(gap_report(*args, **kwargs), margin_lower=-1e-3)

    monkeypatch.setattr(cli, "gap_report", no_bound)
    code, report, _ = run_cli(["gap-report"], tmp_path, cfg)
    assert code == 4
    assert report["results"]["margin_lower"] == -1e-3


def test_nonlinear_study_on_a_full_so3_kernel_is_a_config_error(tmp_path, capsys):
    # at beta = 0 the study's start and limit, the swirl minimum about e_z,
    # lie above the relaxed minimum over SO(3): exit 2, no traceback
    code, report, _ = run_cli(["nonlinear-study"], tmp_path, {"beta": 0.0, "h_schedule": [0.2]})
    assert code == 2
    assert report is None
    err = capsys.readouterr().err
    assert "full-SO(3) kernel" in err and "Traceback" not in err


def test_nonlinear_study_on_the_ball_is_a_config_error(tmp_path, capsys):
    # a compatible profile load on the ball has no closed-form limit: exit 2
    # before the (cylinder-only) ansatz space is built
    code, report, _ = run_cli(["nonlinear-study"], tmp_path,
                              {"domain": {"kind": "ball"}, "beta": 0.0})
    assert code == 2
    assert report is None
    assert "cylinder profile loads" in capsys.readouterr().err


def test_empty_h_schedule_is_a_config_error(tmp_path, capsys):
    # an empty schedule would build the nonlinear context and write an empty table
    code, report, out = run_cli(["nonlinear-study"], tmp_path, {"h_schedule": []})
    assert code == 2
    assert report is None
    assert not (out / "report.csv").exists()
    assert "h_schedule" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [{"basis": {"degree": 10 ** 6}}, {"basis": {"degree": 13}},
                                 {"nonlinear_degree": 10 ** 9}, {"nonlinear_degree": 7},
                                 {"quadrature_order": 10 ** 9}, {"quadrature_order": 33},
                                 {"kernel_samples": 10 ** 12}, {"kernel_samples": 100_001}])
def test_oversized_config_rejected(tmp_path, capsys, cfg):
    # size parameters past their caps are config errors, before any table is built
    for sub in ("kernel", "solve-linear", "nonlinear-study"):
        code, report, _ = run_cli([sub], tmp_path, cfg)
        assert code == 2
        assert report is None
    assert "must be an integer in [1, " in capsys.readouterr().err


def test_config_hash_stable():
    h1 = config_hash(DEFAULT_CONFIG)
    h2 = config_hash(json.loads(json.dumps(DEFAULT_CONFIG)))
    assert h1 == h2


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, {**DEFAULT_CONFIG, "beta": 0.0,
                                                  "basis": {"degree": 6}}])
def test_config_hash_is_the_sha256_of_the_canonical_config(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    assert config_hash(cfg) == hashlib.sha256(canon.encode()).hexdigest()


def _python(code: str, *args: str, env: dict | None = None) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = os.environ if env is None else env
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env={**env, "PYTHONPATH": src})


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# the thread variables after the import, then the bundled OpenBLAS's own thread
# count where the numpy wheel ships one
_BLAS_PROBE = """
import ctypes, glob, os, sys
import traction_gap
import numpy as np
print(*(os.environ[var] for var in sys.argv[1:]))
threads = None
libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
for lib in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        getter = getattr(ctypes.CDLL(lib), symbol, None)
        if getter is not None and threads is None:
            getter.restype = ctypes.c_int
            threads = getter()
print(threads)
"""


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "set"])
def test_blas_threads_default_to_one(preset):
    # importing the package before numpy sets one BLAS thread unless the
    # variable was already set; a value the caller set is kept
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    if preset is not None:
        env.update(dict.fromkeys(_BLAS_VARS, preset))
    proc = _python(_BLAS_PROBE, *_BLAS_VARS, env=env)
    assert proc.returncode == 0, proc.stderr
    variables, threads = proc.stdout.splitlines()
    assert variables.split() == [preset or "1"] * 2
    if threads != "None":  # a numpy wheel with a bundled OpenBLAS, capped at the cores
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert int(threads) == min(int(preset or "1"), cores)


def test_import_does_not_load_openssl():
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        pytest.skip("this Python build has no built-in SHA-256")
    proc = _python("import sys, traction_gap.cli; print('_hashlib' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM is read from /proc/self/status")
def test_meta_peak_rss_is_the_cli_processes_own(tmp_path):
    # ru_maxrss keeps the launching process's high-water mark across exec;
    # this launcher touches 120 MB before it starts the CLI
    launcher = ("import subprocess, sys\n"
                "ballast = b'\\x01' * (120 << 20)\n"
                "sys.exit(subprocess.call([sys.executable, '-m', 'traction_gap.cli',"
                " 'check-loads', '--out', sys.argv[1]]))\n")
    proc = _python(launcher, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    peak = json.loads((tmp_path / "meta.json").read_text())["peak_rss_mb"]
    assert 0.0 < peak < 90.0


_numbers = (st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e300, 0.0])
            | st.floats(allow_nan=True, allow_infinity=True) | st.integers(-3, 3))
_PHI = DEFAULT_CONFIG["phi_coeffs"]
_PSI = DEFAULT_CONFIG["psi_coeffs"]


# (valid, invalid) draws per field; the invalid one may still land on a valid value
_FIELDS = {
    "radius": (st.just(1.0), _numbers),
    "height": (st.just(1.0), _numbers),
    "phi_coeffs": (st.sampled_from([_PHI, _ODD_PHI]), st.lists(_numbers, max_size=7)),
    "psi_coeffs": (st.just(_PSI), st.lists(_numbers, max_size=3)),
    "beta": (st.sampled_from([0.01, 0.0]), _numbers),
    "surface_pressure": (st.none(), _numbers),
}


@st.composite
def small_configs(draw):
    """Small configs around the preset with at most one field drawn from its
    invalid branch (NaN/inf and huge numbers allowed there)."""
    bad = draw(st.none() | st.sampled_from(list(_FIELDS)))  # half the examples are valid
    value = {key: draw(pair[key == bad]) for key, pair in _FIELDS.items()}
    kind = draw(st.sampled_from(["cylinder", "cylinder", "ball"]))
    cfg = {
        "domain": {"kind": kind, "radius": value.pop("radius"), "height": value.pop("height")},
        **value,
        "basis": {"degree": draw(st.integers(1, 3))},
        "quadrature_order": draw(st.integers(1, 8)),
        "kernel_samples": draw(st.integers(1, 20)),
        "h_schedule": [0.2, 0.1],
        "nonlinear_degree": 2,
    }
    if kind == "ball" and draw(st.booleans()):
        cfg["builtin"] = "ball_pull_in"
    return cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite input on purpose
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_configs(), sub=st.sampled_from(sorted(cli.SUBCOMMANDS)))
@example(cfg={"domain": {"kind": "ball", "radius": 1e300, "height": 1.0}, "phi_coeffs": _PHI,
              "psi_coeffs": _PSI, "beta": 0.01, "surface_pressure": None,
              "basis": {"degree": 1}, "quadrature_order": 1, "kernel_samples": 1,
              "h_schedule": [0.2, 0.1], "nonlinear_degree": 2, "builtin": "ball_pull_in"},
         sub="check-loads")  # a^5 overflowed float: an OverflowError traceback
def test_random_configs_end_in_a_documented_exit_code(cfg, sub):
    # every config runs or fails with 2 (config), 3 (solver) or 4
    # (certification); an escaping exception fails the test, and a run that
    # succeeds writes strict JSON, every number finite
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        code = main([sub, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
