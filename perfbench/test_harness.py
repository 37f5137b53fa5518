"""Self-test of the benchmark harness on tiny inputs; it runs in seconds.

The tiny variants keep each workload's subcommands and code paths but use
low Galerkin degrees and a two-step h schedule.  Degree 5 is the smallest
at which gap-report still certifies the incompressible gap (exit 0).  It
sits 6.7% above the closed-form minima, so the Galerkin gates are checked,
at the full workloads' 1e-8, against degree-5 solves instead.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from bench_workloads import WORKLOADS, compute_references  # noqa: E402
from traction_gap import cli  # noqa: E402
from traction_gap.limits import min_limit, min_linear  # noqa: E402

TINY = {
    "cylinder_axis": {"basis": {"degree": 5}, "quadrature_order": 8, "kernel_samples": 50,
                      "nonlinear_degree": 2, "h_schedule": [0.2, 0.1]},
    "cylinder_so3": {"basis": {"degree": 2}, "quadrature_order": 8, "kernel_samples": 50},
    "thin_film": {"nonlinear_degree": 2, "h_schedule": [0.2, 0.1]},
}


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, config={**w.config, **TINY[name]})


def tiny_references(workload, tmp_path: Path):
    """The workload's references, with Galerkin minima at its own degree."""
    config = tmp_path / "refs_config.json"
    config.write_text(workload.config_json())
    refs = compute_references(workload, str(config))
    if not {"solve-linear", "gap-report"} & set(workload.subcommands):
        return refs
    cfg = cli.validate_config(cli.load_config(str(config)))
    spec, degree = cli.spec_from_config(cfg), cfg["basis"]["degree"]
    return dataclasses.replace(refs, min_linear=min_linear(spec, degree=degree).value,
                               min_swirl=min_limit(spec, degree=degree).value)


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_gates_and_emits_every_metric(name, tmp_path):
    workload = tiny(name)
    result = run.run_workload(ROOT, workload, seed=3, seconds=0, trace=True,
                              out_root=tmp_path, setup_samples=1,
                              refs=tiny_references(workload, tmp_path))
    problems = [p for pas in result["passes"] + [result["traced_pass"]]
                for c in pas["calls"] for p in c["problems"]]
    assert problems == []
    assert result["attempted"] == 2 * len(WORKLOADS[name].subcommands)
    assert result["failed_share"] == 0.0
    declared = declared_metrics()
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        line = run.summary_line(result, trace)
        assert line["correct"] is True
        emitted = {k: m["unit"] for k, m in line["metrics"].items()}
        assert emitted == declared[kind]
    spans = json.loads((tmp_path / name / "spans.json").read_text())
    assert {"id", "name", "start", "end", "parent", "counts"} <= set(spans[0])


def test_wrong_expected_value_counts_as_failed(tmp_path):
    workload = dataclasses.replace(tiny("cylinder_axis"), subcommands=("solve-linear",))
    refs = tiny_references(workload, tmp_path)
    wrong = dataclasses.replace(refs, min_linear=2.0 * refs.min_linear)
    result = run.run_workload(ROOT, workload, seed=3, seconds=0, trace=False,
                              out_root=tmp_path, setup_samples=1, refs=wrong)
    assert result["failed"] == result["attempted"] == 1
    assert result["failed_share"] == 1.0
    assert run.summary_line(result, False)["correct"] is False


def test_crashed_passes_report_no_pass_time():
    metrics = run.end_to_end_metrics([{"setup_s": 0.2}], [], WORKLOADS["cylinder_axis"])
    assert set(metrics) == {"setup_s"}
