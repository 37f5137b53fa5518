"""End-to-end and per-layer benchmark of the traction-gap CLI.

Run from the root of a checkout:

  python3 perfbench/run.py --workload cylinder_axis --seed 1 --seconds 36 --trace 0

Each run times a few fresh-interpreter set-ups, then runs passes of the
workload, one child process at a time, until ``--seconds`` would be
exceeded (at least one pass).  A pass calls ``traction_gap.cli.main`` once
per subcommand, in an order shuffled by the seed, and every report is
checked against closed forms and against the previous pass of the same
workload on the same sources.  With ``--trace 1`` one more, traced pass
follows and the per-layer metrics are reported instead of the end-to-end
ones.  Results,
spans and reports go to ``.perfbench_out/<workload>/``; the last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_workloads import SHORT_SUBCOMMANDS, WORKLOADS, check_report, compute_references

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 11
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The parent's environment with BLAS limited to one thread per core."""
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def source_facts(root: Path) -> dict:
    """The git commit when the checkout is a repository, and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the child processes of one run, one at a time, under a deadline."""

    def __init__(self, root: Path, out_dir: Path, config: Path, deadline: float, last_dir: Path):
        self.root, self.out_dir, self.config, self.deadline = root, out_dir, config, deadline
        self.last_dir = last_dir  # reports of the previous pass of the same code and config
        self.env = child_env()

    def child(self, mode: str, *extra: str) -> dict:
        result = self.out_dir / f"{mode}.result.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "bench_child.py"), mode,
               "--src", str(self.root / "src"), "--config", str(self.config),
               "--result", str(result), *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for a {mode} process")
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process killed at the run deadline")
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(result.read_text())


def run_pass(runner: Runner, workload, refs, order: list[str], spans: Path | None) -> dict:
    """One pass in a fresh process; every call gets its list of problems."""
    pass_dir = runner.out_dir / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    last_dir = runner.last_dir
    last_dir.mkdir(parents=True, exist_ok=True)
    extra = ["--out", str(pass_dir), "--order", ",".join(order)]
    if spans is not None:
        extra += ["--spans", str(spans)]
    t0 = time.monotonic()
    try:
        res = runner.child("pass", *extra)
    except BenchError as err:
        calls = [{"sub": sub, "problems": [str(err)]} for sub in order]
        return {"ok": False, "wall_s": time.monotonic() - t0, "calls": calls}
    res["wall_s"] = time.monotonic() - t0
    for call in res["calls"]:
        sub = call["sub"]
        report = pass_dir / sub / "report.json"
        data = report.read_bytes() if report.exists() else None
        results = json.loads(data)["results"] if data is not None else None
        problems = check_report(workload, refs, sub, call["code"], results)
        if call["error"]:
            problems.append(call["error"].strip().splitlines()[-1])
        if data is not None:
            last = last_dir / f"{sub}.report.json"
            if last.exists() and last.read_bytes() != data:
                problems.append("report.json differs from the previous pass")
            last.write_bytes(data)
        call["problems"] = problems
    res["ok"] = True
    return res


def run_workload(root: Path, workload, seed: int, seconds: float, trace: bool,
                 out_root: Path, setup_samples: int = SETUP_SAMPLES, refs=None) -> dict:
    """Set-up probes, untraced passes for ``seconds``, then the traced pass."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    out_dir = out_root / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "config.json"
    config.write_text(workload.config_json() + "\n")
    facts = source_facts(root)
    # Reports are compared only between passes of the same sources and config,
    # so a change that moves round-off is not counted as a failure.
    key = hashlib.sha256(f"{facts['src_sha256']}:{workload.config_json()}".encode())
    runner = Runner(root, out_dir, config, deadline, out_dir / "last" / key.hexdigest()[:16])
    if refs is None:
        refs = compute_references(workload, str(config))

    probes = [runner.child("setup") for _ in range(setup_samples)]
    env = {**probes[0]["env"], "seed": seed, **facts}

    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(runner, workload, refs, workload.order(seed, len(passes)), None))
        walls = [p["wall_s"] for p in passes]
        if not passes[-1]["ok"] or time.monotonic() - start + statistics.median(walls) > seconds:
            break
    traced = None
    if trace and passes[-1]["ok"]:
        spans = out_dir / "spans.json"
        traced = run_pass(runner, workload, refs, workload.order(seed, len(passes)), spans)

    calls = [c for p in passes + ([traced] if traced else []) for c in p["calls"]]
    failed = sum(1 for c in calls if c["problems"])
    good = [p for p in passes if p["ok"]]
    metrics = end_to_end_metrics(probes, good, workload)
    layers = layer_metrics(traced, good, out_dir) if traced and traced["ok"] else {}
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "env": env,
        "references": vars(refs),
        "setup_samples": [p["setup_s"] for p in probes],
        "passes": passes,
        "traced_pass": traced,
        "attempted": len(calls),
        "failed": failed,
        "failed_share": failed / len(calls),
        "end_to_end": metrics,
        "per_layer": layers,
    }
    (out_dir / "results.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end_metrics(probes: list[dict], passes: list[dict], workload) -> dict:
    """name -> {"value", "unit", "n"}: medians over probes or passes.

    A metric without samples (every pass crashed) is left out rather than
    reported as 0.
    """
    samples = {"setup_s": ([p["setup_s"] for p in probes], "s"),
               "pass_s": ([p["pass_s"] for p in passes], "s")}
    for sub in workload.subcommands:
        if sub not in SHORT_SUBCOMMANDS:
            samples[f"{sub.replace('-', '_')}_s"] = (
                [c["seconds"] for p in passes for c in p["calls"] if c["sub"] == sub], "s")
    samples["peak_rss_mb"] = ([p["peak_rss_mb"] for p in passes], "MB")
    return {name: {"value": _median(values), "unit": unit, "n": len(values)}
            for name, (values, unit) in samples.items() if values}


def layer_metrics(traced: dict, passes: list[dict], out_dir: Path) -> dict:
    import bench_trace

    spans = json.loads((out_dir / "spans.json").read_text())
    values = bench_trace.layer_metrics(
        spans,
        traced_pass_s=traced["pass_s"],
        untraced_pass_s=_median([p["pass_s"] for p in passes]),
        report_bytes=sum(c["report_bytes"] for c in traced["calls"]),
        kernel_call_s=traced["kernel_call_s"],
        kernel_batch=traced["kernel_batch"],
    )
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {len(result['passes'])}")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<24} {m['value']:>12.6g} {m['unit']:<8} median of {m['n']}")
    print(f"  {'failed_share':<24} {result['failed_share']:>12.6g} {'ratio':<8} "
          f"{result['failed']} of {result['attempted']} calls")
    for name, m in result["per_layer"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    for p in result["passes"] + ([result["traced_pass"]] if result["traced_pass"] else []):
        for c in p["calls"]:
            for problem in c["problems"]:
                print(f"  FAILED {c['sub']}: {problem}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def summary_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in result["per_layer"].items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name]["value"], "unit": unit}
                   for name, unit in END_TO_END if name in result["end_to_end"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "traction_gap" / "cli.py").is_file():
        print(f"no traction_gap sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import traction_gap

    if not Path(traction_gap.__file__).resolve().is_relative_to(src.resolve()):
        print(f"traction_gap imported from {traction_gap.__file__}, not {src}", file=sys.stderr)
        return 2
    try:
        result = run_workload(root, WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), root / OUT_DIR)
    except BenchError as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 3
    print_summary(result)
    print(json.dumps(summary_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
