"""One benchmark process: a set-up probe, or one pass of a workload.

perfbench/run.py starts these one at a time, each in a fresh interpreter:

  bench_child.py setup --src SRC --config CFG --result OUT
  bench_child.py pass  --src SRC --config CFG --result OUT --out DIR --order a,b,c
                       [--spans SPANS]

``setup`` times ``import traction_gap.cli`` plus config validation and the
load spec.  ``pass`` calls ``cli.main`` once per subcommand in the given
order and times each call; with ``--spans`` it first installs the tracer
and, after the pass, writes the spans and times the energy kernels on the
batch size the pass used.  Results go to the ``--result`` JSON file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def setup_probe(args) -> dict:
    t0 = time.perf_counter()
    from traction_gap import cli

    cfg = cli.validate_config(cli.load_config(args.config))
    cli.spec_from_config(cfg)
    return {"setup_s": time.perf_counter() - t0, "env": environment()}


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with the numpy wheel, if there is one."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import os
    import platform

    import numpy as np

    from traction_gap import active_backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": active_backend(),
    }


def run_pass(args) -> dict:
    from traction_gap import cli

    tracer = None
    if args.spans:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install()
    calls = []
    t_pass = time.perf_counter()
    for sub in args.order.split(","):
        out = Path(args.out) / sub
        t0 = time.perf_counter()
        try:
            code, error = cli.main([sub, "--config", args.config, "--out", str(out)]), None
        except (Exception, SystemExit):
            code, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        calls.append({"sub": sub, "code": code, "seconds": seconds,
                      "report_bytes": written, "error": error})
    result = {
        "pass_s": time.perf_counter() - t_pass,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
    }
    if tracer is not None:
        kernels = {k: tracer.originals[f"energy.{k}"] for k in bench_trace.KERNELS
                   if f"energy.{k}" in tracer.originals}
        batch = max((s["counts"].get("batch", 0) for s in tracer.spans), default=0)
        result["kernel_batch"] = batch
        result["kernel_call_s"] = bench_trace.time_kernels(kernels, batch) if batch else {}
        Path(args.spans).write_text(json.dumps(tracer.spans))
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--order")
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    result = setup_probe(args) if args.mode == "setup" else run_pass(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
