"""One pass over a workload's op list in a fresh process.

``run.py`` starts this script; it is not meant to be run by hand.  The
process imports the package from ``src/`` of the checkout, writes the base
files into a scratch directory inside the checkout, calls
``flowergraphs.cli.main(argv)`` for each op with stdout captured, and writes
its timings and every op's exit code and output as JSON to ``--result``.
With ``--setup-only`` it stops where the first op would start, so ``run.py``
can time set-up on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402,F401

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def import_package():
    """Import flowergraphs from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import flowergraphs
    import flowergraphs.cli

    if Path(flowergraphs.__file__).resolve().parent != src / "flowergraphs":
        raise ImportError(f"flowergraphs imported from {flowergraphs.__file__}, not {src}")
    return flowergraphs


def blas_record() -> dict:
    """BLAS libraries loaded in this process and their thread counts."""
    libraries = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and "threads" not in entry:
                    get_threads.restype = ctypes.c_int
                    entry["threads"] = get_threads()
                if get_config is not None and "config" not in entry:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
        libraries[Path(path).name] = entry
    return libraries


def machine_record() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "blas_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run_op(main, argv) -> tuple[int, str]:
    """Call the CLI in-process; every exception counts as a failed op."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not a benchmark error
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue() if code == 0 else out.getvalue() + err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    package = import_package()
    workload = workloads.build(args.workload, args.seed, args.seconds)
    workdir = ROOT / ".bench_out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, text in workload.base_files().items():
            (workdir / name).write_text(text)
        os.chdir(workdir)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(package)
        cli_main = package.cli.main
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
            return 0

        outputs = []
        latencies = []
        clock = time.perf_counter
        start = previous = clock()
        for op in workload.ops:
            if tracer:
                tracer.begin_op(op.index, previous)
            code, text = run_op(cli_main, op.argv)
            now = clock()
            if tracer:
                tracer.end_op(now)
            latencies.append(now - previous)
            outputs.append((code, text))
            previous = now
        wall_s = previous - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        os.chdir(ROOT)

        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "latencies": latencies,
            "outputs": outputs,
            "peak_rss_mb": peak_rss_mb,
            "machine": machine_record(),
        }
        if tracer:
            tracer.uninstall()
            verify_ops = {op.index for op in workload.ops if op.command == "verify"}
            verify_pairs = sum(op.flower.pairs for op in workload.ops if op.command == "verify")
            result["layers"] = tracer.layer_metrics(wall_s, verify_ops, verify_pairs)
            result["self_sum_s"] = sum(tracer.self_times().values())
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path, start, {
                "workload": args.workload, "seed": args.seed, "wall_s": wall_s,
                "ops": [{"op": op.index, "argv": list(op.argv)} for op in workload.ops],
            })
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        Path(args.result).write_text(json.dumps(result))
        return 0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
