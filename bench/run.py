"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  Each pass over the workload's op list is
a fresh Python process (``worker.py``) that imports the package from ``src/``
and calls ``flowergraphs.cli.main(argv)`` once per op, one op after another
(a closed loop with one client), so the package's caches start empty as they
do for a CLI user.  BLAS may use at most one thread per available core.

``--trace 0`` makes ``PASSES`` passes over the same op list and takes each
op's latency as its fastest over the passes: load from another process on
the machine only ever slows an op down, so the fastest of the passes is the
one a burst of load is least likely to have touched.  Set-up is timed in
every pass and in ``SETUP_PROBES`` more processes and reported as the median.
``--trace 1`` makes one untraced and one traced pass, prints the per-layer
metrics of the traced pass and writes its spans under ``.bench_out/``.

Every op's output of every pass is checked (see checks.py).  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with the machine description
and every failure, goes to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402

PASSES = 4
SETUP_PROBES = 2
RUN_TIMEOUT_S = 170

class Runner:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.deadline = time.monotonic() + RUN_TIMEOUT_S
        nproc = str(len(os.sched_getaffinity(0)))
        self.env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": nproc,
            "OMP_NUM_THREADS": nproc,
            "MKL_NUM_THREADS": nproc,
            "PYTHONHASHSEED": "0",
        }
        self.out_dir = ROOT / ".bench_out"
        self.out_dir.mkdir(exist_ok=True)

    def worker(self, trace: int, setup_only: bool = False) -> dict:
        result_path = self.out_dir / f"worker-{os.getpid()}.json"
        command = [
            sys.executable, str(BENCH_DIR / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", str(self.args.seconds), "--trace", str(trace),
            "--result", str(result_path),
        ]
        if setup_only:
            command.append("--setup-only")
        t0 = time.monotonic()
        try:
            subprocess.run(
                command + ["--t0", repr(t0)], cwd=ROOT, env=self.env, check=True,
                stdout=subprocess.DEVNULL, timeout=max(1.0, self.deadline - t0),
            )
            return json.loads(result_path.read_text())
        finally:
            result_path.unlink(missing_ok=True)


def end_to_end(workload, passes: list[dict], setup_samples: list[float]) -> dict:
    """Every end-to-end metric, as ``{name: (value, unit)}``."""
    latencies = [min(times) for times in zip(*(p["latencies"] for p in passes))]
    wall_s = sum(latencies)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "pairs_per_s": (sum(op.flower.pairs for op in workload.ops) / wall_s, "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def check_passes(workload, passes: list[dict]) -> list[dict]:
    """Every failed op of every pass, with the reason."""
    checker = checks.Checker(workload)
    failures = []
    for number, result in enumerate(passes):
        if len(result["outputs"]) != len(workload.ops):
            raise ValueError(f"pass {number} returned {len(result['outputs'])} outputs "
                             f"for {len(workload.ops)} ops")
        for op, (code, text) in zip(workload.ops, result["outputs"]):
            reason = checker.check(op, code, text)
            if reason is not None:
                failures.append({"pass": number, "op": op.index, "argv": list(op.argv),
                                 "reason": reason[:300]})
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "flowergraphs" / "__init__.py").is_file():
        print(f"bench: no flowergraphs package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args)
    workload = workloads.build(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            passes = [runner.worker(0), runner.worker(1)]
        else:
            setup = [runner.worker(0, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
            passes = [runner.worker(0) for _ in range(PASSES)]
        failures = check_passes(workload, passes)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: run failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        untraced, traced = passes
        metrics = {name: tuple(entry) for name, entry in traced["layers"].items()}
        metrics["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    else:
        setup += [p["setup_s"] for p in passes]
        metrics = end_to_end(workload, passes, setup)

    attempted = sum(len(p["outputs"]) for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {
            "ops": len(workload.ops),
            "passes": len(passes),
            "latency_samples_per_percentile": len(workload.ops),
            "setup_samples": 0 if args.trace else SETUP_PROBES + PASSES,
        },
        "pass_wall_s": [p["wall_s"] for p in passes],
        "machine": passes[-1]["machine"],
        "attempted": attempted,
        "failed": len(failures),
        "fail_rate": len(failures) / attempted,
        "failures": failures,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    if args.trace:
        record["spans_file"] = traced["spans_file"]
        record["self_sum_s"] = traced["self_sum_s"]
    path = runner.out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6g} {unit}")
    print(f"{'ops':32s} {len(workload.ops):16d} per pass, {len(passes)} passes")
    machine = record["machine"]
    blas = ", ".join(
        f"{name} threads={lib.get('threads')}" for name, lib in machine["blas"].items()
    )
    print(f"machine: nproc={machine['nproc']} python={machine['python']} numpy={machine['numpy']} "
          f"scipy={machine['scipy']} blas: {blas}; seed={args.seed}")
    print(f"{'fail_rate':32s} {record['fail_rate']:16.6g} ({len(failures)}/{attempted})")
    for failure in failures[:5]:
        print(f"FAILED op {failure['op']}: {' '.join(failure['argv'])}: {failure['reason']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
