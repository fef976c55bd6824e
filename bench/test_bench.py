"""Tests of the benchmark's own generator, checkers and tracer.

    python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import run_op  # noqa: E402

import flowergraphs  # noqa: E402
from flowergraphs import cli  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    first = workloads.build(name, 7, workloads.NOMINAL_SECONDS)
    again = workloads.build(name, 7, workloads.NOMINAL_SECONDS)
    other = workloads.build(name, 8, workloads.NOMINAL_SECONDS)
    assert [op.argv for op in first.ops] == [op.argv for op in again.ops]
    assert first.base_files() == again.base_files()
    assert [op.argv for op in first.ops] != [op.argv for op in other.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_nominal_run_has_a_p90_with_ten_samples_beyond(name):
    ops = workloads.build(name, 1, workloads.NOMINAL_SECONDS).ops
    assert len(ops) >= 100


@pytest.mark.parametrize("name", ["verify-grid", "sweep-large"])
def test_no_two_ops_share_a_flower(name):
    ops = workloads.build(name, 3, workloads.NOMINAL_SECONDS).ops
    assert len({op.flower for op in ops}) == len(ops)


def test_exact_generic_shares_each_base_among_its_ops():
    work = workloads.build("exact-generic", 3, workloads.NOMINAL_SECONDS)
    per_flower = {}
    for op in work.ops:
        per_flower.setdefault(op.flower, []).append(op.command)
    expected = ["bounds", "kemeny", "kirchhoff", "maxres"]
    assert all(sorted(commands) == expected for commands in per_flower.values())
    sizes = sorted(1 + max(max(e) for e in edges) for edges in work.bases.values())
    assert sizes[0] == 8 and sizes[-1] == workloads.EXACT_MAX_M


def test_exact_generic_bases_have_under_a_million_spanning_trees():
    """The base resistances' denominators stay within what rationalize recovers."""
    for seed in range(50):
        for edges in workloads.build("exact-generic", seed, workloads.NOMINAL_SECONDS).bases.values():
            m = 1 + max(max(e) for e in edges)
            lap = np.zeros((m, m))
            for u, v in edges:
                lap[[u, v], [u, v]] += 1
                lap[u, v] = lap[v, u] = -1
            assert round(np.linalg.det(lap[1:, 1:])) <= 10**6


def test_exact_table_matches_cycle_closed_form():
    m = 6
    edges = [(i, (i + 1) % m) for i in range(m)]
    table = checks.exact_resistance_table(m, [tuple(sorted(e)) for e in edges])
    for d in range(m):
        assert table[0][d] == Fraction((m - d) * d, m)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def test_end_to_end_metrics_match_the_declared_names_and_units():
    work = workloads.build("verify-grid", 1, 2)
    passes = [
        {"latencies": [0.01 * (k + 1)] * len(work.ops), "peak_rss_mb": 60.0 + k}
        for k in range(run.PASSES)
    ]
    metrics = run.end_to_end(work, passes, [0.2, 0.3, 0.25])
    assert {name: unit for name, (_, unit) in metrics.items()} == _declared("end_to_end")
    # Each op at its fastest pass; memory at the median pass.
    assert metrics["wall_s"][0] == pytest.approx(0.01 * len(work.ops))
    assert metrics["peak_rss_mb"][0] == 60.0 + (run.PASSES - 1) / 2


def test_verify_check_counts_pairs():
    flower = workloads.Flower("complete", 4, 5)
    op = workloads.Op(0, "verify", ("verify", "--family", "complete", "--m-range", "4",
                                    "--n-range", "5"), flower)
    code, text = run_op(cli.main, op.argv)
    assert checks.check_verify(op, code, text) is None
    assert checks.check_verify(op, code, text.replace(str(flower.pairs), str(flower.pairs - 1)))
    assert checks.check_verify(op, 1, text)


def test_sweep_check_rejects_missing_row_and_wrong_value():
    flower = workloads.Flower("cycle", 6, 5, 2)
    op = workloads.Op(0, "sweep", ("sweep", "--family", "cycle", "--m-range", "6",
                                   "--n-range", "5", "--p-range", "2"), flower)
    code, text = run_op(cli.main, op.argv)
    assert checks.check_sweep(op, code, text) is None
    lines = text.splitlines()
    assert checks.check_sweep(op, code, "\n".join(lines[:-1]) + "\n")
    header, first, second = lines
    fields = first.split(",")
    fields[6] = repr(float(fields[6]) * (1 + 1e-6))
    assert checks.check_sweep(op, code, "\n".join([header, ",".join(fields), second]) + "\n")


def test_exact_checks_accept_real_output_and_reject_corruption(tmp_path, monkeypatch):
    work = workloads.Workload([], {"petersen.txt": workloads.PETERSEN_EDGES})
    (tmp_path / "petersen.txt").write_text(work.base_files()["petersen.txt"])
    monkeypatch.chdir(tmp_path)
    flower = workloads.Flower("generic", 10, 4, None, "petersen.txt", 0, 2)
    checker = checks.Checker(work)
    family = ("--family", "generic", "--base", "petersen.txt", "--x", "0", "--y", "2", "-n", "4")
    for command, extra in workloads.EXACT_COMMANDS:
        op = workloads.Op(0, command, (command, *family, *extra), flower)
        code, text = run_op(cli.main, op.argv)
        assert checker.check(op, code, text) is None, (command, text)
        corrupted = text.replace("/", "1/", 1)
        assert checker.check(op, code, corrupted) is not None, (command, corrupted)
        assert checker.check(op, 2, text) is not None


def test_every_failed_op_of_every_pass_is_counted():
    work = workloads.build("sweep-large", 1, 1)
    outputs = [run_op(cli.main, op.argv) for op in work.ops]
    code, text = outputs[0]
    corrupted = [(code, text.replace("kemeny", "kemenyy")), *outputs[1:]]
    failures = run.check_passes(work, [{"outputs": outputs}, {"outputs": corrupted}])
    assert [(f["pass"], f["op"]) for f in failures] == [(1, 0)]


def test_run_op_counts_exceptions_as_failures():
    argv = ["verify", "--family", "complete", "--m-range", "2", "--n-range", "4"]
    code, text = run_op(cli.main, argv)
    assert code != 0 and text


def test_tracer_self_times_add_up_and_uninstall_restores():
    original = cli.main
    tracer = Tracer()
    tracer.install(flowergraphs)
    try:
        assert cli.main is not original
        tracer.begin_op(0, tracer.clock())
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--family", "cycle", "--m-range", "5", "--n-range", "4"])
        tracer.end_op(tracer.clock())
    finally:
        tracer.uninstall()
    assert cli.main is original
    root = next(s for s in tracer.spans if tracer.names[s[0]] == "bench.op")
    assert sum(tracer.self_times().values()) == pytest.approx(root[6], rel=1e-9)
    # Two instances (p = 1, 2) of 16 vertices each.
    metrics = tracer.layer_metrics(root[6], {0}, 2 * (16 * 15 // 2))
    declared = _declared("per_layer")
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        name: unit for name, unit in declared.items() if name != "trace.overhead_s"
    }
    assert metrics["cli.closed_evals_per_pair"][0] == 1.0
    assert metrics["graphs.graph_builds"][0] > 0
    assert metrics["oracle.resistance_matrix_calls"][0] == 2
