"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import flowergraphs
from flowergraphs import (
    FlowerSpec,
    complete_flower_spec,
    cycle_flower_spec,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    format_rational,
    graph_from_edge_list,
    parse_edge_list,
)
from flowergraphs import cli, oracle
from flowergraphs.cli import FAMILIES, VERIFY_CHUNK_PAIRS, build_parser, main
from flowergraphs.flower import _laplacian_solve, _scaled_pair_resistance
from flowergraphs.graphs import Lift

from conftest import grid_graph, scalar_values_close
from flower_reference import summed_kirchhoff
from rotations import build_flower, format_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_gen_writes_sunflower_edge_list(capsys):
    code, out = run(capsys, "gen", "--family", "complete", "-m", "3", "-n", "3")
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 9


def test_gen_round_trip(capsys):
    code, out = run(capsys, "gen", "--family", "cycle", "-m", "5", "-n", "4", "-p", "2")
    assert code == 0
    g = graph_from_edge_list(parse_edge_list(out))
    assert g.vertex_count == 16
    assert g.edge_count == 20
    # round trip reproduces the construction exactly, labels included
    assert g == build_flower(cycle_flower_spec(5, 4, 2))


def test_gen_to_file(tmp_path, capsys):
    target = tmp_path / "flower.edges"
    code, _ = run(
        capsys, "gen", "--family", "complete", "-m", "4", "-n", "3", "-o", str(target)
    )
    assert code == 0
    g = graph_from_edge_list(parse_edge_list(target.read_text()))
    assert g.vertex_count == 9


def test_kirchhoff_exact_cycle(capsys):
    code, out = run(
        capsys, "kirchhoff", "--family", "cycle", "-m", "4", "-n", "3", "-p", "2", "--exact"
    )
    assert code == 0
    assert out.strip() == "33/1"


def test_kirchhoff_exact_on_a_base_with_millions_of_spanning_trees(tmp_path, capsys):
    grid = grid_graph(4, 5)
    (tmp_path / "grid.edges").write_text(format_edge_list(grid))
    expected = summed_kirchhoff(FlowerSpec(grid, 0, 19, 3))
    code, out = run(
        capsys, "kirchhoff", "--family", "generic", "--base", str(tmp_path / "grid.edges"),
        "--x", "0", "--y", "19", "-n", "3", "--exact",
    )
    assert code == 0
    assert out == f"{expected.numerator}/{expected.denominator}\n"


def test_kemeny_exact_and_oracle(capsys):
    code, out = run(capsys, "kemeny", "--family", "complete", "-m", "3", "-n", "3")
    assert code == 0
    exact, numeric = out.strip().splitlines()
    assert exact == "14/3"
    assert abs(float(numeric) - 14 / 3) <= 1e-9


def test_resist_pair_exact(capsys):
    code, out = run(
        capsys,
        "resist", "--family", "complete", "-m", "3", "-n", "3",
        "--pair", "1:0", "2:0", "--exact",
    )
    assert code == 0
    assert out.strip() == "4/9"


def test_resist_pair_oracle_agrees(capsys):
    code, out = run(
        capsys,
        "resist", "--family", "cycle", "-m", "6", "-n", "4", "-p", "3",
        "--pair", "1:1", "2:4",
    )
    assert code == 0
    exact, numeric = out.strip().splitlines()
    num, den = exact.split("/")
    assert abs(int(num) / int(den) - float(numeric)) <= 1e-9


def test_resist_full_matrix(capsys):
    code, out = run(capsys, "resist", "--family", "complete", "-m", "3", "-n", "3")
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 6
    assert all(len(row.split()) == 6 for row in rows)


def test_generic_family_from_edge_list(tmp_path, capsys):
    base = tmp_path / "path.edges"
    base.write_text("# three-vertex path\n0 1\n1 2\n")
    code, out = run(
        capsys,
        "resist", "--family", "generic", "--base", str(base),
        "--x", "0", "--y", "2", "-n", "3", "--pair", "1:1", "2:1", "--exact",
    )
    assert code == 0
    num, den = out.strip().split("/")
    assert int(den) > 0


def test_bounds_output(capsys):
    code, out = run(capsys, "bounds", "--family", "complete", "-m", "3", "-n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("kirchhoff ")
    assert lines[1].startswith("kemeny ")
    _, lo, hi, actual = lines[1].split()
    assert lo == "4/9"
    assert actual == "14/3"


def test_maxres_output(capsys):
    code, out = run(capsys, "maxres", "--family", "complete", "-m", "3", "-n", "5")
    assert code == 0
    assert "d=3" in out
    assert "r=22/15" in out


def test_verify_passes(capsys):
    code, out = run(
        capsys,
        "verify", "--family", "complete", "--m-range", "3:4", "--n-range", "3:4",
    )
    assert code == 0
    assert "ok" in out


def test_verify_cycle_with_p_range(capsys):
    code, out = run(
        capsys,
        "verify", "--family", "cycle", "--m-range", "4:5", "--n-range", "3:3",
        "--p-range", "1:2",
    )
    assert code == 0
    assert "ok" in out


def test_verify_generic(tmp_path, capsys):
    base = tmp_path / "p3.edges"
    base.write_text("0 1\n1 2\n")
    code, out = run(
        capsys,
        "verify", "--family", "generic", "--base", str(base),
        "--x", "0", "--y", "2", "--n-range", "3:4",
    )
    assert code == 0
    assert "ok" in out


def test_verify_failure_reports_and_exits_1(capsys):
    # An impossibly tight tolerance turns solver noise into mismatches,
    # exercising the failure path and its report format.
    code, out = run(
        capsys,
        "verify", "--family", "complete", "--m-range", "6:6", "--n-range", "8:8",
        "--tol", "1e-16",
    )
    assert code == 1
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fail_lines
    first = fail_lines[0]
    assert "family=complete" in first
    assert "m=6" in first and "n=8" in first
    assert "expected=" in first and "observed=" in first


def test_verify_checks_the_indices_the_oracle_reads_off_its_symbols(capsys, monkeypatch):
    """``verify`` takes both indices from ``oracle.numeric_indices``, as ``sweep``
    does, and not from the matrix its pairs are checked against: with the indices
    off by 1e-3, both fail and every pair still passes."""
    numeric_indices = oracle.numeric_indices

    def shifted(lift):
        return tuple(value + 1e-3 for value in numeric_indices(lift))

    monkeypatch.setattr(oracle, "numeric_indices", shifted)
    code, out = run(capsys, "verify", "--family", "complete", "--m-range", "5",
                    "--n-range", "10")
    spec = complete_flower_spec(5, 10)
    observed = shifted(spec.lift())
    assert code == 1
    assert out.splitlines() == [
        *(f"FAIL family=complete m=5 n=10 p=- quantity={quantity} "
          f"expected={format_rational(closed)} observed={value:.12g}"
          for quantity, closed, value in zip(
              ("kirchhoff", "kemeny"),
              (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec)), observed)),
        "verify: 2 mismatches over 1 instances, 780 pairs",
    ]


def _reference_verify_lines(spec: FlowerSpec, tag: str, tol: float) -> list[str]:
    """``verify``'s FAIL lines for one flower as the pair-at-a-time loop made them:
    ``float`` of each closed form against the matrix entry by the scalar rule, in
    row-major ``i < j`` order, then the two indices against ``numeric_indices``.
    Each closed form is ``4 n k_xy det R_ab(e)`` over its denominator, evaluated for
    that pair alone, so no value is read from the memo that ``verify`` fills."""
    matrix = oracle.resistance_matrix(spec.lift())
    det, k = _laplacian_solve(spec.base)
    denominator = 4 * spec.n * k[spec.x][spec.y] * det
    locators = [spec.locator_of(i) for i in range(spec.vertex_count)]
    lines = []
    for i, u in enumerate(locators):
        for j in range(i + 1, len(locators)):
            v = locators[j]
            e = (u.petal - v.petal) % spec.n
            expected = Fraction(
                _scaled_pair_resistance(spec, k, u.base_vertex, v.base_vertex, e), denominator
            )
            observed = float(matrix[i, j])
            if not scalar_values_close(float(expected), observed, tol):
                lines.append(
                    f"FAIL {tag} pair={u.petal}:{u.base_vertex},{v.petal}:{v.base_vertex} "
                    f"expected={format_rational(expected)} observed={observed:.12g}"
                )
    kirchhoff, kemeny = oracle.numeric_indices(spec.lift())
    indices = (
        ("kirchhoff", flower_kirchhoff_exact(spec), kirchhoff),
        ("kemeny", flower_kemeny_exact(spec), kemeny),
    )
    for quantity, closed, observed in indices:
        if not scalar_values_close(float(closed), observed, tol):
            lines.append(
                f"FAIL {tag} quantity={quantity} "
                f"expected={format_rational(closed)} observed={observed:.12g}"
            )
    return lines


def test_verify_across_chunks_prints_what_the_pair_loop_prints(capsys):
    """K6 with n = 52 (N = 260, 33,670 pairs) and C8 with p = 4 and n = 40
    (N = 280, 39,060 pairs), each in three runs of rows for the vectorized
    compare, with float noise above the tolerance in each."""
    flowers = (
        ("complete", complete_flower_spec(6, 52), None),
        ("cycle", cycle_flower_spec(8, 40, 4), 4),
    )
    for family, spec, p in flowers:
        m, n, count = spec.base.vertex_count, spec.n, spec.vertex_count
        assert VERIFY_CHUNK_PAIRS // count < count - 1
        argv = ["verify", "--family", family, "--m-range", str(m), "--n-range", str(n),
                "--tol", "1e-16"]
        if p is not None:
            argv += ["--p-range", str(p)]
        code, out = run(capsys, *argv)
        tag = f"family={family} m={m} n={n} p={'-' if p is None else p}"
        lines = _reference_verify_lines(spec, tag, 1e-16)
        assert len(lines) > 1000
        lines.append(f"verify: {len(lines)} mismatches over 1 instances, "
                     f"{count * (count - 1) // 2} pairs")
        assert code == 1
        assert out.endswith("\n")
        assert out.splitlines() == lines


def test_verify_c8_stays_within_the_resistance_matrix_memory(capsys):
    """C8 (p = 4, n = 160), N = 1,120: the peak is ``resistance_matrix``'s one
    N x N array; the compare may not add a second."""
    tracemalloc.start()
    try:
        code, out = run(
            capsys,
            "verify", "--family", "cycle", "--m-range", "8", "--n-range", "160",
            "--p-range", "4",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert out == "verify: ok (1 instances, 626640 pairs, tol=1e-09)\n"
    assert peak < 1.5 * 8 * 1120**2


def test_resist_streams_the_matrix_a_row_block_at_a_time(tmp_path):
    """C8 (p = 4, n = 80), N = 560: ``resist`` prints each row block as
    ``oracle.resistance_rows`` yields it and holds no N x N array (8 N^2 is 2.5 MB;
    the whole matrix peaked at 2.6 MB); its lines are ``resistance_matrix``'s rows."""
    spec = cycle_flower_spec(8, 80, 4)
    count = spec.vertex_count
    build_parser()
    path = tmp_path / "matrix.txt"
    with path.open("w") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = main(["resist", "--family", "cycle", "-m", "8", "-n", "80", "-p", "4"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0 and count == 560
    assert peak < 8 * count**2 / 4
    rows = oracle.resistance_matrix(spec.lift())
    assert path.read_text() == "".join(" ".join(f"{v:.12g}" for v in row) + "\n" for row in rows)


def test_sweep_memory_is_bounded_at_n_100000(capsys):
    """K10 with n = 100,000, N = 900,000: the Kron-reduced oracle keeps O(N |J|)
    complex numbers, ``|J| = 1`` for a flower, and peaks near 27 MiB; inverting every
    k x k symbol peaked at 133 MiB."""
    tracemalloc.start()
    try:
        code, out = run(
            capsys, "sweep", "--family", "complete", "--m-range", "10", "--n-range", "100000"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["quantity"] for row in rows] == ["kemeny", "kirchhoff"]
    for row in rows:
        assert float(row["abs_error"]) <= 1e-14 * float(Fraction(row["closed_form"]))
    assert peak < 64 * 2**20


def test_sweep_csv(capsys):
    code, out = run(
        capsys, "sweep", "--family", "complete", "--m-range", "3:3", "--n-range", "3:4"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "m", "n", "p", "quantity", "closed_form", "oracle", "abs_error"]
    assert len(rows) == 1 + 4  # two n values, two quantities each
    assert rows[1][0] == "complete"
    assert all(float(row[7]) <= 1e-9 for row in rows[1:])


def test_sweep_json(capsys):
    code, out = run(
        capsys,
        "sweep", "--family", "cycle", "--m-range", "4:4", "--n-range", "3:3", "--json",
    )
    assert code == 0
    rows = json.loads(out)
    assert {row["quantity"] for row in rows} == {"kirchhoff", "kemeny"}
    assert all(
        set(row) == {"family", "m", "n", "p", "quantity", "closed_form", "oracle", "abs_error"}
        for row in rows
    )
    kf = next(row for row in rows if row["quantity"] == "kirchhoff" and row["p"] == 2)
    assert kf["closed_form"] == "33/1"


@pytest.mark.parametrize(
    "grid",
    [
        "sweep --family complete --m-range 3:6 --n-range 3:9 --json",
        "sweep --family cycle --m-range 4:7 --n-range 3:9 --json",
        # At tolerance 0 which pairs fail depends on every bit of every resistance.
        "verify --family cycle --m-range 4:6 --n-range 3:6 --tol 0",
    ],
    ids=["sweep-complete", "sweep-cycle", "verify-cycle"],
)
def test_the_oracle_memo_changes_no_output_byte(capsys, grid):
    """The oracle reuses each lift pattern's ``n``-free part across the grid and
    across commands; cold and warm, in one process, the output is the same."""
    oracle._pattern.cache_clear()
    cold = run(capsys, *grid.split())
    assert oracle._pattern.cache_info().hits
    assert run(capsys, *grid.split()) == cold


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--family", "complete", "--m-range", "3:4", "--n-range", "3:5"),
        ("sweep", "--family", "cycle", "--m-range", "6", "--n-range", "4", "--json"),
        ("kirchhoff", "--family", "complete", "-m", "4", "-n", "5", "--oracle"),
        ("kemeny", "--family", "cycle", "-m", "6", "-n", "4", "-p", "2", "--oracle"),
    ],
)
def test_index_commands_build_no_dense_matrix(capsys, monkeypatch, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense resistance matrix built")

    # The index path takes traces of the inverse symbols; the blocks of the
    # resistance matrix are the first step to the N x N matrix.
    monkeypatch.setattr(oracle, "resistance_matrix", forbidden)
    monkeypatch.setattr(oracle, "_resistance_blocks", forbidden)
    code, out = run(capsys, *argv)
    assert code == 0 and out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "cycle", "--m-range", "5", "--n-range", "4"),
        ("sweep", "--family", "complete", "--m-range", "4", "--n-range", "3:4", "--json"),
        ("resist", "--family", "complete", "-m", "3", "-n", "3"),
        ("resist", "--family", "complete", "-m", "3", "-n", "3", "--pair", "1:2", "2:2"),
        ("kirchhoff", "--family", "complete", "-m", "4", "-n", "5", "--oracle"),
        ("kemeny", "--family", "cycle", "-m", "6", "-n", "4", "-p", "2", "--oracle"),
    ],
)
def test_only_gen_builds_the_flower_graph(capsys, monkeypatch, argv):
    """The oracle commands read the flower's lift; only ``gen`` lists its edges."""
    def forbidden(*args, **kwargs):
        raise AssertionError("N-vertex flower graph built")

    monkeypatch.setattr(Lift, "edges", forbidden)
    code, out = run(capsys, *argv)
    assert code == 0 and out
    with pytest.raises(AssertionError, match="N-vertex flower graph built"):
        main(["gen", "--family", "complete", "-m", "3", "-n", "3"])


GEN_K10 = ("gen", "--family", "complete", "-m", "10", "-n", "20000")


def test_gen_streams_the_flower(tmp_path, capsys):
    """K10 with n = 2,000: N = 18,000 and 90,000 edges.  ``format_edge_list`` of the
    built flower graph peaks at 28 MiB traced; streamed a block at a time, ``gen``
    stays under 4 MiB and writes the same bytes."""
    target = tmp_path / "flower.edges"
    tracemalloc.start()
    try:
        code, _ = run(capsys, "gen", "--family", "complete", "-m", "10", "-n", "2000",
                      "-o", str(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20
    spec = complete_flower_spec(10, 2000)
    assert target.read_text() == format_edge_list(build_flower(spec))


def test_a_closed_pipe_ends_gen_quietly():
    """A reader that takes one line and closes the pipe: ``gen`` exits 1 and says
    nothing on stderr, where it printed a usage error."""
    process = subprocess.Popen(
        [sys.executable, "-m", "flowergraphs.cli", *GEN_K10], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={"PYTHONPATH": str(Path(flowergraphs.__file__).parents[1])})
    assert process.stdout.readline() == b"0 1\n"
    process.stdout.close()
    assert process.wait(timeout=60) == 1
    assert process.stderr.read() == b""
    process.stderr.close()


def test_an_oracle_too_large_to_allocate_exits_2():
    """n = 10^15 asks the oracle for petabytes of frequencies: numpy's
    ``MemoryError`` becomes one usage and error block that keeps numpy's size and
    points to ``--exact``, with exit code 2 and no traceback.  The address space is
    capped at 2 GiB, so a regression cannot fill the machine."""
    cap = 2 << 30
    run = subprocess.run(
        [sys.executable, "-m", "flowergraphs.cli", "kemeny", "--family", "complete", "-m", "3",
         "-n", "1000000000000000", "--oracle"], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(Path(flowergraphs.__file__).parents[1]),
             "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert run.returncode == 2 and run.stdout == ""
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("usage: flowergraphs kemeny ")
    assert run.stderr.count("usage:") == run.stderr.count("error:") == 1
    last = run.stderr.splitlines()[-1]
    assert last.startswith("flowergraphs kemeny: error: out of memory: Unable to allocate ")
    assert "--exact" in last


def test_resist_exact_without_pair_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["resist", "--family", "complete", "-m", "3", "-n", "3", "--exact"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--exact needs --pair" in captured.err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["resist", "--family", "complete", "-n", "3"])  # missing -m
    assert excinfo.value.code == 2


def test_gen_to_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "absent" / "flower.edges"
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--family", "complete", "-m", "3", "-n", "3", "-o", str(target)])
    assert excinfo.value.code == 2
    assert "absent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["verify"], ["sweep"], ["sweep", "--json"]], ids=["verify", "sweep", "sweep-json"]
)
def test_verify_empty_grid_exits_2(capsys, command):
    # Every p in 5:7 exceeds m // 2 = 2, so the grid holds no flower.
    with pytest.raises(SystemExit) as excinfo:
        main(
            command
            + ["--family", "cycle", "--m-range", "4", "--n-range", "3", "--p-range", "5:7"]
        )
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid holds no flower" in captured.err


# argparse reads only -N and -N.N as numbers by itself; verify's parser also takes
# the exponent forms, so "--tol -1e-9" reaches the check as "--tol=-1e-9" does.
@pytest.mark.parametrize("tol", ["-1e-9", "-2.5E+3", "-.5e1", "-0.25", "nan", "inf"])
def test_verify_bad_tolerance_exits_2(capsys, tol):
    grid = ["verify", "--family", "complete", "--m-range", "3", "--n-range", "3"]
    for argv in ([*grid, f"--tol={tol}"], [*grid, "--tol", tol]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"error: tolerance must be a finite nonnegative number, got {float(tol)}\n"
        assert message in captured.err


def test_verify_unparsable_tolerance_names_its_source(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--family", "complete", "--m-range", "3", "--n-range", "3",
              "--tol", "abc"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --tol: invalid float value: 'abc'" in captured.err


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("option", ["--m-range", "--n-range", "--p-range"])
def test_unparsable_range_names_its_option(capsys, command, option):
    ranges = {"--m-range": "4", "--n-range": "3", "--p-range": "1"}
    ranges[option] = "a:b"
    argv = [command, "--family", "cycle"]
    for name, text in ranges.items():
        argv += [name, text]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option} must be lo:hi or an integer, got 'a:b'" in captured.err


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("option", ["--m-range", "--n-range", "--p-range"])
def test_reversed_range_names_its_option(capsys, command, option):
    ranges = {"--m-range": "4", "--n-range": "3", "--p-range": "1"}
    ranges[option] = "5:3"
    argv = [command, "--family", "cycle"]
    for name, text in ranges.items():
        argv += [name, text]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {option} is an empty range '5:3'" in captured.err


def _usage(err: str) -> str:
    """The usage lines of an argparse error, without the error line."""
    return err[: err.index("\nflowergraphs")]


@pytest.mark.parametrize(
    "argparse_error,command_error",
    [
        ("kirchhoff --family hexagon", "kirchhoff --family complete -m 4"),
        ("verify --family complete --tol x", "verify --family complete --n-range 5:3"),
        ("sweep --family hexagon", "sweep --family cycle --m-range 1"),
        ("resist --family complete --pair 1:0", "resist --family complete -m 3 -n 3 --exact"),
    ],
)
def test_a_command_error_prints_the_command_usage(capsys, argparse_error, command_error):
    """Errors raised inside a command print the same usage as argparse's own errors."""
    usages = []
    for argv in (argparse_error, command_error):
        with pytest.raises(SystemExit) as excinfo:
            main(argv.split())
        assert excinfo.value.code == 2
        usages.append(_usage(capsys.readouterr().err))
    command = argparse_error.split()[0]
    assert usages[0].startswith(f"usage: flowergraphs {command} [-h]")
    assert usages[1] == usages[0]


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("m_range", ["1", "2", "0:3", "1:2"])
@pytest.mark.parametrize("p_range", [[], ["--p-range", "1"], ["--p-range", "5:7"]])
def test_a_cycle_grid_below_three_vertices_names_the_base(capsys, command, m_range, p_range):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--family", "cycle", "--m-range", m_range, "--n-range", "3", *p_range])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: cycle base needs at least three vertices" in captured.err


@pytest.mark.parametrize(
    "command", ["gen", "resist", "kirchhoff", "kemeny", "bounds", "maxres", "sweep"]
)
def test_tol_is_a_verify_option_only(capsys, command):
    family = ["--family", "complete", "-m", "3", "-n", "3"]
    if command == "sweep":
        family = ["--family", "complete", "--m-range", "3", "--n-range", "3"]
    with pytest.raises(SystemExit) as excinfo:
        main([command, *family, "--tol", "1e-3"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "command,option",
    [
        ("kirchhoff --family complete -m 4 -n 3 -p 2", "-p"),
        ("sweep --family complete --m-range 3 --n-range 3 --p-range 1", "--p-range"),
        ("maxres --family cycle -m 4 -n 3 --x 0", "--x"),
        ("verify --family complete --m-range 3 --n-range 3 --base g.edges", "--base"),
        ("bounds --family generic -m 4 -n 3 --base g.edges --x 0 --y 1", "-m"),
        ("verify --family generic --base g.edges --x 0 --y 3 --n-range 3 --m-range 9", "--m-range"),
    ],
)
def test_option_of_another_family_exits_2(capsys, command, option):
    with pytest.raises(SystemExit) as excinfo:
        main(command.split())
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option} does not apply to the {command.split()[2]} family" in captured.err


@pytest.mark.parametrize(
    "command,message",
    [
        # A missing -n is reported before the misplaced -p.
        ("kirchhoff --family complete -m 4 -p 2", "-n is required"),
        # A bad range is reported before the misplaced --p-range.
        ("verify --family complete --m-range a:b --p-range 1", "--m-range must be lo:hi"),
    ],
)
def test_the_earlier_error_is_reported(capsys, command, message):
    with pytest.raises(SystemExit) as excinfo:
        main(command.split())
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("command", ["gen", "resist", "kirchhoff", "kemeny", "bounds", "maxres"])
def test_cycle_family_requires_p(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--family", "cycle", "-m", "6", "-n", "3"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "-p is required for the cycle family" in captured.err


def test_verify_generic_missing_base_exits_2(tmp_path, capsys):
    missing = tmp_path / "absent.edges"
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "verify", "--family", "generic", "--base", str(missing),
                "--x", "0", "--y", "1", "--n-range", "3:3",
            ]
        )
    assert excinfo.value.code == 2
    assert "absent.edges" in capsys.readouterr().err


def test_unknown_family_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--family", "hexagon", "-m", "3", "-n", "3"])
    assert excinfo.value.code == 2


def test_bad_locator_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "resist", "--family", "complete", "-m", "3", "-n", "3",
                "--pair", "1", "2:0",
            ]
        )
    assert excinfo.value.code == 2


def test_tol_help_states_the_oracle_tolerances(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--help"])
    assert excinfo.value.code == 0
    tol_help = capsys.readouterr().out.rsplit("--tol TOL", 1)[1]
    numbers = [float(text) for text in re.findall(r"\d+e-?\d+", tol_help)]
    assert numbers == [oracle.MAGNITUDE_CUTOFF, oracle.DEFAULT_TOL, oracle.REL_TOL]


def test_verify_defaults_to_the_oracle_tolerance(capsys):
    code, out = run(
        capsys,
        "verify", "--family", "complete", "--m-range", "3:3", "--n-range", "3:3",
    )
    assert code == 0
    assert f"tol={oracle.DEFAULT_TOL:g})" in out


# Exact outputs captured before the command line evaluated every family
# through the general-base formulas; they must stay byte-identical.
HOUSE_EDGES = "0 1\n1 2\n2 3\n3 4\n4 0\n1 4\n"
HOUSE = "--family generic --base house.edges --x 0 --y 2"

PINNED_OUTPUTS = [
    ("kirchhoff --family complete -m 5 -n 7 --exact", "2947/10\n"),
    ("kemeny --family complete -m 5 -n 7 --exact", "244/5\n"),
    ("kirchhoff --family cycle -m 7 -n 4 -p 3 --exact", "3616/7\n"),
    ("kemeny --family cycle -m 7 -n 4 -p 3 --exact", "143/3\n"),
    (f"kirchhoff {HOUSE} -n 6 --exact", "61210/143\n"),
    (f"kemeny {HOUSE} -n 6 --exact", "88343/1716\n"),
    ("bounds --family complete -m 4 -n 6", "kirchhoff 15/1 738/1 525/4\nkemeny 3/2 687/4 53/2\n"),
    (
        "bounds --family cycle -m 6 -n 5 -p 2",
        "kirchhoff 135/2 6775/2 3385/6\nkemeny -65/6 7865/6 305/6\n",
    ),
    (
        f"bounds {HOUSE} -n 6",
        "kirchhoff 410/11 28665/11 61210/143\nkemeny -305/198 57635/66 88343/1716\n",
    ),
    ("maxres --family complete -m 4 -n 6", "u=1:2 v=4:2 d=4 r=5/4\n"),
    ("maxres --family cycle -m 6 -n 5 -p 2", "u=1:4 v=3:4 d=3 r=44/15\n"),
    (f"maxres {HOUSE} -n 6", "u=1:3 v=4:3 d=4 r=5/2\n"),
    ("resist --family complete -m 4 -n 6 --pair 1:2 4:3 --exact", "5/4\n"),
    ("resist --family cycle -m 6 -n 5 -p 2 --pair 1:1 3:4 --exact", "73/30\n"),
    (f"resist {HOUSE} -n 6 --pair 2:3 5:1 --exact", "317/143\n"),
]


SWEEP_COLUMNS = ["family", "m", "n", "p", "quantity", "closed_form", "oracle", "abs_error"]


@pytest.mark.parametrize(
    "grid,prefixes",
    [
        ("--family complete --m-range 3 --n-range 3", ["complete,3,3,,"] * 2),
        ("--family cycle --m-range 4 --n-range 3", ["cycle,4,3,1,"] * 2 + ["cycle,4,3,2,"] * 2),
    ],
    ids=["complete", "cycle"],
)
def test_sweep_output_framing_is_pinned(capsys, grid, prefixes):
    code, out = run(capsys, "sweep", *grid.split())
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert lines[-1] == "" and "\n" not in "".join(lines)
    assert [line[: len(prefix)] for line, prefix in zip(lines[1:-1], prefixes)] == prefixes
    assert len(lines) == len(prefixes) + 2
    code, out = run(capsys, "sweep", *grid.split(), "--json")
    assert code == 0
    rows = json.loads(out)
    assert [list(row) for row in rows] == [SWEEP_COLUMNS] * len(prefixes)
    if "complete" in grid:
        assert out.count('"p": null,') == len(prefixes)


@pytest.mark.parametrize("command,expected", PINNED_OUTPUTS)
def test_exact_output_is_pinned(tmp_path, monkeypatch, capsys, command, expected):
    (tmp_path / "house.edges").write_text(HOUSE_EDGES)
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *command.split())
    assert code == 0
    assert out == expected


# Exact `gen` stdout: every label of every petal must stay where it is, which a
# round trip through `build_flower` alone cannot show.
PINNED_GEN = [
    (
        "gen --family complete -m 4 -n 3",
        "0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n1 2\n1 6\n2 6\n3 4\n3 5\n3 6\n3 7\n3 8\n4 5\n"
        "6 7\n6 8\n7 8\n",
    ),
    (
        "gen --family cycle -m 5 -n 4 -p 2",
        "0 1\n0 3\n0 5\n0 6\n1 12\n2 3\n2 12\n4 5\n4 7\n4 9\n4 10\n6 7\n8 9\n8 11\n"
        "8 13\n8 14\n10 11\n12 13\n12 15\n14 15\n",
    ),
    (
        f"gen {HOUSE} -n 3",
        "0 1\n0 3\n0 5\n0 6\n1 3\n1 8\n2 3\n2 8\n4 5\n4 7\n4 9\n4 10\n5 7\n6 7\n8 9\n"
        "8 11\n9 11\n10 11\n",
    ),
]


@pytest.mark.parametrize("command,expected", PINNED_GEN, ids=["complete", "cycle", "generic"])
def test_gen_output_is_pinned(tmp_path, monkeypatch, capsys, command, expected):
    (tmp_path / "house.edges").write_text(HOUSE_EDGES)
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *command.split()) == (0, expected)


@pytest.mark.parametrize(
    "grid,expected",
    [
        (
            "--family complete --m-range 3:4 --n-range 3:4",
            "3,3,,kemeny,14/3 3,3,,kirchhoff,65/6 3,4,,kemeny,23/3 3,4,,kirchhoff,70/3 "
            "4,3,,kemeny,17/2 4,3,,kirchhoff,87/4 4,4,,kemeny,27/2 4,4,,kirchhoff,91/2",
        ),
        (
            "--family cycle --m-range 4:5 --n-range 3:4",
            "4,3,1,kemeny,29/3 4,3,1,kirchhoff,75/2 4,3,2,kemeny,53/6 4,3,2,kirchhoff,33/1 "
            "4,4,1,kemeny,91/6 4,4,1,kirchhoff,311/4 4,4,2,kemeny,29/2 4,4,2,kirchhoff,71/1 "
            "5,3,1,kemeny,49/3 5,3,1,kirchhoff,443/5 5,3,2,kemeny,44/3 5,3,2,kirchhoff,769/10 "
            "5,4,1,kemeny,25/1 5,4,1,kirchhoff,180/1 5,4,2,kemeny,71/3 5,4,2,kirchhoff,490/3",
        ),
        (
            # The values of `kirchhoff --exact` and `kemeny --exact` for n = 3, 4.
            f"{HOUSE} --n-range 3:4",
            "5,3,,kemeny,25631/1716 5,3,,kirchhoff,9077/143 "
            "5,4,,kemeny,42479/1716 5,4,,kirchhoff,19868/143",
        ),
    ],
    ids=["complete", "cycle", "generic"],
)
def test_sweep_closed_form_column_is_pinned(tmp_path, monkeypatch, capsys, grid, expected):
    (tmp_path / "house.edges").write_text(HOUSE_EDGES)
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "sweep", *grid.split())
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {row["family"] for row in rows} == {grid.split()[1]}
    assert [
        ",".join(row[key] for key in ("m", "n", "p", "quantity", "closed_form")) for row in rows
    ] == expected.split()


SUBCOMMANDS = ("gen", "resist", "kirchhoff", "kemeny", "bounds", "maxres", "verify", "sweep")


def test_a_second_call_builds_no_parser(capsys, monkeypatch):
    argv = ["kirchhoff", "--family", "complete", "-m", "4", "-n", "3", "--exact"]
    first = run(capsys, *argv)
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, *argv) == first
    assert run(capsys, "maxres", "--family", "cycle", "-m", "6", "-n", "4", "-p", "3")[0] == 0
    assert built == []
    assert build_parser.cache_info().misses == 1


def test_nothing_carries_over_between_calls(capsys):
    grid = ["verify", "--family", "complete", "--m-range", "3", "--n-range", "3"]
    assert "tol=0.001)" in run(capsys, *grid, "--tol", "1e-3")[1]
    assert f"tol={oracle.DEFAULT_TOL:g})" in run(capsys, *grid)[1]

    with pytest.raises(SystemExit) as excinfo:
        main(["kirchhoff", "--family", "complete", "-n", "3"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    good = ["kirchhoff", "--family", "complete", "-m", "3", "-n", "3", "--exact"]
    assert run(capsys, *good) == (0, "65/6\n")

    sweep = ["sweep", "--family", "complete", "--m-range", "3", "--n-range", "3"]
    assert json.loads(run(capsys, *sweep, "--json")[1])
    out = run(capsys, *sweep)[1]
    assert out.startswith("family,m,n,p,quantity,")


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_the_shared_parser_prints_the_help_of_a_fresh_one(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    outputs = []
    for parser in (build_parser(), build_parser.__wrapped__()):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv)
        assert excinfo.value.code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("usage: flowergraphs")


# Tokens for the dispatch corpus: options of every command (whole, abbreviated,
# joined with their value), good and bad values, help, "--" and strays.
_TOKENS = (
    "--family", "--fam", "--family=cycle", "complete", "cycle", "generic", "hexagon",
    "-m", "-m3", "-n", "-n4", "-p", "2", "3", "x", "--m-range", "--m-r", "3:4", "5:3",
    "--n-range", "--n-range=4", "--p-range", "1:9", "--base", "edges.txt", "--x", "--y",
    "0", "--tol", "-1e-9", "--tol=1e-3", "-0.5", "--pair", "1:0", "2:1", "--exact",
    "--ex", "--oracle", "--json", "-o", "--output", "out.txt", "--bogus", "-q", "extra",
    "-h", "--help", "--he", "-hx", "--",
)


def _dispatch_corpus() -> list[list[str]]:
    """At least 200 command lines: the fixed edge cases, then seeded random ones."""
    valid = {
        "gen": "--family complete -m 3 -n 3",
        "resist": "--family cycle -m 5 -n 4 -p 2 --pair 1:0 2:1 --exact",
        "kirchhoff": "--family complete -m 4 -n 3 --exact",
        "kemeny": "--family generic --base b.txt --x 0 --y 1 -n 3 --oracle",
        "bounds": "--fam complete -m 4 -n 3",
        "maxres": "--family cycle -m 6 -n 4 -p 3",
        "verify": "--family complete --m-range 3 --n-range 3 --tol -1e-9",
        "sweep": "--family cycle --m-range 4:5 --n-range 5:3 --json",
    }
    corpus = [[], ["-h"], ["--help"], ["--"], ["bogus"], ["--", "verify"], ["-h", "verify"],
              ["--he", "gen"], ["--family", "complete"], ["Verify"], ["ver"]]
    for command, options in valid.items():
        line = [command, *options.split()]
        corpus += [
            [command], [command, "-h"], [command, "--help"], line, [*line, "extra"],
            [*line, "--bogus"], [*line, "--bogus", "1", "two"], [*line, "--", "x"],
            [command, *options.split()[2:]],  # --family missing
            [command, "--family", "complete", "-m", "3:4", "-n", "3"],
            [command, "--family", "cycle", "--m-range", "3:2", "--n-range", "4:", "-p", "x"],
        ]
    rng = random.Random(44)
    while len(corpus) < 400:
        command = rng.choice([*SUBCOMMANDS, *SUBCOMMANDS, "bogus", "--", "-h", "--tol"])
        family = ["--family", rng.choice(FAMILIES)] if rng.random() < 0.6 else []
        corpus.append([command, *family, *rng.choices(_TOKENS, k=rng.randint(0, 6))])
    return corpus


def test_main_dispatches_as_the_full_parser_tree_does(capsys, monkeypatch):
    """``main`` parses a line that names a command with that command's parser
    alone; on every line of the corpus it exits, prints and, where parsing
    succeeds, fills the namespace as ``parse_args`` on the whole tree does.
    The commands are stubbed out, so only the parse runs."""
    tree = build_parser.__wrapped__()
    seen = []
    for command in tree.commands.values():
        command.set_defaults(func=lambda args: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "build_parser", lambda: tree)

    def outcome(call, argv):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    corpus = _dispatch_corpus()
    assert len(corpus) >= 200
    parsed = 0
    for argv in corpus:
        seen.clear()
        full = outcome(lambda argv: seen.append(vars(tree.parse_args(argv))) or 0, argv)
        assert outcome(main, argv) == full, argv
        if full[0] == 0 and len(seen) == 2:
            assert seen[0] == seen[1], argv
            parsed += 1
    assert parsed >= 8


@pytest.mark.parametrize("argv", [
    "gen --family complete -m 3 -n 3",
    "resist --family cycle -m 5 -n 4 -p 2 --pair 1:0 2:1 --exact",
    "kirchhoff --family complete -m 4 -n 3 --exact",
    "kemeny --family cycle -m 4 -n 3 -p 2 --exact",
    "bounds --family complete -m 4 -n 3",
    "maxres --family cycle -m 6 -n 4 -p 3",
    "verify --family complete --m-range 3 --n-range 3",
    "sweep --family complete --m-range 3 --n-range 3 --json",
])
def test_a_command_line_is_parsed_once(capsys, monkeypatch, argv):
    """One ``parse_known_args`` call per line, on the command's own parser: the
    top-level parser, which only picks the command, is not run."""
    argv = argv.split()
    build_parser()
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert run(capsys, *argv)[0] == 0
    assert calls == [build_parser().commands[argv[0]]]
