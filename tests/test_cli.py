"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import csv
import io
import json

import pytest

from flowergraphs import (
    CycleFlowerParams,
    build_flower,
    cycle_flower_spec,
    graph_from_edge_list,
    parse_edge_list,
)
from flowergraphs.cli import main


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
    params = CycleFlowerParams(5, 4, 2)
    assert g == build_flower(cycle_flower_spec(params)).graph


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


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["resist", "--family", "complete", "-n", "3"])  # missing -m
    assert excinfo.value.code == 2


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


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FLOWER_TOL", "1e-3")
    code, out = run(
        capsys,
        "verify", "--family", "complete", "--m-range", "3:3", "--n-range", "3:3",
    )
    assert code == 0
    assert "tol=0.001" in out
