"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import csv
import io
import json

import pytest

from flowergraphs import (
    CycleFlowerParams,
    FlowerSpec,
    build_flower,
    cycle_flower_spec,
    format_edge_list,
    graph_from_edge_list,
    parse_edge_list,
)
from flowergraphs import oracle
from flowergraphs.cli import main

from conftest import grid_graph
from flower_reference import summed_kirchhoff


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

    monkeypatch.setattr(oracle, "resistance_matrix", forbidden)
    monkeypatch.setattr(oracle, "dpotri", forbidden)
    code, out = run(capsys, *argv)
    assert code == 0 and out


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


@pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf"])
def test_verify_bad_tolerance_exits_2(capsys, monkeypatch, tol):
    grid = ["verify", "--family", "complete", "--m-range", "3", "--n-range", "3"]
    with pytest.raises(SystemExit) as excinfo:
        main([*grid, "--tol", tol])
    assert excinfo.value.code == 2
    monkeypatch.setenv("FLOWER_TOL", tol)
    with pytest.raises(SystemExit) as excinfo:
        main(grid)
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_unparsable_tolerance_names_its_source(capsys, monkeypatch):
    monkeypatch.setenv("FLOWER_TOL", "abc")
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--family", "complete", "--m-range", "3", "--n-range", "3"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "FLOWER_TOL must be a number, got 'abc'" in captured.err


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
    ],
)
def test_option_of_another_family_exits_2(capsys, command, option):
    with pytest.raises(SystemExit) as excinfo:
        main(command.split())
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option} does not apply to the {command.split()[2]} family" in captured.err


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


@pytest.mark.parametrize("command,expected", PINNED_OUTPUTS)
def test_exact_output_is_pinned(tmp_path, monkeypatch, capsys, command, expected):
    (tmp_path / "house.edges").write_text(HOUSE_EDGES)
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *command.split())
    assert code == 0
    assert out == expected


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
