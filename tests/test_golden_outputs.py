"""Golden outputs: every op of the three benchmark workloads at seeds 1 and 2, every
command of the README and a set of failing commands, replayed in process through
``cli.main`` against the exit code and stdout recorded in ``golden_outputs.json``.

The file holds everything a replay needs: each case's argvs and the text of the
base files they name.  Floats print from the numeric oracle, whose last bits move
with any change to its arithmetic, so each stdout is held in two parts.  The text
with every number masked must match exactly, by its SHA-256 digest; exact values
(``num/den``) are not numbers here and stay in the text.  The masked numbers must
agree with the recorded ones within ``oracle.values_close`` at ``abs_tol=1e-12``:
1e-12 absolute up to magnitude 1e3 and 1e-12 relative beyond it.  ``sweep``'s
``abs_error`` column, the oracle's own rounding error, is only held to 1e-9.  An
op that exits nonzero also holds the SHA-256 digest of its stderr, the usage and
error block, printed at a fixed 80 columns.

Rewrite the file from the code as it stands with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from flowergraphs import cli, oracle

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
SEEDS = (1, 2)
RUN_SECONDS = 20  # the run length BENCHMARK.json gives bench/run.py

# A number stands alone: not inside a word or a file name, and not a side of a num/den.
NUMBER = re.compile(r"(?<![\w./])[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?(?![\w./])")
# sweep's abs_error: the last CSV field, or the "abs_error" key of a JSON row.
ABS_ERROR = re.compile(r'(?m)(?:(?<=,)|(?<="abs_error": ))[-+.\deE]+$')
# Commands that exit 2 with a deterministic message, and the base files they read.
ERROR_FILES = {"disconnected.edges": "0 1\n2 3\n", "label.edges": "0 1\n1 two\n"}
ERROR_ARGVS = [
    ["kirchhoff", "--family", "generic", "--base", "disconnected.edges", "--x", "0", "--y", "1",
     "-n", "3", "--exact"],
    ["kirchhoff", "--family", "generic", "--base", "label.edges", "--x", "0", "--y", "1",
     "-n", "3", "--exact"],
    ["verify", "--family", "complete", "--m-range", "3", "--n-range", "5:3"],
    ["kemeny", "--family", "cycle", "-m", "6", "-n", "4", "--exact"],
    ["verify", "--family", "complete", "--m-range", "3", "--n-range", "3", "--tol", "-1"],
    ["bounds", "--family", "generic", "--base", "missing.edges", "--x", "0", "--y", "1", "-n", "3"],
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split(command: str, text: str) -> tuple[str, list[float], list[float]]:
    """``(digest, numbers, abs_errors)`` of one op's stdout: the SHA-256 of the text
    with its numbers masked, the numbers in order and, for ``sweep``, the
    ``abs_error`` values, masked apart from the others."""
    errors = []
    if command == "sweep":
        errors = list(map(float, ABS_ERROR.findall(text)))
        text = ABS_ERROR.sub("<abs_error>", text)
    numbers = list(map(float, NUMBER.findall(text)))
    return sha256(NUMBER.sub("<number>", text)), numbers, errors


def replay(files: dict[str, str], argvs: list[list[str]],
           directory) -> list[tuple[int, str, str]]:
    """The exit code, stdout and stderr of ``cli.main`` on each argv, run in this
    process in ``directory``, with the base ``files`` written there first, and
    argparse's messages wrapped at 80 columns whatever the terminal is."""
    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(directory)
    os.environ["COLUMNS"] = "80"
    try:
        for name, text in files.items():
            Path(name).write_text(text)
        results = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:  # a usage error
                    code = exc.code
            results.append((code, out.getvalue(), err.getvalue()))
        return results
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def test_every_op_prints_its_golden_output(tmp_path):
    for case in json.loads(GOLDEN.read_text())["cases"]:
        directory = tmp_path / case["name"]
        directory.mkdir()
        ops = case["ops"]
        for op, (code, out, err) in zip(ops, replay(case["files"], [op["argv"] for op in ops],
                                                    directory)):
            digest, numbers, errors = split(op["argv"][0], out)
            assert (code, digest) == (op["code"], op["digest"]), (op["argv"], out[:2000])
            if code:
                assert sha256(err) == op["stderr"], (op["argv"], err)
            close = oracle.values_close(np.array(op["numbers"]), np.array(numbers),
                                        abs_tol=1e-12)
            assert np.all(close), (op["argv"], np.array(numbers)[~close])
            assert all(error <= 1e-9 for error in errors), (op["argv"], errors)


def record() -> list[dict]:
    """Every case's base files and ops, from the benchmark's workloads, the README
    and ``ERROR_ARGVS``, with what the code as it stands prints for each op."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads  # the benchmark's op lists; it imports nothing from the package

    cases = []
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            workload = workloads.build(name, seed, RUN_SECONDS)
            cases.append((f"{name}-seed{seed}", workload.base_files(),
                          [list(op.argv) for op in workload.ops]))
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    petersen = "".join(f"{u} {v}\n" for u, v in workloads.PETERSEN_EDGES)
    cases.append(("readme", {"petersen.edges": petersen},
                  [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
                   if line.startswith("flowergraphs ")]))
    cases.append(("errors", ERROR_FILES, ERROR_ARGVS))
    golden = []
    for name, files, argvs in cases:
        with tempfile.TemporaryDirectory() as directory:
            results = replay(files, argvs, directory)
        ops = []
        for argv, (code, out, err) in zip(argvs, results):
            digest, numbers, _ = split(argv[0], out)
            ops.append(dict(argv=argv, code=code, digest=digest, numbers=numbers))
            if code:
                ops[-1]["stderr"] = sha256(err)
        golden.append(dict(name=name, files=files, ops=ops))
    return golden


def dumps(golden: list[dict]) -> str:
    """The golden file's text, one line per op, so a changed op is one changed line."""
    cases = []
    for case in golden:
        head = json.dumps({key: value for key, value in case.items() if key != "ops"})
        ops = ",\n".join(map(json.dumps, case["ops"]))
        cases.append(f'{head[:-1]}, "ops": [\n{ops}]}}')
    return '{"cases": [\n' + ",\n".join(cases) + "]}\n"


if __name__ == "__main__":
    GOLDEN.write_text(dumps(record()))
