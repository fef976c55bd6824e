"""Command-line front end: build flowers, evaluate closed forms, verify against
the numeric oracle, and export sweep results as CSV or JSON.

Single-flower commands share one option set and ``verify``/``sweep`` share the
range set, each registered once as an argparse parent.  ``_flowers`` alone turns
either set into flower specs; every exact value comes from the general-base
formulas in ``flower``."""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import oracle
from .complete import complete_flower_spec
from .cycle import cycle_flower_spec
from .exact import format_rational
from .flower import (
    FlowerSpec,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    kemeny_bounds,
    kirchhoff_bounds,
    locator,
    max_resistance_search,
)
from .graphs import read_edge_list

FAMILIES = ("generic", "complete", "cycle")
# (attribute, option, families it applies to) for each family option without a default
_FAMILY_OPTIONS = (
    ("m", "-m", ("complete", "cycle")),
    ("m_range", "--m-range", ("complete", "cycle")),
    ("p", "-p", ("cycle",)),
    ("p_range", "--p-range", ("cycle",)),
    ("base", "--base", ("generic",)),
    ("x", "--x", ("generic",)),
    ("y", "--y", ("generic",)),
)


# verify checks the pairs in runs of whole rows, at most this many pairs (or one row)
# each, with one values_close call per run: the compare adds O(VERIFY_CHUNK_PAIRS)
# memory to the N x N matrix.
VERIFY_CHUNK_PAIRS = 1 << 15


def _fmt_float(value: float) -> str:
    return f"{value:.12g}"


def _parse_range(option: str, text: str) -> range:
    """The inclusive range ``option`` gives as ``lo:hi``, or the single value ``v``."""
    lo, colon, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi if colon else lo)
    except ValueError as exc:
        raise ValueError(f"{option} must be lo:hi or an integer, got {text!r}") from exc
    if hi < lo:
        raise ValueError(f"{option} is an empty range {text!r}")
    return range(lo, hi + 1)


def _parse_locator(text: str) -> tuple[int, int]:
    try:
        petal, base_vertex = text.split(":", 1)
        return int(petal), int(base_vertex)
    except ValueError as exc:
        raise ValueError(f"locator must look like petal:basevertex, got {text!r}") from exc


def _flowers(args: argparse.Namespace):
    """Yield ``(p, spec)`` for every flower a command covers.

    This is the only reader of the family options.  A single-flower command
    gives one flower from ``-m``, ``-n`` and, for cycles, ``-p``.  ``verify`` and
    ``sweep`` give every ``m`` in ``--m-range`` (default 3:5) and ``n`` in
    ``--n-range``; cycles also every ``p`` in ``--p-range`` (default 1 to m - 1)
    up to ``m // 2``.  Generic flowers take each ``n`` on the ``--base`` edge list
    with marked vertices ``--x`` and ``--y``.  ``p`` is None for the families
    without one.  A missing option, a bad range or an option given to a family
    it does not apply to raises ``ValueError``; so does a cycle grid left with no
    flower (every ``p`` above ``m // 2``), once it is exhausted.
    """
    grid = hasattr(args, "n_range")
    if grid:
        ms = _parse_range("--m-range", "3:5" if args.m_range is None else args.m_range)
        ns = _parse_range("--n-range", args.n_range)
    elif args.n is None:
        raise ValueError("-n is required")
    else:
        ms, ns = [args.m], [args.n]
    for attribute, option, families in _FAMILY_OPTIONS:
        if getattr(args, attribute, None) is not None and args.family not in families:
            raise ValueError(f"{option} does not apply to the {args.family} family")
    if args.family == "generic":
        if args.base is None or args.x is None or args.y is None:
            raise ValueError("--base, --x and --y are required for the generic family")
        base = read_edge_list(args.base)
        for n in ns:
            yield None, FlowerSpec(base, args.x, args.y, n)
        return

    def distances(m: int):
        if not grid:
            if args.p is None:
                raise ValueError("-p is required for the cycle family")
            return [args.p]
        span = range(1, m) if args.p_range is None else _parse_range("--p-range", args.p_range)
        if m < 3:  # no p fits, but it is the base that is wrong: let cycle_flower_spec say so
            return [span.start]
        return range(span.start, min(span.stop, m // 2 + 1))

    empty = True
    for m in ms:
        if m is None:
            raise ValueError(f"-m is required for the {args.family} family")
        for n in ns:
            if args.family == "complete":
                yield None, complete_flower_spec(m, n)
            else:
                for p in distances(m):
                    yield p, cycle_flower_spec(m, n, p)
                    empty = False
    if empty and args.family == "cycle":
        raise ValueError("the --m-range, --n-range and --p-range grid holds no flower")


def _indices(spec: FlowerSpec, kirchhoff: float, kemeny: float):
    """(quantity, closed form, oracle value) for the Kirchhoff index and Kemeny constant."""
    return (
        ("kirchhoff", flower_kirchhoff_exact(spec), kirchhoff),
        ("kemeny", flower_kemeny_exact(spec), kemeny),
    )


def cmd_gen(args: argparse.Namespace) -> int:
    _, spec = next(_flowers(args))
    lines = (f"{u} {v}\n" for u, v in spec.lift().edges())  # streamed a block at a time
    if args.output:
        with open(args.output, "w") as handle:
            handle.writelines(lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def cmd_resist(args: argparse.Namespace) -> int:
    _, spec = next(_flowers(args))
    show_exact = args.exact or not args.oracle
    show_oracle = args.oracle or not args.exact
    if args.pair is None:
        if args.exact:
            raise ValueError("--exact needs --pair; the full matrix comes only from the oracle")
        for rows in oracle.resistance_rows(spec.lift()):  # a row block at a time
            for row in rows:
                print(" ".join(_fmt_float(value) for value in row))
        return 0
    (pu, bu), (pv, bv) = (_parse_locator(text) for text in args.pair)
    u = locator(spec, pu, bu)
    v = locator(spec, pv, bv)
    if show_exact:
        print(format_rational(flower_resistance(spec, u, v)))
    if show_oracle:
        value = oracle.resistance(spec.lift(), spec.label_of(*u), spec.label_of(*v))
        print(_fmt_float(value))
    return 0


def _index_command(args: argparse.Namespace) -> int:
    _, spec = next(_flowers(args))
    kirchhoff = args.quantity == "kirchhoff"
    if args.exact or not args.oracle:
        exact = flower_kirchhoff_exact(spec) if kirchhoff else flower_kemeny_exact(spec)
        print(format_rational(exact))
    if args.oracle or not args.exact:
        kf, kem = oracle.numeric_indices(spec.lift())
        print(_fmt_float(kf if kirchhoff else kem))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    _, spec = next(_flowers(args))
    (kf_lo, kf_hi), (kem_lo, kem_hi) = kirchhoff_bounds(spec), kemeny_bounds(spec)
    kf, kem = flower_kirchhoff_exact(spec), flower_kemeny_exact(spec)
    print(f"kirchhoff {format_rational(kf_lo)} {format_rational(kf_hi)} {format_rational(kf)}")
    print(f"kemeny {format_rational(kem_lo)} {format_rational(kem_hi)} {format_rational(kem)}")
    return 0


def cmd_maxres(args: argparse.Namespace) -> int:
    _, spec = next(_flowers(args))
    result = max_resistance_search(spec)
    print(
        f"u={result.u.petal}:{result.u.base_vertex} "
        f"v={result.v.petal}:{result.v.base_vertex} "
        f"d={result.d} r={format_rational(result.value)}"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    tol = args.tol
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be a finite nonnegative number, got {tol}")
    failures = instances = pairs = 0
    for p, spec in _flowers(args):
        lift = spec.lift()
        instances += 1
        tag = (
            f"family={args.family} m={spec.base.vertex_count} n={spec.n} "
            f"p={'-' if p is None else p}"
        )
        matrix = oracle.resistance_matrix(lift)
        count = spec.vertex_count
        # (petal, base vertex) in label order: the canonical locators as plain pairs
        locators = list(itertools.product(range(1, spec.n + 1), spec.block_order))
        pairs += count * (count - 1) // 2
        step = VERIFY_CHUNK_PAIRS // count or 1
        for start in range(0, count - 1, step):
            stop = min(start + step, count)
            expected = [
                flower_resistance(spec, locators[i], v)
                for i in range(start, stop)
                for v in locators[i + 1:]
            ]
            # Correctly rounded, so equal to float(value).
            exact = np.array([value.numerator / value.denominator for value in expected])
            above = np.arange(count) > np.arange(start, stop)[:, None]
            observed = matrix[start:stop][above]  # row-major, as expected is
            close = oracle.values_close(exact, observed, abs_tol=tol)
            if close.all():
                continue
            rows, columns = np.nonzero(above)
            for t in np.flatnonzero(~close):
                failures += 1
                (pu, bu), (pv, bv) = locators[start + rows[t]], locators[columns[t]]
                print(
                    f"FAIL {tag} pair={pu}:{bu},{pv}:{bv} "
                    f"expected={format_rational(expected[t])} "
                    f"observed={_fmt_float(observed[t])}"
                )
        for quantity, closed, observed in _indices(spec, *oracle.numeric_indices(lift)):
            if not oracle.values_close(float(closed), observed, abs_tol=tol):
                failures += 1
                print(
                    f"FAIL {tag} quantity={quantity} "
                    f"expected={format_rational(closed)} observed={_fmt_float(observed)}"
                )
    if failures:
        print(f"verify: {failures} mismatches over {instances} instances, {pairs} pairs")
        return 1
    print(f"verify: ok ({instances} instances, {pairs} pairs, tol={tol:g})")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = [
        dict(family=args.family, m=spec.base.vertex_count, n=spec.n, p=p, quantity=quantity,
             closed_form=format_rational(closed), oracle=observed,
             abs_error=abs(float(closed) - observed))
        for p, spec in _flowers(args)
        for quantity, closed, observed in _indices(spec, *oracle.numeric_indices(spec.lift()))
    ]
    rows.sort(key=lambda row: (row["m"], row["n"], row["p"] or 0, row["quantity"]))
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    writer = csv.writer(sys.stdout)  # None (complete and generic p) is written as ""
    writer.writerow(rows[0].keys())
    for row in rows:
        row.update(oracle=_fmt_float(row["oracle"]), abs_error=_fmt_float(row["abs_error"]))
        writer.writerow(row.values())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built on the first call and shared by every later one,
    so a process that calls ``main`` repeatedly pays for it once."""
    parser = argparse.ArgumentParser(
        prog="flowergraphs",
        description="Build flower graphs and evaluate their resistance closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The parents share their Action objects: no set_defaults on a dest they define.
    single = argparse.ArgumentParser(add_help=False)
    single.add_argument("--family", choices=FAMILIES, required=True)
    single.add_argument("-m", type=int, help="base size for complete/cycle families")
    single.add_argument("-n", type=int, help="petal count")
    single.add_argument("-p", type=int, help="marked-pair distance for cycle bases")
    single.add_argument("--base", help="edge-list file for the generic family")
    single.add_argument("--x", type=int, help="first marked vertex (generic)")
    single.add_argument("--y", type=int, help="second marked vertex (generic)")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--family", choices=FAMILIES, required=True)
    grid.add_argument("--m-range")
    grid.add_argument("--n-range", default="3:5")
    grid.add_argument("--p-range")
    grid.add_argument("--base", help="edge-list file (generic family)")
    grid.add_argument("--x", type=int)
    grid.add_argument("--y", type=int)

    gen = sub.add_parser("gen", parents=[single], help="write the flower's edge list")
    gen.add_argument("-o", "--output", help="write to a file instead of stdout")
    gen.set_defaults(func=cmd_gen)

    resist = sub.add_parser(
        "resist", parents=[single], help="print one pair resistance or the full matrix"
    )
    resist.add_argument("--pair", nargs=2, metavar=("U", "V"),
                        help="locators petal:basevertex")
    resist.add_argument("--exact", action="store_true", help="print the closed form")
    resist.add_argument("--oracle", action="store_true", help="print the numeric value")
    resist.set_defaults(func=cmd_resist)

    for name in ("kirchhoff", "kemeny"):
        cmd = sub.add_parser(name, parents=[single], help=f"print the {name} quantity")
        cmd.add_argument("--exact", action="store_true")
        cmd.add_argument("--oracle", action="store_true")
        cmd.set_defaults(func=_index_command, quantity=name)

    sub.add_parser(
        "bounds", parents=[single], help="print (lo, hi, actual) for both indices"
    ).set_defaults(func=cmd_bounds)
    sub.add_parser(
        "maxres", parents=[single], help="print the maximizing pair, d and value"
    ).set_defaults(func=cmd_maxres)

    verify = sub.add_parser(
        "verify", parents=[grid], help="verify closed forms against the oracle"
    )
    verify.add_argument("--tol", type=float, default=oracle.DEFAULT_TOL, help=(
        "absolute tolerance up to magnitude 1e3 (default 1e-9); "
        "beyond it a fixed 1e-12 relative bound"))
    verify.set_defaults(func=cmd_verify)
    # argparse takes only -N and -N.N for numbers, so "--tol -1e-9" would read its
    # value as an option; exponent forms reach cmd_verify's check too.
    verify._negative_number_matcher = re.compile(r"^-\d*\.?\d+([eE][-+]?\d+)?$")

    sweep = sub.add_parser("sweep", parents=[grid], help="sweep closed forms against the oracle")
    sweep.add_argument("--json", action="store_true")
    sweep.set_defaults(func=cmd_sweep)
    for command in sub.choices.values():  # a command's errors print its own usage
        command.set_defaults(parser=command)
    parser.commands = sub.choices  # name -> command parser, for main's one-pass dispatch
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line.  A line that starts with a command name is parsed
    once, by that command's parser, into what ``parse_args`` on the whole tree
    gives; any other line goes to the top-level parser, which can only print
    help or an error for it."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:  # the reader has gone; see the signal module's docs on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))
        return 2
    except MemoryError as exc:  # numpy's message gives the size it could not allocate
        args.parser.error(f"out of memory: {str(exc) or 'an allocation failed'}; "
                          "--exact gives the closed form without the oracle's arrays")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
