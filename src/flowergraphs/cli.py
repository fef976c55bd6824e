"""Command-line front end: build flowers, evaluate closed forms, verify against
the numeric oracle, and export sweep results as CSV or JSON.

The family options only choose which flowers a command builds; every exact
value comes from the general-base formulas in ``flower``."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import oracle
from .complete import CompleteFlowerParams, complete_flower_spec
from .cycle import CycleFlowerParams, cycle_flower_spec
from .exact import format_rational
from .flower import (
    Flower,
    FlowerSpec,
    build_flower,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    kemeny_bounds,
    kirchhoff_bounds,
    locator,
    max_resistance_search,
)
from .graphs import format_edge_list, read_edge_list

DEFAULT_TOL = 1e-9
FAMILIES = ("generic", "complete", "cycle")
# (attribute, option, families it applies to) for each family option without a default
_FAMILY_OPTIONS = (
    ("m", "-m", ("complete", "cycle")),
    ("p", "-p", ("cycle",)),
    ("p_range", "--p-range", ("cycle",)),
    ("base", "--base", ("generic",)),
    ("x", "--x", ("generic",)),
    ("y", "--y", ("generic",)),
)


@dataclass
class SweepRow:
    family: str
    m: int
    n: int
    p: int | None
    quantity: str
    closed_form: str
    oracle: float
    abs_error: float


@dataclass
class _Instance:
    """One flower of a verify or sweep grid with its exact and oracle indices."""

    p: int | None
    flower: Flower
    # (quantity, closed form, oracle value) for the Kirchhoff index and Kemeny constant
    indices: tuple[tuple[str, Fraction, float], ...]


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
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_locator(text: str) -> tuple[int, int]:
    try:
        petal, base_vertex = text.split(":", 1)
        return int(petal), int(base_vertex)
    except ValueError as exc:
        raise ValueError(f"locator must look like petal:basevertex, got {text!r}") from exc


def _add_family_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("-m", type=int, help="base size for complete/cycle families")
    parser.add_argument("-n", type=int, help="petal count")
    parser.add_argument("-p", type=int, help="marked-pair distance for cycle bases")
    parser.add_argument("--base", help="edge-list file for the generic family")
    parser.add_argument("--x", type=int, help="first marked vertex (generic)")
    parser.add_argument("--y", type=int, help="second marked vertex (generic)")


def _tolerance(args: argparse.Namespace) -> float:
    env = os.environ.get("FLOWER_TOL", DEFAULT_TOL)
    try:
        tol = args.tol if args.tol is not None else float(env)
    except ValueError as exc:
        raise ValueError(f"FLOWER_TOL must be a number, got {env!r}") from exc
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be a finite nonnegative number, got {tol}")
    return tol


def _flowers(args: argparse.Namespace, ms, ns, ps):
    """Yield ``(p, spec)`` for every flower a command covers.

    This is the only place the family matters.  Complete flowers take each
    ``m`` in ``ms`` and ``n`` in ``ns``; cycles also each ``p`` in ``ps(m)``;
    generic flowers take each ``n`` on the ``--base`` edge list with marked
    vertices ``--x`` and ``--y``.  ``p`` is None for the families without one.
    An option given to a family it does not apply to raises ``ValueError``.
    """
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
    for m in ms:
        if m is None:
            raise ValueError(f"-m is required for the {args.family} family")
        for n in ns:
            if args.family == "complete":
                yield None, complete_flower_spec(CompleteFlowerParams(m, n))
            else:
                for p in ps(m):
                    yield p, cycle_flower_spec(CycleFlowerParams(m, n, p))


def _resolve_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FlowerSpec:
    if args.n is None:
        parser.error("-n is required")
    p = 1 if args.p is None else args.p
    _, spec = next(_flowers(args, [args.m], [args.n], lambda m: [p]))
    return spec


def _grid(args: argparse.Namespace):
    """Every flower of the verify/sweep grid with its exact and oracle indices.

    Cycle marked distances beyond ``m // 2`` are dropped per ``m``; a grid
    left with no flower raises ``ValueError`` once it is exhausted.
    """

    def ps(m: int) -> range:
        span = range(1, m) if args.p_range is None else _parse_range("--p-range", args.p_range)
        return range(span.start, min(span.stop, m // 2 + 1))

    empty = True
    ms, ns = _parse_range("--m-range", args.m_range), _parse_range("--n-range", args.n_range)
    for p, spec in _flowers(args, ms, ns, ps):
        flower = build_flower(spec)
        kirchhoff, kemeny = oracle.numeric_indices(flower.graph)
        indices = (
            ("kirchhoff", flower_kirchhoff_exact(spec), kirchhoff),
            ("kemeny", flower_kemeny_exact(spec), kemeny),
        )
        yield _Instance(p, flower, indices)
        empty = False
    if empty:
        raise ValueError("the --m-range, --n-range and --p-range grid holds no flower")


def cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _resolve_spec(args, parser)
    text = format_edge_list(build_flower(spec).graph)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_resist(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _resolve_spec(args, parser)
    show_exact = args.exact or not args.oracle
    show_oracle = args.oracle or not args.exact
    if args.pair is None:
        if args.exact:
            parser.error("--exact needs --pair; the full matrix comes only from the oracle")
        flower = build_flower(spec)
        matrix = oracle.resistance_matrix(flower.graph)
        for row in matrix:
            print(" ".join(_fmt_float(value) for value in row))
        return 0
    (pu, bu), (pv, bv) = (_parse_locator(text) for text in args.pair)
    u = locator(spec, pu, bu)
    v = locator(spec, pv, bv)
    if show_exact:
        print(format_rational(flower_resistance(spec, u, v)))
    if show_oracle:
        flower = build_flower(spec)
        value = oracle.resistance(flower.graph, flower.label_of(pu, bu), flower.label_of(pv, bv))
        print(_fmt_float(value))
    return 0


def _index_command(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _resolve_spec(args, parser)
    kirchhoff = args.quantity == "kirchhoff"
    if args.exact or not args.oracle:
        exact = flower_kirchhoff_exact(spec) if kirchhoff else flower_kemeny_exact(spec)
        print(format_rational(exact))
    if args.oracle or not args.exact:
        kf, kem = oracle.numeric_indices(build_flower(spec).graph)
        print(_fmt_float(kf if kirchhoff else kem))
    return 0


def cmd_bounds(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _resolve_spec(args, parser)
    (kf_lo, kf_hi), (kem_lo, kem_hi) = kirchhoff_bounds(spec), kemeny_bounds(spec)
    kf, kem = flower_kirchhoff_exact(spec), flower_kemeny_exact(spec)
    print(f"kirchhoff {format_rational(kf_lo)} {format_rational(kf_hi)} {format_rational(kf)}")
    print(f"kemeny {format_rational(kem_lo)} {format_rational(kem_hi)} {format_rational(kem)}")
    return 0


def cmd_maxres(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _resolve_spec(args, parser)
    result = max_resistance_search(spec)
    print(
        f"u={result.u.petal}:{result.u.base_vertex} "
        f"v={result.v.petal}:{result.v.base_vertex} "
        f"d={result.d} r={format_rational(result.value)}"
    )
    return 0


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    tol = _tolerance(args)
    failures = instances = pairs = 0
    for instance in _grid(args):
        instances += 1
        flower = instance.flower
        spec = flower.spec
        tag = (
            f"family={args.family} m={spec.base.vertex_count} n={spec.n} "
            f"p={'-' if instance.p is None else instance.p}"
        )
        matrix = oracle.resistance_matrix(flower.graph)
        locators = [flower.locator_of(i) for i in range(spec.vertex_count)]
        pairs += len(locators) * (len(locators) - 1) // 2
        for i, u in enumerate(locators):
            for j in range(i + 1, len(locators)):
                v = locators[j]
                expected = flower_resistance(spec, u, v)
                observed = float(matrix[i, j])
                if not oracle.values_close(float(expected), observed, abs_tol=tol):
                    failures += 1
                    print(
                        f"FAIL {tag} pair={u.petal}:{u.base_vertex},{v.petal}:{v.base_vertex} "
                        f"expected={format_rational(expected)} observed={_fmt_float(observed)}"
                    )
        for quantity, closed, observed in instance.indices:
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


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    rows = [
        SweepRow(
            family=args.family,
            m=instance.flower.spec.base.vertex_count,
            n=instance.flower.spec.n,
            p=instance.p,
            quantity=quantity,
            closed_form=format_rational(closed),
            oracle=observed,
            abs_error=abs(float(closed) - observed),
        )
        for instance in _grid(args)
        for quantity, closed, observed in instance.indices
    ]
    rows.sort(key=lambda row: (row.family, row.m, row.n, row.p or 0, row.quantity))
    if args.json:
        print(json.dumps([asdict(row) for row in rows], indent=2))
        return 0
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["family", "m", "n", "p", "quantity", "closed_form", "oracle", "abs_error"])
    for row in rows:
        writer.writerow(
            [
                row.family,
                row.m,
                row.n,
                "" if row.p is None else row.p,
                row.quantity,
                row.closed_form,
                _fmt_float(row.oracle),
                _fmt_float(row.abs_error),
            ]
        )
    sys.stdout.write(buffer.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowergraphs",
        description="Build flower graphs and evaluate their resistance closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write the flower's edge list")
    _add_family_options(gen)
    gen.add_argument("-o", "--output", help="write to a file instead of stdout")
    gen.set_defaults(func=cmd_gen)

    resist = sub.add_parser("resist", help="print one pair resistance or the full matrix")
    _add_family_options(resist)
    resist.add_argument("--pair", nargs=2, metavar=("U", "V"),
                        help="locators petal:basevertex")
    resist.add_argument("--exact", action="store_true", help="print the closed form")
    resist.add_argument("--oracle", action="store_true", help="print the numeric value")
    resist.set_defaults(func=cmd_resist)

    for name in ("kirchhoff", "kemeny"):
        cmd = sub.add_parser(name, help=f"print the {name} quantity")
        _add_family_options(cmd)
        cmd.add_argument("--exact", action="store_true")
        cmd.add_argument("--oracle", action="store_true")
        cmd.set_defaults(func=_index_command, quantity=name)

    bounds = sub.add_parser("bounds", help="print (lo, hi, actual) for both indices")
    _add_family_options(bounds)
    bounds.set_defaults(func=cmd_bounds)

    maxres = sub.add_parser("maxres", help="print the maximizing pair, d and value")
    _add_family_options(maxres)
    maxres.set_defaults(func=cmd_maxres)

    for name, func in (("verify", cmd_verify), ("sweep", cmd_sweep)):
        cmd = sub.add_parser(name, help=f"{name} closed forms against the oracle")
        cmd.add_argument("--family", choices=FAMILIES, required=True)
        cmd.add_argument("--m-range", default="3:5")
        cmd.add_argument("--n-range", default="3:5")
        cmd.add_argument("--p-range", default=None)
        cmd.add_argument("--base", help="edge-list file (generic family)")
        cmd.add_argument("--x", type=int)
        cmd.add_argument("--y", type=int)
        if name == "verify":
            cmd.add_argument("--tol", type=float, help=(
                "absolute tolerance up to magnitude 1e3 (default 1e-9, or FLOWER_TOL); "
                "beyond it a fixed 1e-12 relative bound"))
        else:
            cmd.add_argument("--json", action="store_true")
        cmd.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
