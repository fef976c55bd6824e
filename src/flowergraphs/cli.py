"""Command-line front end: build flowers, evaluate closed forms, verify against
the numeric oracle, and export sweep results as CSV or JSON."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import oracle
from .complete import (
    CompleteFlowerParams,
    cf_kemeny,
    cf_kirchhoff,
    cf_pair_resistance,
    complete_flower_spec,
)
from .cycle import (
    CycleFlowerParams,
    cycle_flower_spec,
    gs_kemeny,
    gs_kirchhoff,
    gs_pair_resistance,
)
from .exact import format_rational
from .flower import (
    FlowerSpec,
    base_kemeny,
    base_kirchhoff,
    base_resistance_table,
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


def _fmt_float(value: float) -> str:
    return f"{value:.12g}"


def _parse_range(text: str) -> tuple[int, int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _parse_locator(text: str) -> tuple[int, int]:
    try:
        petal, base_vertex = text.split(":", 1)
        return int(petal), int(base_vertex)
    except ValueError as exc:
        raise ValueError(f"locator must look like petal:basevertex, got {text!r}") from exc


def _add_family_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family", choices=("generic", "complete", "cycle"), required=True
    )
    parser.add_argument("-m", type=int, help="base size for complete/cycle families")
    parser.add_argument("-n", type=int, help="petal count")
    parser.add_argument("-p", type=int, help="marked-pair distance for cycle bases")
    parser.add_argument("--base", help="edge-list file for the generic family")
    parser.add_argument("--x", type=int, help="first marked vertex (generic)")
    parser.add_argument("--y", type=int, help="second marked vertex (generic)")
    parser.add_argument("--tol", type=float, default=None, help="comparison tolerance")


def _tolerance(args: argparse.Namespace) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    return float(os.environ.get("FLOWER_TOL", DEFAULT_TOL))


def _resolve_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> FlowerSpec:
    if args.n is None:
        parser.error("-n is required")
    try:
        if args.family == "complete":
            if args.m is None:
                parser.error("-m is required for the complete family")
            return complete_flower_spec(CompleteFlowerParams(args.m, args.n))
        if args.family == "cycle":
            if args.m is None:
                parser.error("-m is required for the cycle family")
            p = 1 if args.p is None else args.p
            return cycle_flower_spec(CycleFlowerParams(args.m, args.n, p))
        if args.base is None or args.x is None or args.y is None:
            parser.error("--base, --x and --y are required for the generic family")
        return FlowerSpec(read_edge_list(args.base), args.x, args.y, args.n)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    raise AssertionError("unreachable")


def _closed_pair(args: argparse.Namespace, spec: FlowerSpec, u, v) -> Fraction:
    if args.family == "complete":
        return cf_pair_resistance(CompleteFlowerParams(args.m, args.n), u, v)
    if args.family == "cycle":
        p = 1 if args.p is None else args.p
        return gs_pair_resistance(CycleFlowerParams(args.m, args.n, p), u, v)
    return flower_resistance(spec, u, v)


def _closed_indices(args: argparse.Namespace, spec: FlowerSpec) -> tuple[Fraction, Fraction]:
    if args.family == "complete":
        params = CompleteFlowerParams(args.m, args.n)
        return cf_kirchhoff(params), cf_kemeny(params)
    if args.family == "cycle":
        params = CycleFlowerParams(args.m, args.n, 1 if args.p is None else args.p)
        return gs_kirchhoff(params), gs_kemeny(params)
    return flower_kirchhoff_exact(spec), flower_kemeny_exact(spec)


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
        flower = build_flower(spec)
        matrix = oracle.resistance_matrix(flower.graph)
        for row in matrix:
            print(" ".join(_fmt_float(value) for value in row))
        return 0
    (pu, bu), (pv, bv) = (_parse_locator(text) for text in args.pair)
    try:
        u = locator(spec, pu, bu)
        v = locator(spec, pv, bv)
    except ValueError as exc:
        parser.error(str(exc))
    if show_exact:
        print(format_rational(_closed_pair(args, spec, u, v)))
    if show_oracle:
        flower = build_flower(spec)
        value = oracle.resistance(flower.graph, flower.label_of(pu, bu), flower.label_of(pv, bv))
        print(_fmt_float(value))
    return 0


def _index_command(args, parser, quantity: str) -> int:
    spec = _resolve_spec(args, parser)
    show_exact = args.exact or not args.oracle
    show_oracle = args.oracle or not args.exact
    if show_exact:
        kf, kem = _closed_indices(args, spec)
        print(format_rational(kf if quantity == "kirchhoff" else kem))
    if show_oracle:
        matrix = oracle.resistance_matrix(build_flower(spec).graph)
        if quantity == "kirchhoff":
            print(_fmt_float(oracle.kirchhoff_numeric(matrix)))
        else:
            print(_fmt_float(oracle.kemeny_numeric(build_flower(spec).graph, matrix)))
    return 0


def cmd_kirchhoff(args, parser) -> int:
    return _index_command(args, parser, "kirchhoff")


def cmd_kemeny(args, parser) -> int:
    return _index_command(args, parser, "kemeny")


def cmd_bounds(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    spec = _resolve_spec(args, parser)
    table = base_resistance_table(spec.base)
    r_xy = table[spec.x][spec.y]
    kf_lo, kf_hi = kirchhoff_bounds(spec, base_kirchhoff(table), r_xy)
    kem_lo, kem_hi = kemeny_bounds(spec, base_kemeny(spec.base, table), r_xy)
    kf, kem = _closed_indices(args, spec)
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


def _sweep_instances(args: argparse.Namespace, parser: argparse.ArgumentParser):
    if args.family == "generic":
        parser.error("sweeps cover the complete and cycle families only")
    m_lo, m_hi = _parse_range(args.m_range)
    n_lo, n_hi = _parse_range(args.n_range)
    for m in range(m_lo, m_hi + 1):
        for n in range(n_lo, n_hi + 1):
            if args.family == "complete":
                yield CompleteFlowerParams(m, n), None
            else:
                if args.p_range is not None:
                    p_lo, p_hi = _parse_range(args.p_range)
                else:
                    p_lo, p_hi = 1, m // 2
                for p in range(p_lo, min(p_hi, m // 2) + 1):
                    yield CycleFlowerParams(m, n, p), p


def cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    tol = _tolerance(args)
    failures = 0
    instances = 0
    pairs = 0

    def _closed_for(family, m, n, p, spec):
        if family == "complete":
            params = CompleteFlowerParams(m, n)
            return cf_kirchhoff(params), cf_kemeny(params)
        if family == "cycle":
            params = CycleFlowerParams(m, n, p)
            return gs_kirchhoff(params), gs_kemeny(params)
        return flower_kirchhoff_exact(spec), flower_kemeny_exact(spec)

    def check_instance(family: str, spec: FlowerSpec, closed_pair, m, n, p) -> None:
        nonlocal failures, instances, pairs
        instances += 1
        flower = build_flower(spec)
        matrix = oracle.resistance_matrix(flower.graph)
        tag = f"family={family} m={m} n={n} p={'-' if p is None else p}"
        for i in range(spec.vertex_count):
            u = flower.locator_of(i)
            for j in range(i + 1, spec.vertex_count):
                v = flower.locator_of(j)
                expected = closed_pair(u, v)
                observed = float(matrix[i, j])
                pairs += 1
                if not oracle.values_close(float(expected), observed, abs_tol=tol):
                    failures += 1
                    print(
                        f"FAIL {tag} pair={u.petal}:{u.base_vertex},{v.petal}:{v.base_vertex} "
                        f"expected={format_rational(expected)} observed={_fmt_float(observed)}"
                    )
        closed_kf, closed_kem = _closed_for(family, m, n, p, spec)
        for quantity, closed, observed in (
            ("kirchhoff", closed_kf, oracle.kirchhoff_numeric(matrix)),
            ("kemeny", closed_kem, oracle.kemeny_numeric(flower.graph, matrix)),
        ):
            if not oracle.values_close(float(closed), observed, abs_tol=tol):
                failures += 1
                print(
                    f"FAIL {tag} quantity={quantity} "
                    f"expected={format_rational(closed)} observed={_fmt_float(observed)}"
                )

    if args.family == "generic":
        if args.base is None or args.x is None or args.y is None:
            parser.error("--base, --x and --y are required for the generic family")
        try:
            base = read_edge_list(args.base)
        except OSError as exc:
            parser.error(str(exc))
        n_lo, n_hi = _parse_range(args.n_range)
        for n in range(n_lo, n_hi + 1):
            spec = FlowerSpec(base, args.x, args.y, n)
            check_instance(
                "generic", spec,
                lambda u, v, _spec=spec: flower_resistance(_spec, u, v),
                base.vertex_count, n, None,
            )
    else:
        for params, p in _sweep_instances(args, parser):
            if args.family == "complete":
                spec = complete_flower_spec(params)
                closed = lambda u, v, _params=params: cf_pair_resistance(_params, u, v)
            else:
                spec = cycle_flower_spec(params)
                closed = lambda u, v, _params=params: gs_pair_resistance(_params, u, v)
            check_instance(args.family, spec, closed, params.m, params.n, p)

    if failures:
        print(f"verify: {failures} mismatches over {instances} instances, {pairs} pairs")
        return 1
    print(f"verify: ok ({instances} instances, {pairs} pairs, tol={tol:g})")
    return 0


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    rows: list[SweepRow] = []
    for params, p in _sweep_instances(args, parser):
        if args.family == "complete":
            spec = complete_flower_spec(params)
            closed_kf, closed_kem = cf_kirchhoff(params), cf_kemeny(params)
        else:
            spec = cycle_flower_spec(params)
            closed_kf, closed_kem = gs_kirchhoff(params), gs_kemeny(params)
        flower = build_flower(spec)
        matrix = oracle.resistance_matrix(flower.graph)
        numeric = {
            "kirchhoff": oracle.kirchhoff_numeric(matrix),
            "kemeny": oracle.kemeny_numeric(flower.graph, matrix),
        }
        for quantity, closed in (("kirchhoff", closed_kf), ("kemeny", closed_kem)):
            observed = numeric[quantity]
            rows.append(
                SweepRow(
                    family=args.family,
                    m=params.m,
                    n=params.n,
                    p=p,
                    quantity=quantity,
                    closed_form=format_rational(closed),
                    oracle=observed,
                    abs_error=abs(float(closed) - observed),
                )
            )
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

    for name, func in (("kirchhoff", cmd_kirchhoff), ("kemeny", cmd_kemeny)):
        cmd = sub.add_parser(name, help=f"print the {name} quantity")
        _add_family_options(cmd)
        cmd.add_argument("--exact", action="store_true")
        cmd.add_argument("--oracle", action="store_true")
        cmd.set_defaults(func=func)

    bounds = sub.add_parser("bounds", help="print (lo, hi, actual) for both indices")
    _add_family_options(bounds)
    bounds.set_defaults(func=cmd_bounds)

    maxres = sub.add_parser("maxres", help="print the maximizing pair, d and value")
    _add_family_options(maxres)
    maxres.set_defaults(func=cmd_maxres)

    for name, func in (("verify", cmd_verify), ("sweep", cmd_sweep)):
        cmd = sub.add_parser(name, help=f"{name} closed forms against the oracle")
        cmd.add_argument("--family", choices=("generic", "complete", "cycle"), required=True)
        cmd.add_argument("--m-range", default="3:5")
        cmd.add_argument("--n-range", default="3:5")
        cmd.add_argument("--p-range", default=None)
        cmd.add_argument("--base", help="edge-list file (generic verify)")
        cmd.add_argument("--x", type=int)
        cmd.add_argument("--y", type=int)
        cmd.add_argument("--tol", type=float, default=None)
        if name == "sweep":
            cmd.add_argument("--json", action="store_true")
        cmd.set_defaults(func=func)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ValueError as exc:
        parser.error(str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
