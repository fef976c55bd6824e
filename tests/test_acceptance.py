"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from flowergraphs import (
    FlowerSpec,
    complete_flower_spec,
    complete_graph,
    cycle_flower_spec,
    cycle_graph,
    flower_resistance,
    kemeny_bounds,
    kirchhoff_bounds,
    max_resistance_search,
    numeric_indices,
    path_graph,
    petersen_graph,
    resistance,
    resistance_matrix,
)

from conftest import metric_violations, random_connected_graph
from rotations import graph_lift
from flower_reference import complete_case, cycle_position, located_pairs, max_diff_sequence
from paper_forms import (PairCase, cf_kemeny, cf_kirchhoff, cf_max_resistance, cf_resistance,
                         gs_kemeny, gs_kirchhoff, gs_resistance)

TOL = 1e-9

GENERIC_BASES = [
    ("P_2", path_graph(2), [(0, 1)]),
    ("P_3", path_graph(3), [(0, 1), (0, 2)]),
    ("K_3", complete_graph(3), [(0, 1)]),
    ("K_4", complete_graph(4), [(0, 1)]),
    ("C_4", cycle_graph(4), [(0, 1), (0, 2)]),
    ("C_5", cycle_graph(5), [(0, 1), (0, 2)]),
    ("C_6", cycle_graph(6), [(0, 1), (0, 2), (0, 3)]),
    ("Petersen", petersen_graph(), [(0, 1), (0, 2)]),
]


def _generic_specs():
    for name, base, marked_pairs in GENERIC_BASES:
        for x, y in marked_pairs:
            for n in range(3, 9):
                yield name, FlowerSpec(base, x, y, n)


def _report(number: int, ok: bool, description: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_oracle_closed_base_families():
    start = time.perf_counter()
    worst = 0.0
    for m in range(3, 11):
        g = graph_lift(complete_graph(m))
        for i in range(m):
            for j in range(i + 1, m):
                worst = max(worst, abs(resistance(g, i, j) - 2 / m))
    for m in range(3, 13):
        matrix = resistance_matrix(graph_lift(cycle_graph(m)))
        for i in range(m):
            for j in range(i + 1, m):
                d = min((j - i) % m, (i - j) % m)
                worst = max(worst, abs(matrix[i, j] - (m - d) * d / m))
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and elapsed < 1.0
    _report(1, ok, f"oracle vs complete/cycle closed forms, worst error "
                   f"{worst:.2e}, {elapsed:.2f}s (< 1s)")


def test_criterion_2_generic_flower_theorem():
    start = time.perf_counter()
    worst = 0.0
    instances = 0
    for _, spec in _generic_specs():
        instances += 1
        matrix = resistance_matrix(spec.lift())
        for i in range(spec.vertex_count):
            u = spec.locator_of(i)
            for j in range(i + 1, spec.vertex_count):
                value = flower_resistance(spec, u, spec.locator_of(j))
                worst = max(worst, abs(float(value) - matrix[i, j]))
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and elapsed < 60.0
    _report(2, ok, f"general theorem vs oracle on {instances} flowers, worst error "
                   f"{worst:.2e}, {elapsed:.1f}s (< 60s)")


def test_criterion_3_complete_flower_closed_forms():
    worst = 0.0
    cases_seen = set()
    for m in range(3, 7):
        for n in range(3, 9):
            spec = complete_flower_spec(m, n)
            lift = spec.lift()
            matrix = resistance_matrix(lift)
            for a, b, e, _, v in located_pairs(spec):
                case, d = complete_case(a, b, e, n)
                cases_seen.add(case)
                value = cf_resistance(m, n, case, d)
                observed = matrix[spec.label_of(1, a), spec.label_of(v.petal, b)]
                worst = max(worst, abs(float(value) - observed))
            kf, kem = numeric_indices(lift)
            worst = max(worst, abs(float(cf_kirchhoff(m, n)) - kf))
            worst = max(worst, abs(float(cf_kemeny(m, n)) - kem))
    exact_ok = (
        cf_kirchhoff(3, 3) == Fraction(65, 6)
        and cf_kemeny(3, 3) == Fraction(14, 3)
    )
    kf, kem = numeric_indices(complete_flower_spec(3, 3).lift())
    oracle_ok = (
        abs(kf - float(Fraction(65, 6))) <= TOL and abs(kem - float(Fraction(14, 3))) <= TOL
    )
    ok = worst <= TOL and exact_ok and oracle_ok and cases_seen == set(PairCase)
    _report(3, ok, f"complete-flower forms (all {len(cases_seen)} cases) vs oracle, "
                   f"worst error {worst:.2e}; Kf(SF_3)=65/6 and K(SF_3)=14/3 exact")


def test_criterion_4_sunflower_identities():
    ok = True
    for n in range(3, 13):
        for d in range(1, n + 1):
            both = Fraction(2 * d * (n - d), 3 * n)
            one = Fraction(4 * n * d - 4 * d * d + 4 * d - 1, 6 * n)
            neither = Fraction(2 * (n * d - (d - 1) ** 2), 3 * n)
            ok = ok and (d == n or cf_resistance(3, n, PairCase.BOTH_ASSOCIATED, d) == both)
            ok = ok and cf_resistance(3, n, PairCase.ONE_ASSOCIATED, d) == one
            ok = ok and cf_resistance(3, n, PairCase.NEITHER, d) == neither
        ok = ok and cf_kirchhoff(3, n) == Fraction(4 * n**3 + 12 * n * n - 7 * n, 18)
        ok = ok and cf_kemeny(3, n) == Fraction(n * n + 2 * n - 1, 3)
    _report(4, ok, "m=3 complete forms equal the sunflower formulas exactly for n <= 12")


def test_criterion_5_cycle_flower_closed_forms():
    worst = 0.0
    # position kinds: across petals, junction and interior, one arc, two arcs
    kinds = set()
    for m in range(3, 7):
        for p in range(1, m // 2 + 1):
            for n in range(3, 7):
                spec = cycle_flower_spec(m, n, p)
                lift = spec.lift()
                matrix = resistance_matrix(lift)
                for a, b, e, _, v in located_pairs(spec):
                    pos = cycle_position(m, p, a, b, e)
                    kinds.add((pos.same_petal, pos.same_arc, pos.same_petal and pos.l == 0))
                    value = gs_resistance(m, n, p, pos)
                    observed = matrix[spec.label_of(1, a), spec.label_of(v.petal, b)]
                    worst = max(worst, abs(float(value) - observed))
                kf, kem = numeric_indices(lift)
                worst = max(worst, abs(float(gs_kirchhoff(m, n, p)) - kf))
                worst = max(worst, abs(float(gs_kemeny(m, n, p)) - kem))
    identity_ok = all(
        gs_kirchhoff(3, n, 1) == cf_kirchhoff(3, n)
        for n in range(3, 13)
    )
    kf, kem = numeric_indices(cycle_flower_spec(4, 3, 2).lift())
    confirmed = (
        gs_kirchhoff(4, 3, 2) == 33
        and gs_kemeny(4, 3, 2) == Fraction(53, 6)
        and abs(kf - 33.0) <= TOL
        and abs(kem - float(Fraction(53, 6))) <= TOL
    )
    ok = worst <= TOL and identity_ok and confirmed and len(kinds) == 4
    _report(5, ok, f"cycle-flower forms (all {len(kinds)} positions) vs oracle, worst error "
                   f"{worst:.2e}; index identities and (4,3,2) values confirmed")


def test_criterion_6_max_resistance_window():
    ok = True
    notes = []
    for name, spec in _generic_specs():
        result = max_resistance_search(spec)
        n = spec.n
        if not (n / 2 <= result.d <= n / 2 + 2):
            ok = False
            notes.append(f"{name} n={n} maximizer at d={result.d}")
        elif n % 2 == 1 and result.d != (n + 1) // 2:
            # The odd-petal refinement is base dependent; log without failing.
            print(f"criterion 6 note: {name} n={n} odd maximizer at d={result.d}")
    for m in range(3, 7):
        for n in range(3, 9):
            exhaustive = max_resistance_search(complete_flower_spec(m, n)).value
            if exhaustive != cf_max_resistance(m, n):
                ok = False
                notes.append(f"complete m={m} n={n}: {exhaustive} != {cf_max_resistance(m, n)}")
    detail = f" ({'; '.join(notes)})" if notes else ""
    _report(6, ok, "maximiser lies in the predicted petal window; complete-flower "
                   f"maxima match the closed form exactly{detail}")


def test_criterion_7_difference_limit():
    start = time.perf_counter()
    ok = True
    for base, r_xy in ((complete_graph(3), Fraction(2, 3)), (path_graph(2), Fraction(1))):
        diff = max_diff_sequence(base, 0, 1, 200, 201)[0]
        limit = r_xy / 4
        bound = 2 * r_xy / 200
        if abs(diff - limit) >= bound:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(7, ok, f"max-resistance differences approach a quarter of the marked-pair "
                   f"resistance at n=200, {elapsed:.2f}s (< 10s)")


def test_criterion_8_bounds():
    ok = True
    specs = []
    for m in range(3, 7):
        for n in range(3, 9):
            specs.append(complete_flower_spec(m, n))
    for m in range(3, 7):
        for p in range(1, m // 2 + 1):
            for n in range(3, 7):
                specs.append(cycle_flower_spec(m, n, p))
    for spec in specs:
        kf, kem = numeric_indices(spec.lift())
        kf_lo, kf_hi = kirchhoff_bounds(spec)
        kem_lo, kem_hi = kemeny_bounds(spec)
        if not (float(kf_lo) - TOL <= kf <= float(kf_hi) + TOL):
            ok = False
        if not (float(kem_lo) - TOL <= kem <= float(kem_hi) + TOL):
            ok = False
    # The three-petal single-edge flower is a triangle and attains the bound.
    edge_spec = FlowerSpec(path_graph(2), 0, 1, 3)
    lo, _ = kirchhoff_bounds(edge_spec)
    ok = ok and lo == 2 and abs(numeric_indices(edge_spec.lift())[0] - 2.0) <= TOL
    # Upper-bound to closed-form ratios at n = 400, m = 4.
    spec = complete_flower_spec(4, 400)
    _, kf_hi = kirchhoff_bounds(spec)
    _, kem_hi = kemeny_bounds(spec)
    kf_target = 3 * 16 / 9
    ok = ok and abs(float(kf_hi / cf_kirchhoff(4, 400)) - kf_target) <= 0.02 * kf_target
    ok = ok and abs(float(kem_hi / cf_kemeny(4, 400)) - 12.0) <= 0.02 * 12.0
    _report(8, ok, f"bounds bracket the oracle on {len(specs)} flowers; single-edge "
                   "flower attains the lower bound; large-n ratios within 2%")


def test_criterion_9_metric_suite():
    rng = random.Random(20240831)
    failures = 0
    for _ in range(50):
        g = random_connected_graph(rng, max_vertices=40)
        if metric_violations(resistance_matrix(graph_lift(g)), tol=TOL):
            failures += 1
    _report(9, failures == 0, "symmetry, zero diagonal, triangle and reverse-triangle "
                              "hold on 50 random connected graphs")
