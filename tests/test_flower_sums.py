"""Petal-count-independent index sums and maximum search.

The library reduces the Kirchhoff index, the Kemeny constant and the maximum
resistance to base-vertex pairs.  These tests require exact equality with the
direct O(m^2 n) definitions in ``flower_reference`` and, on complete bases, with
the paper's maximum-resistance form.  ``test_paper_forms`` proves the paper's
complete- and cycle-base pair and index forms for every parameter.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from flowergraphs import (
    FlowerSpec,
    complete_graph,
    cycle_graph,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    max_resistance_search,
    path_graph,
    petersen_graph,
)

from flowergraphs.flower import _laplacian_solve, _scaled_pair_resistance, _weighted_pair_total

from conftest import connected_graphs, random_connected_graph
from flower_reference import exhaustive_max_resistance, summed_kemeny, summed_kirchhoff
from paper_forms import cf_max_resistance


def assert_matches_reference(spec: FlowerSpec) -> None:
    assert flower_kirchhoff_exact(spec) == summed_kirchhoff(spec)
    assert flower_kemeny_exact(spec) == summed_kemeny(spec)
    # MaxResistance equality covers the value, the locator pair and d.
    assert max_resistance_search(spec) == exhaustive_max_resistance(spec)


def spec_id(spec: FlowerSpec) -> str:
    return f"m{spec.base.vertex_count}-q{spec.base.edge_count}-x{spec.x}-y{spec.y}-n{spec.n}"


def random_specs(seed: int, count: int, max_vertices: int = 12, min_vertices: int = 3):
    rng = random.Random(seed)
    for _ in range(count):
        base = random_connected_graph(rng, max_vertices, min_vertices)
        x, y = rng.sample(range(base.vertex_count), 2)
        yield FlowerSpec(base, x, y, rng.randint(3, 40))


# Bases with 13-18 vertices come from a seed of their own, so adding them left
# the 40 smaller specs unchanged.
RANDOM_SPECS = list(random_specs(20261017, 40)) + list(
    random_specs(20261018, 5, max_vertices=18, min_vertices=13)
)


@pytest.mark.parametrize("spec", RANDOM_SPECS, ids=spec_id)
def test_random_bases_match_reference(spec):
    assert_matches_reference(spec)


def symmetric_specs():
    for m in range(3, 8):
        for n in (3, 4, 7, 10):
            yield FlowerSpec(complete_graph(m), 0, 1, n)
    for m in range(3, 10):
        for p in range(1, m // 2 + 1):
            for n in (3, 4, 9):
                yield FlowerSpec(cycle_graph(m), 0, p, n)
    for y in (1, 2):
        for n in (3, 4, 8):
            yield FlowerSpec(petersen_graph(), 0, y, n)
    # Pendant paths beyond x and y put the quadratic's vertex at its extremes
    # e* = n/2 +- 1, outside the valid steps 1..n-1 when n = 3.
    for m, x, y in ((4, 1, 2), (6, 2, 3), (5, 1, 2)):
        for n in (3, 4, 5):
            yield FlowerSpec(path_graph(m), x, y, n)


@pytest.mark.parametrize("spec", list(symmetric_specs()), ids=spec_id)
def test_tie_heavy_symmetric_bases_match_reference(spec):
    assert_matches_reference(spec)


@st.composite
def small_specs(draw) -> FlowerSpec:
    base = draw(connected_graphs(max_vertices=7))
    x, y = draw(st.permutations(range(base.vertex_count)))[:2]
    return FlowerSpec(base, x, y, draw(st.integers(3, 8)))


# A two-vertex base makes the flower an n-cycle whose petal blocks are {x}
# alone; the random and symmetric specs above all have m >= 3.
@settings(max_examples=100)
@given(small_specs())
@example(FlowerSpec(path_graph(2), 0, 1, 3))
@example(FlowerSpec(path_graph(2), 1, 0, 8))
def test_small_bases_match_summed_indices(spec):
    assert flower_kirchhoff_exact(spec) == summed_kirchhoff(spec)
    assert flower_kemeny_exact(spec) == summed_kemeny(spec)


def summed_pair_total(spec: FlowerSpec, weights: list[int]) -> Fraction:
    """``_weighted_pair_total`` by its definition: one pass over the base-locator
    pairs per petal separation ``e = 0..n-1``."""
    det, k = _laplacian_solve(spec.base)
    total = sum(
        weights[a] * weights[b] * _scaled_pair_resistance(spec, k, a, b, e)
        for e in range(spec.n)
        for a in spec.block_order
        for b in spec.block_order
    )
    return Fraction(total, 4 * spec.n * k[spec.x][spec.y] * det)


@st.composite
def weighted_bases(draw):
    base = draw(connected_graphs(max_vertices=6))
    weights = draw(st.lists(st.integers(-40, 40), min_size=base.vertex_count,
                            max_size=base.vertex_count))
    return base, weights


# The moment form of the sum holds for any integer weights, not only the
# positive ones of the two indices.  The two-vertex base has block_order (x,).
@settings(max_examples=60, deadline=None)
@given(weighted_bases())
@example((path_graph(2), [3, -2]))
@example((path_graph(2), [0, 5]))
def test_weighted_pair_total_matches_the_summed_definition(case):
    base, weights = case
    for x in range(base.vertex_count):
        for y in range(base.vertex_count):
            if x != y:
                for n in range(3, 10):
                    spec = FlowerSpec(base, x, y, n)
                    assert _weighted_pair_total(spec, weights) == summed_pair_total(spec, weights)


def test_general_path_specialises_to_complete_closed_forms():
    """The maximum search on complete bases equals the paper's form, which is
    piecewise in n's parity, and the exhaustive scan."""
    for m in range(3, 11):
        for n in range(3, 31):
            spec = FlowerSpec(complete_graph(m), 0, 1, n)
            search = max_resistance_search(spec)
            assert search.value == cf_max_resistance(m, n)
            assert search == exhaustive_max_resistance(spec)


def test_general_path_specialises_to_cycle_closed_forms():
    """The maximum search on cycle bases equals the exhaustive scan."""
    for m in range(3, 11):
        for p in range(1, m // 2 + 1):
            for n in range(3, 31):
                spec = FlowerSpec(cycle_graph(m), 0, p, n)
                assert max_resistance_search(spec) == exhaustive_max_resistance(spec)
