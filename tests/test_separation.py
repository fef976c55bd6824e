"""Separator composition rules checked against the numeric oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from flowergraphs import (
    CompleteFlowerParams,
    complete_flower_spec,
    graph_from_edge_list,
    path_graph,
)
from flowergraphs import oracle

from rotations import build_flower, graph_lift
from separation import TwoSepBundle, compose_one_sep, compose_two_sep


def resistance(g, i, j):
    """The oracle's resistance on ``g`` as a one-block lift."""
    return oracle.resistance(graph_lift(g), i, j)


def test_series_addition():
    assert compose_one_sep(2, 3) == 5
    assert compose_one_sep(0, Fraction(7, 3)) == Fraction(7, 3)


def test_one_sep_rejects_negative_input():
    with pytest.raises(ValueError):
        compose_one_sep(-1, 2)


def test_bowtie_far_vertices():
    # Two triangles sharing vertex 2; outer vertices 0 and 4.
    bowtie = graph_from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    expected = compose_one_sep(Fraction(2, 3), Fraction(2, 3))
    assert resistance(bowtie, 0, 4) == pytest.approx(float(expected), abs=1e-12)


def test_two_sep_cycle_example():
    # C_4 split at opposite vertices into two length-2 paths; u is separator
    # vertex i, v adjacent to it.
    bundle = TwoSepBundle(
        r1_uv=1, r1_ui=0, r1_vj=1, r1_uj=2, r1_vi=1, r1_ij=2, r2_ij=2
    )
    assert compose_two_sep(bundle) == pytest.approx(0.75)


def test_two_sep_symmetric_bundle_returns_part_resistance():
    bundle = TwoSepBundle(
        r1_uv=Fraction(5, 7),
        r1_ui=Fraction(1, 2),
        r1_vj=Fraction(1, 3),
        r1_uj=Fraction(1, 3),
        r1_vi=Fraction(1, 2),
        r1_ij=Fraction(1),
        r2_ij=Fraction(2),
    )
    assert compose_two_sep(bundle) == Fraction(5, 7)


def test_two_sep_zero_denominator_rejected():
    bundle = TwoSepBundle(1, 0, 1, 2, 1, 0, 0)
    with pytest.raises(ValueError, match="positive"):
        compose_two_sep(bundle)


def test_two_sep_negative_entry_rejected():
    bundle = TwoSepBundle(1, -1, 1, 2, 1, 2, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        compose_two_sep(bundle)


@given(
    st.lists(st.fractions(min_value=0, max_value=10), min_size=7, max_size=7).filter(
        lambda vals: vals[5] + vals[6] > 0
    )
)
def test_two_sep_never_exceeds_part_resistance(values):
    bundle = TwoSepBundle(*values)
    assert compose_two_sep(bundle) <= bundle.r1_uv


def _oracle_bundle(g1, g2, u, v, i, j, i2=None, j2=None):
    """Extract the two-separator bundle from oracle resistances of both parts.

    ``i2``/``j2`` name the separator vertices inside part 2 when its labels
    differ from part 1's.
    """
    i2 = i if i2 is None else i2
    j2 = j if j2 is None else j2
    return TwoSepBundle(
        r1_uv=resistance(g1, u, v),
        r1_ui=resistance(g1, u, i),
        r1_vj=resistance(g1, v, j),
        r1_uj=resistance(g1, u, j),
        r1_vi=resistance(g1, v, i),
        r1_ij=resistance(g1, i, j),
        r2_ij=resistance(g2, i2, j2),
    )


def test_two_sep_reproduces_whole_graph_oracle():
    # Whole graph: triangle {0,1,2} plus path 0-3-4-1 glued at {0, 1}.
    whole = graph_from_edge_list([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 1)])
    part1 = graph_from_edge_list([(0, 1), (1, 2), (0, 2)])
    part2 = graph_from_edge_list([(0, 1), (1, 2), (2, 3)])  # relabelled path 0-3-4-1
    bundle = _oracle_bundle(part1, part2, 2, 0, 0, 1, i2=0, j2=3)
    # u=2, v=0 in part 1; separator {0, 1}; part-2 path resistance r(0,3)=3.
    assert compose_two_sep(bundle) == pytest.approx(resistance(whole, 2, 0), abs=1e-9)


def test_two_sep_matches_flower_petal_split():
    # Peeling one petal off a three-petal triangle flower along its junctions.
    spec = complete_flower_spec(CompleteFlowerParams(3, 3))
    g = build_flower(spec)
    i, j = spec.label_of(1, 0), spec.label_of(1, 1)
    petal = graph_from_edge_list([(0, 1), (1, 2), (0, 2)])
    rest_edges = sorted(e for e in g.edges if not (set(e) <= {i, j, spec.label_of(1, 2)}))
    # Relabel the remaining two petals to dense labels.
    labels = sorted({w for e in rest_edges for w in e})
    relabel = {old: new for new, old in enumerate(labels)}
    rest = graph_from_edge_list([(relabel[a], relabel[b]) for a, b in rest_edges])
    outer = spec.label_of(1, 2)
    bundle = TwoSepBundle(
        r1_uv=resistance(petal, 2, 0),
        r1_ui=resistance(petal, 2, 0),
        r1_vj=resistance(petal, 0, 1),
        r1_uj=resistance(petal, 2, 1),
        r1_vi=0.0,
        r1_ij=resistance(petal, 0, 1),
        r2_ij=resistance(rest, relabel[i], relabel[j]),
    )
    assert compose_two_sep(bundle) == pytest.approx(resistance(g, outer, i), abs=1e-9)


def test_two_sep_chain_of_paths():
    # Two parallel paths between separator vertices, assembled from pieces.
    whole = graph_from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)])
    part = path_graph(3)
    bundle = _oracle_bundle(part, part, 0, 1, 0, 2)
    assert compose_two_sep(bundle) == pytest.approx(resistance(whole, 0, 1), abs=1e-9)
