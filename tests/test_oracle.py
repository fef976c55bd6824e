"""Numeric resistance oracle: examples, the dense reference on random lifts and on
graphs with and without their rotation, the rotation certificate, metric contract,
solver residuals, accuracy and memory at large N."""

from __future__ import annotations

import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowergraphs import (
    CompleteFlowerParams,
    CycleFlowerParams,
    FlowerSpec,
    Graph,
    complete_flower_spec,
    complete_graph,
    cycle_flower_spec,
    cycle_graph,
    flower_kemeny_exact,
    flower_kirchhoff_exact,
    flower_resistance,
    graph_from_edge_list,
    numeric_indices,
    path_graph,
    petersen_graph,
    resistance,
    resistance_matrix,
    values_close,
)
from flowergraphs import oracle

import dense_oracle as dense
from conftest import (
    connected_graphs,
    flower_specs,
    grid_graph,
    metric_violations,
    quotient_arcs,
    random_connected_graph,
    scalar_values_close,
)
from flower_reference import located_pairs
from rotations import build_flower, certified_lift, graph_lift, lift_graph


def test_single_edge_resistance():
    assert resistance(graph_lift(path_graph(2)), 0, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", range(3, 8))
def test_complete_graph_resistance(m):
    g = graph_lift(complete_graph(m))
    assert resistance(g, 0, m - 1) == pytest.approx(2 / m, abs=1e-12)


def test_cycle_opposite_pair():
    assert resistance(graph_lift(cycle_graph(4)), 0, 2) == pytest.approx(1.0, abs=1e-12)


def test_identical_vertices_have_zero_resistance():
    g = graph_lift(complete_graph(4))
    for v in range(4):
        assert resistance(g, v, v) == 0.0


def test_out_of_range_indices():
    with pytest.raises(IndexError):
        resistance(graph_lift(path_graph(2)), 0, 2)


@pytest.mark.parametrize("i,j", [(-1, 2), (2, -1), (4, 0), (0, 7)])
def test_resistance_rejects_out_of_range_vertices(i, j):
    with pytest.raises(IndexError, match=rf"vertex pair \({i}, {j}\) out of range for 4 vertices"):
        resistance(graph_lift(path_graph(4)), i, j)


def test_resistance_matrix_triangle():
    matrix = resistance_matrix(graph_lift(complete_graph(3)))
    for i in range(3):
        for j in range(3):
            expected = 0.0 if i == j else 2 / 3
            assert matrix[i, j] == pytest.approx(expected, abs=1e-12)


def test_resistance_matrix_path():
    matrix = resistance_matrix(graph_lift(path_graph(3)))
    assert matrix[0, 2] == pytest.approx(2.0, abs=1e-12)
    assert matrix[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert matrix[1, 2] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")  # the indices are real: no ComplexWarning on the way
def test_kirchhoff_examples():
    assert numeric_indices(graph_lift(complete_graph(3)))[0] == pytest.approx(2.0, abs=1e-12)
    assert numeric_indices(graph_lift(path_graph(2)))[0] == pytest.approx(1.0, abs=1e-12)
    sunflower = complete_flower_spec(CompleteFlowerParams(3, 3)).lift()
    assert numeric_indices(sunflower)[0] == pytest.approx(float(Fraction(65, 6)), abs=1e-9)


def test_kemeny_examples():
    assert numeric_indices(graph_lift(complete_graph(3)))[1] == pytest.approx(4 / 3, abs=1e-12)
    assert numeric_indices(graph_lift(path_graph(2)))[1] == pytest.approx(0.5, abs=1e-12)
    sunflower = complete_flower_spec(CompleteFlowerParams(3, 3)).lift()
    assert numeric_indices(sunflower)[1] == pytest.approx(float(Fraction(14, 3)), abs=1e-9)


def _assert_indices_match_definitions(g, lift):
    """Kf is half the resistance sum, Kemeny d^T R d / 4q, with the degrees and q
    read off ``g``, the graph ``lift`` stands for."""
    matrix = resistance_matrix(lift)
    degrees = np.asarray(g.degrees, dtype=float)
    kirchhoff, kemeny = numeric_indices(lift)
    assert kirchhoff == pytest.approx(matrix.sum() / 2.0, rel=1e-12)
    assert kemeny == pytest.approx(degrees @ matrix @ degrees / (4.0 * g.edge_count), rel=1e-12)


@settings(max_examples=40)
@given(connected_graphs())
def test_numeric_indices_equal_the_matrix_sums(g):
    _assert_indices_match_definitions(g, graph_lift(g))


@pytest.mark.parametrize(
    "spec",
    [
        complete_flower_spec(CompleteFlowerParams(3, 3)),
        complete_flower_spec(CompleteFlowerParams(6, 40)),
        cycle_flower_spec(CycleFlowerParams(5, 7, 2)),
        cycle_flower_spec(CycleFlowerParams(8, 30, 4)),
        FlowerSpec(petersen_graph(), 0, 2, 12),
        FlowerSpec(path_graph(4), 0, 3, 25),
    ],
    ids=lambda spec: f"m{spec.base.vertex_count}-n{spec.n}-x{spec.x}-y{spec.y}",
)
def test_numeric_indices_equal_the_matrix_sums_on_flowers(spec):
    # Kemeny's constant by its definition, sum 1/nu, against the resistance identity.
    _assert_indices_match_definitions(build_flower(spec), spec.lift())


ENTRY_POINTS = {
    "numeric_indices": numeric_indices,
    "resistance_matrix": resistance_matrix,
    "resistance": lambda lift: resistance(lift, 1, lift.vertex_count - 1),
}
# N = 24 in blocks of 4.
SHIFTED = cycle_flower_spec(CycleFlowerParams(5, 6, 2))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_oracle_raises_when_the_shift_does_not_divide_n(entry):
    """No entry point runs on a graph read as a lift under a rotation that does not
    divide its vertex count."""
    flower = build_flower(SHIFTED)
    for shift in (0, -4, 5, 25):
        with pytest.raises(ValueError, match=f"shift {shift} does not divide the vertex count 24"):
            ENTRY_POINTS[entry](graph_lift(flower, shift))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@settings(max_examples=20)
@given(spec=flower_specs(max_vertices=6, max_petals=9), data=st.data())
def test_oracle_raises_when_an_edge_breaks_the_rotation(entry, spec, data):
    flower = build_flower(spec)
    edges = list(map(list, flower.edges))
    at = data.draw(st.integers(0, len(edges) - 1))
    to = data.draw(st.integers(0, flower.vertex_count - 1).filter(lambda v: v != edges[at][1]))
    edges[at][1] = to
    try:
        Graph(flower.vertex_count, edges)
    except ValueError:  # a self-loop, a duplicate edge, a label gap or a disconnected graph
        return
    # Every orbit has n >= 3 edges, so moving one leaves a part of its orbit behind.
    with pytest.raises(ValueError, match=f"shift {spec.block_size} does not map the edges"):
        ENTRY_POINTS[entry](graph_lift(Graph(flower.vertex_count, edges), spec.block_size))


def _oracle_form(lift):
    """``lift`` if each of its nonzero-step arcs touches offset 0, which the oracle
    reduces onto; otherwise every entry point refuses it, naming the first arc in
    row order that avoids offset 0, and its one-block form, which the oracle takes,
    is returned."""
    avoiding = [tuple(arc) for arc in lift.arcs.tolist() if arc[0] and arc[1] and arc[2]]
    if not avoiding:
        return lift
    for entry in ENTRY_POINTS.values():
        with pytest.raises(ValueError, match=re.escape(f"arc {avoiding[0]} has a nonzero step")):
            entry(lift)
    return graph_lift(lift_graph(lift))


def _assert_equals_dense(lift):
    """All three entry points on ``lift`` agree to 1e-12 with the dense Cholesky
    reference on the graph it stands for."""
    g = lift_graph(lift)
    close = {"rtol": 1e-12, "atol": 1e-12}
    np.testing.assert_allclose(numeric_indices(lift), dense.numeric_indices(g), **close)
    np.testing.assert_allclose(resistance_matrix(lift), dense.resistance_matrix(g), **close)
    last = g.vertex_count - 1
    for i, j in ((0, last), (last, last // 2), (last // 2, 0), (1, last)):
        np.testing.assert_allclose(resistance(lift, i, j), dense.resistance(g, i, j), **close)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_fourier_oracle_equals_the_dense_reference(g):
    _assert_equals_dense(graph_lift(g))


@settings(max_examples=60, deadline=None)
@example((1, 6, [(0, 0, -1), (0, 0, 1), (0, 0, 3)]))  # a half-turn orbit of n/2 edges
@example((3, 4, [(0, 1, 2), (0, 2, -1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]))
@example((4, 1, [(0, 1, 0), (1, 0, 0), (1, 2, 0), (1, 3, 0), (2, 1, 0), (2, 3, 0),
                 (3, 1, 0), (3, 2, 0)]))  # one block: only w = 1
@example((2, 2, [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)]))  # w = 1 and -1
@given(quotient_arcs(max_offsets=5, max_blocks=9))
def test_fourier_oracle_equals_the_dense_reference_on_random_lifts(drawn):
    """A random quotient with random voltages in (-n/2, n/2], each arc beside its
    reverse; steps of n/2, several steps between two offsets and loops at an
    offset all occur, and so do lifts of one and two blocks, whose degrees
    differ between offsets.  A draw with a nonzero-step arc that avoids offset 0
    is refused, and its one-block form is compared instead."""
    _assert_equals_dense(_oracle_form(certified_lift(*drawn)))


@settings(max_examples=60, deadline=None)
@example(FlowerSpec(path_graph(2), 0, 1, 7))  # one label a block: the flower is C_7
@example(FlowerSpec(path_graph(2), 1, 0, 4))
@given(flower_specs(max_vertices=7, max_petals=9))
def test_oracle_on_the_rotation_equals_the_dense_reference(spec):
    """The Fourier blocks of the flower's lift, k = m - 1 labels each, and the one
    block of the same flower read without its rotation give what the dense
    reference gives; m = 2 makes one label a block and the flower a cycle."""
    _assert_equals_dense(spec.lift())
    _assert_equals_dense(graph_lift(build_flower(spec)))


def test_every_multiple_of_the_shift_gives_the_same_values():
    """Read under two or three petals a block, the flower has arcs that avoid offset
    0 and is refused; under those rotations and as one block, the form the oracle
    takes gives the values of the flower's own lift."""
    lift = SHIFTED.lift()
    assert (lift.k, lift.n) == (4, 6)
    close = {"rtol": 1e-12, "atol": 1e-12}
    expected = numeric_indices(lift), resistance_matrix(lift)
    for shift in (8, 12, 24):
        rotated = _oracle_form(graph_lift(lift_graph(lift), shift))
        assert (rotated.k, rotated.n) == (24, 1)
        np.testing.assert_allclose(numeric_indices(rotated), expected[0], **close)
        np.testing.assert_allclose(resistance_matrix(rotated), expected[1], **close)


@pytest.mark.parametrize(
    "lift",
    [
        graph_lift(path_graph(2)),
        graph_lift(path_graph(9)),
        # Stars and bowties centred at 0 ground to isolated vertices or components.
        graph_lift(graph_from_edge_list([(0, v) for v in range(1, 7)])),
        graph_lift(graph_from_edge_list([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (4, 5)])),
        complete_flower_spec(CompleteFlowerParams(5, 20)).lift(),
        cycle_flower_spec(CycleFlowerParams(8, 15, 3)).lift(),
        FlowerSpec(petersen_graph(), 0, 2, 12).lift(),
    ],
    ids=["edge", "path", "star", "bowtie", "K5-flower", "C8-flower",
         "petersen-flower"],
)
def test_fourier_oracle_equals_the_dense_reference_on_examples(lift):
    _assert_equals_dense(lift)


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    flower_specs(max_vertices=7, max_petals=9),
    st.builds(lambda m, n: complete_flower_spec(CompleteFlowerParams(m, n)),
              st.integers(3, 9), st.integers(3, 40)),
    st.integers(3, 9).flatmap(lambda m: st.builds(
        lambda n, p: cycle_flower_spec(CycleFlowerParams(m, n, p)),
        st.integers(3, 40), st.integers(1, m // 2))),
    connected_graphs().map(graph_lift),
))
def test_flowers_and_one_block_lifts_reduce_onto_offset_0(subject):
    """A flower's petals meet only at its junction vertex, offset 0 of its lift,
    and a one-block lift has no nonzero step: the oracle reduces each onto offset
    0 as it is, and refuses neither."""
    lift = subject.lift() if isinstance(subject, FlowerSpec) else subject
    assert isinstance(oracle._pattern(lift.k, lift.arcs.tobytes()), oracle._Pattern)
    assert _oracle_form(lift) is lift


@st.composite
def star_lifts(draw):
    """``(k, n, arcs)``: a lift whose nonzero-step arcs all touch offset 0, which
    the oracle reduces as it is: a step-0 spanning tree of the offsets and arcs
    from offset 0 with random steps, loops among them, half-turn loops and arcs
    (``2d = n``) included, each beside its reverse, and connected."""
    k = draw(st.integers(1, 5), "k")
    n = draw(st.integers(2, 10), "n")
    step = st.integers(-((n - 1) // 2), n // 2)
    orbits = [(draw(st.integers(0, r - 1)), r, 0) for r in range(1, k)]
    orbits += draw(st.lists(st.tuples(st.just(0), st.integers(0, k - 1), step),
                            min_size=1, max_size=k + 3), "star arcs")
    if draw(st.booleans(), "half-turn loop") and n % 2 == 0:
        orbits.append((0, 0, n // 2))
    arcs = set()
    for tail, head, d in orbits:
        if tail != head or d:
            arcs |= {(tail, head, d), (head, tail, -d if 2 * d != n else d)}
    # The tree's potentials are 0, so the cycle voltages are the steps.
    assume(math.gcd(n, *(d for _, _, d in arcs)) == 1)
    return k, n, sorted(arcs)


@settings(max_examples=60, deadline=None)
@example((1, 4, [(0, 0, -1), (0, 0, 1), (0, 0, 2)]))  # K4: a half-turn loop
@example((3, 6, [(0, 1, 0), (0, 2, 3), (1, 0, 0), (2, 0, 3), (0, 0, 1), (0, 0, -1),
                 (1, 2, 0), (2, 1, 0)]))  # a half-turn arc between offsets 0 and 2
@given(star_lifts())
def test_star_junction_lifts_equal_the_dense_reference(drawn):
    lift = certified_lift(*drawn)
    assert _oracle_form(lift) is lift
    _assert_equals_dense(lift)


@pytest.mark.parametrize(
    "lift,avoiding",
    [
        # Steps 1 and -1 join offsets 1 and 3 away from offset 0; 2 and 4 stay inside.
        (certified_lift(5, 9, [(0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0), (2, 3, 0),
                               (3, 2, 0), (3, 1, 1), (1, 3, -1), (2, 4, 0), (4, 2, 0),
                               (4, 0, 2), (0, 4, -2)]),
         (3, 1, 1)),
        # A half-turn loop at offset 2 (2d = n) and a half-turn arc to offset 0.
        (certified_lift(3, 6, [(0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0), (2, 2, 3),
                               (0, 0, 1), (0, 0, -1), (2, 0, 3), (0, 2, 3)]),
         (2, 2, 3)),
        # No offset but 0 is free of a nonzero-step arc that avoids offset 0.
        (certified_lift(3, 5, [(0, 1, 0), (1, 0, 0), (1, 2, 1), (2, 1, -1), (2, 1, 2),
                               (1, 2, -2)]),
         (1, 2, 1)),
        # One block of the 4 x 5 grid: only step 0, reduced as it is.
        (graph_lift(grid_graph(4, 5)), None),
    ],
    ids=["two-junction-offsets", "half-turn", "no-interior", "one-block"],
)
def test_the_reduction_equals_the_dense_reference_on_any_junction(lift, avoiding):
    """A lift with a nonzero-step arc that avoids offset 0 is refused, naming the
    first such arc in row order; its one-block form on its ``N`` labels, like any
    one-block lift, gives the dense reference's values."""
    if avoiding is not None:
        with pytest.raises(ValueError, match=re.escape(f"arc {avoiding} has a nonzero step")):
            numeric_indices(lift)
    _assert_equals_dense(_oracle_form(lift))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_lift_with_an_arc_that_avoids_offset_0_is_refused_in_constant_memory(entry):
    """No entry point falls back to the one-block form of such a lift, an N x N
    symbol: at N = 1,200 that took 291 ms and a 33 MiB traced peak, and both grew
    about 4 x with each doubling of n."""
    lift = certified_lift(3, 400, [(0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 1, 0), (1, 2, 1),
                                   (2, 1, -1)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                "arc (1, 2, 1) has a nonzero step and avoids offset 0")):
            ENTRY_POINTS[entry](lift)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_no_inverse_of_every_symbol(monkeypatch):
    """The O(n k^3) path stays gone: at K10 with n = 200 and n = 201 the oracle
    inverts the 8 x 8 interior block once, for the lift pattern both share, and
    nothing per call or per frequency; each frequency's Schur complement is a
    scalar, divided."""
    lifts = [complete_flower_spec(CompleteFlowerParams(10, n)).lift() for n in (200, 201)]
    shapes = []

    def record(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return invert(matrix, *args, **kwargs)

    invert = np.linalg.inv
    monkeypatch.setattr(oracle.np.linalg, "inv", record)
    oracle._pattern.cache_clear()
    for lift in lifts:
        numeric_indices(lift)
        resistance_matrix(lift)
    k = lifts[0].k
    assert shapes == [(k - 1, k - 1)]


@pytest.mark.parametrize("m,p,n", [(8, 4, 160), (8, 3, 200), (6, 3, 220)])
def test_indices_within_rel_tol_on_large_cycle_flowers(m, p, n):
    # The dense oracle's relative error passed REL_TOL = 1e-12 first at these sizes.
    spec = cycle_flower_spec(CycleFlowerParams(m, n, p))
    observed = numeric_indices(spec.lift())
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= oracle.REL_TOL * float(exact)


def test_the_default_shift_is_the_rotation_the_flower_was_built_with():
    """A flower's lift is its petal rotation, one block of ``m - 1`` labels, and the
    oracle works under it.  One block of this flower, the default before the oracle
    read the rotation, is off by 3.3e-13 relative (1.3e-10 in an orthonormal basis)."""
    spec = cycle_flower_spec(CycleFlowerParams(8, 160, 4))
    lift = spec.lift()
    assert (lift.k, lift.n, lift.vertex_count) == (spec.block_size, 160, 1120)
    observed = numeric_indices(lift)
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= 1e-14 * float(exact)


def test_one_block_lifts_stay_near_the_exact_and_dense_indices():
    """Any graph read as one block (``n = 1``, ``k = N``) is one solve of its integer
    grounded Laplacian.  The C8 (p = 4, n = 160) flower is off the exact indices by
    3.5e-13 relative, a 20 x 20 grid off the dense reference by 1.2e-15; deflated in
    an orthonormal basis they were off by 1.3e-10 and 3.9e-14.  Both bounds are
    measured regression pins, not derived error bounds."""
    spec = cycle_flower_spec(CycleFlowerParams(8, 160, 4))
    observed = numeric_indices(graph_lift(build_flower(spec)))
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= 1e-11 * float(exact)
    grid = grid_graph(20, 20)
    np.testing.assert_allclose(numeric_indices(graph_lift(grid)), dense.numeric_indices(grid),
                               rtol=1e-14, atol=0)


def test_resistance_matrix_within_1e_9_of_every_exact_pair_at_n_1960():
    spec = cycle_flower_spec(CycleFlowerParams(8, 280, 4))
    # R depends on the base vertices a, b and the petal step e only: one value each.
    table = np.zeros((8, 8, spec.n))
    for a, b, e, u, v in located_pairs(spec):
        table[a, b, e] = float(flower_resistance(spec, u, v))
    locators = [spec.locator_of(i) for i in range(spec.vertex_count)]
    base = np.array([loc.base_vertex for loc in locators])
    petal = np.array([loc.petal for loc in locators])
    assert spec.vertex_count == 1960
    matrix = resistance_matrix(spec.lift())
    for rows in np.array_split(np.arange(spec.vertex_count), 8):
        step = (petal[rows, None] - petal[None, :]) % spec.n
        expected = table[base[rows, None], base[None, :], step]
        assert np.abs(matrix[rows] - expected).max() <= 1e-9


@pytest.mark.parametrize(
    "spec",
    [
        complete_flower_spec(CompleteFlowerParams(10, 2000)),
        cycle_flower_spec(CycleFlowerParams(8, 2572, 4)),
        FlowerSpec(petersen_graph(), 0, 2, 2000),
    ],
    ids=["K10", "C8-p4", "petersen"],
)
def test_indices_within_1e_12_relative_at_n_18000(spec):
    """A grounded banded Cholesky solve errs by 3.6e-12 (K10) to 1.4e-11 (Petersen)
    at this size; the Kron-reduced Fourier blocks keep both indices within 5.3e-16
    (K10's Kirchhoff index; 7.8e-15 with every k x k symbol inverted)."""
    assert abs(spec.vertex_count - 18_000) <= 10
    observed = numeric_indices(spec.lift())
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= 1e-12 * float(exact)


@pytest.mark.parametrize(
    "spec",
    [
        complete_flower_spec(CompleteFlowerParams(10, 20_000)),
        cycle_flower_spec(CycleFlowerParams(8, 20_000, 4)),
        FlowerSpec(petersen_graph(), 0, 2, 20_000),
    ],
    ids=["K10", "C8-p4", "petersen"],
)
def test_indices_within_1e_14_relative_at_n_20000(spec):
    """N = 180,000 (C8: 140,000), with no N-vertex graph built.  The indices err by
    at most 3.0e-16 relative (Petersen's Kemeny constant); with every k x k symbol
    inverted and the frequencies summed by a BLAS dot, by up to 6.2e-15, and with the
    steps left uncentred, in [0, n), K10's Kirchhoff index erred by 4.4e-13."""
    observed = numeric_indices(spec.lift())
    for value, exact in zip(observed, (flower_kirchhoff_exact(spec), flower_kemeny_exact(spec))):
        assert abs(value - float(exact)) <= 1e-14 * float(exact)


def test_numeric_indices_memory_is_linear_in_n():
    spec = complete_flower_spec(CompleteFlowerParams(10, 200))
    lift = spec.lift()
    tracemalloc.start()
    try:
        numeric_indices(lift)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One grounded 1799 x 1799 float matrix alone is 25.9 MB.
    assert peak < 2_000_000


def test_one_pair_holds_two_real_block_arrays():
    """One pair at K10 with n = 20,000 (N = 180,000, ``n`` blocks of 9 x 9): at most
    the blocks and the one array the resistances are summed into, 12.4 MiB each, with
    no reversed copy of the blocks and no complex symbols beside them (63.5 MiB,
    about five such arrays, before)."""
    lift = complete_flower_spec(CompleteFlowerParams(10, 20_000)).lift()
    resistance(lift, 0, 5)  # the lift pattern's memoised n-free part is not counted
    tracemalloc.start()
    try:
        resistance(lift, 0, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * lift.n * lift.k**2, peak / (8 * lift.n * lift.k**2)


def test_resistance_matrix_memory_is_one_n_by_n_array():
    """N = 1,960 in blocks of 7, and N = 1,200 in blocks of one and of two labels: each
    row block is a slice of the ``n`` blocks doubled, with no second N x N array for
    ``L^+`` or ``L^+ + L^+^T`` (2.0 x 8 N^2 before) and no ``(n, n)`` step index
    (2.0 x 8 N^2 at k = 1 and 1.27 at k = 2 with one)."""
    specs = [
        complete_flower_spec(CompleteFlowerParams(8, 280)),
        FlowerSpec(path_graph(2), 0, 1, 1200),
        complete_flower_spec(CompleteFlowerParams(3, 600)),
    ]
    for spec, (k, count) in zip(specs, [(7, 1960), (1, 1200), (2, 1200)]):
        lift = spec.lift()
        assert (lift.k, lift.vertex_count) == (k, count)
        tracemalloc.start()
        try:
            resistance_matrix(lift)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * count**2, (k, peak / (8 * count**2))


@settings(max_examples=40)
@given(st.data())
def test_entry_points_agree_on_every_pair(data):
    g = graph_lift(data.draw(connected_graphs()))
    vertex = st.integers(0, g.vertex_count - 1)
    i, j = data.draw(vertex), data.draw(vertex)
    # One formula serves both: the same float, not one within rounding of the other.
    assert resistance(g, i, j) == resistance_matrix(g)[i, j]


@settings(max_examples=40)
@given(connected_graphs())
def test_matrix_is_symmetric_with_zero_diagonal(g):
    matrix = resistance_matrix(graph_lift(g))
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0.0)


@settings(max_examples=25)
@given(connected_graphs(max_vertices=8))
def test_metric_contract_on_random_graphs(g):
    assert metric_violations(resistance_matrix(graph_lift(g))) == []


def test_solver_residual_contract():
    """``L^+ = -P R P / 2`` with ``P = I - 1 1^T / N`` the projection off ``1``, and
    ``L L^+ = P``."""
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=20)
        count = g.vertex_count
        projection = np.eye(count) - 1.0 / count
        pseudo_inverse = -0.5 * projection @ resistance_matrix(graph_lift(g)) @ projection
        residual = dense.laplacian(g).astype(float) @ pseudo_inverse - projection
        assert np.linalg.norm(residual) <= 1e-9 * np.linalg.norm(projection)


def test_oracle_results_are_fresh_arrays():
    g = graph_lift(cycle_graph(5))
    matrix = resistance_matrix(g)
    matrix[0, 1] = -1.0
    assert resistance_matrix(g)[0, 1] == pytest.approx(4 / 5, abs=1e-12)


def test_oracle_keeps_no_array_after_return():
    """Past its bounded memo of each lift pattern's ``n``-free part, which the first
    call per lift fills, the oracle keeps nothing: repeated calls retain nothing
    more, and neither does the same pattern at ten times the petal count, so what
    it keeps does not grow with ``N``."""
    lifts = [
        graph_lift(random_connected_graph(random.Random(seed), max_vertices=200, min_vertices=200))
        for seed in (11, 12, 13)
    ]
    small, large = (complete_flower_spec(CompleteFlowerParams(5, n)).lift() for n in (20, 200))
    for lift in [*lifts, small]:
        resistance_matrix(lift)
        numeric_indices(lift)
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        for lift in [*lifts, small, large]:
            resistance_matrix(lift)
            resistance(lift, 5, lift.vertex_count - 50)
            numeric_indices(lift)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One grounded 199 x 199 float matrix alone is 317 kB.
    assert current - baseline < 32_000


def test_edge_removal_never_decreases_resistance():
    # Rayleigh monotonicity, spot-checked on graphs that stay connected.
    cases = [
        (complete_graph(4), (0, 1)),
        (cycle_graph(5), (2, 3)),
        (graph_from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]), (2, 3)),
    ]
    for g, removed in cases:
        before = resistance_matrix(graph_lift(g))
        smaller = graph_from_edge_list(sorted(set(g.edges) - {removed}))
        after = resistance_matrix(graph_lift(smaller))
        assert np.all(after >= before - 1e-9)


def test_values_close_policy():
    assert values_close(1.0, 1.0 + 5e-10)
    assert not values_close(1.0, 1.0 + 5e-9)
    # beyond the magnitude cutoff the comparison turns relative
    assert values_close(2e6, 2e6 * (1 + 5e-13))
    assert not values_close(2e6, 2e6 * (1 + 5e-12))


def test_values_close_at_the_magnitude_cutoff():
    """At exactly ``MAGNITUDE_CUTOFF`` the absolute rule decides: 1e-7 apart is within
    ``abs_tol = 1e-6``, where the relative rule's 1e-12 * 1e3 = 1e-9 would refuse it.
    One ulp above the cutoff the relative rule decides, both ways."""
    assert oracle.MAGNITUDE_CUTOFF == 1e3 and oracle.REL_TOL == 1e-12
    assert values_close(1e3, 1e3 - 1e-7, abs_tol=1e-6)
    above = float(np.nextafter(1e3, np.inf))
    assert not values_close(above, above - 1e-7, abs_tol=1e-6)
    assert values_close(above, above - 5e-10, abs_tol=0.0)


@pytest.mark.parametrize("abs_tol", [1e-9, 0.0])
def test_values_close_on_arrays_matches_the_scalar_rule(abs_tol):
    """Each element of one array call decides as a call on its two floats does and
    as the scalar rule did: at and just above the cutoff, with a zero tolerance,
    on negative values, infinities and NaNs, which are never close."""
    above = float(np.nextafter(1e3, np.inf))
    nan, inf = float("nan"), float("inf")
    cases = [
        (1e3, 1e3), (1e3, 1e3 + 1e-9), (1e3, 1e3 + 5e-10), (-1e3, -1e3 - 5e-10),
        (above, above + 5e-10), (above, above * (1 + 5e-13)), (1e3, above),
        (1.0, 1.0), (1.0, 1.0 + 5e-10), (0.0, -0.0), (-2.5, -2.5 - 2e-9), (-1.0, 1.0),
        (-2e6, -2e6 * (1 + 5e-13)), (-2e6, -2e6 * (1 + 5e-12)), (-2e6, 2e6),
        (inf, inf), (-inf, -inf), (inf, -inf), (inf, 1.0),
        (nan, nan), (nan, 1.0), (1.0, nan), (nan, 2e6), (2e6, nan), (nan, inf),
    ]
    a, b = (np.array(side) for side in zip(*cases))
    close = values_close(a, b, abs_tol=abs_tol)
    single = [values_close(x, y, abs_tol=abs_tol) for x, y in cases]
    expected = [scalar_values_close(x, y, abs_tol) for x, y in cases]
    assert close.tolist() == expected == single
    assert not close[np.isnan(a) | np.isnan(b)].any()


def test_metric_violations_flags_bad_matrix():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert any("symmetric" in msg for msg in metric_violations(bad))
    far = np.array(
        [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    )
    assert any("triangle" in msg for msg in metric_violations(far))


def test_metric_violations_memory_stays_quadratic():
    g = random_connected_graph(random.Random(3), max_vertices=200, min_vertices=200)
    matrix = resistance_matrix(graph_lift(g))
    tracemalloc.start()
    try:
        assert metric_violations(matrix) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A few N x N float temporaries; one N^3 tensor would take 64 MB.
    assert peak <= 8 * matrix.nbytes
