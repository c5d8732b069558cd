"""The closed-form windows of ``models.build``, and the array search of
``Network.from_edges``, against one plain breadth-first search over the
reference generators and edge lists: the same arrays, search order, ring,
balls and incident pairs, bit for bit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from resnet.errors import DomainError
from resnet.models import ModelSpec, _largest_exponent, build
from resnet.network import Network

from conftest import lognormal_grid_edges, random_edges
from reference_windows import from_edges, reference_window


def assert_same_window(net, ref, radii):
    for field in dataclasses.fields(ref.arrays):
        got, want = getattr(net.arrays, field.name), getattr(ref.arrays, field.name)
        assert got.dtype == want.dtype, field.name
        assert np.array_equal(got, want), field.name
    assert net.vertices == ref.vertices
    assert np.array_equal(net._order, ref._order)
    assert net._pos == ref._pos
    assert net._ring == ref._ring
    assert net._cuts == ref._cuts
    assert net.origin == ref.origin and net.window_radius == ref.window_radius
    for x in ref.vertices:
        assert net.incident(x) == ref.incident(x)
    for r in radii:
        assert list(net.ball(r)) == list(ref.ball(r))


CASES = [
    (ModelSpec("geom_z", {"c": 2.0}), 40),
    (ModelSpec("geom_z", {"c": 0.5}), 40),
    (ModelSpec("geom_zplus", {"c": 2.0}), 40),
    (ModelSpec("geom_zplus", {"c": 3.0}), 40),
    (ModelSpec("geom_zplus", {"c": 2.0}), _largest_exponent(2.0) - 1),
    (ModelSpec("geom_zplus", {"c": 3.0}), _largest_exponent(3.0) - 1),
    (ModelSpec("star", {"c": 2.0, "arms": 1}), 30),
    (ModelSpec("star", {"c": 2.0, "arms": 5}), 30),
    (ModelSpec("unit_line"), 50),
    *((ModelSpec("binary_tree"), depth) for depth in range(1, 13)),
]


@pytest.mark.parametrize("spec, radius", CASES,
                         ids=[f"{s.family}-{s.params}-{r}" for s, r in CASES])
def test_build_matches_the_reference_search(spec, radius):
    assert_same_window(build(spec, radius), reference_window(spec, radius),
                       range(radius + 1))


def test_build_matches_the_reference_search_on_the_log_increment_line():
    # Every ball would be quadratic in the radius here; the balls checked are
    # those of the radii:2^k and radii:3^k plans, and the whole window.
    radius = 3 ** 10
    radii = sorted({0, radius} | {2 ** k for k in range(16)} | {3 ** k for k in range(11)})
    spec = ModelSpec("log_increment_line")
    assert_same_window(build(spec, radius), reference_window(spec, radius), radii)


@given(family=st.sampled_from(["geom_z", "geom_zplus", "star", "unit_line",
                               "binary_tree", "log_increment_line"]),
       c=st.floats(min_value=0.25, max_value=4.0),
       arms=st.integers(min_value=1, max_value=6),
       radius=st.integers(min_value=0, max_value=9))
def test_build_matches_the_reference_search_on_small_windows(family, c, arms, radius):
    spec = ModelSpec(family, {"c": c, "arms": arms})
    assert_same_window(build(spec, radius), reference_window(spec, radius),
                       range(radius + 1))


def test_log_increment_window_memory_peak():
    tracemalloc.start()
    try:
        build(ModelSpec("log_increment_line"), 3 ** 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2 ** 20


def assert_same_explicit_network(origin, edges):
    ref = from_edges(origin, edges)
    assert_same_window(Network.from_edges(origin, edges), ref, range(len(ref._cuts)))


VERTEX_IDS = st.one_of(st.integers(-40, 40),
                       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
CONDUCTANCES = st.floats(min_value=0.125, max_value=8.0)


@st.composite
def edge_lists(draw):
    """(origin, edges) of a connected network: a spanning tree on ids that
    may mix ints and tuples, extra edges with some zero conductances, one edge
    repeated at least 9 times with distinct values, in shuffled order and
    orientation."""
    ids = draw(st.lists(VERTEX_IDS, min_size=2, max_size=25, unique=True))
    edges = [(ids[draw(st.integers(0, v - 1))], ids[v], draw(CONDUCTANCES))
             for v in range(1, len(ids))]
    extra = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    st.one_of(st.just(0.0), CONDUCTANCES)),
                          max_size=30))
    edges += [e for e in extra if e[0] != e[1]]
    u, v, _ = draw(st.sampled_from(edges))
    copies = draw(st.lists(CONDUCTANCES, min_size=9, max_size=14, unique=True))
    edges += [(u, v, c) for c in copies]
    edges = draw(st.permutations(edges))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return ids[0], [(v, u, c) if flip else (u, v, c)
                    for (u, v, c), flip in zip(edges, flips)]


@given(edge_lists())
def test_from_edges_matches_the_reference_search(case):
    assert_same_explicit_network(*case)


def test_from_edges_matches_the_reference_search_on_the_test_nets():
    assert_same_explicit_network(0, [(0, 1, 1.0), (1, 2, 1.0)])
    assert_same_explicit_network(0, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    for seed in range(10):
        assert_same_explicit_network(0, random_edges(np.random.default_rng(seed)))
    for seed in (1, 2, 3):
        assert_same_explicit_network((0, 0), lognormal_grid_edges(25, seed))


@pytest.mark.parametrize("origin, edges, message", [
    (0, [(0, 1, 1.0), (2, 2, 1.0)], "self loop at 2 is not allowed"),
    (0, [(0, 1, 1.0), (1, (0, 1), -0.5)], r"negative conductance on edge \(1, \(0, 1\)\)"),
    (0, [(0, 1, 0.0), (1, 2, 1.0)], "origin 0 has no incident edge"),
    (5, [(0, 1, 1.0)], "origin 5 has no incident edge"),
    (0, [], "origin 0 has no incident edge"),
    (0, [(0, 1, 1.0), (2, 3, 1.0), (1, 3, 0.0)], "network is not connected"),
])
def test_from_edges_refuses_what_the_reference_search_refuses(origin, edges, message):
    for build_network in (Network.from_edges, from_edges):
        with pytest.raises(DomainError, match=message):
            build_network(origin, edges)
