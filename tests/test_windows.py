"""The closed-form windows of ``models.build``, and the array search of
``Network.from_edges``, against one plain breadth-first search over the
reference generators and edge lists: the same arrays, search order, ring,
balls and incident pairs, bit for bit."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resnet.errors import DomainError
from resnet.models import ModelSpec, _largest_exponent, build
from resnet.network import Ball, Network

from conftest import lognormal_grid_edges, random_edges
from reference_windows import (explore_edges, from_edges, pointwise_arrays,
                               reference_window, reference_window_arrays)


def assert_same_arrays(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype, field.name
        assert np.array_equal(a, b), field.name


def assert_same_window(net, ref, radii):
    assert_same_arrays(net.arrays, ref.arrays)
    assert tuple(net.vertices) == ref.vertices
    assert np.array_equal(net._order, ref._order)
    assert net._pos == ref._pos
    assert net._ring == ref._ring
    assert np.array_equal(net._cuts, ref._cuts)
    assert net.origin == ref.origin and net.window_radius == ref.window_radius
    for x in ref.vertices:
        assert net.incident(x) == ref.incident(x)
    for r in radii:
        assert list(Ball(net, r)) == list(Ball(ref, r))


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
    # Each family is given only the parameters it reads.
    params = {"geom_z": {"c": c}, "geom_zplus": {"c": c}, "star": {"c": c, "arms": arms}}
    spec = ModelSpec(family, params.get(family, {}))
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


def explicit_nets():
    yield 0, [(0, 1, 1.0), (1, 2, 1.0)]
    yield 0, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
    for seed in range(10):
        yield 0, random_edges(np.random.default_rng(seed))
    for seed in (1, 2, 3):
        yield (0, 0), lognormal_grid_edges(25, seed)


def test_from_edges_matches_the_reference_search_on_the_test_nets():
    for origin, edges in explicit_nets():
        assert_same_explicit_network(origin, edges)


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


# -- NetworkArrays against its pointwise reference ----------------------------


@pytest.mark.parametrize("spec, radius", CASES + [(ModelSpec("log_increment_line"), 3 ** 10)],
                         ids=[f"{s.family}-{s.params}-{r}" for s, r in CASES]
                         + ["log_increment_line-59049"])
def test_window_arrays_match_the_pointwise_reference(spec, radius):
    assert_same_arrays(build(spec, radius).arrays, reference_window_arrays(spec, radius))


def test_explicit_arrays_match_the_pointwise_reference():
    for origin, edges in explicit_nets():
        assert_same_arrays(Network.from_edges(origin, edges).arrays,
                           pointwise_arrays(*explore_edges(origin, edges)))


@given(edge_lists())
def test_explicit_arrays_match_the_pointwise_reference_on_any_edge_list(case):
    origin, edges = case
    assert_same_arrays(Network.from_edges(origin, edges).arrays,
                       pointwise_arrays(*explore_edges(origin, edges)))


# -- refusals of the symmetry check ------------------------------------------


def dict_refusal(verts, ring, degree, ids, cond):
    """The DomainError message ``Network`` must raise for its inputs, from a
    dict of the pairs: the first duplicate pair, then the first isolated
    vertex, then the first pair (in canonical order) whose reverse is missing
    or differs; None for a valid window."""
    n, pairs, k = len(verts), {}, 0
    for x, d in zip(verts, degree.tolist()):
        for j in ids[k:k + d].tolist():
            y = verts[j] if j < n else ring[j - n]
            if (x, y) in pairs:
                return f"duplicate edge ({x!r}, {y!r})"
            pairs[x, y] = float(cond[k])
            k += 1
    for x, d in zip(verts, degree.tolist()):
        if d == 0:
            return f"vertex {x!r} is isolated"
    window = set(verts)
    for (x, y), c in pairs.items():
        if y in window and pairs.get((y, x)) != c:
            return f"asymmetric conductance on edge ({x!r}, {y!r}): {c!r} vs {pairs.get((y, x))!r}"
    return None


REFUSAL_NETS = {
    "geom-z": lambda: build(ModelSpec("geom_z", {"c": 2.0}), 6),
    "geom-zplus": lambda: build(ModelSpec("geom_zplus", {"c": 3.0}), 5),
    "star": lambda: build(ModelSpec("star", {"c": 2.0, "arms": 3}), 4),
    "binary-tree": lambda: build(ModelSpec("binary_tree"), 4),
    "log-increment": lambda: build(ModelSpec("log_increment_line"), 9),
    "grid": lambda: Network.from_edges((0, 0), lognormal_grid_edges(4, 1)),
    "random": lambda: Network.from_edges(0, random_edges(np.random.default_rng(3))),
}


@settings(max_examples=200)
@given(name=st.sampled_from(sorted(REFUSAL_NETS)),
       fault=st.sampled_from(["asymmetric", "missing", "duplicate"]),
       pick=st.integers(min_value=0))
def test_one_bad_pair_is_refused_as_the_dict_reference_refuses_it(name, fault, pick):
    net = REFUSAL_NETS[name]()
    a, n = net.arrays, len(net.vertices)
    # The neighbour ids the constructor takes: n + k for the k-th ring pair.
    ids = np.where(a.nbr >= 0, a.nbr, n - 1 + np.cumsum(a.nbr < 0))
    degree, cond = np.diff(a.indptr), a.cond.copy()
    inside = np.flatnonzero(ids < n)
    if fault == "asymmetric":  # one bit off
        k = inside[pick % len(inside)]
        cond[k] = np.nextafter(cond[k], np.inf)
    elif fault == "missing":
        k = inside[pick % len(inside)]
        ids, cond = np.delete(ids, k), np.delete(cond, k)
        degree[a.rows[k]] -= 1
    else:  # a twin right after the pair, so the row stays sorted
        k = pick % len(ids)
        ids, cond = np.insert(ids, k + 1, ids[k]), np.insert(cond, k + 1, 2.0 * cond[k])
        degree[a.rows[k]] += 1
    want = dict_refusal(net.vertices, net._ring, degree, ids, cond)
    assert want is not None
    with pytest.raises(DomainError) as refused:
        Network(net.origin, net.vertices, net._order, a.dist, degree, ids, cond, net._ring,
                window_radius=net.window_radius)
    assert str(refused.value) == want
