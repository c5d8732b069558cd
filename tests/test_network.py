import json
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, strategies as st

import resnet as rn
from resnet.errors import ConfigurationError, DomainError, WindowError
from resnet.models import ModelSpec, build, load_network, network_to_jsonable
from resnet.network import vertex_key
from resnet.serialize import canonical_json

from conftest import make_random_net
from reference_windows import crossing_edges, from_generator, reference_generator


def test_total_conductance_geometric_origin(geom2):
    assert geom2.total_conductance(0) == 4.0


def test_total_conductance_single_edge():
    net = rn.Network.from_edges(0, [(0, 1, 3.0)])
    assert net.total_conductance(0) == 3.0


def test_total_conductance_zplus(zplus2):
    assert zplus2.total_conductance(1) == 6.0  # 2 + 4


def test_total_conductance_unknown_vertex(unit_path):
    with pytest.raises(DomainError):
        unit_path.total_conductance(99)


def test_boundary_of_line_ball(geom2):
    assert geom2.boundary_of(geom2.ball(3)) == frozenset({-3, 3})


def test_boundary_of_whole_finite_net(unit_path):
    assert unit_path.boundary_of(unit_path.vertices) == frozenset()


def test_boundary_of_star_ball():
    star = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=6)
    bd = star.boundary_of(star.ball(2))
    assert bd == frozenset({(0, 2), (1, 2), (2, 2)})


def test_interior_partition(geom2):
    ball = geom2.ball(5)
    bd = geom2.boundary_of(ball)
    interior = geom2.interior_of(ball)
    assert bd | interior == ball
    assert not (bd & interior)


@given(st.sets(st.integers(min_value=-8, max_value=8), min_size=1))
def test_boundary_interior_partition_any_subset(subset):
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=10)
    bd = net.boundary_of(subset)
    interior = net.interior_of(subset)
    assert bd | interior == frozenset(subset)
    assert not (bd & interior)


def test_exhaustion_balls(geom2):
    plan = rn.make_exhaustion(geom2, (1, 2, 3))
    assert plan.stages[2] == frozenset(range(-3, 4))
    for a, b in zip(plan.stages, plan.stages[1:]):
        assert a < b


def test_exhaustion_log_model_plans():
    net = build(ModelSpec("log_increment_line"), radius=3 ** 4)
    p2 = rn.make_exhaustion(net, [2 ** k for k in range(1, 5)])
    assert p2.stages[-1] == frozenset(range(0, 17))
    p3 = rn.make_exhaustion(net, [3 ** k for k in range(1, 5)])
    assert p3.stages[-1] == frozenset(range(0, 82))


def test_exhaustion_rejects_non_increasing(geom2):
    with pytest.raises(ConfigurationError):
        rn.make_exhaustion(geom2, (3, 2, 5))


def test_exhaustion_contains_origin(geom2):
    for stage in rn.make_exhaustion(geom2, (1, 4, 9)):
        assert 0 in stage


def test_conductance_symmetry_bit_exact(geom2):
    for x in geom2.vertices:
        for y, c in geom2.incident(x):
            if geom2.has_vertex(y):
                assert geom2.conductance(y, x) == c


def test_rejects_self_loop():
    with pytest.raises(DomainError):
        rn.Network.from_edges(0, [(0, 0, 1.0), (0, 1, 1.0)])


def test_rejects_negative_conductance():
    with pytest.raises(DomainError):
        rn.Network.from_edges(0, [(0, 1, -2.0)])


def test_rejects_disconnected():
    with pytest.raises(DomainError):
        rn.Network.from_edges(0, [(0, 1, 1.0), (5, 6, 1.0)])


def test_merges_parallel_edges():
    net = rn.Network.from_edges(0, [(0, 1, 1.0), (1, 0, 2.5)])
    assert net.conductance(0, 1) == 3.5


def test_rejects_asymmetric_generator():
    def nbrs(n):
        if n == 0:
            return [(1, 1.0)]
        return [(n - 1, 2.0), (n + 1, 1.0)]
    with pytest.raises(DomainError, match=r"edge \(0, 1\): 1\.0 vs 2\.0"):
        from_generator(0, nbrs, 4)


def test_rejects_one_sided_generator_edge():
    def nbrs(n):
        if n == 1:
            return [(2, 1.0)]  # lists no edge back to 0
        return [(n - 1, 1.0), (n + 1, 1.0)] if n > 0 else [(1, 1.0)]
    with pytest.raises(DomainError, match=r"edge \(0, 1\): 1\.0 vs None"):
        from_generator(0, nbrs, 4)


def test_rejects_generator_self_loop():
    with pytest.raises(DomainError, match="self loop"):
        from_generator(0, lambda n: [(n - 1, 1.0), (n, 1.0), (n + 1, 1.0)], 3)


def test_rejects_generator_negative_conductance():
    with pytest.raises(DomainError, match="negative"):
        from_generator(0, lambda n: [(n - 1, -1.0), (n + 1, -1.0)], 3)


def test_rejects_generator_duplicate_pair():
    with pytest.raises(DomainError, match="duplicate"):
        from_generator(0, lambda n: [(n - 1, 1.0), (n + 1, 1.0)] * 2, 3)


def test_rejects_generator_isolated_origin():
    with pytest.raises(DomainError, match="isolated"):
        from_generator(0, lambda n: [(n - 1, 0.0), (n + 1, 0.0)], 3)


def test_generator_zero_conductance_pairs_dropped():
    def nbrs(n):
        return [(n - 1, 0.0 if n == 0 else 1.0), (n + 1, 1.0), (n + 10, 0.0)]
    net = from_generator(0, nbrs, 4)
    assert net.vertices == (0, 1, 2, 3, 4)
    assert net.incident(0) == ((1, 1.0),)
    assert net.incident(2) == ((1, 1.0), (3, 1.0))
    with pytest.raises(DomainError):
        net.neighbors(-1)  # dropped, so not even beyond the window


def test_mixed_ids_keep_vertex_key_order():
    edges = [(0, (0, 1), 1.5), ((0, 1), 2, 2.0), (0, 2, 0.25), ((0, 1), (1, 1), 3.0),
             (2, -1, 1.0), ((1, 1), 5, 0.5)]
    net = rn.Network.from_edges(0, edges)
    assert net.vertices == (-1, 0, 2, 5, (0, 1), (1, 1))
    assert list(net.vertices) == sorted(net.vertices, key=vertex_key)
    for x in net.vertices:
        ids = [y for y, _ in net.incident(x)]
        assert ids == sorted(ids, key=vertex_key)
    assert net.incident(2) == ((-1, 1.0), (0, 0.25), ((0, 1), 2.0))
    assert net.incident((1, 1)) == ((5, 0.5), ((0, 1), 3.0))


def test_neighbor_fn_called_once_per_window_vertex():
    origin, nbrs = reference_generator(ModelSpec("star", {"c": 2.0, "arms": 3}))
    calls = Counter()

    def counted(v):
        calls[v] += 1
        return nbrs(v)
    net = from_generator(origin, counted, 6)
    rn.make_exhaustion(net, range(1, 7))
    assert calls == Counter(net.vertices)


def _grid(side):
    h = side // 2
    return rn.Network.from_edges((0, 0), [
        ((i, j), (i + di, j + dj), 1.0 + (i * side + j) % 3 / 10)
        for i in range(-h, h + 1) for j in range(-h, h + 1)
        for di, dj in ((1, 0), (0, 1)) if i + di <= h and j + dj <= h])


@pytest.mark.parametrize("net", [
    build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=7),
    build(ModelSpec("binary_tree"), radius=6),
    _grid(7),
], ids=["star", "binary-tree", "grid"])
def test_ball_is_distance_sublevel_set(net):
    top = net.window_radius if not net.is_finite else max(map(net.distance, net.vertices)) + 2
    for r in range(top + 1):
        assert net.ball(r) == frozenset(x for x in net.vertices if net.distance(x) <= r)


def test_ball_beyond_window_raises():
    net = build(ModelSpec("binary_tree"), radius=5)
    assert len(net.ball(5)) == len(net.vertices)
    with pytest.raises(WindowError):
        net.ball(6)


def test_max_radius():
    assert build(ModelSpec("binary_tree"), radius=5).max_radius == 5
    grid = _grid(7)
    assert grid.max_radius == max(map(grid.distance, grid.vertices)) == 6
    assert rn.doubling_exhaustion(grid).radii == (1, 2, 4, 6)


def test_window_is_loud(geom2):
    with pytest.raises(WindowError):
        geom2.ball(33)
    with pytest.raises(WindowError):
        geom2.neighbors(33)  # ring vertex: known id, no adjacency


@pytest.mark.parametrize("spec, x, pairs, ring", [
    (ModelSpec("geom_z", {"c": 2.0}), -4, ((-5, 32.0), (-3, 16.0)), -5),
    (ModelSpec("geom_zplus", {"c": 3.0}), 4, ((3, 81.0), (5, 243.0)), 5),
    (ModelSpec("star", {"c": 2.0, "arms": 2}), (1, 4),
     (((1, 3), 16.0), ((1, 5), 32.0)), (1, 5)),
    (ModelSpec("binary_tree"), (3, 4),
     (((1, 3), 1.0), ((6, 5), 1.0), ((7, 5), 1.0)), (7, 5)),
], ids=["geom-z", "geom-zplus", "star", "binary-tree"])
def test_incident_names_the_ring_neighbour(spec, x, pairs, ring):
    net = build(spec, radius=4)
    assert net.incident(x) == pairs
    assert net.neighbors(x) == tuple(y for y, _ in pairs)
    assert net.degree(x) == len(pairs)
    c = dict(pairs)[ring]
    assert net.conductance(x, ring) == c
    assert (x, ring, c) in list(crossing_edges(net, net.ball(4)))
    with pytest.raises(WindowError, match="beyond the materialized window"):
        net.neighbors(ring)


@pytest.mark.parametrize("spec, ring, unknown", [
    (ModelSpec("geom_zplus"), 5, -1),
    (ModelSpec("star", {"arms": 2}), (1, 5), (2, 1)),
    (ModelSpec("binary_tree"), (31, 5), (32, 5)),
])
def test_neighbors_beyond_the_window(spec, ring, unknown):
    net = build(spec, radius=4)
    with pytest.raises(WindowError):
        net.neighbors(ring)
    with pytest.raises(DomainError, match="unknown vertex"):
        net.neighbors(unknown)
    assert not net.has_vertex(ring) and not net.has_vertex(unknown)


def test_crossing_edges_in_canonical_order(geom2):
    assert list(crossing_edges(geom2, geom2.ball(2))) == [(-2, -3, 8.0), (2, 3, 8.0)]
    assert list(crossing_edges(geom2, {0, 5})) == [
        (0, -1, 2.0), (0, 1, 2.0), (5, 4, 32.0), (5, 6, 64.0)]
    assert geom2.boundary_of({0, 1, 5}) == frozenset({0, 1, 5})
    assert geom2.interior_of(range(-3, 4)) == frozenset(range(-2, 3))


def test_vertex_function_gauge_and_window():
    u = rn.VertexFunction({0: 1.0, 1: 2.0})
    assert u.gauge == "raw"
    with pytest.raises(WindowError):
        u.value(7)
    pinned = u.pinned_at(0)
    assert pinned.value(0) == 0.0
    assert pinned.gauge == "origin-zero"
    with pytest.raises(ConfigurationError):
        rn.VertexFunction({0: 0.0}, gauge="weird")


def test_vertex_function_arithmetic():
    u = rn.VertexFunction({0: 1.0, 1: 2.0, 2: 0.0})
    v = rn.VertexFunction({0: -1.0, 1: 1.0})
    w = u + v
    assert w.window == frozenset({0, 1})
    assert w.value(1) == 3.0
    assert (2.0 * u).value(1) == 4.0
    assert u.shifted(5.0).value(2) == 5.0


def test_explicit_json_round_trip(rng):
    net = make_random_net(rng)
    text = canonical_json(network_to_jsonable(net)) + "\n"
    again = load_network(text)
    text2 = canonical_json(network_to_jsonable(again)) + "\n"
    assert text == text2


def test_model_json_round_trip():
    net = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=7)
    text = canonical_json(network_to_jsonable(net)) + "\n"
    again = load_network(text)
    assert json.loads(text) == network_to_jsonable(again)
    assert again.vertices == net.vertices


def test_malformed_json_rejected():
    with pytest.raises(ConfigurationError):
        load_network('{"edges": "nope"}')


def test_plan_holds_radii_not_balls():
    # 2000 balls of a 4001-vertex line hold about 4M vertex entries in all.
    net = build(ModelSpec("unit_line"), radius=2000)
    tracemalloc.start()
    try:
        plan = rn.make_exhaustion(net, range(1, 2001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert plan.final == frozenset(range(-2000, 2001))
    assert len(plan.stages) == 2000 and len(plan.stages[999]) == 2001
    first = [net.ball(1), net.ball(2)]
    assert list(islice(plan.stages, 2)) == first == list(plan[1::-1])[::-1]
