import json
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import resnet as rn
from resnet import kernels, randomwalk
from resnet.errors import ConfigurationError, DomainError, WindowError
from resnet.models import ModelSpec, build, load_network, network_to_jsonable
from resnet.network import vertex_key
from resnet.serialize import canonical_json, fmt_float

from conftest import make_random_net
from reference_pointwise import function_on
from reference_windows import (ball, conductance, crossing_edges, degree, distance,
                               final_ball, from_generator, has_vertex, interior_of,
                               neighbors, reference_generator, total_conductance)


def test_total_conductance_geometric_origin(geom2):
    assert total_conductance(geom2, 0) == 4.0


def test_total_conductance_single_edge():
    net = rn.Network.from_edges(0, [(0, 1, 3.0)])
    assert total_conductance(net, 0) == 3.0


def test_total_conductance_zplus(zplus2):
    assert total_conductance(zplus2, 1) == 6.0  # 2 + 4


def test_total_conductance_unknown_vertex(unit_path):
    with pytest.raises(DomainError):
        total_conductance(unit_path, 99)


def test_boundary_of_line_ball(geom2):
    assert geom2.boundary_of(ball(geom2, 3)) == frozenset({-3, 3})


def test_boundary_of_whole_finite_net(unit_path):
    assert unit_path.boundary_of(unit_path.vertices) == frozenset()


def test_boundary_of_star_ball():
    star = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=6)
    bd = star.boundary_of(ball(star, 2))
    assert bd == frozenset({(0, 2), (1, 2), (2, 2)})


def test_interior_partition(geom2):
    b5 = ball(geom2, 5)
    bd = geom2.boundary_of(b5)
    interior = interior_of(geom2, b5)
    assert bd | interior == b5
    assert not (bd & interior)


@given(st.sets(st.integers(min_value=-8, max_value=8), min_size=1))
def test_boundary_interior_partition_any_subset(subset):
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=10)
    bd = net.boundary_of(subset)
    interior = interior_of(net, subset)
    assert bd | interior == frozenset(subset)
    assert not (bd & interior)


def test_exhaustion_balls(geom2):
    plan = rn.make_exhaustion(geom2, (1, 2, 3))
    assert frozenset(plan.stages[2]) == frozenset(range(-3, 4))
    for a, b in zip(plan.stages, plan.stages[1:]):
        assert frozenset(a) < frozenset(b)


def test_exhaustion_log_model_plans():
    net = build(ModelSpec("log_increment_line"), radius=3 ** 4)
    p2 = rn.make_exhaustion(net, [2 ** k for k in range(1, 5)])
    assert frozenset(p2.stages[-1]) == frozenset(range(0, 17))
    p3 = rn.make_exhaustion(net, [3 ** k for k in range(1, 5)])
    assert frozenset(p3.stages[-1]) == frozenset(range(0, 82))


def test_exhaustion_rejects_non_increasing(geom2):
    with pytest.raises(ConfigurationError):
        rn.make_exhaustion(geom2, (3, 2, 5))
    for radii, message in (((), "empty radius schedule"), ((0, 1), "radii must be positive")):
        with pytest.raises(ConfigurationError, match=message):
            rn.make_exhaustion(geom2, radii)
    # A radius that is not an integer is refused, not truncated.
    for radii in ((1.5, 2.7, 3.9), (True, 2), (1, 2.0)):
        with pytest.raises(ConfigurationError, match="radii must be ints"):
            rn.make_exhaustion(geom2, radii)
    assert rn.make_exhaustion(geom2, (np.int64(1), 2)).radii == (1, 2)


def test_exhaustion_contains_origin(geom2):
    for stage in rn.make_exhaustion(geom2, (1, 4, 9)).stages:
        assert 0 in stage


def test_conductance_symmetry_bit_exact(geom2):
    for x in geom2.vertices:
        for y, c in geom2.incident(x):
            if has_vertex(geom2, y):
                assert conductance(geom2, y, x) == c


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
    assert conductance(net, 0, 1) == 3.5


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
        neighbors(net, -1)  # dropped, so not even beyond the window


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
    top = net.max_radius + (2 if net.is_finite else 0)
    for r in range(top + 1):
        assert ball(net, r) == frozenset(x for x in net.vertices if distance(net, x) <= r)


def test_ball_beyond_window_raises():
    net = build(ModelSpec("binary_tree"), radius=5)
    assert len(ball(net, 5)) == len(net.vertices)
    with pytest.raises(WindowError):
        ball(net, 6)
    with pytest.raises(DomainError, match="radius must be nonnegative"):
        net._cut(-1)


def test_non_finite_floats_have_canonical_spellings():
    assert [fmt_float(x) for x in (float("nan"), float("inf"), -float("inf"), 0.1)] == [
        "NaN", "Infinity", "-Infinity", "0.10000000000000001"]
    assert canonical_json([float("nan")]) == "[NaN]"


def test_max_radius():
    assert build(ModelSpec("binary_tree"), radius=5).max_radius == 5
    grid = _grid(7)
    assert grid.max_radius == max(distance(grid, x) for x in grid.vertices) == 6
    assert rn.doubling_exhaustion(grid).radii == (1, 2, 4, 6)


def test_window_is_loud(geom2):
    with pytest.raises(WindowError):
        ball(geom2, 33)
    with pytest.raises(WindowError):
        neighbors(geom2, 33)  # ring vertex: known id, no adjacency


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
    assert neighbors(net, x) == tuple(y for y, _ in pairs)
    assert degree(net, x) == len(pairs)
    c = dict(pairs)[ring]
    assert conductance(net, x, ring) == c
    assert (x, ring, c) in list(crossing_edges(net, ball(net, 4)))
    with pytest.raises(WindowError, match="beyond the materialized window"):
        neighbors(net, ring)


@pytest.mark.parametrize("spec, ring, unknown", [
    (ModelSpec("geom_zplus"), 5, -1),
    (ModelSpec("star", {"arms": 2}), (1, 5), (2, 1)),
    (ModelSpec("binary_tree"), (31, 5), (32, 5)),
])
def test_neighbors_beyond_the_window(spec, ring, unknown):
    net = build(spec, radius=4)
    with pytest.raises(WindowError):
        neighbors(net, ring)
    with pytest.raises(DomainError, match="unknown vertex"):
        neighbors(net, unknown)
    assert not has_vertex(net, ring) and not has_vertex(net, unknown)


def test_crossing_edges_in_canonical_order(geom2):
    assert list(crossing_edges(geom2, ball(geom2, 2))) == [(-2, -3, 8.0), (2, 3, 8.0)]
    assert list(crossing_edges(geom2, {0, 5})) == [
        (0, -1, 2.0), (0, 1, 2.0), (5, 4, 32.0), (5, 6, 64.0)]
    assert geom2.boundary_of({0, 1, 5}) == frozenset({0, 1, 5})
    assert interior_of(geom2, range(-3, 4)) == frozenset(range(-2, 3))


def test_vertex_function_gauge_and_window(unit_path):
    u = function_on(unit_path, {0: 1.0, 1: 2.0})
    assert u.gauge == "raw"
    with pytest.raises(WindowError):
        u.value(7)
    pinned = u.pinned_at(0)
    assert pinned.value(0) == 0.0
    assert pinned.gauge == "origin-zero"
    with pytest.raises(ConfigurationError):
        rn.VertexFunction(unit_path.vertices, [0], [0.0], gauge="weird")


def test_vertex_function_arithmetic(unit_path):
    u = function_on(unit_path, {0: 1.0, 1: 2.0, 2: 0.0})
    v = function_on(unit_path, {0: -1.0, 1: 1.0})
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
    assert final_ball(plan) == frozenset(range(-2000, 2001))
    assert len(plan.stages) == 2000 and len(plan.stages[999]) == 2001
    assert [frozenset(s) for s in plan.stages[:2]] == [ball(net, 1), ball(net, 2)]


# -- vertex ids at the public entries -------------------------------------------

# Each entry that takes a vertex id reads it once, as a position: called on
# ``a`` (the network, plan, function and walk config below) with the id x,
# and the role a walk names when it refuses x (None: the network's errors).
ID_ENTRIES = {
    "energy_kernel": (lambda a, x: rn.energy_kernel(a.net, x, a.plan), None),
    "fin_part": (lambda a, x: rn.fin_part(a.net, x, a.plan), None),
    "harm_part": (lambda a, x: rn.harm_part(a.net, x, a.plan), None),
    "monopole": (lambda a, x: rn.monopole(a.net, x, a.plan), None),
    "wired_monopole": (lambda a, x: rn.wired_monopole(a.net, x, a.plan), None),
    "effective_resistance-x": (lambda a, x: rn.effective_resistance(a.net, x, 0, a.plan),
                               None),
    "effective_resistance-y": (lambda a, x: rn.effective_resistance(
        a.net, 0, x, a.plan, variant="wired"), None),
    "green_kernel-x": (lambda a, x: rn.green_kernel(a.net, x, 0, a.plan), None),
    "green_kernel-y": (lambda a, x: rn.green_kernel(a.net, 0, x, a.plan), None),
    "dirac_expansion_check": (lambda a, x: rn.dirac_expansion_check(a.net, x, a.plan),
                              None),
    "harm_dimension_probe": (lambda a, x: rn.harm_dimension_probe(
        a.net, a.plan, samples=[1, x]), None),
    "laplacian_apply": (lambda a, x: rn.laplacian_apply(a.net, a.u, x), None),
    "hitting_probability-start": (lambda a, x: rn.hitting_probability(
        a.net, 1, 0, x, a.cfg), "start"),
    "hitting_probability-absorber": (lambda a, x: rn.hitting_probability(
        a.net, 1, x, 0, a.cfg), "absorber"),
    "green_estimate-target": (lambda a, x: rn.green_estimate(a.net, 0, x, a.cfg),
                              "target"),
}


@pytest.mark.parametrize("bad", ["unknown", "ring"])
@pytest.mark.parametrize("entry", sorted(ID_ENTRIES))
def test_id_entries_refuse_unknown_and_ring_ids_before_solving(monkeypatch, entry, bad):
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=6)
    a = SimpleNamespace(net=net, plan=rn.make_exhaustion(net, range(1, 6)),
                        u=function_on(net, dict.fromkeys(net.vertices, 1.0)),
                        cfg=rn.WalkConfig(n_walks=10, max_steps=10, seed=0))

    def refused(*args, **kwargs):
        raise AssertionError("solved or walked before the ids were checked")

    for module, name in ((kernels, "solve_poisson"), (randomwalk, "_simulate")):
        monkeypatch.setattr(module, name, refused)
    x = 99 if bad == "unknown" else 7  # 7 lies on the ring just outside radius 6
    call, role = ID_ENTRIES[entry]
    if role is not None:
        error, message = DomainError, f"{role} vertex {x} is not materialized"
    elif bad == "unknown":
        error, message = DomainError, f"unknown vertex {x}"
    else:
        error, message = WindowError, f"vertex {x} lies beyond the materialized window"
    with pytest.raises(error, match=message):
        call(a, x)
