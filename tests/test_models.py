import math

import numpy as np
import pytest

import resnet as rn
from resnet.errors import (ConfigurationError, DomainError,
                           UnsupportedModelError)
from resnet.models import (MAX_WINDOW_VERTICES, ModelSpec, build,
                           harmonic_energy, load_network, network_to_jsonable,
                           log_increment_function, oracle_h,
                           oracle_h_function, oracle_residuals, oracle_v,
                           oracle_v_function, oracle_w_o, oracle_w_o_function)
from resnet.operators import energy
from resnet.serialize import canonical_json

from reference_windows import conductance, neighbors

# Dynamic-range limits of float64: radius where c^R * eps stays far below
# the 1e-10 solver gate.
ORACLE_RADII = {1.5: 36, 2.0: 30, 3.0: 12}


def test_geometric_edge_conductances():
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=5)
    assert conductance(net, 1, 2) == 4.0
    assert conductance(net, -1, 0) == 2.0
    assert conductance(net, 0, 1) == 2.0


def test_unit_line_edges():
    net = build(ModelSpec("unit_line"), radius=5)
    assert all(c == 1.0 for x in net.vertices for _, c in net.incident(x))


def test_star_is_glued_half_lines():
    net = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=4)
    assert net.origin == (0, 0)
    assert set(neighbors(net, (0, 0))) == {(0, 1), (1, 1), (2, 1)}
    assert conductance(net, (1, 1), (1, 2)) == 4.0


def test_binary_tree_shape():
    net = build(ModelSpec("binary_tree"), radius=4)
    assert set(neighbors(net, (0, 0))) == {(0, 1), (1, 1)}
    assert set(neighbors(net, (1, 1))) == {(0, 0), (2, 2), (3, 2)}


def test_family_validation(monkeypatch):
    with pytest.raises(UnsupportedModelError):
        ModelSpec("moebius_strip")
    with pytest.raises(ConfigurationError):
        ModelSpec("geom_z", {"c": -1.0})
    with pytest.raises(ConfigurationError):
        ModelSpec("star", {"arms": 0})
    # A base that is not finite and positive, and an arm count or radius that
    # is not an int, are refused, not truncated, before any window is built.
    monkeypatch.setattr(rn.models, "_line", lambda *args: pytest.fail("window built"))
    monkeypatch.setattr(rn.models, "_star", lambda *args: pytest.fail("window built"))
    # float() would read True as 1.0 and "2" as 2.0, and the record keep "2".
    for c in (math.nan, math.inf, -math.inf, True, np.True_, "2", None, 1j):
        with pytest.raises(ConfigurationError, match="c must be finite and positive"):
            ModelSpec("geom_z", {"c": c})
        with pytest.raises(ConfigurationError, match="c must be finite and positive"):
            load_network({"model": "geom_z", "params": {"c": c}, "radius": 3})
    for params in ({"arms": 2.5}, {"arms": True}, {"radius": 3.7}, {"radius": True}):
        with pytest.raises(ConfigurationError, match="must be an int"):
            ModelSpec("star", params)
        with pytest.raises(ConfigurationError, match="must be an int"):  # the JSON model form
            load_network({"model": "star", "params": params, "radius": 3})
    for radius in (3.7, True, -1):
        with pytest.raises(ConfigurationError, match="a window radius must be"):
            build(ModelSpec("unit_line"), radius)
        with pytest.raises(ConfigurationError, match="a window radius must be"):
            load_network({"model": "unit_line", "radius": radius})


def test_numpy_parameters_are_recorded_as_python_numbers():
    def text(params):
        return canonical_json(network_to_jsonable(build(ModelSpec("star", params), 3)))

    assert text({"arms": np.int64(2)}) == text({"arms": 2})
    assert ModelSpec("geom_z", {"c": np.float32(1.5)}).c == 1.5
    assert text({"arms": 2, "c": np.float32(1.5)}) == text({"arms": 2, "c": 1.5})
    assert type(build(ModelSpec("star", {"arms": np.int64(2)}), 3).model["params"]["arms"]) is int


@pytest.mark.parametrize("family, params, unread", [
    ("unit_line", {"c": 0, "arms": 9}, "'arms', 'c'"),
    ("binary_tree", {"c": 2.0}, "'c'"),
    ("log_increment_line", {"arms": 2, "radius": 9}, "'arms'"),
    ("geom_z", {"c": 2.0, "arms": 3}, "'arms'"),
    ("geom_zplus", {"arms": 3}, "'arms'"),
    ("star", {"c": 2.0, "arms": 3, "legs": 4}, "'legs'"),
])
def test_a_parameter_the_family_does_not_read_is_refused(family, params, unread):
    message = f"model {family} does not read {unread}"
    with pytest.raises(ConfigurationError, match=message):
        ModelSpec(family, params)
    with pytest.raises(ConfigurationError, match=message):  # the JSON model form
        load_network({"model": family, "params": params, "radius": 4})


@pytest.mark.parametrize("family, params", [
    ("geom_z", {"c": 3.0, "radius": 5}), ("geom_zplus", {"c": 0.5}),
    ("star", {"c": 2.0, "arms": 4, "radius": 3}), ("unit_line", {"radius": 7}),
    ("binary_tree", {}), ("log_increment_line", {"radius": 9})])
def test_the_parameters_a_family_reads_are_taken(family, params):
    assert ModelSpec(family, params).params == params


@pytest.mark.parametrize("family", ["geom_z", "geom_zplus"])
@pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
def test_oracles_satisfy_their_defining_equations(family, c):
    spec = ModelSpec(family, {"c": c})
    residuals = oracle_residuals(spec, radius=ORACLE_RADII[c])
    for name, res in residuals.items():
        assert res < 1e-10, (name, res)


def test_oracle_values_at_c2():
    spec = ModelSpec("geom_z", {"c": 2.0})
    assert oracle_v(spec, 2, 1) == pytest.approx(0.5)
    assert oracle_v(spec, 2, 2) == pytest.approx(0.75)
    assert oracle_v(spec, 2, 9) == pytest.approx(0.75)   # constant past the pole
    assert oracle_v(spec, 2, -4) == 0.0
    assert oracle_w_o(spec, 0) == pytest.approx(0.5)
    assert oracle_w_o(spec, 1) == pytest.approx(0.25)
    assert oracle_h(spec, 1) == pytest.approx(0.5)
    assert oracle_h(spec, -1) == pytest.approx(-0.5)
    assert oracle_h(spec, 0) == 0.0
    assert harmonic_energy(spec) == pytest.approx(2.0)


def test_zplus_oracle_amplitude():
    spec = ModelSpec("geom_zplus", {"c": 2.0})
    assert oracle_w_o(spec, 0) == pytest.approx(1.0)
    assert oracle_w_o(spec, 3) == pytest.approx(0.125)
    assert oracle_h(spec, 4) == 0.0
    with pytest.raises(DomainError):
        oracle_w_o(spec, -1)


def test_oracle_warns_in_recurrent_regime():
    spec = ModelSpec("geom_z", {"c": 1.0})
    with pytest.warns(UserWarning):
        oracle_v(spec, 1, 1)


def test_oracle_rejects_other_families():
    with pytest.raises(UnsupportedModelError):
        oracle_v(ModelSpec("unit_line"), 1, 1)


@pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
def test_computed_kernels_match_oracles(c):
    spec = ModelSpec("geom_z", {"c": c})
    radius = ORACLE_RADII[c]
    net = build(spec, radius=radius + 2)
    plan = rn.make_exhaustion(net, range(1, radius + 1))
    v2 = rn.energy_kernel(net, 2, plan)
    assert v2.converged
    probes = [-radius + 1, -3, -1, 0, 1, 2, 3, 7, radius - 1]
    for k in probes:
        assert v2.approximant.value(k) == pytest.approx(
            oracle_v(spec, 2, k), abs=1e-5)
    w = rn.monopole(net, 0, plan)
    assert w.converged
    for k in (-3, 0, 2, 5):
        assert w.approximant.value(k) == pytest.approx(
            oracle_w_o(spec, k), abs=1e-5)


@pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
def test_computed_harmonic_part_is_scaled_oracle(c):
    spec = ModelSpec("geom_z", {"c": c})
    radius = ORACLE_RADII[c]
    net = build(spec, radius=radius + 2)
    plan = rn.make_exhaustion(net, range(1, radius + 1))
    h2 = rn.harm_part(net, 2, plan)
    # projection of the dipole kernel spans the 1-dim harmonic space:
    # h_2 = (h(2)/E(h)) h in the origin-zero gauge
    scale = oracle_h(spec, 2) / harmonic_energy(spec)
    for k in (-5, -1, 1, 3, 8):
        assert h2.approximant.value(k) == pytest.approx(
            scale * oracle_h(spec, k), abs=1e-5)


def test_log_increment_values():
    net = build(ModelSpec("log_increment_line"), radius=2 ** 5)
    u = log_increment_function(2 ** 5, net.vertices)
    assert u.value(0) == 0.0
    assert u.value(1) == 1.0
    assert u.value(2) == 2.0          # n = 2^1 contributes 1/1
    assert u.value(3) == pytest.approx(2.0 + 1.0 / 3.0)
    assert u.value(4) == pytest.approx(u.value(3) + 0.5)   # n = 2^2
    assert u.value(5) == pytest.approx(u.value(4) + 0.2)


def test_log_increment_energy_bound():
    radius = 2 ** 14
    net = build(ModelSpec("log_increment_line"), radius=radius)
    u = log_increment_function(radius, net.vertices)
    e = energy(net, u, window=net._ball_positions(radius)).value
    assert e < math.pi ** 2 / 6.0 * 2.0
    assert e > 1.0


def test_log_increment_needs_radius():
    with pytest.raises(ConfigurationError):
        log_increment_function(1, (0, 1))


def test_oracle_functions_carry_gauges(geom2_spec):
    net = build(geom2_spec, radius=20)
    assert oracle_v_function(geom2_spec, 2, 10, net.vertices).gauge == "origin-zero"
    assert oracle_w_o_function(geom2_spec, 10, net.vertices).gauge == "vanish-at-infinity"
    h1 = oracle_h_function(geom2_spec, 20, net.vertices, unit_energy=True)
    window = net._ball_positions(20)
    assert energy(net, h1, window=window).value == pytest.approx(1.0, abs=1e-5)


@pytest.mark.parametrize("spec, largest, size", [
    (ModelSpec("binary_tree"), 19, "2^21 - 1"),
    (ModelSpec("star", {"arms": 5}), (MAX_WINDOW_VERTICES - 1) // 5,
     str(5 * ((MAX_WINDOW_VERTICES - 1) // 5 + 1) + 1)),
    (ModelSpec("unit_line"), MAX_WINDOW_VERTICES // 2 - 1, str(MAX_WINDOW_VERTICES + 1)),
    (ModelSpec("geom_z"), MAX_WINDOW_VERTICES // 2 - 1, str(MAX_WINDOW_VERTICES + 1)),
    (ModelSpec("geom_zplus"), MAX_WINDOW_VERTICES - 1, str(MAX_WINDOW_VERTICES + 1)),
    (ModelSpec("log_increment_line"), MAX_WINDOW_VERTICES - 1,
     str(MAX_WINDOW_VERTICES + 1)),
])
def test_build_refuses_windows_beyond_the_vertex_limit(spec, largest, size):
    with pytest.raises(ConfigurationError) as err:
        build(spec, radius=largest + 1)
    assert f"has {size} vertices" in str(err.value)
    assert f"largest radius that fits is {largest}" in str(err.value)


@pytest.mark.parametrize("spec, count", [
    (ModelSpec("binary_tree"), lambda r: 2 ** (r + 1) - 1),
    (ModelSpec("star", {"arms": 5}), lambda r: 5 * r + 1),
    (ModelSpec("unit_line"), lambda r: 2 * r + 1),
    (ModelSpec("geom_z"), lambda r: 2 * r + 1),
    (ModelSpec("geom_zplus"), lambda r: r + 1),
    (ModelSpec("log_increment_line"), lambda r: r + 1),
])
def test_window_size_formulas_count_the_built_windows(spec, count):
    for radius in (1, 2, 5):
        assert len(build(spec, radius=radius).vertices) == count(radius)


@pytest.mark.parametrize("spec, largest", [
    (ModelSpec("geom_zplus"), 1022),
    (ModelSpec("geom_z"), 1022),
    (ModelSpec("star", {"c": 3.0}), 644),
    (ModelSpec("geom_zplus", {"c": 0.5}), 1073),
])
def test_build_refuses_conductances_beyond_float_range(spec, largest):
    # The edges leaving a window of radius R carry c^(R + 1).
    assert 0.0 < spec.c ** (largest + 1) < math.inf
    for radius in (largest + 1, 1100):
        with pytest.raises(ConfigurationError) as err:
            build(spec, radius=radius)
        assert f"c^{radius + 1}" in str(err.value)
        assert f"the largest radius that base allows is {largest}" in str(err.value)
    net = build(spec, radius=largest)
    assert len(net.vertices) == (spec.arms if spec.family == "star" else
                                 2 if spec.family == "geom_z" else 1) * largest + 1
    assert not net.is_finite


def test_log_increment_function_adds_its_increments_left_to_right():
    radius = 3 ** 7
    values, total = [0.0], 0.0
    for n in range(1, radius + 1):
        k = n.bit_length() - 1
        total += 1.0 if n == 1 else 1.0 / k if n == 1 << k else 1.0 / n
        values.append(total)
    u = log_increment_function(radius, tuple(range(radius + 1)))
    assert u.items() == list(enumerate(values))
    assert u.gauge == "origin-zero"


def test_load_network_refuses_a_radius_with_explicit_edges():
    text = '{"origin": 0, "edges": [{"u": 0, "v": 1, "c": 1.0}]}'
    with pytest.raises(ConfigurationError, match="applies only to a model network"):
        load_network(text, radius=2)
    assert load_network(text).vertices == (0, 1)
    model = '{"model": "unit_line", "params": {}, "radius": 5}'
    assert len(load_network(model, radius=2).vertices) == 5
