import numpy as np
import pytest
from hypothesis import given, strategies as st

import resnet as rn
from resnet.errors import DomainError, WindowError
from resnet.models import oracle_w_o_function
from resnet.operators import energy, laplacian_apply

from conftest import make_random_net, random_function
from reference_pointwise import (contract, energy_over_plan, function_on, indicator,
                                 normal_derivative, restricted, transfer_apply)
from reference_windows import ball, interior_of, positions, total_conductance


@pytest.fixture(scope="module")
def w_o(geom2_spec, geom2):
    return oracle_w_o_function(geom2_spec, 32, geom2.vertices)


def test_laplacian_of_monopole_at_origin(geom2, w_o):
    assert laplacian_apply(geom2, w_o, 0) == pytest.approx(1.0, abs=1e-12)


def test_laplacian_of_monopole_off_origin(geom2, w_o):
    assert laplacian_apply(geom2, w_o, 3) == pytest.approx(0.0, abs=1e-12)


def test_laplacian_of_constant(geom2):
    one = function_on(geom2, {x: 7.5 for x in ball(geom2, 5)})
    assert laplacian_apply(geom2, one, 2) == 0.0


def test_laplacian_refuses_zero_extension(geom2, w_o):
    narrow = restricted(geom2, w_o, ball(geom2, 4))
    with pytest.raises(WindowError):
        laplacian_apply(geom2, narrow, 4)


def test_transfer_on_unit_path(unit_path):
    u = function_on(unit_path, {0: 0.0, 1: 1.0, 2: 0.0})
    assert transfer_apply(unit_path, u, 1) == 0.0
    assert transfer_apply(unit_path, u, 0) == 1.0
    # c(x) u(x) - (T u)(x) = (laplacian u)(x)
    x = 1
    lhs = total_conductance(unit_path, x) * u.value(x) - transfer_apply(unit_path, u, x)
    assert lhs == laplacian_apply(unit_path, u, x) == 2.0


def test_energy_of_diracs(geom2):
    window = ball(geom2, 5)
    d0 = indicator(geom2, window, {0})
    d1 = indicator(geom2, window, {1})
    assert energy(geom2, d0).value == pytest.approx(4.0, abs=1e-12)
    assert energy(geom2, d0, d1).value == pytest.approx(-2.0, abs=1e-12)


def test_energy_of_monopole(geom2, w_o):
    window = positions(geom2, ball(geom2, 32))
    val = energy(geom2, w_o, window=window).value
    assert val == pytest.approx(0.5, abs=1e-9)


def test_energy_symmetric_bilinear(rng):
    net = make_random_net(rng)
    u = random_function(rng, net)
    v = random_function(rng, net)
    w = random_function(rng, net)
    assert energy(net, u, v).value == pytest.approx(energy(net, v, u).value)
    left = energy(net, u + 2.0 * w, v).value
    right = energy(net, u, v).value + 2.0 * energy(net, w, v).value
    assert left == pytest.approx(right, abs=1e-9)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_polarization(seed):
    rng = np.random.default_rng(seed)
    net = make_random_net(rng, max_vertices=12)
    u = random_function(rng, net)
    v = random_function(rng, net)
    e_uv = energy(net, u, v).value
    polarized = 0.25 * (energy(net, u + v).value - energy(net, u - v).value)
    assert abs(e_uv - polarized) < 1e-12 * max(1.0, abs(e_uv))


@given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_gauge_invariance(shift, seed):
    rng = np.random.default_rng(seed)
    net = make_random_net(rng, max_vertices=12)
    u = random_function(rng, net)
    v = random_function(rng, net)
    shifted = u.shifted(shift)
    assert abs(energy(net, u, v).value - energy(net, shifted, v).value) < 1e-12 * (
        1.0 + abs(energy(net, u, v).value))
    x = net.vertices[1]
    assert abs(laplacian_apply(net, u, x) - laplacian_apply(net, shifted, x)) < 1e-10


def test_energy_over_plan_flags_convergence(geom2, geom2_plan, w_o):
    out = energy_over_plan(geom2, w_o, w_o, geom2_plan)
    assert out.converged
    assert out.value == pytest.approx(0.5, abs=1e-8)


def test_energy_converged_on_full_finite_window(unit_path):
    u = function_on(unit_path, {0: 0.0, 1: 1.0, 2: 2.0})
    assert energy(unit_path, u).converged
    assert energy(unit_path, u, window=positions(unit_path, {0, 1})).converged is False


def test_normal_derivative_monopole(geom2, w_o):
    for k in range(1, 7):
        val = normal_derivative(geom2, ball(geom2, k), w_o, k)
        assert val == pytest.approx(-0.5, abs=1e-12)


def test_normal_derivative_needs_boundary(unit_path):
    u = function_on(unit_path, {0: 0.0, 1: 1.0, 2: 2.0})
    with pytest.raises(DomainError):
        normal_derivative(unit_path, unit_path.vertices, u, 1)


def test_normal_derivative_rejects_vertex_outside_subset(unit_path):
    u = function_on(unit_path, {0: 0.0, 1: 1.0, 2: 2.0})
    with pytest.raises(DomainError, match="not on the boundary"):
        normal_derivative(unit_path, {0, 1}, u, 2)


def test_normal_derivative_on_path(unit_path):
    u = function_on(unit_path, {0: 0.0, 1: 1.0, 2: 2.0})
    assert normal_derivative(unit_path, {0, 1}, u, 1) == 1.0


def test_contract_clamps(unit_path):
    u = function_on(unit_path, {0: -1.0, 1: 0.5, 2: 2.0})
    assert [v for _, v in contract(unit_path, u).items()] == [0.0, 0.5, 1.0]
    inside = function_on(unit_path, {0: 0.25, 1: 0.75})
    assert [v for _, v in contract(unit_path, inside).items()] == [0.25, 0.75]


def test_contract_reduces_energy_example():
    net = rn.Network.from_edges(0, [(0, 1, 1.0)])
    u = function_on(net, {0: 0.0, 1: 2.0})
    assert energy(net, u).value == 4.0
    assert energy(net, contract(net, u)).value == 1.0


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_contract_markov_property(seed):
    rng = np.random.default_rng(seed)
    net = make_random_net(rng, max_vertices=15)
    u = random_function(rng, net, scale=3.0)
    assert energy(net, contract(net, u)).value <= energy(net, u).value + 1e-12


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_finite_identity_energy_equals_vertex_sum(seed):
    rng = np.random.default_rng(seed)
    net = make_random_net(rng)
    u = random_function(rng, net)
    v = random_function(rng, net)
    vertex_sum = sum(u.value(x) * laplacian_apply(net, v, x) for x in net.vertices)
    assert abs(energy(net, u, v).value - vertex_sum) < 1e-9


def test_stagewise_laplacian_boundary_sum_vanishes(geom2, w_o):
    # interior Laplacian mass plus boundary normal derivatives cancel exactly
    for k in (2, 5, 9):
        stage = ball(geom2, k)
        total = sum(laplacian_apply(geom2, w_o, x)
                    for x in interior_of(geom2, stage))
        total += sum(normal_derivative(geom2, stage, w_o, x)
                     for x in geom2.boundary_of(stage))
        assert abs(total) < 1e-9


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_stagewise_cancellation_for_any_function(seed):
    rng = np.random.default_rng(seed)
    net = make_random_net(rng, max_vertices=20)
    u = random_function(rng, net)
    radius = net.max_radius
    for k in range(1, radius + 1):
        stage = ball(net, k)
        total = sum(laplacian_apply(net, u, x) for x in interior_of(net, stage))
        total += sum(normal_derivative(net, stage, u, x)
                     for x in net.boundary_of(stage))
        assert abs(total) < 1e-9


def test_zero_energy_means_constant(rng):
    # the kernel of the form is exactly the constants on a connected window
    net = make_random_net(rng, max_vertices=15)
    const = function_on(net, {x: 3.25 for x in net.vertices})
    assert energy(net, const).value == 0.0
    bumped = function_on(net, {x: 3.25 + (0.1 if x == net.vertices[-1] else 0.0)
                               for x in net.vertices})
    assert energy(net, bumped).value > 0.0
