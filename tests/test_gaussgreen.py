import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import resnet as rn
from resnet.errors import DomainError, PreconditionError, WindowError
from resnet.gaussgreen import (VERDICT_BOUNDARY, VERDICT_DEPENDENT,
                               VERDICT_IDENTITY, balanced_check, boundary_sum,
                               ell2_converse_check, gauss_green,
                               harmonic_boundary_representation,
                               two_sum_identity_check)
from resnet.kernels import energy_kernel, wired_monopole
from resnet.models import (ModelSpec, build, log_increment_function,
                           oracle_h_function, oracle_w_o_function)
from resnet.operators import energy, laplacian_apply

from conftest import make_random_net, random_function
from reference_pointwise import function_on, indicator, normal_derivative, restricted
from reference_windows import final_ball, interior_of, positions


@pytest.fixture(scope="module")
def harm_unit(geom2_spec, geom2):
    return oracle_h_function(geom2_spec, 32, geom2.vertices, unit_energy=True)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_stage_exactness_on_random_finite_nets(seed):
    rng = np.random.default_rng(seed)
    net = make_random_net(rng, max_vertices=25)
    u = random_function(rng, net)
    v = random_function(rng, net)
    radius = net.max_radius
    plan = rn.make_exhaustion(net, range(1, radius + 1)) if radius >= 1 else None
    report = gauss_green(net, u, v, plan)
    for stage in report.stages:
        assert abs(stage.residual) < 1e-9


def test_stage_exactness_on_integers(geom2, harm_unit):
    plan = rn.make_exhaustion(geom2, range(1, 19))
    report = gauss_green(geom2, harm_unit, harm_unit, plan)
    for stage in report.stages:
        assert abs(stage.residual) < 1e-9


def test_representative_shift_preserves_total(geom2, geom2_plan, harm_unit):
    w = wired_monopole(geom2, 0, geom2_plan).approximant
    base = gauss_green(geom2, harm_unit, w, geom2_plan)
    shifted = gauss_green(geom2, harm_unit.shifted(3.5), w, geom2_plan)
    for s0, s1 in zip(base.stages, shifted.stages):
        assert s0.energy == pytest.approx(s1.energy, abs=1e-9)
        total0 = s0.vertex_sum + s0.boundary_sum
        total1 = s1.vertex_sum + s1.boundary_sum
        assert total0 == pytest.approx(total1, abs=1e-9)
        # the split itself moves
    assert abs(base.stages[-1].vertex_sum - shifted.stages[-1].vertex_sum) > 0.1


def test_harmonic_boundary_term_is_unit(geom2, harm_unit):
    plan = rn.make_exhaustion(geom2, range(1, 29))
    report = gauss_green(geom2, harm_unit, harm_unit, plan)
    assert report.verdict == VERDICT_BOUNDARY
    assert report.vertex_limit == pytest.approx(0.0, abs=1e-6)
    assert report.boundary_limit == pytest.approx(1.0, abs=1e-6)
    assert report.lhs_energy == pytest.approx(1.0, abs=1e-6)


def test_kernel_span_has_no_boundary_term(geom2, geom2_plan):
    v2 = energy_kernel(geom2, 2, geom2_plan).approximant
    u = oracle_w_o_function(ModelSpec("geom_z", {"c": 2.0}), 32, geom2.vertices)
    report = gauss_green(geom2, u, v2, geom2_plan)
    assert report.verdict == VERDICT_IDENTITY
    assert report.boundary_limit == pytest.approx(0.0, abs=1e-6)
    vertex_sum = sum(u.value(x) * laplacian_apply(geom2, v2, x)
                     for x in sorted(interior_of(geom2, final_ball(geom2_plan))))
    window = positions(geom2, final_ball(geom2_plan))
    assert energy(geom2, u, v2, window=window).value == pytest.approx(vertex_sum, abs=1e-6)


def test_finite_net_boundary_empty(rng):
    net = make_random_net(rng, max_vertices=15)
    u = random_function(rng, net)
    v = random_function(rng, net)
    radius = net.max_radius
    plan = rn.make_exhaustion(net, range(1, radius + 1))
    report = gauss_green(net, u, v, plan)
    assert report.stages[-1].boundary_sum == 0.0
    assert abs(report.stages[-1].residual) < 1e-9


def test_log_increment_boundary_sums():
    radius = 3 ** 10
    net = build(ModelSpec("log_increment_line"), radius=radius)
    u = log_increment_function(radius, net.vertices)
    p2 = rn.make_exhaustion(net, [2 ** k for k in range(1, 11)],
                            descriptor="radii:2^k")
    p3 = rn.make_exhaustion(net, [3 ** k for k in range(1, 11)],
                            descriptor="radii:3^k")
    trace = boundary_sum(net, u, u, p2, alt_plan=p3)
    assert all(value >= math.log(2.0) for _, value in trace.stages)
    assert trace.alt_stages[-1][1] <= 0.01
    assert trace.exhaustion_dependent is True


def test_gauss_green_flags_exhaustion_dependence():
    radius = 3 ** 7
    net = build(ModelSpec("log_increment_line"), radius=radius)
    u = log_increment_function(radius, net.vertices)
    p2 = rn.make_exhaustion(net, [2 ** k for k in range(1, 8)])
    p3 = rn.make_exhaustion(net, [3 ** k for k in range(1, 8)])
    report = gauss_green(net, u, u, p2, alt_plan=p3)
    assert report.verdict == VERDICT_DEPENDENT


def test_gauss_green_rejects_plan_beyond_function_window():
    radius = 3 ** 7
    net = build(ModelSpec("log_increment_line"), radius=radius)
    p2 = rn.make_exhaustion(net, [2 ** k for k in range(1, 12)],
                            descriptor="radii:2^k")
    p3 = rn.make_exhaustion(net, [3 ** k for k in range(1, 8)],
                            descriptor="radii:3^k")
    u = log_increment_function(2 ** 11, net.vertices)
    with pytest.raises(WindowError, match=r"'radii:3\^k' reaches radius 2187"):
        gauss_green(net, u, u, p2, alt_plan=p3)
    with pytest.raises(WindowError, match=r"'radii:3\^k' reaches radius 2187"):
        gauss_green(net, u, u, p3)


def test_finitely_supported_boundary_eventually_zero(geom2, geom2_plan):
    window = final_ball(geom2_plan)
    u = indicator(geom2, window, {0, 1, -1})
    w = wired_monopole(geom2, 0, geom2_plan).approximant
    trace = boundary_sum(geom2, u, w, geom2_plan)
    assert trace.converged
    assert trace.limit == pytest.approx(0.0, abs=1e-9)
    assert all(value == 0.0 for _, value in trace.stages[3:])


def test_boundary_zero_shift(geom2, geom2_plan, harm_unit):
    w = wired_monopole(geom2, 0, geom2_plan).approximant
    report = gauss_green(geom2, harm_unit, w, geom2_plan)
    shift = report.boundary_zero_shift
    assert shift is not None
    again = gauss_green(geom2, harm_unit.shifted(-shift), w, geom2_plan)
    assert again.boundary_limit == pytest.approx(0.0, abs=1e-6)


def test_harmonic_reconstruction(geom2, geom2_plan, harm_unit):
    reconstructed = harmonic_boundary_representation(geom2, harm_unit, 3, geom2_plan)
    assert reconstructed == pytest.approx(harm_unit.value(3), abs=1e-4)


def test_harmonic_reconstruction_at_origin(geom2, geom2_plan, harm_unit):
    shifted = harm_unit.shifted(0.7)
    assert harmonic_boundary_representation(geom2, shifted, 0, geom2_plan) == 0.7


def test_harmonic_reconstruction_rejects_nonharmonic(geom2, geom2_plan):
    u = indicator(geom2, final_ball(geom2_plan), {0, 2})
    with pytest.raises(DomainError):
        harmonic_boundary_representation(geom2, u, 3, geom2_plan)


def test_balanced_kernel_combination(geom2, geom2_plan):
    v2 = energy_kernel(geom2, 2, geom2_plan).approximant
    assert abs(balanced_check(geom2, v2)) < 1e-6
    v1 = energy_kernel(geom2, 1, geom2_plan).approximant
    v4 = energy_kernel(geom2, 4, geom2_plan).approximant
    combo = 3.0 * v1 - 2.0 * v4
    assert abs(balanced_check(geom2, combo)) < 1e-6


def test_monopole_is_not_balanced(geom2, geom2_plan):
    w = wired_monopole(geom2, 0, geom2_plan).approximant
    assert balanced_check(geom2, w) == pytest.approx(1.0, abs=1e-6)


def test_two_sum_identity_on_unit_path(unit_path, unit_path_plan):
    v1 = energy_kernel(unit_path, 1, unit_path_plan).approximant
    lhs, rhs = two_sum_identity_check(unit_path, v1)
    assert lhs == pytest.approx(2.0, abs=1e-10)
    assert rhs == pytest.approx(2.0, abs=1e-10)


def test_two_sum_identity_zero_function(unit_path):
    zero = function_on(unit_path, dict.fromkeys(unit_path.vertices, 0.0))
    lhs, rhs = two_sum_identity_check(unit_path, zero)
    assert lhs == 0.0 and rhs == 0.0


@pytest.mark.parametrize("family,c", [("geom_z", 2.0), ("geom_zplus", 2.0),
                                      ("unit_line", None)])
def test_two_sum_identity_random_combinations(family, c, rng):
    params = {} if c is None else {"c": c}
    net = build(ModelSpec(family, params), radius=32)
    plan = rn.make_exhaustion(net, range(1, 31))
    bases = [x for x in (1, 2, 3, 5) if x in net.vertices]
    elements = [energy_kernel(net, x, plan).approximant for x in bases]
    for _ in range(20):
        coeffs = rng.uniform(-2.0, 2.0, size=len(elements))
        u = elements[0] * float(coeffs[0])
        for a, el in zip(coeffs[1:], elements[1:]):
            u = u + el * float(a)
        lhs, rhs = two_sum_identity_check(net, u)
        assert abs(lhs - rhs) < 1e-6


def test_ell2_converse_on_half_line(zplus2, zplus2_plan, zplus2_spec):
    w = oracle_w_o_function(zplus2_spec, 32, zplus2.vertices)
    assert ell2_converse_check(zplus2, w, w) < 1e-6


def test_ell2_converse_on_finite_support(geom2, geom2_plan):
    window = final_ball(geom2_plan)
    u = indicator(geom2, window, {0, 1})
    v = indicator(geom2, window, {-1, 0})
    assert ell2_converse_check(geom2, u, v) < 1e-9


def test_ell2_converse_rejects_harmonic(geom2, harm_unit):
    with pytest.raises(PreconditionError):
        ell2_converse_check(geom2, harm_unit, harm_unit)


# -- the one-pass stage sums against stagewise sums of the public operators --


def _stagewise(net, u, v, plan):
    """(energy, vertex_sum, boundary_sum) of every stage, one stage at a time."""
    out = []
    for stage in plan.stages:
        out.append((
            energy(net, u, v, window=positions(net, stage)).value,
            sum(u.value(x) * laplacian_apply(net, v, x)
                for x in interior_of(net, stage)),
            sum(u.value(x) * normal_derivative(net, stage, v, x)
                for x in net.boundary_of(stage))))
    return out


def _assert_close(got, want):
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def _assert_matches_stagewise(net, u, v, plan, alt_plan):
    report = gauss_green(net, u, v, plan, alt_plan)
    trace = boundary_sum(net, u, v, plan, alt_plan)
    alt = gauss_green(net, u, v, alt_plan).stages  # a report keeps main stages only
    for p, stages, bd_trace in ((plan, report.stages, trace.stages),
                                (alt_plan, alt, trace.alt_stages)):
        want = _stagewise(net, u, v, p)
        assert [s.radius for s in stages] == list(p.radii)
        assert [r for r, _ in bd_trace] == list(p.radii)
        for s, stage, (_, b), (e, vs, bs) in zip(stages, p.stages, bd_trace, want):
            assert s.size == len(stage)
            _assert_close(s.energy, e)
            _assert_close(s.vertex_sum, vs)
            _assert_close(s.boundary_sum, bs)
            _assert_close(b, bs)
    return report


@pytest.fixture
def stable_sorts(monkeypatch):
    """The lengths of the keys that ``np.argsort`` sorts stably, as it is called."""
    lengths, argsort = [], np.argsort

    def counted(key, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            lengths.append(len(key))
        return argsort(key, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return lengths


def test_keys_already_in_distance_order_are_not_sorted(stable_sorts):
    # On the half-line canonical order is distance order, so every key the
    # window and the stage sums order by is nondecreasing: nothing is sorted,
    # and the sums still match the stagewise ones.
    net = build(ModelSpec("log_increment_line"), radius=3 ** 6)
    u = log_increment_function(3 ** 6, net.vertices)
    plan = rn.make_exhaustion(net, [3 ** k for k in range(1, 7)])  # covers the window
    _assert_matches_stagewise(net, u, u, plan,
                              rn.make_exhaustion(net, [2 ** k for k in range(1, 10)]))
    assert stable_sorts == []


def test_stage_sums_match_stagewise_on_binary_tree(rng):
    net = build(ModelSpec("binary_tree"), radius=8)
    u, v = random_function(rng, net), random_function(rng, net)
    _assert_matches_stagewise(net, u, v, rn.make_exhaustion(net, range(1, 9)),
                              rn.make_exhaustion(net, [2, 5, 8]))


def test_stage_sums_match_stagewise_on_star(rng):
    net = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=10)
    u, v = random_function(rng, net), random_function(rng, net)
    _assert_matches_stagewise(net, u, v, rn.make_exhaustion(net, range(1, 11)),
                              rn.make_exhaustion(net, [3, 9]))


def test_stage_sums_match_stagewise_on_geom_z_with_alt_plan(geom2, geom2_plan, stable_sorts):
    u = oracle_w_o_function(ModelSpec("geom_z", {"c": 2.0}), 32, geom2.vertices)
    v = energy_kernel(geom2, 2, geom2_plan).approximant
    alt = rn.make_exhaustion(geom2, [2, 4, 8, 16, 30])
    stable_sorts.clear()
    report = _assert_matches_stagewise(
        geom2, u, v, rn.make_exhaustion(geom2, range(1, 29)), alt)
    assert report.meta["alt_descriptor"] == alt.descriptor
    # Canonical order -R..R is not distance order: the vertex key and the
    # edge key are sorted.
    assert {len(geom2.vertices), len(geom2.arrays.edge_x)} <= set(stable_sorts)


def test_stage_sums_match_stagewise_on_explicit_grid(rng, stable_sorts):
    # A grid with diagonals around the origin (1, 1): canonical order of the
    # tuple ids is not distance order, and some neighbours are equidistant.
    edges = [((i, j), (i + di, j + dj), float(rng.uniform(0.5, 5.0)))
             for i in range(4) for j in range(4)
             for di, dj in ((1, 0), (0, 1), (1, 1))
             if i + di < 4 and j + dj < 4]
    net = rn.Network.from_edges((1, 1), edges)
    # The symmetry check orders the pairs below the diagonal by neighbour,
    # which a grid's rows do not.
    assert stable_sorts == [len(net.arrays.edge_x)]
    u, v = random_function(rng, net), random_function(rng, net)
    radius = net.max_radius
    report = _assert_matches_stagewise(
        net, u, v, rn.make_exhaustion(net, range(1, radius + 1)),
        rn.make_exhaustion(net, [2, radius]))
    assert report.stages[-1].size == len(net.vertices)
    assert report.stages[-1].boundary_sum == 0.0


def test_boundary_sum_reads_u_only_on_stage_boundaries(rng):
    net = build(ModelSpec("binary_tree"), radius=7)
    window = frozenset(net.vertices)
    u, v = random_function(rng, net), random_function(rng, net)
    plan = rn.make_exhaustion(net, [1, 3, 4, 7])
    alt = rn.make_exhaustion(net, [2, 6])
    on_boundaries = frozenset().union(
        *(net.boundary_of(stage) for p in (plan, alt) for stage in p.stages))
    assert on_boundaries < window
    full = boundary_sum(net, u, v, plan, alt)
    narrow = boundary_sum(net, restricted(net, u, on_boundaries), v, plan, alt)
    assert narrow == full


def test_boundary_zero_shift_uses_the_main_plan_final_stage():
    # On the path 0..10, v is linear up to 3 and convex beyond, so Σ Δv over
    # the interior of the main plan's last ball differs from the alt plan's.
    net = rn.Network.from_edges(0, [(x, x + 1, 1.0) for x in range(10)])
    window = frozenset(net.vertices)
    u = function_on(net, {x: 1.0 for x in window})
    v = function_on(net, {x: float(x + max(0, x - 3) ** 2) for x in window})
    plan = rn.make_exhaustion(net, [1, 2, 3])
    report = gauss_green(net, u, v, plan, rn.make_exhaustion(net, [5, 8]))
    assert report.boundary_limit == 1.0
    mass = sum(laplacian_apply(net, v, x) for x in interior_of(net, final_ball(plan)))
    assert mass == -1.0
    assert report.boundary_zero_shift == -1.0


def test_functions_on_the_network_tuple_are_read_as_arrays():
    # logu built on the window's vertex tuple: the sums and the coverage check
    # index arrays and never build the window's id -> position dict.  A
    # function on another network's vertex tuple is refused.
    net = build(ModelSpec("log_increment_line"), radius=3 ** 6)
    plan = rn.make_exhaustion(net, [3 ** k for k in range(1, 7)], "radii:3^k")
    alt = rn.make_exhaustion(net, [2 ** k for k in range(1, 10)], "radii:2^k")
    u = log_increment_function(3 ** 6, net.vertices)
    report = gauss_green(net, u, u, plan, alt)
    assert "_pos" not in vars(net)
    assert [s.size for s in report.stages] == [3 ** k + 1 for k in range(1, 7)]
    wider = build(ModelSpec("log_increment_line"), radius=3 ** 6 + 1)
    own = log_increment_function(3 ** 6, wider.vertices)
    for f, g in ((own, own), (u, own), (own, u)):
        with pytest.raises(DomainError, match="not on the network's vertices"):
            gauss_green(net, f, g, plan, alt)
    # The first plan, in argument order, that u or v does not cover is named.
    for radius, named in ((600, r"'radii:3\^k' reaches radius 729"),
                          (400, r"'radii:2\^k' reaches radius 512")):
        short = log_increment_function(radius, net.vertices)
        with pytest.raises(WindowError, match=named):
            gauss_green(net, short, short, alt, plan)
        with pytest.raises(WindowError, match=named):
            gauss_green(net, u, short, alt, plan)
