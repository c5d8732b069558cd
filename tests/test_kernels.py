import random

import numpy as np
import pytest

import resnet as rn
from resnet import kernels
from resnet.errors import DomainError, GreenUndefinedError
from resnet.kernels import (dirac_expansion_check, effective_resistance,
                            energy_kernel, fin_part, green_kernel,
                            harm_part, monopole, wired_monopole)
from resnet.models import ModelSpec, build, oracle_w_o, oracle_w_o_function
from resnet.operators import energy, laplacian_apply

from conftest import lognormal_grid_edges, make_random_net, random_function
from reference_pointwise import (function_on, harmonicity_residual, indicator,
                                 kernel_symmetry_residual, reproducing_residual)
from reference_windows import (cutset_sums, final_ball, interior_of, positions,
                               total_conductance)


def test_unit_path_kernel(unit_path, unit_path_plan):
    v1 = energy_kernel(unit_path, 1, unit_path_plan)
    assert [val for _, val in v1.approximant.items()] == pytest.approx(
        [0.0, 1.0, 1.0], abs=1e-10)


def test_kernel_at_origin_rejected(unit_path, unit_path_plan):
    with pytest.raises(DomainError):
        energy_kernel(unit_path, 0, unit_path_plan)
    with pytest.raises(DomainError, match="no exhaustion stage contains"):
        energy_kernel(unit_path, 2, rn.make_exhaustion(unit_path, [1]))


def test_geometric_kernel_values(geom2, geom2_plan, geom2_spec):
    v2 = energy_kernel(geom2, 2, geom2_plan)
    assert v2.converged
    assert v2.approximant.value(1) == pytest.approx(0.5, abs=1e-9)
    assert v2.approximant.value(2) == pytest.approx(0.75, abs=1e-9)
    assert v2.approximant.value(11) == pytest.approx(0.75, abs=1e-9)
    assert v2.approximant.value(-4) == pytest.approx(0.0, abs=1e-9)
    assert v2.energy == pytest.approx(0.75, abs=1e-8)


def test_kernel_defining_equation(geom2, geom2_plan):
    v3 = energy_kernel(geom2, 3, geom2_plan).approximant
    interior = interior_of(geom2, final_ball(geom2_plan))
    for x in sorted(interior):
        expected = (1.0 if x == 3 else 0.0) - (1.0 if x == 0 else 0.0)
        res = abs(laplacian_apply(geom2, v3, x) - expected)
        assert res / max(1.0, total_conductance(geom2, x)) < 1e-8


def test_reproducing_property(geom2, geom2_plan, geom2_spec, rng):
    v2 = energy_kernel(geom2, 2, geom2_plan)
    window = final_ball(geom2_plan)
    probes = [indicator(geom2, window, {y}) for y in (-2, -1, 1, 3)]
    probes.append(oracle_w_o_function(geom2_spec, 30, geom2.vertices))
    support = [x for x in window if abs(x) <= 5]
    probes.append(function_on(
        geom2, {x: (float(rng.uniform(-1, 1)) if x in support else 0.0) for x in window}))
    for u in probes:
        assert reproducing_residual(geom2, v2, u) < 1e-6


def test_dirac_reproducing_on_finite_nets(rng):
    for _ in range(5):
        net = make_random_net(rng, max_vertices=20)
        u = random_function(rng, net)
        window = frozenset(net.vertices)
        for x in net.vertices[:4]:
            dirac = indicator(net, window, {x})
            assert abs(energy(net, dirac, u).value
                       - laplacian_apply(net, u, x)) < 1e-9


def test_fin_equals_kernel_on_finite_net(unit_path, unit_path_plan):
    v1 = energy_kernel(unit_path, 1, unit_path_plan)
    f1 = fin_part(unit_path, 1, unit_path_plan)
    h1 = harm_part(unit_path, 1, unit_path_plan)
    for x in (0, 1, 2):
        assert f1.approximant.value(x) == pytest.approx(
            v1.approximant.value(x), abs=1e-12)
        assert h1.approximant.value(x) == pytest.approx(0.0, abs=1e-12)


def test_unit_line_harmonic_part_vanishes():
    net = build(ModelSpec("unit_line"), radius=8192)
    plan = rn.doubling_exhaustion(net)
    h1 = harm_part(net, 1, plan)
    v1 = energy_kernel(net, 1, plan)
    final = positions(net, final_ball(plan))
    e_h = energy(net, h1.approximant, window=final).value
    e_v = energy(net, v1.approximant, window=final).value
    assert e_h < 1e-4 * e_v
    # stage energies decay toward zero: wired and free limits merge
    assert h1.stage_energies[-1] < 0.5 * h1.stage_energies[2]


def test_geometric_harmonic_part(geom2, geom2_plan):
    h2 = harm_part(geom2, 2, geom2_plan)
    # projection coefficient h(2)/E(h): (1 - 1/4) / 2 => energy (3/4)^2/2
    assert h2.energy == pytest.approx(0.28125, abs=1e-8)
    assert harmonicity_residual(geom2, h2) < 1e-8


def test_royden_orthogonality(geom2, geom2_plan):
    fins = {x: fin_part(geom2, x, geom2_plan) for x in (1, 2, -3)}
    harms = {x: harm_part(geom2, x, geom2_plan) for x in (1, 2, -3)}
    for fx in fins.values():
        for hy in harms.values():
            val = energy(geom2, fx.approximant, hy.approximant,
                         window=positions(geom2, final_ball(geom2_plan))).value
            assert abs(val) < 1e-5


def test_monopole_on_half_line(zplus2, zplus2_plan):
    w = monopole(zplus2, 0, zplus2_plan)
    assert w.converged and not w.diverged
    assert w.approximant.value(0) == pytest.approx(1.0, abs=1e-6)
    for n in (1, 4, 9):
        assert w.approximant.value(n) == pytest.approx(0.5 ** n, abs=1e-6)


def test_monopole_energy_on_integers(geom2, geom2_plan):
    w = monopole(geom2, 0, geom2_plan)
    assert w.converged
    assert w.energy == pytest.approx(0.5, abs=1e-6)
    direct = wired_monopole(geom2, 0, geom2_plan)
    assert direct.converged
    assert abs(direct.energy - w.energy) < 1e-5


def test_monopole_diverges_on_unit_line():
    net = build(ModelSpec("unit_line"), radius=1024)
    plan = rn.doubling_exhaustion(net)
    w = monopole(net, 0, plan)
    assert w.diverged and not w.converged
    # energies track the stage resistance while windows grow
    prefix = w.stage_energies[:len(plan.radii)]
    assert prefix[-1] > 5.0 * prefix[len(prefix) // 2]


def test_monopole_energies_bounded_and_increasing(geom2, geom2_plan):
    w = monopole(geom2, 0, geom2_plan)
    wired = w.meta["wired_stage_energies"]
    tail = wired[-5:]
    assert all(b >= a - 1e-12 for a, b in zip(tail, tail[1:]))
    assert max(wired) < 1.0
    # The in-window energy leaves out the edges to the ghost.
    assert len(w.stage_energies) == 1 and w.energy <= wired[-1]


@pytest.mark.parametrize("spec", [
    ModelSpec("geom_z", {"c": 2.0}), ModelSpec("geom_z", {"c": 3.0}),
    ModelSpec("geom_zplus", {"c": 3.0}), ModelSpec("star", {"c": 2.0, "arms": 5}),
], ids=["geom-z-2", "geom-z-3", "geom-zplus-3", "star-5-2"])
def test_monopole_energy_is_the_closed_form(spec):
    # E(w_o) = <w_o, Δw_o> = w_o(0); on the star each arm carries 1/5 of the
    # unit flow through the resistances 2^-d, so w_o(0) = (1/5) Σ 2^-d = 1/5.
    # At R = 60 the share of the energy beyond the window, of order c^-R, is
    # below 1e-15, so what is left is rounding.
    closed_form = 1.0 / 5 if spec.family == "star" else oracle_w_o(spec, 0)
    net = build(spec, radius=60)
    w = monopole(net, net.origin, rn.make_exhaustion(net, range(1, 61)))
    assert w.converged
    assert abs(w.energy - closed_form) <= 1e-12


@pytest.mark.parametrize("residual", [1e-3, float("nan")])
def test_a_settled_monopole_that_fails_its_equation_diverges(geom2, geom2_plan,
                                                              monkeypatch, residual):
    monkeypatch.setattr(kernels, "scaled_laplacian_residual", lambda *args: residual)
    w = monopole(geom2, 0, geom2_plan)
    assert not w.converged and w.diverged
    assert w.meta["reason"] == "wired limit does not solve the monopole equation"


@pytest.mark.parametrize("spec, radius", [
    (ModelSpec("unit_line"), 500),
    (ModelSpec("log_increment_line"), 729),
    (ModelSpec("geom_z", {"c": 2.0}), 40),
    (ModelSpec("geom_zplus", {"c": 3.0}), 40),
    (ModelSpec("star", {"c": 2.0, "arms": 5}), 40),
    (ModelSpec("binary_tree"), 10),
], ids=lambda p: getattr(p, "family", p))
def test_wired_resistances_are_the_cutset_sums(spec, radius):
    # On these families every sphere is at one potential, so R_r = NW_r.  The
    # Jacobi-scaled wired matrix of B_r has condition O(r^2) on the lines, so
    # the solve's relative error is bounded by about r^2 * eps (2.8e-11 for
    # the unit line at r = 500); measured: 7e-13 there, 8e-14 on the
    # log-increment line, at most 6e-16 on the geometric families and the tree.
    net = build(spec, radius=radius)
    plan = rn.make_exhaustion(net, range(1, radius + 1))
    got = np.array(wired_monopole(net, net.origin, plan).stage_energies)
    want = cutset_sums(net)[list(plan.radii)]
    assert np.all(np.abs(got - want) <= radius ** 2 * np.finfo(float).eps * want)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_wired_resistances_obey_nash_williams_on_lognormal_grids(seed):
    # A grid's spheres are not at one potential: the bound is strict.
    net = rn.Network.from_edges((0, 0), lognormal_grid_edges(25, seed))
    plan = rn.make_exhaustion(net, range(1, 24))
    got = np.array(wired_monopole(net, (0, 0), plan).stage_energies)
    want = cutset_sums(net)[list(plan.radii)]
    assert np.all(want < got)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_raising_conductances_raises_no_stage_resistance(seed):
    # Rayleigh monotonicity: raising a conductance never raises the wired
    # resistance R_r from the origin to beyond B_r, nor the free resistance
    # E(v) within B_r between x and the origin.
    edges = lognormal_grid_edges(25, seed)
    raised = set(random.Random(seed).sample(range(len(edges)), 5))
    stronger = [(u, v, 4.0 * c if k in raised else c) for k, (u, v, c) in enumerate(edges)]
    nets = [rn.Network.from_edges((0, 0), e) for e in (edges, stronger)]
    plans = [rn.make_exhaustion(net, range(1, 11)) for net in nets]
    for stages in (lambda net, plan: wired_monopole(net, (0, 0), plan).stage_energies,
                   lambda net, plan: energy_kernel(net, (1, 0), plan).stage_energies):
        before, after = (np.array(stages(net, plan)) for net, plan in zip(nets, plans))
        assert len(before) == len(after) == 10
        assert np.all(after <= before * (1 + 8 * np.finfo(float).eps))


def test_green_kernel_on_half_line(zplus2, zplus2_plan):
    assert green_kernel(zplus2, 0, 0, zplus2_plan) == pytest.approx(1.0, abs=1e-6)
    g02 = green_kernel(zplus2, 0, 2, zplus2_plan)
    g20 = green_kernel(zplus2, 2, 0, zplus2_plan)
    assert abs(g02 - g20) < 1e-6


def test_green_kernel_undefined_when_recurrent():
    net = build(ModelSpec("unit_line"), radius=512)
    plan = rn.doubling_exhaustion(net)
    with pytest.raises(GreenUndefinedError):
        green_kernel(net, 0, 0, plan)


def test_one_wired_stage_on_a_finite_network_is_not_settled():
    # A single wired stage on a finite network is no window limit: the 10x10
    # grid is recurrent, so the monopole may not settle and g(x, y) is undefined.
    net = rn.Network.from_edges((0, 0), [
        ((i, j), (i + di, j + dj), 1.0) for i in range(10) for j in range(10)
        for di, dj in ((1, 0), (0, 1)) if i + di < 10 and j + dj < 10])
    plan = rn.make_exhaustion(net, [1])
    element = wired_monopole(net, (0, 0), plan)
    assert element.stage_energies == pytest.approx((0.75,))
    assert not element.converged
    with pytest.raises(GreenUndefinedError, match="did not stabilize"):
        green_kernel(net, (0, 0), (0, 0), plan)


def test_a_covering_last_ball_is_converged():
    # A triangle with a pendant vertex: the plan's last ball is the whole
    # network, so its one stage holding the pendant is exact.
    net = rn.Network.from_edges(0, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0), (2, 3, 1.0)])
    plan = rn.make_exhaustion(net, [1, 2])
    for variant in ("free", "wired"):
        r = effective_resistance(net, 0, 3, plan, variant=variant)
        assert r.stages == pytest.approx((1.6,), abs=1e-12)
        assert r.converged
    for op in (energy_kernel, fin_part, harm_part):
        element = op(net, 3, plan)
        assert element.converged
    assert energy_kernel(net, 3, plan).approximant.value(3) == pytest.approx(1.6, abs=1e-12)


def test_effective_resistance_series(unit_path, unit_path_plan):
    r = effective_resistance(unit_path, 0, 2, unit_path_plan)
    assert r.value == pytest.approx(2.0, abs=1e-10)
    assert r.variant == "free"


def test_effective_resistance_triangle(triangle):
    plan = rn.make_exhaustion(triangle, [1])
    # brute-force Kirchhoff oracle on the 3-vertex loop
    L = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    b = np.array([-1.0, 1.0, 0.0])
    u = np.linalg.solve(L[1:, 1:], b[1:])
    expected = u[0]  # potential difference = R for unit current
    r = effective_resistance(triangle, 1, 0, plan)
    assert expected == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r.value == pytest.approx(expected, abs=1e-10)


def test_effective_resistance_free_on_integers(geom2, geom2_plan):
    r = effective_resistance(geom2, 0, 1, geom2_plan)
    assert r.value == pytest.approx(0.5, abs=1e-8)
    assert r.converged


def test_effective_resistance_monotonicity(geom2, geom2_plan):
    free = effective_resistance(geom2, 0, 1, geom2_plan, variant="free")
    wired = effective_resistance(geom2, 0, 1, geom2_plan, variant="wired")
    assert all(b <= a + 1e-9 for a, b in zip(free.stages, free.stages[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(wired.stages, wired.stages[1:]))
    assert wired.value <= free.value + 1e-9


def test_effective_resistance_needs_distinct_vertices(unit_path, unit_path_plan):
    with pytest.raises(DomainError):
        effective_resistance(unit_path, 1, 1, unit_path_plan)
    with pytest.raises(DomainError, match="unknown variant 'bogus'"):
        effective_resistance(unit_path, 1, 2, unit_path_plan, variant="bogus")


def test_effective_resistance_variants_agree_on_finite_net(triangle):
    plan = rn.make_exhaustion(triangle, [1])
    free = effective_resistance(triangle, 1, 2, plan, variant="free")
    wired = effective_resistance(triangle, 1, 2, plan, variant="wired")
    assert free.value == pytest.approx(wired.value, abs=1e-12)


def test_dirac_expansion_on_finite_path(unit_path, unit_path_plan):
    assert dirac_expansion_check(unit_path, 1, unit_path_plan) < 1e-10


def test_dirac_expansion_on_single_edge():
    net = rn.Network.from_edges(0, [(0, 1, 3.0)])
    plan = rn.make_exhaustion(net, [1])
    assert dirac_expansion_check(net, 1, plan) < 1e-10


def test_dirac_expansion_on_integers(geom2, geom2_plan):
    assert dirac_expansion_check(geom2, 0, geom2_plan) < 1e-6
    assert dirac_expansion_check(geom2, 2, geom2_plan) < 1e-6


def test_dirac_expansion_solves_only_the_final_ball(geom2, geom2_plan, monkeypatch):
    # x and its neighbours are one block solve on the last ball, the only
    # stage the expansion reads.
    stages, solve = [], kernels.solve_poisson

    def counted(net, region, f, bc, **kw):
        stages.append((region.radius, bc))
        return solve(net, region, f, bc, **kw)

    monkeypatch.setattr(kernels, "solve_poisson", counted)
    for x in (0, 2):
        stages.clear()
        assert dirac_expansion_check(geom2, x, geom2_plan) < 1e-6
        assert stages == [(geom2_plan.final_radius, "free")]


def test_kernel_symmetry(geom2, geom2_plan):
    elements = {x: energy_kernel(geom2, x, geom2_plan) for x in (1, 2, -2, 3)}
    pairs = [(1, 2), (2, -2), (1, 3), (-2, 3)]
    for a, b in pairs:
        assert kernel_symmetry_residual(geom2, elements[a], elements[b]) < 1e-6


def test_semibounded_on_kernel_span(geom2, geom2_plan, rng):
    elements = [energy_kernel(geom2, x, geom2_plan).approximant
                for x in (1, 2, -1, 4)]
    for _ in range(5):
        coeffs = rng.uniform(-2, 2, size=len(elements))
        u = elements[0] * float(coeffs[0])
        for c, el in zip(coeffs[1:], elements[1:]):
            u = u + el * float(c)
        window = interior_of(geom2, u.window)
        lap = function_on(geom2, {x: laplacian_apply(geom2, u, x) for x in window})
        assert energy(geom2, u, lap, window=positions(geom2, window)).value > -1e-9


def test_element_serialization_round_trip(geom2, geom2_plan):
    v2 = energy_kernel(geom2, 2, geom2_plan)
    payload = v2.to_jsonable()
    assert payload["kind"] == "dipole"
    assert payload["converged"] is True
    values = dict((tuple(x) if isinstance(x, list) else x, val)
                  for x, val in payload["values"])
    assert values[1] == v2.approximant.value(1)
