import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import resnet as rn
from resnet import solver
from resnet.errors import (DomainError, IncompatibleSourceError, NumericalError,
                           WindowError)
from resnet.models import ModelSpec, build
from resnet.network import Ball, vsorted
from resnet.randomwalk import WalkConfig, green_estimate
from resnet.solver import FREE, WIRED, solve_poisson

from conftest import lognormal_grid_edges
from reference_pointwise import source
from reference_windows import distance, total_conductance


@pytest.fixture(scope="module")
def diag_grid():
    """A 5x5 grid with tuple ids, diagonals and unequal conductances."""
    edges = []
    for i in range(5):
        for j in range(5):
            if i < 4:
                edges.append(((i, j), (i + 1, j), 1.0 + 0.3 * i + 0.1 * j))
            if j < 4:
                edges.append(((i, j), (i, j + 1), 2.5 - 0.2 * j))
            if i < 4 and j < 4:
                edges.append(((i, j), (i + 1, j + 1), 0.7 + 0.05 * i * j))
    return rn.Network.from_edges((1, 1), edges)


def _dense_system(net, region, bc):
    """The region system assembled entry by entry from ``incident``."""
    xs = vsorted(region)
    at = {x: i for i, x in enumerate(xs)}
    a = np.zeros((len(xs), len(xs)))
    for x in xs:
        for y, c in net.incident(x):
            if y in at:
                a[at[x], at[y]] -= c
            if y in at or bc == WIRED:
                a[at[x], at[x]] += c
    return xs, at, a


def test_unit_path_dipole_free(unit_path):
    rep = solve_poisson(unit_path, Ball(unit_path, 2), source(unit_path, {2: 1.0, 0: -1.0}), FREE)
    assert rep.gauge == "origin-zero"
    for k in (0, 1, 2):
        assert rep.solution.value(k) == pytest.approx(float(k), abs=1e-10)
    assert rep.residual < 1e-10


def test_gamblers_ruin_profile_exact():
    n = 9
    net = rn.Network.from_edges(0, [(k, k + 1, 1.0) for k in range(n)])
    rep = solve_poisson(net, Ball(net, n), source(net, {n: 1.0, 0: -1.0}), FREE)
    for k in range(n + 1):
        assert rep.solution.value(k) == pytest.approx(float(k), abs=1e-10)


def test_wired_monopole_on_half_line(zplus2):
    region = Ball(zplus2, 30)
    rep = solve_poisson(zplus2, region, source(zplus2, {0: 1.0}), WIRED)
    assert rep.gauge == "vanish-at-infinity"
    assert rep.solution.value(0) == pytest.approx(1.0, abs=1e-8)
    for n in (1, 3, 7):
        assert rep.solution.value(n) == pytest.approx(0.5 ** n, abs=1e-8)


def test_zero_source_wired(zplus2):
    rep = solve_poisson(zplus2, Ball(zplus2, 10), source(zplus2, {}), WIRED)
    assert all(v == 0.0 for _, v in rep.solution.items())


def test_free_rejects_unbalanced_source(unit_path):
    with pytest.raises(IncompatibleSourceError):
        solve_poisson(unit_path, Ball(unit_path, 2), source(unit_path, {1: 1.0}), FREE)


def test_ball_beyond_the_window_raises(geom2):
    for bc in (FREE, WIRED):
        with pytest.raises(WindowError, match="radius 33"):
            solve_poisson(geom2, Ball(geom2, 33), source(geom2, {0: 1.0}), bc)


def test_a_ball_solved_twice_keeps_its_bits():
    # Each solve assembles and factors its ball afresh.  A shortest path from
    # the origin to a vertex of B_r stays in B_r, so a ball is connected: its
    # system is assembled with no connectivity search.
    net = build(ModelSpec("geom_z", {"c": 5.0}), radius=8)

    def solves():
        return [solve_poisson(net, Ball(net, 3), source(net, {2: 1.0, 0: -1.0}), FREE),
                solve_poisson(net, Ball(net, 3), source(net, {0: 1.0}), WIRED)]

    for first, again in zip(solves(), solves()):
        assert np.array_equal(first.pos, again.pos)
        assert np.array_equal(first.values, again.values)
        assert first.residual == again.residual
    assert not hasattr(solver, "connected_components")
    assert not hasattr(net, "_systems")


def _ball_cases():
    grid = rn.Network.from_edges((0, 0), lognormal_grid_edges(9, 3))
    geom = build(ModelSpec("geom_z", {"c": 5.0}), radius=12)
    return [(grid, (1, 0), (2, 2), (-4, 3)), (geom, 1, -2, 7)]


@pytest.mark.parametrize("case", range(2))
def test_ball_solves_match_the_dense_systems(case):
    net, *xs = _ball_cases()[case]
    o = net.origin
    for r in range(1, net.max_radius):
        held = [x for x in xs if distance(net, x) <= r]
        for bc, f in [(FREE, {x: 1.0, o: -1.0}) for x in held] + [(WIRED, {o: 1.0})]:
            rep = solve_poisson(net, Ball(net, r), source(net, f), bc)
            ids, at, a = _dense_system(net, Ball(net, r), bc)
            b = np.array([f.get(x, 0.0) for x in ids])
            keep = [i for i in range(len(ids)) if bc == WIRED or ids[i] != o]
            a = a[np.ix_(keep, keep)]
            want = np.zeros(len(ids))
            want[keep] = np.linalg.solve(a, b[keep])
            assert [x for x, _ in rep.solution.items()] == ids
            # The dense solve itself is off by up to about cond(a) * eps.
            assert np.abs(rep.values - want).max() <= 1e-14 * np.linalg.cond(a)


def _block_cases():
    grid = rn.Network.from_edges((0, 0), lognormal_grid_edges(9, 3))
    cases = [(grid, [Ball(grid, r) for r in (1, 2, 5, 6, 7)])]
    for family, params in (("geom_z", {"c": 2.0}), ("geom_z", {"c": 5.0}),
                           ("binary_tree", {}), ("star", {}), ("unit_line", {}),
                           ("log_increment_line", {})):
        net = build(ModelSpec(family, params), radius=8)
        cases.append((net, [Ball(net, r) for r in (1, 3, 7)]))
    return cases


@pytest.mark.parametrize("case", range(7))
def test_block_columns_equal_single_solves_bit_for_bit(case):
    net, regions = _block_cases()[case]
    o = net.origin
    for region in regions:
        xs = [x for x in region if x != o][:5]
        for bc, sources in ((FREE, [{x: 1.0, o: -1.0} for x in xs]),
                            (WIRED, [{x: 1.0} for x in xs] + [{o: 1.0, xs[-1]: -0.5}])):
            block = solve_poisson(net, region, source(net, sources), bc)
            singles = [solve_poisson(net, region, source(net, f), bc) for f in sources]
            assert block.values.shape == (len(block.pos), len(sources))
            for j, single in enumerate(singles):
                assert np.array_equal(block.values[:, j], single.values)
            assert block.residual == max(single.residual for single in singles)


def test_one_failing_column_fails_the_block(geom2):
    region = Ball(geom2, 20)
    sources = [{x: 1.0, 0: -1.0} for x in (1, -1, 2, -2, 3, 5, -7)]
    residuals = sorted({solve_poisson(geom2, region, source(geom2, f), FREE).residual: f
                        for f in sources}.items())
    (low, passing), (high, failing) = residuals[0], residuals[-1]
    assert low < high
    tol = (low + high) / 2
    solve_poisson(geom2, region, source(geom2, [passing, passing]), FREE, tol=tol)
    with pytest.raises(NumericalError, match=f"residual {high:.3e} exceeds"):
        solve_poisson(geom2, region, source(geom2, failing), FREE, tol=tol)
    with pytest.raises(NumericalError, match=f"residual {high:.3e} exceeds"):
        solve_poisson(geom2, region, source(geom2, [passing, failing, passing]), FREE,
                      tol=tol)


def test_every_block_column_is_checked(unit_path, geom2):
    with pytest.raises(IncompatibleSourceError):
        solve_poisson(unit_path, Ball(unit_path, 2),
                      source(unit_path, [{2: 1.0, 0: -1.0}, {1: 1.0}]), FREE)
    with pytest.raises(DomainError, match="outside the region"):
        solve_poisson(geom2, Ball(geom2, 3), source(geom2, [{0: 1.0}, {5: 1.0}]), WIRED)


def test_source_must_live_in_region(geom2, diag_grid):
    with pytest.raises(DomainError):
        solve_poisson(geom2, Ball(geom2, 3), source(geom2, {5: 1.0, 0: -1.0}), FREE)
    region = Ball(diag_grid, 2)
    for bc in (FREE, WIRED):
        with pytest.raises(DomainError, match=r"source vertex \(4, 4\) lies outside"):
            solve_poisson(diag_grid, region, source(diag_grid, {(4, 4): 1.0, (1, 1): -1.0}), bc)
        # A zero value outside the region is no source there.
        rep = solve_poisson(diag_grid, region,
                            source(diag_grid, {(4, 4): 0.0, (2, 1): 1.0, (1, 1): -1.0}), bc)
        assert rep.residual < 1e-10


def test_values_at_a_repeated_position_add_up(diag_grid):
    # The dipole sweeps of the harmonic probe give each sample its own
    # column, so a sample listed twice repeats its row.
    net, region = diag_grid, Ball(diag_grid, 2)
    x, o = net._require((2, 1)), net._require(net.origin)
    for bc in (FREE, WIRED):
        once = solve_poisson(net, region, source(net, {(2, 1): 1.0, (1, 1): -1.0}), bc)
        twice = solve_poisson(net, region, ([x, o, x], [0.25, -1.0, 0.75]), bc)
        assert np.array_equal(once.values, twice.values)


def test_diag_grid_ball_against_dense_oracle(diag_grid):
    net, o, x, y = diag_grid, (1, 1), (3, 1), (1, 3)
    region = Ball(net, 2)
    xs, at, free = _dense_system(net, region, FREE)
    assert any(z not in xs for v in xs for z, _ in net.incident(v))
    f = np.zeros(len(xs))
    f[at[x]], f[at[o]] = 1.0, -1.0
    keep = [i for i in range(len(xs)) if i != at[o]]
    expected = np.zeros(len(xs))
    expected[keep] = np.linalg.solve(free[np.ix_(keep, keep)], f[keep])
    rep = solve_poisson(net, region, source(net, {x: 1.0, o: -1.0}), FREE)
    assert [v for v, _ in rep.solution.items()] == xs
    assert np.allclose([u for _, u in rep.solution.items()], expected, rtol=0, atol=1e-12)
    _, _, wired = _dense_system(net, region, WIRED)
    g = np.zeros(len(xs))
    g[at[x]], g[at[y]] = 1.0, -0.5
    rep = solve_poisson(net, region, source(net, {x: 1.0, y: -0.5}), WIRED)
    assert np.allclose([u for _, u in rep.solution.items()],
                       np.linalg.solve(wired, g), rtol=0, atol=1e-12)


def _reference_solve(a):
    """The solve of the dense matrix ``a`` through the Jacobi scaling formed
    by two sparse products, with the solver's ``splu`` options."""
    a = sp.csc_matrix(a)
    diag = a.diagonal().copy()
    diag[diag <= 0.0] = 1.0
    s = 1.0 / np.sqrt(diag)
    lu = spla.splu((sp.diags(s) @ a @ sp.diags(s)).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return lambda b: s * lu.solve(s * b)


def _pinning_cases():
    grid = [(i, j) for i in range(5) for j in range(5)]
    edges = [(v, w, 1.0 + 0.25 * ((3 * v[0] + v[1] + w[1]) % 5))
             for v in grid for w in grid
             if v < w and max(abs(v[0] - w[0]), abs(v[1] - w[1])) == 1]
    grid_net = rn.Network.from_edges((1, 1), edges)
    geom = build(ModelSpec("geom_z", {"c": 2.0}), radius=8)
    star = build(ModelSpec("star"), radius=8)
    return [(geom, Ball(geom, r)) for r in (1, 5, 8)] + \
        [(star, Ball(star, r)) for r in (2, 8)] + [(grid_net, Ball(grid_net, 2))]


@pytest.mark.parametrize("case", range(6))
def test_factors_equal_the_two_product_scaling_bit_for_bit(case):
    net, region = _pinning_cases()[case]
    rng = np.random.default_rng(case)
    xs = vsorted(region)
    for bc in (FREE, WIRED):
        _, _, a = _dense_system(net, region, bc)
        system = solver._system(net, region, bc)
        assert np.array_equal(system.matrix.toarray(), a)
        if bc == FREE:
            keep = [i for i in range(len(xs)) if xs[i] != net.origin]
            b = rng.standard_normal(len(keep))
            want = _reference_solve(a[np.ix_(keep, keep)])(b)
        else:
            assert not net._covers(region.radius)
            b = rng.standard_normal(len(xs))
            want = _reference_solve(a)(b)
        assert np.array_equal(system.factor.solve(b), want)


def test_total_conductance_is_the_incident_sum(diag_grid, geom2):
    for net in (diag_grid, geom2):
        for v in net.vertices:
            assert total_conductance(net, v) == sum(c for _, c in net.incident(v))


def test_networks_are_freed_after_solves_and_walks():
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=8)
    ref = weakref.ref(net)
    region = Ball(net, 5)
    solve_poisson(net, region, source(net, {2: 1.0, 0: -1.0}), FREE)
    solve_poisson(net, region, source(net, {0: 1.0}), WIRED)
    green_estimate(net, 0, 0, WalkConfig(n_walks=20, max_steps=20))
    del net, region
    gc.collect()
    assert ref() is None


class _Factors:
    """Every ``_ScaledLU`` built while installed, held by weak reference:
    how many were built and the most alive at once."""

    def __init__(self, monkeypatch):
        self.alive, self.built, self.peak = weakref.WeakSet(), 0, 0
        init = solver._ScaledLU.__init__

        def tracked(factor, *args, **kwargs):
            init(factor, *args, **kwargs)
            self.alive.add(factor)
            self.built += 1
            self.peak = max(self.peak, len(self.alive))

        monkeypatch.setattr(solver._ScaledLU, "__init__", tracked)


def test_a_long_wired_trace_keeps_at_most_two_factors(monkeypatch):
    # Solved stage by stage, each stage's factor is freed when its solve
    # returns: the report holds no system.
    monkeypatch.setattr(solver, "_FACTOR_BUDGET", 0)
    net = build(ModelSpec("unit_line"), radius=601)
    plan = rn.make_exhaustion(net, range(1, 601))
    factors = _Factors(monkeypatch)
    element = rn.wired_monopole(net, 0, plan)
    assert len(element.stage_energies) == 600
    assert factors.built == 600
    assert factors.peak <= 2
    assert len(factors.alive) == 0


def test_a_long_wired_trace_factors_its_window_once(monkeypatch):
    # One natural-order factor gives the first 599 stages and is freed before
    # the last stage's own solve.
    net = build(ModelSpec("unit_line"), radius=601)
    plan = rn.make_exhaustion(net, range(1, 601))
    factors = _Factors(monkeypatch)
    element = rn.wired_monopole(net, 0, plan)
    assert len(element.stage_energies) == 600
    assert factors.built == 2
    assert factors.peak == 1
    assert len(factors.alive) == 0


def _settled_monopole_factors(monkeypatch):
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=40)
    plan = rn.make_exhaustion(net, range(1, 39))
    factors = _Factors(monkeypatch)
    element = rn.monopole(net, 0, plan)
    assert element.converged
    assert len(element.meta["wired_stage_energies"]) == 38
    return factors.built


def test_a_settled_monopole_factors_each_trace_stage_once(monkeypatch):
    # The settled limit is the trace's last solve: no ball is factored twice.
    monkeypatch.setattr(solver, "_FACTOR_BUDGET", 0)
    assert _settled_monopole_factors(monkeypatch) == 38


def test_a_settled_monopole_factors_its_window_and_last_ball(monkeypatch):
    assert _settled_monopole_factors(monkeypatch) == 2


def test_a_nan_residual_fails(unit_path):
    system = solver._system(unit_path, Ball(unit_path, 2), FREE)
    b = np.zeros((3, 2))
    u = np.zeros((3, 2))
    assert solver._residual(unit_path, system.pos, system.matrix, u, b, 1e-10,
                            "free solve") == 0.0
    u[1, 1] = np.nan
    with pytest.raises(NumericalError, match="free solve residual nan exceeds"):
        solver._residual(unit_path, system.pos, system.matrix, u, b, 1e-10, "free solve")


def test_a_solution_off_at_a_vertex_of_huge_conductance_fails(monkeypatch):
    # Vertex 1 is the edge of the wired ball B_1, c(1) = 1 + 1.7e308.  Its
    # product with the solution's scale 1 + max|u| overflows, and a residual
    # scaled by it reads 0 whatever u(1) is; the row of the origin (c(0) =
    # 1e6 + 1) sees an error at u(1) only through an edge of conductance 1.
    net = rn.Network.from_edges(0, [(0, 1, 1.0), (0, 3, 1e6), (1, 2, 1.7e308)])
    exact = solve_poisson(net, Ball(net, 1), source(net, {0: 1.0}), WIRED)
    assert exact.residual < 1e-12
    solve = solver._ScaledLU.solve

    def off_at_vertex_1(self, b):
        u = solve(self, b)
        u[1] += 1e-8
        return u

    monkeypatch.setattr(solver._ScaledLU, "solve", off_at_vertex_1)
    with pytest.raises(NumericalError, match="wired solve residual"):
        solve_poisson(net, Ball(net, 1), source(net, {0: 1.0}), WIRED)


def test_unknown_bc_rejected(unit_path):
    with pytest.raises(DomainError):
        solve_poisson(unit_path, Ball(unit_path, 2), source(unit_path, {}), "periodic")


def test_wired_equals_free_when_complement_empty(unit_path):
    f = {2: 1.0, 0: -1.0}
    free = solve_poisson(unit_path, Ball(unit_path, 2), source(unit_path, f), FREE)
    wired = solve_poisson(unit_path, Ball(unit_path, 2), source(unit_path, f), WIRED)
    for k in (0, 1, 2):
        assert wired.solution.value(k) == free.solution.value(k)


def test_residual_reported_below_tolerance(geom2):
    for radius in (10, 20, 30):
        rep = solve_poisson(geom2, Ball(geom2, radius), source(geom2, {2: 1.0, 0: -1.0}), FREE)
        assert rep.residual < 1e-10
        rep = solve_poisson(geom2, Ball(geom2, radius), source(geom2, {0: 1.0}), WIRED)
        assert rep.residual < 1e-10


def test_threads_share_one_network():
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=12)

    def trace(_):
        return [solve_poisson(net, Ball(net, r), source(net, {0: 1.0}), WIRED).solution.value(0)
                for r in range(1, 13)]

    expected = trace(None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            assert list(pool.map(trace, range(12), timeout=60)) == [expected] * 12
    finally:
        sys.setswitchinterval(interval)
