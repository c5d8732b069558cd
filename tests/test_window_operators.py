"""Window-level operators against per-vertex references.

Every window-level operator reads Δ from one pair-sum pass over
``Network.arrays`` (``operators.window_laplacian``).  The references below
are the per-vertex definitions, one ``laplacian_apply`` call per vertex in
canonical order, and each operator must return exactly (``==``) their float:
the pair sum adds every vertex's terms in ``incident`` order, as
``laplacian_apply`` does.
"""

import numpy as np
import pytest

import resnet as rn
from resnet.errors import DomainError, PreconditionError, WindowError
from resnet.gaussgreen import (balanced_check, ell2_converse_check,
                               harmonic_boundary_representation,
                               two_sum_identity_check)
from resnet.kernels import (dirac_expansion_check, energy_kernel, harm_part,
                            monopole, wired_monopole)
from resnet.models import (ModelSpec, build, oracle_h_function, oracle_residuals,
                           oracle_v_function, oracle_w_o_function)
from resnet.network import vsorted
from resnet.operators import (energy, laplacian_apply,
                              scaled_laplacian_residual, window_laplacian)
from resnet.solver import WIRED, solve_poisson
from resnet.transience import grounded_projection_of_one

from conftest import random_function
from reference_pointwise import harmonicity_residual, seq_sum
from reference_windows import crossing_edges


# -- per-vertex references ----------------------------------------------------


def ref_scaled_residual(net, u, rhs, window):
    worst = 0.0
    for x in vsorted(window):
        r = abs(laplacian_apply(net, u, x) - rhs.get(x, 0.0))
        worst = max(worst, r / max(1.0, net.total_conductance(x)))
    return worst


def ref_balanced(net, u):
    return seq_sum(laplacian_apply(net, u, x) for x in vsorted(net.interior_of(u.window)))


def ref_two_sum(net, u):
    window = net.interior_of(u.window)
    lap = {x: laplacian_apply(net, u, x) for x in vsorted(window)}
    lhs = energy(net, u, rn.VertexFunction(lap), window=window).value
    total = seq_sum(lap.values())
    return lhs, seq_sum(val * val for val in lap.values()) + total * total


def ref_ell2(net, u, v):
    window = net.interior_of(u.window & v.window)
    lhs = energy(net, u, v, window=window).value
    return abs(lhs - seq_sum(u.value(x) * laplacian_apply(net, v, x)
                             for x in vsorted(window)))


def ref_dirac(net, x, plan):
    def kernel_fn(z):
        if z == net.origin:
            return rn.VertexFunction.zero(plan.final)
        return energy_kernel(net, z, plan).approximant

    terms = [(net.total_conductance(x), kernel_fn(x))]
    terms.extend((-c, kernel_fn(y)) for y, c in net.incident(x))
    diffs = [(1.0 if w == x else 0.0) - seq_sum(a * fn.value(w) for a, fn in terms)
             for w in vsorted(net.interior_of(plan.final))]
    return max(diffs) - min(diffs)


# -- inputs -------------------------------------------------------------------


def _grid():
    """A 6x6 grid with tuple ids, origin (2, 2) and seeded conductances."""
    rng = np.random.default_rng(7)
    edges = [((i, j), (i + di, j + dj), float(rng.lognormal()))
             for i in range(6) for j in range(6) for di, dj in ((1, 0), (0, 1))
             if i + di < 6 and j + dj < 6]
    return rn.Network.from_edges((2, 2), edges)


NETWORKS = {
    "geom-z": lambda: build(ModelSpec("geom_z", {"c": 2.0}), radius=12),
    "star": lambda: build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=8),
    "binary-tree": lambda: build(ModelSpec("binary_tree"), radius=8),
    "grid": _grid,
}


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def net(request):
    return NETWORKS[request.param]()


@pytest.fixture
def uv(net):
    rng = np.random.default_rng(11)
    window = frozenset(net.vertices)
    return random_function(rng, window), random_function(rng, window)


def _plan(net):
    return rn.make_exhaustion(net, range(1, min(net.max_radius, 6) + 1))


# -- the operators ------------------------------------------------------------


def test_window_laplacian_matches_pointwise(net, uv):
    u, _ = uv
    window = net.interior_of(u.window)
    pos, lap = window_laplacian(net, u, window)
    xs = vsorted(window)
    assert [net.vertices[p] for p in pos.tolist()] == xs
    assert lap.tolist() == [laplacian_apply(net, u, x) for x in xs]


def test_scaled_residual_matches_pointwise(net, uv):
    u, _ = uv
    window = net.interior_of(u.window)
    far = net.vertices[-1]
    rhs = {net.origin: 1.0, far: -0.5, "not a vertex": 3.0}
    assert scaled_laplacian_residual(net, u, rhs, window) == \
        ref_scaled_residual(net, u, rhs, window)
    assert scaled_laplacian_residual(net, u, {}, frozenset()) == 0.0


def test_balanced_and_two_sum_match_pointwise(net, uv):
    u, _ = uv
    assert balanced_check(net, u) == ref_balanced(net, u)
    assert two_sum_identity_check(net, u) == ref_two_sum(net, u)


def test_ell2_converse_matches_pointwise(net, uv):
    u, v = uv
    assert ell2_converse_check(net, u, v, tail_tol=float("inf")) == ref_ell2(net, u, v)
    with pytest.raises(PreconditionError, match="outer-window squared mass"):
        ell2_converse_check(net, u, v)


def test_helpers_add_floats_without_the_builtin_sum(net, uv, strict_sum):
    # The vanish gauge of the monopole and the grounded projection's
    # crossing edges add floats too.
    u, v = uv
    plan = _plan(net)

    def elements():
        g = grounded_projection_of_one(net, plan)
        return (monopole(net, net.origin, plan).to_jsonable(), g.u.items(), g.u_o,
                g.energy, g.trace)

    want = elements()
    strict_sum()
    assert balanced_check(net, u) == ref_balanced(net, u)
    assert two_sum_identity_check(net, u) == ref_two_sum(net, u)
    assert ell2_converse_check(net, u, v, tail_tol=float("inf")) == ref_ell2(net, u, v)
    assert elements() == want


def test_dirac_expansion_matches_pointwise(net):
    plan = _plan(net)
    x = net.neighbors(net.origin)[-1]
    assert dirac_expansion_check(net, x, plan) == ref_dirac(net, x, plan)
    assert dirac_expansion_check(net, net.origin, plan) == \
        ref_dirac(net, net.origin, plan)


def test_harmonicity_residual_matches_pointwise(net):
    plan = _plan(net)
    h = harm_part(net, net.neighbors(net.origin)[-1], plan)
    interior = net.interior_of(h.approximant.window)
    assert harmonicity_residual(net, h) == \
        ref_scaled_residual(net, h.approximant, {}, interior)


def test_vanish_gauge_matches_pointwise(net):
    if net.is_finite:
        pytest.skip("a finite network admits no wired monopole")
    plan = _plan(net)
    w = wired_monopole(net, net.origin, plan).approximant
    u = solve_poisson(net, plan.final, {net.origin: 1.0}, WIRED).solution
    bd = vsorted(net.boundary_of(plan.final))
    shift = seq_sum(u.value(b) for b in bd) / len(bd)
    assert w.items() == [(x, val - shift) for x, val in u.items()]


@pytest.mark.parametrize("family", ["geom_z", "geom_zplus"])
def test_oracle_residuals_match_pointwise(family):
    spec, radius = ModelSpec(family, {"c": 2.0}), 20
    net = build(spec, radius=radius)
    interior = net.interior_of(net.ball(radius))
    expected = {
        "dipole": ref_scaled_residual(net, oracle_v_function(spec, 2, radius),
                                      {2: 1.0, 0: -1.0}, interior),
        "monopole": ref_scaled_residual(net, oracle_w_o_function(spec, radius),
                                        {0: 1.0}, interior),
    }
    if family == "geom_z":
        expected["harmonic"] = ref_scaled_residual(
            net, oracle_h_function(spec, radius), {}, interior)
    assert oracle_residuals(spec, radius=radius) == expected


def test_nan_residual_is_reported_and_refused():
    # A per-vertex max skipped NaN terms and reported 0.0 for this function.
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=8)
    u = rn.VertexFunction({x: (float("nan") if x == 3 else 0.0) for x in net.vertices})
    assert np.isnan(scaled_laplacian_residual(net, u, {}, net.interior_of(u.window)))
    with pytest.raises(DomainError, match="not harmonic"):
        harmonic_boundary_representation(net, u, 2, rn.make_exhaustion(net, range(1, 7)))


# -- WindowError cases --------------------------------------------------------


def test_neighbour_outside_the_function_window_raises(net, uv):
    u, _ = uv
    narrow = u.restricted(net.ball(2))
    for window in (narrow.window, net.ball(2)):
        with pytest.raises(WindowError, match="outside the function window"):
            window_laplacian(net, narrow, window)
    with pytest.raises(WindowError):
        balanced_check(net, narrow, window=narrow.window)
    with pytest.raises(WindowError):
        scaled_laplacian_residual(net, narrow, {}, narrow.window)


def test_neighbour_beyond_the_materialized_window_raises():
    # u reaches onto the ring just outside the window, which a per-vertex
    # loop would read; the window Laplacian refuses to step off the window.
    net = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=5)
    ring = [(arm, 6) for arm in range(3)]
    u = rn.VertexFunction({x: 1.0 for x in [*net.vertices, *ring]})
    with pytest.raises(WindowError, match=r"\(0, 6\) lies beyond the materialized window"):
        window_laplacian(net, u, net.ball(5))
    with pytest.raises(WindowError, match="beyond the materialized window"):
        scaled_laplacian_residual(net, u, {}, net.ball(5))
    assert window_laplacian(net, u, net.ball(4))[1].tolist() == \
        [laplacian_apply(net, u, x) for x in vsorted(net.ball(4))]


def test_window_vertex_outside_the_network_names_the_first():
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=12)
    u = rn.VertexFunction({x: 0.0 for x in net.vertices})
    with pytest.raises(WindowError, match="vertex -13 lies beyond"):
        window_laplacian(net, u, {0, 13, -13})
    with pytest.raises(WindowError, match="vertex -13 lies beyond"):
        energy(net, u, window={0, 13, -13})
    with pytest.raises(DomainError, match="unknown vertex -40"):
        list(crossing_edges(net, {0, 40, -40}))
    with pytest.raises(DomainError, match="unknown vertex -40"):
        net.boundary_of({0, 40, -40})
