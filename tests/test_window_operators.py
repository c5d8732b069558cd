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
from resnet.operators import (energy, laplacian_apply, pair_sums,
                              scaled_laplacian_residual, window_laplacian)
from resnet.solver import WIRED, solve_poisson
from resnet.transience import grounded_projection_of_one

from conftest import random_function
from reference_pointwise import (function_on, harmonicity_residual, restricted,
                                 seq_sum, source)
from reference_windows import (ball, crossing_edges, final_ball, interior_of, neighbors,
                               positions, total_conductance)


# -- per-vertex references ----------------------------------------------------


def ref_scaled_residual(net, u, rhs, window):
    worst = 0.0
    for x in vsorted(window):
        r = abs(laplacian_apply(net, u, x) - rhs.get(x, 0.0))
        worst = max(worst, r / max(1.0, total_conductance(net, x)))
    return worst


def ref_balanced(net, u):
    return seq_sum(laplacian_apply(net, u, x) for x in vsorted(interior_of(net, u.window)))


def ref_two_sum(net, u):
    window = interior_of(net, u.window)
    lap = {x: laplacian_apply(net, u, x) for x in vsorted(window)}
    lhs = energy(net, u, function_on(net, lap), window=positions(net, window)).value
    total = seq_sum(lap.values())
    return lhs, seq_sum(val * val for val in lap.values()) + total * total


def ref_ell2(net, u, v):
    window = interior_of(net, u.window & v.window)
    lhs = energy(net, u, v, window=positions(net, window)).value
    return abs(lhs - seq_sum(u.value(x) * laplacian_apply(net, v, x)
                             for x in vsorted(window)))


def ref_dirac(net, x, plan):
    def kernel_fn(z):
        if z == net.origin:
            return function_on(net, dict.fromkeys(final_ball(plan), 0.0))
        return energy_kernel(net, z, plan).approximant

    terms = [(total_conductance(net, x), kernel_fn(x))]
    terms.extend((-c, kernel_fn(y)) for y, c in net.incident(x))
    diffs = [(1.0 if w == x else 0.0) - seq_sum(a * fn.value(w) for a, fn in terms)
             for w in vsorted(interior_of(net, final_ball(plan)))]
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
    return random_function(rng, net), random_function(rng, net)


def _plan(net):
    return rn.make_exhaustion(net, range(1, min(net.max_radius, 6) + 1))


# -- the operators ------------------------------------------------------------


def test_window_laplacian_matches_pointwise(net, uv):
    u, _ = uv
    window = interior_of(net, u.window)
    lap = window_laplacian(net, u, positions(net, window))
    assert lap.tolist() == [laplacian_apply(net, u, x) for x in vsorted(window)]


@pytest.mark.parametrize("spec, radius", [(ModelSpec("star", {"c": 2.0, "arms": 10000}), 2),
                                          (ModelSpec("unit_line"), 6000)])
def test_pair_sums_over_many_blocks_match_one_sum_per_row(spec, radius):
    # The pair sums run in blocks of pairs that end on row boundaries: here
    # over more pairs than one block, with a row longer than a block (the
    # star's centre) and with a sparse window whose rows lie blocks apart.
    net = build(spec, radius)
    a = net.arrays
    vv = np.random.default_rng(5).standard_normal(len(net.vertices))
    whole = np.bincount(a.rows, (vv[a.rows] - vv[a.nbr]) * a.cond, minlength=len(vv))
    assert pair_sums(net, slice(None), vv).tolist() == whole.tolist()
    u = rn.VertexFunction(net.vertices, np.arange(len(vv)), vv)
    sparse = np.flatnonzero(a.reach <= radius)[::997]
    assert window_laplacian(net, u, sparse).tolist() == \
        [laplacian_apply(net, u, net.vertices[p]) for p in sparse.tolist()]
    # A window in any order reads its rows in order.
    assert window_laplacian(net, u, sparse[::-1]).tolist() == \
        window_laplacian(net, u, sparse).tolist()[::-1]


def test_scaled_residual_matches_pointwise(net, uv):
    u, _ = uv
    window = interior_of(net, u.window)
    far = net.vertices[-1]  # a source outside the window is ignored
    rhs = {net.origin: 1.0, far: -0.5}
    assert scaled_laplacian_residual(net, u, source(net, rhs), positions(net, window)) == \
        ref_scaled_residual(net, u, rhs, window)
    assert scaled_laplacian_residual(net, u, ((), ()), np.zeros(0, np.int64)) == 0.0


def test_balanced_and_two_sum_match_pointwise(net, uv):
    u, _ = uv
    assert balanced_check(net, u) == ref_balanced(net, u)
    assert two_sum_identity_check(net, u) == ref_two_sum(net, u)


def test_ell2_converse_matches_pointwise(net, uv):
    u, v = uv
    assert ell2_converse_check(net, u, v, tail_tol=float("inf")) == ref_ell2(net, u, v)
    with pytest.raises(PreconditionError, match="outer-window squared mass"):
        ell2_converse_check(net, u, v)


def test_ell2_converse_on_an_empty_interior_is_zero():
    # u on the last vertex of the window alone: its interior is empty, and
    # every window check gives 0 there, as the per-vertex references do.
    net = build(ModelSpec("unit_line"), radius=10)
    u = function_on(net, {10: 1.0})
    assert interior_of(net, u.window) == frozenset()
    assert ell2_converse_check(net, u, u) == ref_ell2(net, u, u) == 0.0
    assert balanced_check(net, u) == 0.0
    assert two_sum_identity_check(net, u) == (0.0, 0.0)


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
    x = neighbors(net, net.origin)[-1]
    assert dirac_expansion_check(net, x, plan) == ref_dirac(net, x, plan)
    assert dirac_expansion_check(net, net.origin, plan) == \
        ref_dirac(net, net.origin, plan)


def test_harmonicity_residual_matches_pointwise(net):
    plan = _plan(net)
    h = harm_part(net, neighbors(net, net.origin)[-1], plan)
    interior = interior_of(net, h.approximant.window)
    assert harmonicity_residual(net, h) == \
        ref_scaled_residual(net, h.approximant, {}, interior)


def test_vanish_gauge_matches_pointwise(net):
    if net.is_finite:
        pytest.skip("a finite network admits no wired monopole")
    plan = _plan(net)
    w = wired_monopole(net, net.origin, plan).approximant
    u = solve_poisson(net, plan.stages[-1], source(net, {net.origin: 1.0}), WIRED).solution
    bd = vsorted(net.boundary_of(final_ball(plan)))
    shift = seq_sum(u.value(b) for b in bd) / len(bd)
    assert w.items() == [(x, val - shift) for x, val in u.items()]


@pytest.mark.parametrize("family", ["geom_z", "geom_zplus"])
def test_oracle_residuals_match_pointwise(family):
    spec, radius = ModelSpec(family, {"c": 2.0}), 20
    net = build(spec, radius=radius)
    interior = interior_of(net, ball(net, radius))
    expected = {
        "dipole": ref_scaled_residual(net, oracle_v_function(spec, 2, radius, net.vertices),
                                      {2: 1.0, 0: -1.0}, interior),
        "monopole": ref_scaled_residual(net, oracle_w_o_function(spec, radius, net.vertices),
                                        {0: 1.0}, interior),
    }
    if family == "geom_z":
        expected["harmonic"] = ref_scaled_residual(
            net, oracle_h_function(spec, radius, net.vertices), {}, interior)
    assert oracle_residuals(spec, radius=radius) == expected


def test_nan_residual_is_reported_and_refused():
    # A per-vertex max skipped NaN terms and reported 0.0 for this function.
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=8)
    u = function_on(net, {x: (float("nan") if x == 3 else 0.0) for x in net.vertices})
    interior = positions(net, interior_of(net, u.window))
    assert np.isnan(scaled_laplacian_residual(net, u, ((), ()), interior))
    with pytest.raises(DomainError, match="not harmonic"):
        harmonic_boundary_representation(net, u, 2, rn.make_exhaustion(net, range(1, 7)))


# -- WindowError cases --------------------------------------------------------


def test_neighbour_outside_the_function_window_raises(net, uv):
    u, _ = uv
    narrow = restricted(net, u, ball(net, 2))
    window = positions(net, narrow.window)
    with pytest.raises(WindowError, match="outside the function window"):
        window_laplacian(net, narrow, window)
    with pytest.raises(WindowError):
        balanced_check(net, narrow, window=window)
    with pytest.raises(WindowError):
        scaled_laplacian_residual(net, narrow, ((), ()), window)


def test_neighbour_beyond_the_materialized_window_raises():
    # The vertices of B_5 at depth 5 have neighbours on the ring just outside
    # the window: the window Laplacian refuses to step off the window.
    net = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=5)
    u = function_on(net, {x: 1.0 for x in net.vertices})
    with pytest.raises(WindowError, match=r"\(0, 6\) lies beyond the materialized window"):
        window_laplacian(net, u, positions(net, ball(net, 5)))
    with pytest.raises(WindowError, match="beyond the materialized window"):
        scaled_laplacian_residual(net, u, ((), ()), positions(net, ball(net, 5)))
    assert window_laplacian(net, u, positions(net, ball(net, 4))).tolist() == \
        [laplacian_apply(net, u, x) for x in vsorted(ball(net, 4))]


def test_window_vertex_outside_the_network_names_the_first():
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=12)
    with pytest.raises(WindowError, match="vertex -13 lies beyond"):
        positions(net, {0, 13, -13})
    with pytest.raises(WindowError, match="vertex -13 lies beyond"):
        net.boundary_of({0, 13, -13})
    with pytest.raises(DomainError, match="unknown vertex -40"):
        list(crossing_edges(net, {0, 40, -40}))
    with pytest.raises(DomainError, match="unknown vertex -40"):
        net.boundary_of({0, 40, -40})
