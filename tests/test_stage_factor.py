"""The window factor of the stage sweeps against the per-stage solves it
replaces, the Gauss-Green sphere energies it reads, and the envelope guard
that picks between the two.

With the factor budget at 0 every sweep solves stage by stage, as the
bit-exact references of ``test_kernel_traces.py`` require; here the default
budget factors each window once, and the two paths must agree to a
tolerance taken from the conditioning of the stage systems.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, strategies as st

import resnet as rn
from resnet import kernels, solver, transience
from resnet.cli import main
from resnet.errors import NumericalError
from resnet.kernels import (_energy_of, effective_resistance, energy_kernel, fin_part,
                            harm_part, monopole)
from resnet.models import ModelSpec, build
from resnet.network import Ball
from resnet.solver import FREE, WIRED, solve_poisson

from conftest import lognormal_grid_edges, random_edges
from test_kernel_traces import CASES, _case, diagonal_grid

EPS = np.finfo(float).eps


def _grid(seed=7):
    net = rn.Network.from_edges((0, 0), lognormal_grid_edges(25, seed))
    return net, rn.make_exhaustion(net, range(1, 25)), (1, 0), (3, -2)


def _non_tree(seed):
    """A random connected network on 0, 1, ... with at least one cycle."""
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, max_vertices=30)
    n = max(max(a, b) for a, b, _ in edges) + 1
    edges.append((0, n - 1, 1.5) if n > 2 else (0, 1, 1.5))
    edges.append((1, n - 1, 0.75))
    net = rn.Network.from_edges(0, edges)
    return net, rn.make_exhaustion(net, range(1, net.max_radius + 1))


WINDOWS = {name: (lambda name=name: _case(name)) for name in CASES}
WINDOWS["grid25"] = _grid


def _scaled_condition(net, radius, bc):
    """The 2-norm condition number of B_radius's Jacobi-scaled system, as the
    sweep solves it: wired, or free with the origin pinned."""
    system = solver._system(net, Ball(net, radius), bc)
    a = system.matrix.toarray()
    if bc == FREE:
        o = solver._origin_index(net, system.pos)
        a = np.delete(np.delete(a, o, axis=0), o, axis=1)
    s = 1.0 / np.sqrt(np.diag(a))
    eig = np.linalg.eigvalsh(s[:, None] * a * s[None, :])
    return eig[-1] / eig[0]


def _tolerance(net, plan):
    """64 eps times the largest condition number of the stage systems: the
    size of the forward error that two backward-stable solves of one system
    may each make, with room for the sums over a stage."""
    conds = [_scaled_condition(net, r, bc) for r in plan.radii[:-1] for bc in (FREE, WIRED)
             if not (net.is_finite and net._cut(r) == len(net.vertices))]
    return 64 * EPS * max(conds, default=1.0)


def _per_stage(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(solver, "_FACTOR_BUDGET", 0)
        return fn()


def _close(got, want, tol, scale=None):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    bound = tol * (np.abs(want).max() if scale is None else scale)
    assert np.abs(got - want).max(initial=0.0) <= bound


def _sphere_energies(net, x, radius):
    """E(v), E(f̃) and E(v − f̃) over B_radius from the sphere terms, and the
    same from the edge sums, for the free v and wired f̃ of Δu = δ_x − δ_o."""
    ball, o = Ball(net, radius), net._order[0]
    v, f = (solve_poisson(net, ball, ([x, o], [1.0, -1.0]), bc) for bc in (FREE, WIRED))
    pos, v, f = v.pos, v.values, f.values
    a = net.arrays
    sphere = np.flatnonzero(a.dist[pos] == radius)
    kappa = np.zeros(len(sphere))
    for k, s in enumerate(pos[sphere].tolist()):  # the conductance out of the ball
        for q in range(a.indptr[s], a.indptr[s + 1]):
            if a.nbr[q] < 0 or a.dist[a.nbr[q]] > radius:
                kappa[k] += a.cond[q]
    ix, io = np.searchsorted(pos, [x, o])
    h = v - f
    sums = (v[ix] - v[io], f[ix] - f[io] - (kappa * f[sphere] ** 2).sum(),
            (kappa * h[sphere] * f[sphere]).sum())
    return sums, (_energy_of(net, pos, v), _energy_of(net, pos, f), _energy_of(net, pos, h))


def _check_sphere_energies(net, plan, x):
    for r in plan.radii:
        if net.arrays.dist[net._require(x)] > r:
            continue
        (e_v, e_f, e_h), (want_v, want_f, want_h) = _sphere_energies(net, net._require(x), r)
        tol = 1e-11 * want_v  # the edge sums add |B_r| terms of E(v)'s size
        assert e_v == pytest.approx(want_v, abs=tol)
        assert e_f == pytest.approx(want_f, abs=tol)
        assert e_h == pytest.approx(want_h, abs=tol)


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_sphere_energies_are_the_edge_sums(name):
    net, plan, x, _ = WINDOWS[name]()
    _check_sphere_energies(net, plan, x)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_sphere_energies_are_the_edge_sums_on_non_trees(seed):
    net, plan = _non_tree(seed)
    _check_sphere_energies(net, plan, net.vertices[int(np.argmax(net.arrays.dist))])


def _consumers(net, plan, x, y):
    """Every stage value a sweep consumer reports, by name."""
    out = {}
    for op in (energy_kernel, fin_part, harm_part):
        element = op(net, x, plan)
        out[op.__name__] = element
    for variant in (FREE, WIRED):
        out[variant] = effective_resistance(net, x, y, plan, variant)
    if not net.is_finite:
        out["monopole"] = monopole(net, net.origin, plan)
    out["probe"] = transience.harm_dimension_probe(net, plan)
    return out


def _compare_paths(monkeypatch, net, plan, x, y):
    tol = _tolerance(net, plan)
    assert tol < 1e-9  # the windows here are well conditioned
    got = _consumers(net, plan, x, y)
    want = _per_stage(monkeypatch, lambda: _consumers(net, plan, x, y))
    for name in ("energy_kernel", "fin_part", "harm_part"):
        a, b = got[name], want[name]
        # Energies of the dipole, its projection and its harmonic part: all at
        # most E(v), which scales the error of each.
        _close(a.stage_energies, b.stage_energies, tol, got["energy_kernel"].energy)
        assert a.approximant.items() == b.approximant.items()  # the last stage's solve
        assert a.converged == b.converged
        if "probe_deltas" in a.meta:
            scale = np.abs(a.approximant._values).max()
            _close(a.meta["probe_deltas"], b.meta["probe_deltas"], tol, scale)
    for variant in (FREE, WIRED):
        _close(got[variant].stages, want[variant].stages, tol)
        assert got[variant].converged == want[variant].converged
    if "monopole" in got:
        a, b = got["monopole"], want["monopole"]
        _close(a.meta["wired_stage_energies"], b.meta["wired_stage_energies"], tol)
        assert (a.converged, a.diverged) == (b.converged, b.diverged)
    (rank, detail), (want_rank, want_detail) = got["probe"], want["probe"]
    assert rank == want_rank and detail.keys() == want_detail.keys()
    for key, entry in detail.items():
        _close(entry["stage_energies"], want_detail[key]["stage_energies"], tol,
               want_detail[key]["dipole_energy"])
        assert entry["harm_energy"] == want_detail[key]["harm_energy"]


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_every_consumer_agrees_with_its_per_stage_path(monkeypatch, name):
    _compare_paths(monkeypatch, *WINDOWS[name]())


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_the_paths_agree_on_non_trees(seed):
    net, plan = _non_tree(seed)
    far = net.vertices[int(np.argmax(net.arrays.dist))]
    with pytest.MonkeyPatch.context() as monkeypatch:
        _compare_paths(monkeypatch, net, plan, far, net.origin)


def _strictly_lower(net, m):
    lead = solver._Leading(net, m, WIRED)
    return lead.factor.lu.L.nnz - m


@pytest.mark.parametrize("net", [
    build(ModelSpec("unit_line"), radius=200),
    build(ModelSpec("log_increment_line"), radius=3 ** 5),
    build(ModelSpec("geom_z", {"c": 2.0}), radius=40),
    build(ModelSpec("star"), radius=20),
    build(ModelSpec("binary_tree"), radius=7),
    _grid()[0],
    diagonal_grid(6),
], ids=["unit-line", "log-increment-line", "geom-z", "star", "binary-tree", "grid25",
        "diagonal-grid"])
def test_the_envelope_is_the_fill_of_the_natural_order_factor(net):
    # A finite network's whole window is singular wired: stop one sphere short.
    m = net._cut(net.max_radius - 1) if net.is_finite else len(net.vertices)
    for k in (m // 3, m):
        assert solver._envelope(net, k) == _strictly_lower(net, k)


def _splu_orders(monkeypatch):
    calls, splu = [], spla.splu

    def counted(matrix, **kwargs):
        calls.append(kwargs["permc_spec"])
        return splu(matrix, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counted)
    return calls


def test_the_depth_10_binary_tree_keeps_its_per_stage_solves(monkeypatch):
    net = build(ModelSpec("binary_tree"), radius=10)
    plan = rn.doubling_exhaustion(net)
    assert solver._envelope(net, len(net.vertices)) == 2 ** 20 - 1
    calls = _splu_orders(monkeypatch)
    transience.harm_dimension_probe(net, plan)
    monopole(net, net.origin, plan)
    assert calls and "NATURAL" not in calls


def test_report_grid_probe_factors_once_per_condition(monkeypatch):
    # The report-grid network and plan: two window factors, then one solve of
    # the last stage for both conditions (with no edge leaving the covering
    # ball, its wired system is the free one, so one factor serves both).
    net, plan, _, _ = _grid()
    calls = _splu_orders(monkeypatch)
    transience.harm_dimension_probe(net, plan)
    assert calls == ["NATURAL", "NATURAL", "MMD_AT_PLUS_A"]


@pytest.mark.parametrize("radii", [range(1, 59), None], ids=["balls", "doubling"])
def test_verdicts_near_the_divergence_cap_agree(monkeypatch, radii):
    # geom-z with c = 0.5: R_r doubles per stage and passes 1e12 near r = 40,
    # where both paths keep only a few digits of it (they differ by about
    # 2e-5 there); the monopole and the verdict must not depend on the path.
    net = build(ModelSpec("geom_z", {"c": 0.5}), radius=60)
    plan = rn.doubling_exhaustion(net) if radii is None else rn.make_exhaustion(net, radii)
    cfg = rn.WalkConfig(n_walks=200, max_steps=200, seed=0)

    def run():
        verdict = transience.classify(net, plan, cfg)
        element = monopole(net, net.origin, plan)
        return verdict.verdict, verdict.criteria, element.converged, element.diverged

    got = run()
    assert got == _per_stage(monkeypatch, run)
    assert got[0] == "recurrent" and got[3]


def test_a_nan_in_the_window_factor_raises(monkeypatch):
    net, plan, x, _ = _grid()
    solve = solver._ScaledLU.solve

    def nan_solve(self, b):
        return solve(self, b) * np.nan

    monkeypatch.setattr(solver._ScaledLU, "solve", nan_solve)
    with pytest.raises(NumericalError, match="window solve residual nan"):
        energy_kernel(net, x, plan)


def test_a_sphere_solve_off_its_system_raises(monkeypatch):
    net, plan, x, _ = _grid()
    inverse = np.linalg.inv
    monkeypatch.setattr(solver.np.linalg, "inv", lambda m: inverse(m) * 1.001)
    with pytest.raises(NumericalError, match="sphere solve residual"):
        harm_part(net, x, plan)


def test_a_nan_in_the_window_factor_exits_3(monkeypatch, tmp_path):
    monkeypatch.setattr(solver._ScaledLU, "solve", lambda self, b: b * np.nan)
    code = main(["kernel", "--model", "unit-line", "--radius", "40", "--x", "1",
                 "--plan", "balls:1..30", "-o", str(tmp_path / "k.json")])
    assert code == 3


def test_a_long_harmonic_trace_reads_every_stage_off_two_factors(monkeypatch):
    # The 1500-stage unit-line harmonic part: two window factors and the last
    # stage's two solves, where each stage was two factorizations.
    net = build(ModelSpec("unit_line"), radius=1500)
    plan = rn.make_exhaustion(net, range(1, 1501))
    calls = _splu_orders(monkeypatch)
    element = kernels.harm_part(net, 1, plan)
    assert len(element.stage_energies) == 1500
    assert calls == ["NATURAL", "NATURAL", "MMD_AT_PLUS_A", "MMD_AT_PLUS_A"]
