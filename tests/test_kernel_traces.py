"""The array traces of the kernel stages against the per-function path
they replace.

Each reference below is built the slow way: ``solve_poisson(...).solution``
as a ``VertexFunction``, ``pinned_at`` the origin, read vertex by vertex,
``energy`` over the stage and ``VertexFunction`` subtraction.  The traces
must give the same bits, not merely close values, so every test here runs
the sweeps on their per-stage solves (a factor budget of 0); the window
factor is pinned against those in ``test_stage_factor.py``.
"""

import json

import numpy as np
import pytest

import resnet as rn
from resnet import kernels, solver, transience
from resnet.cli import main
from resnet.errors import GreenUndefinedError, IncompatibleSourceError, NumericalError
from resnet.kernels import (effective_resistance, energy_kernel, fin_part, green_kernel,
                            harm_part, monopole, wired_monopole)
from resnet.models import ModelSpec, build
from resnet.network import Ball, vsorted
from resnet.operators import energy
from resnet.solver import FREE, WIRED, solve_poisson
from resnet.transience import (GRAM_RANK_THRESHOLD, HARM_MASS_THRESHOLD,
                               _default_probe_vertices, harm_dimension_probe)

from conftest import lognormal_grid_edges
from reference_pointwise import seq_sum, source, source_maps
from reference_windows import crossing_edges, distance, final_ball, neighbors, positions


def diagonal_grid(half):
    """A (2 half + 1)^2 grid with tuple ids, one diagonal per square and
    uneven conductances; the origin (0, 0) sits at its centre."""
    edges = []
    for i in range(-half, half + 1):
        for j in range(-half, half + 1):
            c = 1.0 + ((i * 7 + j) % 5) / 4.0
            if i < half:
                edges.append(((i, j), (i + 1, j), c))
            if j < half:
                edges.append(((i, j), (i, j + 1), c + 0.5))
            if i < half and j < half:
                edges.append(((i, j), (i + 1, j + 1), 0.3 + c / 7))
    return rn.Network.from_edges((0, 0), edges)


def _case(name):
    if name == "star":
        net = build(ModelSpec("star"), radius=8)
        return net, rn.make_exhaustion(net, range(1, 9)), (1, 2), (2, 3)
    if name == "geom-z":
        net = build(ModelSpec("geom_z"), radius=8)
        return net, rn.make_exhaustion(net, range(1, 9)), 2, -3
    net = diagonal_grid(4)
    return net, rn.make_exhaustion(net, [1, 2, 3]), (1, 1), (2, -1)


CASES = ("star", "geom-z", "grid")


@pytest.fixture(autouse=True)
def per_stage_solves(monkeypatch):
    monkeypatch.setattr(solver, "_FACTOR_BUDGET", 0)


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return _case(request.param)


def _probes(net, x, plan):
    probes = {net.origin, x, *neighbors(net, net.origin), *neighbors(net, x)}
    probes &= final_ball(plan)
    pool = [v for v in vsorted(final_ball(plan)) if v not in probes]
    rng = np.random.default_rng(kernels._PROBE_SEED)
    for i in rng.choice(len(pool), size=min(5, len(pool)), replace=False):
        probes.add(pool[int(i)])
    return vsorted(probes)


def dict_dipole(net, x, plan, bc):
    """The origin-zero stage solutions, energies and probe deltas of Δu =
    δ_x − δ_o, on dict functions."""
    probes = _probes(net, x, plan)
    sols, energies, deltas = [], [], []
    for stage in plan.stages:
        if x not in stage or net.origin not in stage:
            continue
        u = solve_poisson(net, stage, source(net, {x: 1.0, net.origin: -1.0}), bc)
        u = u.solution.pinned_at(net.origin)
        energies.append(energy(net, u, window=positions(net, stage)).value)
        if sols:
            prev = sols[-1][1]
            deltas.append(max(abs(u.value(p) - prev.value(p))
                              for p in probes if p in prev))
        sols.append((stage, u))
    return sols, tuple(energies), tuple(deltas)


def dict_harm(net, x, plan):
    free, _, _ = dict_dipole(net, x, plan, FREE)
    wired, _, _ = dict_dipole(net, x, plan, WIRED)
    hs = [(stage, uf - uw) for (stage, uf), (_, uw) in zip(free, wired)]
    return hs, tuple(energy(net, h, window=positions(net, stage)).value
                     for stage, h in hs)


def vanish_gauge_items(net, u, stage):
    bd = vsorted(net.boundary_of(stage))
    shift = seq_sum(u.value(b) for b in bd) / len(bd)
    return [(v, val - shift) for v, val in u.items()]


def dict_wired_monopole(net, x, plan):
    """Wired stage resistances u(x) of Δu = δ_x and the last stage solution."""
    resistances, last = [], None
    for stage in plan.stages:
        if x in stage:
            last = stage, solve_poisson(net, stage, source(net, {x: 1.0}), WIRED).solution
            resistances.append(last[1].value(x))
    return last, tuple(resistances)


def ghost_energy(net, u, stage):
    """E(u) over the stage plus the edges from the stage to the grounded
    ghost, where u is 0."""
    return energy(net, u, window=positions(net, stage)).value + seq_sum(
        c * u.value(x) ** 2 for x, _, c in crossing_edges(net, stage))


def test_dipole_traces_match_the_dict_path(case):
    net, plan, x, _ = case
    for op, bc in ((energy_kernel, FREE), (fin_part, WIRED)):
        element = op(net, x, plan)
        sols, energies, deltas = dict_dipole(net, x, plan, bc)
        assert element.stage_energies == energies
        assert element.meta["probe_deltas"] == deltas
        assert element.approximant.items() == sols[-1][1].items()
        assert element.approximant.gauge == sols[-1][1].gauge


def test_harm_part_matches_the_dict_path(case):
    net, plan, x, _ = case
    element = harm_part(net, x, plan)
    hs, energies = dict_harm(net, x, plan)
    assert element.stage_energies == energies
    assert element.approximant.items() == hs[-1][1].items()
    assert element.approximant.gauge == hs[-1][1].gauge


def test_wired_monopole_matches_the_dict_path(case):
    net, plan, _, _ = case
    element = wired_monopole(net, net.origin, plan)
    (stage, u), energies = dict_wired_monopole(net, net.origin, plan)
    assert element.stage_energies == energies
    assert element.approximant.items() == vanish_gauge_items(net, u, stage)


def test_monopole_matches_the_dict_path(case):
    net, plan, _, _ = case
    element = monopole(net, net.origin, plan)
    (stage, u), wired = dict_wired_monopole(net, net.origin, plan)
    assert element.meta["wired_stage_energies"] == wired
    if "defining_residual" in element.meta:
        # Settled: the limit is the last solve, and its energy is in-window.
        assert element.stage_energies == (energy(net, u, window=positions(net, stage)).value,)
    else:
        assert element.stage_energies == wired
    assert element.approximant.items() == vanish_gauge_items(net, u, stage)


@pytest.mark.parametrize("variant", [FREE, WIRED])
def test_effective_resistance_stages_match_the_dict_path(case, variant):
    net, plan, x, y = case
    value = effective_resistance(net, x, y, plan, variant=variant)
    resistances = []
    for stage in plan.stages:
        if x in stage and y in stage and (variant == WIRED or net.origin in stage):
            u = solve_poisson(net, stage, source(net, {x: 1.0, y: -1.0}), variant).solution
            resistances.append(u.value(x) - u.value(y))
    assert value.stages == tuple(resistances)


def test_wired_stage_values_are_ghost_inclusive_energies(case):
    """E(u, u) = ⟨u, Δu⟩ with the ghost at 0: each wired stage value, read
    as a source pairing, equals the energy summed over the stage's edges and
    its edges to the ghost."""
    net, plan, x, y = case
    monopole_stages = wired_monopole(net, net.origin, plan).stage_energies
    dipole_stages = effective_resistance(net, x, y, plan, variant=WIRED).stages
    expected_monopole = [ghost_energy(net, solve_poisson(
        net, stage, source(net, {net.origin: 1.0}), WIRED).solution, stage)
        for stage in plan.stages]
    expected_dipole = [ghost_energy(net, solve_poisson(
        net, stage, source(net, {x: 1.0, y: -1.0}), WIRED).solution, stage)
        for stage in plan.stages if x in stage and y in stage]
    assert monopole_stages == pytest.approx(expected_monopole, rel=1e-12, abs=0)
    assert dipole_stages == pytest.approx(expected_dipole, rel=1e-12, abs=0)


def _check_probe(net, plan, samples=None):
    rank, detail = harm_dimension_probe(net, plan, samples)
    expected, kept = {}, []
    for x in samples or [net.vertices[p] for p in _default_probe_vertices(net)]:
        hs, h_energies = dict_harm(net, x, plan)
        free, _, _ = dict_dipole(net, x, plan, FREE)
        final = positions(net, final_ball(plan))
        e_h = energy(net, hs[-1][1], window=final).value
        e_v = max(energy(net, free[-1][1], window=final).value, 1e-300)
        expected[str(x)] = {"harm_energy": e_h, "dipole_energy": e_v,
                            "stage_energies": list(h_energies)}
        if e_h > HARM_MASS_THRESHOLD * e_v:
            kept.append(hs[-1][1])
    assert detail == expected
    final = positions(net, final_ball(plan))
    gram = np.array([[energy(net, hi, hj, window=final).value for hj in kept]
                     for hi in kept]).reshape(len(kept), len(kept))
    eigvals = np.linalg.eigvalsh(gram) if kept else np.zeros(0)
    top = max(eigvals.max(), 1e-300) if kept else 1.0
    assert rank == int((eigvals > GRAM_RANK_THRESHOLD * top).sum())


def test_harm_dimension_probe_matches_the_dict_path(case):
    net, plan, _, _ = case
    _check_probe(net, plan)


def test_probe_samples_at_several_distances_match_the_dict_path(case):
    # Each sample's trace starts at the first ball that holds it, so the
    # stage-major sweep solves a growing block of sources.
    net, plan, x, y = case
    samples = [y, neighbors(net, net.origin)[0], x]
    assert len({distance(net, z) for z in samples}) > 1
    _check_probe(net, plan, samples)


def test_harm_dimension_probe_makes_one_free_and_one_wired_trace(monkeypatch):
    net = diagonal_grid(4)
    plan = rn.make_exhaustion(net, [1, 2, 3])
    calls = []

    def counting(net, region, f, bc, **kwargs):
        calls.append((bc, frozenset(region), source_maps(net, f)))
        return solve_poisson(net, region, f, bc, **kwargs)

    monkeypatch.setattr(kernels, "solve_poisson", counting)
    samples = [net.vertices[p] for p in _default_probe_vertices(net)]
    harm_dimension_probe(net, plan)
    assert len(samples) == 4
    # Stage-major: one block solve per stage and boundary condition, with a
    # source column for every sample.
    sources = [{x: 1.0, net.origin: -1.0} for x in samples]
    assert calls == [(bc, frozenset(stage), sources)
                     for stage in plan.stages for bc in (FREE, WIRED)]


def test_classify_makes_one_wired_monopole_trace(monkeypatch):
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=20)
    plan = rn.make_exhaustion(net, range(1, 19))
    calls = []

    def counting(net, region, f, bc, **kwargs):
        if bc == WIRED and source_maps(net, f) in ({net.origin: 1.0}, [{net.origin: 1.0}]):
            calls.append(frozenset(region))
        return solve_poisson(net, region, f, bc, **kwargs)

    for module in (kernels, transience):
        monkeypatch.setattr(module, "solve_poisson", counting, raising=False)
    verdict = transience.classify(net, plan, rn.WalkConfig(n_walks=50, max_steps=50, seed=0))
    assert verdict.criteria["monopole"] == verdict.criteria["grounded"] == "transient"
    assert calls == [frozenset(stage) for stage in plan.stages]

    element = monopole(net, net.origin, plan)
    projection = transience.grounded_projection_of_one(net, plan)
    resistances = tuple(r for _, r, _ in projection.trace)
    assert len(resistances) == len(plan.stages)
    assert element.meta["wired_stage_energies"] == resistances


def test_a_failing_trace_fails_classify_once_before_any_walk(monkeypatch, tmp_path):
    # Every residual check fails: the origin's wired trace raises, once, and
    # no criterion runs after it, the Monte Carlo walk included.
    counts = {"_wired_trace": 0, "green_estimate": 0}

    def counted(name):
        call = getattr(transience, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(transience, name, counting)

    def failing(*args, **kwargs):
        raise NumericalError("residual check forced to fail")

    counted("_wired_trace")
    counted("green_estimate")
    monkeypatch.setattr(solver, "_bounded", failing)
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=20)
    with pytest.raises(NumericalError, match="forced"):
        transience.classify(net, rn.make_exhaustion(net, range(1, 19)),
                            rn.WalkConfig(n_walks=50, max_steps=50, seed=0))
    assert counts == {"_wired_trace": 1, "green_estimate": 0}
    out = tmp_path / "verdict.json"
    assert main(["transience", "--model", "geom-z", "--c", "2", "--radius", "20",
                 "--walks", "50", "--steps", "50", "-o", str(out)]) == 3
    assert counts == {"_wired_trace": 2, "green_estimate": 0}
    assert not out.exists()


def test_a_covering_plan_refuses_the_wired_monopole_before_any_factor(monkeypatch, tmp_path):
    # A finite network has no ghost to ground Δw = δ_o at: the wired
    # monopole, the Green kernel and the gaussgreen w_o preset are refused
    # before any stage is factored.
    factored = []
    splu = solver.spla.splu

    def counting(*args, **kwargs):
        factored.append(args[0].shape)
        return splu(*args, **kwargs)

    monkeypatch.setattr(solver.spla, "splu", counting)
    net = diagonal_grid(2)
    plan = rn.make_exhaustion(net, [1, 2, 3, 4])
    with pytest.raises(IncompatibleSourceError):
        wired_monopole(net, net.origin, plan)
    with pytest.raises(GreenUndefinedError, match="finite network"):
        green_kernel(net, net.origin, (1, 1), plan)
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"origin": 0, "edges": [
        {"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 2.0}, {"u": 2, "v": 3, "c": 1.0}]}))
    out = tmp_path / "gaussgreen.json"
    assert main(["gaussgreen", "--net", str(path), "--u", "w_o", "--v", "w_o",
                 "--plan", "balls:1..3", "-o", str(out)]) == 2
    assert factored == []
    assert not out.exists()


@pytest.mark.parametrize("radii", [range(1, 25), range(1, 8)], ids=["covering", "inner"])
def test_classify_and_probe_solve_on_radii(monkeypatch, radii):
    # The report-grid network: its traces key balls by radius, so neither
    # lists a ball's vertices nor maps a vertex set to positions.
    net = rn.Network.from_edges((0, 0), lognormal_grid_edges(25, 1))
    plan = rn.make_exhaustion(net, radii)

    def refused(*args, **kwargs):
        raise AssertionError("a ball was built as a vertex set")

    monkeypatch.setattr(Ball, "__iter__", refused)
    monkeypatch.setattr(rn.Network, "boundary_of", refused)
    transience.classify(net, plan, rn.WalkConfig(n_walks=20, max_steps=20, seed=0))
    harm_dimension_probe(net, plan)


def test_classify_reads_the_last_ball_on_positions(monkeypatch):
    # geom-z c = 2 is transient: the monopole settles and runs its residual
    # check on the last wired solve, the grounded projection its converged branch, and
    # both read the last ball's interior and crossing edges on positions.
    cfg = rn.WalkConfig(n_walks=50, max_steps=50, seed=0)

    def classified():
        net = build(ModelSpec("geom_z", {"c": 2.0}), radius=20)
        return transience.classify(net, rn.make_exhaustion(net, range(1, 19)), cfg)

    want = classified()

    def refused(*args, **kwargs):
        raise AssertionError("the last ball was read as a vertex set")

    monkeypatch.setattr(Ball, "__iter__", refused)
    monkeypatch.setattr(rn.Network, "boundary_of", refused)
    got = classified()
    assert got.criteria["monopole"] == got.criteria["grounded"] == "transient"
    assert got.evidence["monopole"]["converged"] and got.evidence["grounded"]["converged"]
    assert got.to_jsonable() == want.to_jsonable()


def test_monopole_on_a_covered_finite_network_solves_nothing(monkeypatch):
    net = diagonal_grid(2)
    plan = rn.make_exhaustion(net, [1, 2, 3, 4])

    def refused(*args, **kwargs):
        raise AssertionError("a covered finite network was solved")

    monkeypatch.setattr(kernels, "solve_poisson", refused)
    element = monopole(net, (1, 1), plan)
    assert element.stage_energies == (float("inf"),)
    assert element.diverged and not element.converged
    assert element.meta["reason"] == "finite network admits no monopole"
    assert element.approximant.items() == [(x, 0.0) for x in vsorted(net.vertices)]
    verdict = transience.classify(net, plan, rn.WalkConfig(n_walks=20, max_steps=20, seed=0))
    assert verdict.criteria["monopole"] == verdict.criteria["grounded"] == "recurrent"
    with pytest.raises(rn.DomainError, match="unknown vertex"):
        monopole(net, (7, 7), plan)
