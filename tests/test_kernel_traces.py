"""The array traces of the kernel stages against the dict path they replace.

Each reference below is built the slow way: ``solve_poisson(...).solution``
as a dict ``VertexFunction``, ``pinned_at`` the origin, ``energy`` over the
stage and ``VertexFunction`` subtraction.  The traces must give the same
bits, not merely close values.
"""

import numpy as np
import pytest

import resnet as rn
from resnet import kernels, transience
from resnet.kernels import (ENERGY_CAUCHY_TOL, default_eps_schedule,
                            effective_resistance, energy_kernel, fin_part,
                            harm_part, monopole, wired_monopole)
from resnet.models import ModelSpec, build
from resnet.network import vsorted
from resnet.operators import energy
from resnet.solver import FREE, WIRED, solve_poisson, solve_regularized
from resnet.transience import (GRAM_RANK_THRESHOLD, HARM_MASS_THRESHOLD,
                               _default_probe_vertices, harm_dimension_probe)

from conftest import lognormal_grid_edges
from reference_pointwise import seq_sum
from reference_windows import crossing_edges


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


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return _case(request.param)


def _probes(net, x, plan):
    probes = {net.origin, x, *net.neighbors(net.origin), *net.neighbors(x)}
    probes &= plan.final
    pool = [v for v in vsorted(plan.final) if v not in probes]
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
        u = solve_poisson(net, stage, {x: 1.0, net.origin: -1.0}, bc)
        u = u.solution.pinned_at(net.origin)
        energies.append(energy(net, u, window=stage).value)
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
    return hs, tuple(energy(net, h, window=stage).value for stage, h in hs)


def vanish_gauge_items(net, u, stage):
    bd = vsorted(net.boundary_of(stage))
    shift = seq_sum(u.value(b) for b in bd) / len(bd)
    return [(v, val - shift) for v, val in u.items()]


def dict_wired_monopole(net, x, plan):
    """Wired stage resistances u(x) of Δu = δ_x and the last stage solution."""
    resistances, last = [], None
    for stage in plan.stages:
        if x in stage:
            last = stage, solve_poisson(net, stage, {x: 1.0}, WIRED).solution
            resistances.append(last[1].value(x))
    return last, tuple(resistances)


def ghost_energy(net, u, stage):
    """E(u) over the stage plus the edges from the stage to the grounded
    ghost, where u is 0."""
    return energy(net, u, window=stage).value + seq_sum(
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
    if "eps_steps" in element.meta:
        energies = []
        for eps in default_eps_schedule():
            rep = solve_regularized(net, stage, eps, {net.origin: 1.0}, bc=WIRED)
            u = rep.solution
            energies.append(energy(net, u, window=stage).value)
            if len(energies) >= 2 and abs(energies[-1] - energies[-2]) < ENERGY_CAUCHY_TOL:
                break
        assert element.stage_energies == tuple(energies)
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
            u = solve_poisson(net, stage, {x: 1.0, y: -1.0}, variant).solution
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
        net, stage, {net.origin: 1.0}, WIRED).solution, stage) for stage in plan.stages]
    expected_dipole = [ghost_energy(net, solve_poisson(
        net, stage, {x: 1.0, y: -1.0}, WIRED).solution, stage)
        for stage in plan.stages if x in stage and y in stage]
    assert monopole_stages == pytest.approx(expected_monopole, rel=1e-12, abs=0)
    assert dipole_stages == pytest.approx(expected_dipole, rel=1e-12, abs=0)


def _check_probe(net, plan, samples=None):
    rank, detail = harm_dimension_probe(net, plan, samples)
    expected, kept = {}, []
    for x in samples or _default_probe_vertices(net):
        hs, h_energies = dict_harm(net, x, plan)
        free, _, _ = dict_dipole(net, x, plan, FREE)
        e_h = energy(net, hs[-1][1], window=plan.final).value
        e_v = max(energy(net, free[-1][1], window=plan.final).value, 1e-300)
        expected[str(x)] = {"harm_energy": e_h, "dipole_energy": e_v,
                            "stage_energies": list(h_energies)}
        if e_h > HARM_MASS_THRESHOLD * e_v:
            kept.append(hs[-1][1])
    assert detail == expected
    gram = np.array([[energy(net, hi, hj, window=plan.final).value for hj in kept]
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
    samples = [y, net.neighbors(net.origin)[0], x]
    assert len({net.distance(z) for z in samples}) > 1
    _check_probe(net, plan, samples)


def test_harm_dimension_probe_makes_one_free_and_one_wired_trace(monkeypatch):
    net = diagonal_grid(4)
    plan = rn.make_exhaustion(net, [1, 2, 3])
    calls = []

    def counting(net, region, f, bc, **kwargs):
        calls.append((bc, frozenset(region), f))
        return solve_poisson(net, region, f, bc, **kwargs)

    monkeypatch.setattr(kernels, "solve_poisson", counting)
    samples = _default_probe_vertices(net)
    harm_dimension_probe(net, plan)
    assert len(samples) == 4
    # Stage-major: one block solve per stage and boundary condition, with a
    # source column for every sample.
    sources = [{x: 1.0, net.origin: -1.0} for x in samples]
    assert calls == [(bc, stage, sources) for stage in plan.stages for bc in (FREE, WIRED)]


def test_classify_makes_one_wired_monopole_trace(monkeypatch):
    net = build(ModelSpec("geom_z", {"c": 2.0}), radius=20)
    plan = rn.make_exhaustion(net, range(1, 19))
    calls = []

    def counting(net, region, f, bc, **kwargs):
        if bc == WIRED and dict(f) == {net.origin: 1.0}:
            calls.append(frozenset(region))
        return solve_poisson(net, region, f, bc, **kwargs)

    for module in (kernels, transience):
        monkeypatch.setattr(module, "solve_poisson", counting, raising=False)
    verdict = transience.classify(net, plan, rn.WalkConfig(n_walks=50, max_steps=50, seed=0))
    assert verdict.criteria["monopole"] == verdict.criteria["grounded"] == "transient"
    assert calls == list(plan.stages)

    element = monopole(net, net.origin, plan)
    projection = transience.grounded_projection_of_one(net, plan)
    resistances = tuple(r for _, r, _ in projection.trace)
    assert len(resistances) == len(plan.stages)
    assert element.meta["wired_stage_energies"] == resistances


@pytest.mark.parametrize("radii", [range(1, 25), range(1, 8)], ids=["covering", "inner"])
def test_classify_and_probe_solve_on_radii(monkeypatch, radii):
    # The report-grid network: its traces key balls by radius, so neither
    # builds a ball's vertex set nor maps one back to positions.
    net = rn.Network.from_edges((0, 0), lognormal_grid_edges(25, 1))
    plan = rn.make_exhaustion(net, radii)

    def refused(*args, **kwargs):
        raise AssertionError("a ball was built as a vertex set")

    for name in ("_positions", "_balls", "ball"):
        monkeypatch.setattr(rn.Network, name, refused)
    transience.classify(net, plan, rn.WalkConfig(n_walks=20, max_steps=20, seed=0))
    harm_dimension_probe(net, plan)


def test_classify_reads_the_last_ball_on_positions(monkeypatch):
    # geom-z c = 2 is transient: the monopole runs its regularized stage and
    # its residual check, the grounded projection its converged branch, and
    # both read the last ball's interior and crossing edges on positions.
    cfg = rn.WalkConfig(n_walks=50, max_steps=50, seed=0)

    def classified():
        net = build(ModelSpec("geom_z", {"c": 2.0}), radius=20)
        return transience.classify(net, rn.make_exhaustion(net, range(1, 19)), cfg)

    want = classified()

    def refused(*args, **kwargs):
        raise AssertionError("the last ball was read as a vertex set")

    monkeypatch.setattr(rn.Network, "_positions", refused)
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
