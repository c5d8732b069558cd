import pytest

import resnet as rn
from resnet.models import ModelSpec, build
from resnet.randomwalk import WalkConfig
from resnet.transience import (classify, grounded_parameter_sweep,
                               grounded_projection_of_one,
                               harm_dimension_probe)

from conftest import lognormal_grid_edges
from reference_windows import interior_of


@pytest.fixture(scope="module")
def verdicts():
    cases = {
        "geom_z": build(ModelSpec("geom_z", {"c": 2.0}), radius=40),
        "geom_zplus": build(ModelSpec("geom_zplus", {"c": 2.0}), radius=40),
        "binary_tree": build(ModelSpec("binary_tree"), radius=12),
        "unit_line": build(ModelSpec("unit_line"), radius=2048),
    }
    cfg = WalkConfig(n_walks=4000, max_steps=4000, seed=0)
    return {name: classify(net, walk_cfg=cfg) for name, net in cases.items()}


def test_transient_models(verdicts):
    for name in ("geom_z", "geom_zplus", "binary_tree"):
        assert verdicts[name].verdict == "transient", verdicts[name].criteria


def test_recurrent_unit_line(verdicts):
    assert verdicts["unit_line"].verdict == "recurrent"


def test_criteria_agree_on_builtin_models(verdicts):
    for name, verdict in verdicts.items():
        votes = {v for v in verdict.criteria.values() if v != "inconclusive"}
        assert len(votes) == 1, (name, verdict.criteria)
        assert verdict.agreement()["unanimous"]


def test_grounded_projection_on_integers(geom2):
    proj = grounded_projection_of_one(geom2)
    assert proj.converged
    assert proj.u_o == pytest.approx(2.0 / 3.0, abs=1e-4)
    assert proj.energy == pytest.approx(2.0 / 9.0, abs=1e-4)
    assert proj.parabola_residual < 1e-6


def test_grounded_projection_on_half_line(zplus2):
    proj = grounded_projection_of_one(zplus2)
    assert proj.converged
    assert proj.u_o == pytest.approx(0.5, abs=1e-4)
    assert proj.energy == pytest.approx(0.25, abs=1e-4)


def test_grounded_projection_on_star():
    star = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=25)
    proj = grounded_projection_of_one(star)
    assert proj.converged
    assert proj.u_o == pytest.approx(0.75, abs=1e-4)
    assert proj.energy == pytest.approx(0.1875, abs=1e-4)
    assert proj.parabola_residual < 1e-6


def test_grounded_projection_recurrent_line():
    net = build(ModelSpec("unit_line"), radius=2048)
    proj = grounded_projection_of_one(net)
    assert not proj.converged
    assert proj.u_o == 0.0
    assert proj.meta.get("diverging_resistance")


def test_grounded_projection_finite_net(triangle):
    proj = grounded_projection_of_one(triangle)
    assert proj.converged
    assert proj.u_o == 0.0 and proj.energy == 0.0


def test_grounded_solution_solves_its_equation(geom2):
    proj = grounded_projection_of_one(geom2)
    interior = interior_of(geom2, proj.u.window)
    for x in sorted(interior, key=abs)[:9]:
        expected = -proj.u_o if x == 0 else 0.0
        got = rn.laplacian_apply(geom2, proj.u, x)
        assert got == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
def test_harm_dimension_one_on_integers(c):
    radius = {1.5: 36, 2.0: 30, 3.0: 12}[c]
    net = build(ModelSpec("geom_z", {"c": c}), radius=radius + 2)
    plan = rn.make_exhaustion(net, range(1, radius + 1))
    rank, _ = harm_dimension_probe(net, plan)
    assert rank == 1


def test_harm_dimension_zero_on_half_line(zplus2, zplus2_plan):
    rank, _ = harm_dimension_probe(zplus2, zplus2_plan)
    assert rank == 0


def test_harm_dimension_zero_on_unit_line():
    net = build(ModelSpec("unit_line"), radius=8192)
    rank, detail = harm_dimension_probe(net, rn.doubling_exhaustion(net))
    assert rank == 0
    # the gate saw decaying harmonic mass, not genuine harmonics
    for rec in detail.values():
        tail = rec["stage_energies"][-1]
        assert tail < 1e-4


def test_harm_dimension_on_star():
    star = build(ModelSpec("star", {"c": 2.0, "arms": 3}), radius=25)
    plan = rn.make_exhaustion(star, range(1, 24))
    rank, _ = harm_dimension_probe(star, plan)
    assert rank == 2


def test_harm_dimension_probe_needs_a_non_origin_sample(zplus2, zplus2_plan):
    with pytest.raises(rn.DomainError, match="need at least one non-origin sample"):
        harm_dimension_probe(zplus2, zplus2_plan, samples=[zplus2.origin])


def test_contradicting_criteria_give_no_transient_verdict():
    # On the seed-3 grid the wired trace grows like log r, which the limit
    # rule leaves undecided: the monopole and grounded votes are
    # inconclusive, and the walk's visits keep growing.  The verdict is what
    # the aggregation rule makes of the votes, and never transient, because
    # a finite network is recurrent.
    net = rn.Network.from_edges((0, 0), lognormal_grid_edges(25, 3))
    verdict = classify(net, rn.make_exhaustion(net, range(1, 8)), WalkConfig(1000, 4000, 3))
    votes = set(verdict.criteria.values()) - {"inconclusive"}
    assert verdict.verdict == (votes.pop() if len(votes) == 1 else "inconclusive")
    assert verdict.verdict != "transient"


def test_harmonics_imply_transience(verdicts, geom2, geom2_plan):
    rank, _ = harm_dimension_probe(geom2, geom2_plan)
    assert rank > 0
    assert verdicts["geom_z"].verdict == "transient"


def test_one_splitting_energy_positive_iff_transient(verdicts, geom2, zplus2):
    assert grounded_projection_of_one(geom2).energy > 0.01
    assert grounded_projection_of_one(zplus2).energy > 0.01
    line = build(ModelSpec("unit_line"), radius=2048)
    assert grounded_projection_of_one(line).energy == 0.0


def test_an_empty_grounded_parameter_sweep_is_refused(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("a network was built for an empty sweep")

    monkeypatch.setattr(rn.transience, "build", no_build)
    with pytest.raises(rn.DomainError, match="sweep is empty"):
        grounded_parameter_sweep([])


def test_grounded_parameter_sweep_self_consistency():
    cs = [1.1 + 0.1 * i for i in range(30)]
    sweep = grounded_parameter_sweep(cs)
    for record in sweep["records"]:
        assert record["converged"]
        assert record["parabola_residual"] < 1e-6
        assert 0.0 <= record["u_o"] < 1.0
    # peak energy must sit at the top of the parabola u_o (1 - u_o)
    top = sweep["max_energy"]
    assert top == pytest.approx(0.25, abs=1e-3)
    assert sweep["max_u_o"] == pytest.approx(0.5, abs=0.05)
    assert 1.3 < sweep["max_energy_c"] < 1.7
