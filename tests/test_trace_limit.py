"""The one limit rule of the wired trace, read by the monopole and grounded
criteria alike, against windows whose infinite network is known.

For r below the window radius, a window's wired R_r is that of the infinite
network it is cut from: the edges leaving B_r are the same.  So on a plan
that does not cover the window, an electric vote must match the infinite
network: transient on the geometric families with c > 1, on the binary tree
and on Z³; recurrent with c ≤ 1, on the unit line, on Z² and on the
lognormal grids, whose lattice is recurrent by Nash-Williams (E[c] < ∞ gives
Σ 1/C_k = ∞).  A vote may be ``inconclusive``, but never the other verdict.
"""

import math

import numpy as np
import pytest

import resnet as rn
from resnet.kernels import _trace_limit
from resnet.models import ModelSpec, build
from resnet.randomwalk import WalkConfig
from resnet.transience import classify, grounded_projection_of_one

from conftest import lognormal_grid_edges
from reference_windows import cutset_sums, lattice

ELECTRIC = ("monopole", "grounded")
# One walk of one step: the Monte Carlo vote is inconclusive and costs nothing.
NO_WALK = WalkConfig(1, 1, 0)


def electric_votes(net, plan):
    criteria = classify(net, plan, NO_WALK).criteria
    return {name: criteria[name] for name in ELECTRIC}


def wrong_votes(cases):
    """(label, votes) of each case whose monopole or grounded vote is the
    verdict opposite to its truth."""
    wrong = []
    for label, net, plan, truth in cases:
        votes = electric_votes(net, plan)
        if set(votes.values()) - {truth, "inconclusive"}:
            wrong.append((label, votes))
    return wrong


def plans(net):
    """The library default plan and balls:1..k for every k from 4 below the
    window radius."""
    yield "default", rn.doubling_exhaustion(net)
    for k in range(4, net.max_radius):
        yield f"balls:1..{k}", rn.make_exhaustion(net, range(1, k + 1))


def family_cases(family):
    for c in (0.8, 1.05, 1.2, 2.0):
        for radius in (16, 30):
            net = build(ModelSpec(family, {"c": c}), radius=radius)
            for name, plan in plans(net):
                yield (f"c={c} R={radius} {name}", net, plan,
                       "transient" if c > 1 else "recurrent")


def line_and_tree_cases():
    for family, radius, truth in (("unit_line", 16, "recurrent"), ("unit_line", 64, "recurrent"),
                                  ("binary_tree", 6, "transient"),
                                  ("binary_tree", 10, "transient")):
        net = build(ModelSpec(family), radius=radius)
        for name, plan in plans(net):
            yield f"{family} R={radius} {name}", net, plan, truth


@pytest.mark.parametrize("family", ["geom_z", "geom_zplus", "star"])
def test_no_wrong_electric_vote_on_the_built_in_families(family):
    cases = list(family_cases(family))
    if family == "geom_z":  # the unit line is geom_z at c = 1
        cases += line_and_tree_cases()
    assert wrong_votes(cases) == []


def test_no_wrong_electric_vote_on_the_lognormal_grids():
    cases = []
    for seed in range(1, 13):
        net = rn.Network.from_edges((0, 0), lognormal_grid_edges(25, seed))
        cases.append((f"seed {seed}", net, rn.make_exhaustion(net, range(1, 8)), "recurrent"))
    assert wrong_votes(cases) == []


def test_two_plans_over_one_window_give_one_vote():
    # R(o→∞) does not depend on the exhaustion; the trace here is 0.764,
    # 1.053, 1.495, 2.015, 2.387 on the default plan, with limit 2.5.
    net = build(ModelSpec("geom_z", {"c": 1.2}), radius=16)
    default = electric_votes(net, rn.doubling_exhaustion(net))
    balls = electric_votes(net, rn.make_exhaustion(net, range(1, 17)))
    assert default == balls == {"monopole": "transient", "grounded": "transient"}


def test_a_slow_geometric_approach_is_not_called_recurrent():
    net = build(ModelSpec("geom_z", {"c": 1.1}), radius=30)
    verdict = classify(net, None, WalkConfig(300, 300, 0))
    assert verdict.verdict != "recurrent", verdict.criteria
    assert "recurrent" not in {verdict.criteria[name] for name in ELECTRIC}


def test_a_log_growing_grid_trace_is_not_called_transient():
    net = rn.Network.from_edges((0, 0), lognormal_grid_edges(25, 3))
    verdict = classify(net, rn.make_exhaustion(net, range(1, 8)), WalkConfig(300, 300, 3))
    assert verdict.verdict != "transient", verdict.criteria
    assert "transient" not in verdict.criteria.values()


@pytest.mark.parametrize("radii", [range(1, 65), [1, 2, 4, 8, 16, 32, 64], range(8, 65, 8)])
def test_the_rule_reads_the_shape_of_the_tail(radii):
    r = np.asarray(radii, float)
    # Log growth (Z²) never settles; a geometric or 1/r approach settles, and
    # linear growth grows, on any plan.
    assert _trace_limit(radii, tuple(np.log(r + 1) / (2 * math.pi))) == (False, False)
    assert _trace_limit(radii, tuple(2.5 - 1.2 ** -r)) == (True, False)
    assert _trace_limit(radii, tuple(0.25 - 0.1 / r)) == (True, False)
    assert _trace_limit(radii, tuple(r + 1)) == (False, True)
    # The two shortcuts: past the divergence cap, and a Cauchy last increment.
    assert _trace_limit(radii, (1.0,) * (len(r) - 1) + (2e12,)) == (False, True)
    assert _trace_limit(radii, (1.0, 2.0) + (3.0,) * (len(r) - 2)) == (True, False)
    # Too few increments, or one that is not positive, give no vote.
    assert _trace_limit(radii[:4], tuple(2.5 - 1.2 ** -r[:4])) == (False, False)
    assert _trace_limit(radii, tuple(np.r_[2.5 - 1.2 ** -r[:-1], 1.0])) == (False, False)


def test_z3_is_transient_by_both_electric_criteria():
    # Below radius 12 the wired trace is Z³'s own, which rises toward
    # R(o→∞) = G(0)/6 = 0.2527310 (Watson's integral).
    z3 = lattice(3, 12)
    assert len(z3.vertices) == 2625
    plan = rn.make_exhaustion(z3, range(1, 12))
    trace = grounded_projection_of_one(z3, plan).trace
    resistances = [entry[1] for entry in trace]
    assert resistances[0] == pytest.approx(0.2)  # 1/6 + 1/30
    assert all(a < b < 0.2527310 for a, b in zip(resistances, resistances[1:]))
    verdict = classify(z3, plan, WalkConfig(300, 300, 0))
    assert {verdict.criteria[name] for name in ELECTRIC} == {"transient"}
    # Over 300 steps the mean visits grow by more than 2% and less than 15%.
    assert verdict.criteria["monte_carlo"] == "inconclusive"
    assert verdict.verdict == "transient"


def test_z2_is_never_transient_and_its_cutsets_bound_the_trace():
    z2 = lattice(2, 17)
    plan = rn.make_exhaustion(z2, range(1, 17))
    verdict = classify(z2, plan, WalkConfig(300, 300, 0))
    assert "transient" not in verdict.criteria.values()
    assert verdict.verdict != "transient"
    # The L¹ spheres' cutsets have C_k = 8k + 4, and Σ 1/C_k diverges.
    nw = cutset_sums(z2)
    assert nw == pytest.approx(np.cumsum(1.0 / (8.0 * np.arange(17) + 4.0)), rel=1e-14)
    resistances = [entry[1] for entry in grounded_projection_of_one(z2, plan).trace]
    # S_1 is at one potential, so the bound is tight there and strict beyond.
    assert resistances[0] == pytest.approx(nw[1], rel=1e-12)
    assert all(nw[r] < resistances[r - 1] for r in range(2, 17))
