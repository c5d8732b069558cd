"""Acceptance battery: one test per release criterion, each printing a
pass/fail line (run with -s to watch).  Tolerances are pinned here and
nowhere else."""

import numpy as np

import resnet as rn
from resnet.cli import main
from resnet.gaussgreen import (VERDICT_BOUNDARY, boundary_sum, gauss_green,
                               two_sum_identity_check)
from resnet.kernels import (dirac_expansion_check, energy_kernel, fin_part,
                            harm_part, monopole, wired_monopole)
from resnet.models import (ModelSpec, build, log_increment_function,
                           oracle_h_function)
from resnet.operators import energy, laplacian_apply
from resnet.randomwalk import WalkConfig, green_estimate, hitting_probability
from resnet.transience import (classify, grounded_parameter_sweep,
                               grounded_projection_of_one,
                               harm_dimension_probe)

from conftest import make_random_net, random_function
from reference_windows import final_ball, positions


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {label}  {detail}")
    assert ok, f"criterion {number}: {label} ({detail})"


def test_criterion_01_monopole_energy(geom2, geom2_plan):
    regularized = monopole(geom2, 0, geom2_plan)
    closed_form = 0.5  # r / (2 (1 - r)) at r = 1/2
    ok = (regularized.converged
          and abs(regularized.energy - closed_form) < 1e-6)
    direct = wired_monopole(geom2, 0, geom2_plan)
    ok = ok and abs(regularized.energy - direct.energy) < 1e-5
    report(1, "monopole energy on geometric integers", ok,
           f"E={regularized.energy:.9f} direct={direct.energy:.9f}")


def test_criterion_02_boundary_term(geom2, geom2_spec):
    plan = rn.make_exhaustion(geom2, range(1, 29))
    h1 = oracle_h_function(geom2_spec, 32, geom2.vertices, unit_energy=True)
    rep = gauss_green(geom2, h1, h1, plan)
    ok = (rep.verdict == VERDICT_BOUNDARY
          and abs(rep.boundary_limit - 1.0) < 1e-6
          and abs(rep.vertex_limit) < 1e-6)
    report(2, "harmonic boundary term equals 1", ok,
           f"boundary={rep.boundary_limit:.9f} vertex={rep.vertex_limit:.2e}")


def test_criterion_03_exhaustion_dependence():
    radius = 3 ** 10
    net = build(ModelSpec("log_increment_line"), radius=radius)
    u = log_increment_function(radius, net.vertices)
    p2 = rn.make_exhaustion(net, [2 ** k for k in range(1, 11)])
    p3 = rn.make_exhaustion(net, [3 ** k for k in range(1, 11)])
    trace = boundary_sum(net, u, u, p2, alt_plan=p3)
    doubling_ok = all(v >= 0.693 for _, v in trace.stages)
    tripling_ok = trace.alt_stages[-1][1] <= 0.01
    ok = doubling_ok and tripling_ok and trace.exhaustion_dependent
    report(3, "boundary sums depend on the exhaustion", ok,
           f"2^k min={min(v for _, v in trace.stages):.4f} "
           f"3^k last={trace.alt_stages[-1][1]:.5f}")


def test_criterion_04_finite_gauss_green():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        net = make_random_net(rng, max_vertices=40)
        u = random_function(rng, net)
        v = random_function(rng, net)
        vertex_sum = sum(u.value(x) * laplacian_apply(net, v, x)
                         for x in net.vertices)
        worst = max(worst, abs(energy(net, u, v).value - vertex_sum))
    report(4, "finite identity on 50 random networks", worst < 1e-9,
           f"worst residual={worst:.2e}")


def test_criterion_05_two_sum_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for family, params in (("geom_z", {"c": 2.0}), ("geom_zplus", {"c": 2.0}),
                           ("unit_line", {})):
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
            worst = max(worst, abs(lhs - rhs))
    report(5, "two-sum identity on kernel combinations", worst < 1e-6,
           f"worst |lhs-rhs|={worst:.2e}")


def test_criterion_06_dirac_expansion():
    worst = 0.0
    for family, params, vertices in (
            ("geom_z", {"c": 2.0}, (0, 1, 2, -1, -2)),
            ("geom_zplus", {"c": 2.0}, (0, 1, 2, 3, 4)),
            ("unit_line", {}, (0, 1, 2, -1, -2))):
        net = build(ModelSpec(family, params), radius=32)
        plan = rn.make_exhaustion(net, range(1, 31))
        for x in vertices:
            worst = max(worst, dirac_expansion_check(net, x, plan))
    report(6, "Dirac expansion through the kernel", worst < 1e-6,
           f"worst residual={worst:.2e}")


def test_criterion_07_royden_orthogonality(geom2, geom2_plan, zplus2,
                                           zplus2_plan):
    worst, final = 0.0, positions(geom2, final_ball(geom2_plan))
    for x in (1, 2, -3):
        fx = fin_part(geom2, x, geom2_plan)
        for y in (1, -2, 3):
            hy = harm_part(geom2, y, geom2_plan)
            worst = max(worst, abs(energy(geom2, fx.approximant, hy.approximant,
                                          window=final).value))
    dims = {}
    dims["geom_z"], _ = harm_dimension_probe(geom2, geom2_plan)
    dims["geom_zplus"], _ = harm_dimension_probe(zplus2, zplus2_plan)
    line = build(ModelSpec("unit_line"), radius=8192)
    dims["unit_line"], _ = harm_dimension_probe(line, rn.doubling_exhaustion(line))
    ok = worst < 1e-5 and dims == {"geom_z": 1, "geom_zplus": 0, "unit_line": 0}
    report(7, "orthogonal split and harmonic dimensions", ok,
           f"worst pairing={worst:.2e} dims={dims}")


def test_criterion_08_transience_triple_agreement():
    cfg = WalkConfig(n_walks=4000, max_steps=4000, seed=0)
    cases = {
        "geom_z": (build(ModelSpec("geom_z", {"c": 2.0}), radius=40), "transient"),
        "geom_zplus": (build(ModelSpec("geom_zplus", {"c": 2.0}), radius=40),
                       "transient"),
        "binary_tree": (build(ModelSpec("binary_tree"), radius=12), "transient"),
        "unit_line": (build(ModelSpec("unit_line"), radius=2048), "recurrent"),
    }
    ok = True
    worst_parabola = 0.0
    detail = {}
    for name, (net, expected) in cases.items():
        verdict = classify(net, walk_cfg=cfg)
        votes = set(verdict.criteria.values())
        detail[name] = verdict.verdict
        ok = ok and verdict.verdict == expected and votes == {expected}
        proj = grounded_projection_of_one(net)
        if proj.converged:
            worst_parabola = max(worst_parabola, proj.parabola_residual)
    ok = ok and worst_parabola < 1e-6
    report(8, "three criteria agree on all built-in models", ok,
           f"verdicts={detail} worst parabola={worst_parabola:.2e}")


def test_criterion_09_grounded_parameter(geom2):
    proj = grounded_projection_of_one(geom2)
    ok = proj.converged and abs(proj.u_o - 2.0 / 3.0) < 1e-4
    cs = [1.1 + (4.0 - 1.1) * i / 29 for i in range(30)]
    sweep = grounded_parameter_sweep(cs)
    consistent = all(rec["converged"] and rec["parabola_residual"] < 1e-6
                     for rec in sweep["records"])
    ok = ok and consistent
    report(9, "grounded parameter and energy sweep", ok,
           f"u_o={proj.u_o:.6f} peak at c={sweep['max_energy_c']:.2f} "
           f"E={sweep['max_energy']:.4f}")


def test_criterion_10_monte_carlo(unit_path, zplus2):
    cfg = WalkConfig(n_walks=100000, max_steps=100000, seed=10)
    est = hitting_probability(unit_path, 2, 0, 1, cfg)
    ok = abs(est.value - 0.5) < 3 * est.stderr
    plan = rn.make_exhaustion(unit_path, [1, 2])
    resistance = rn.effective_resistance(unit_path, 2, 0, plan).value
    v2 = energy_kernel(unit_path, 2, plan).approximant
    predicted = resistance * est.value
    ok = ok and abs(predicted - v2.value(1)) < 3 * resistance * est.stderr
    green_cfg = WalkConfig(n_walks=100000, max_steps=10000, seed=10)
    green = green_estimate(zplus2, 0, 0, green_cfg)
    ok = ok and abs(green.value - 2.0) < 3 * green.stderr
    rng = np.random.default_rng(10)
    for _ in range(3):
        net = make_random_net(rng, max_vertices=12)
        verts = [v for v in net.vertices if v != 0]
        x = verts[int(rng.integers(0, len(verts)))]
        y = verts[int(rng.integers(0, len(verts)))]
        radius = net.max_radius
        p = rn.make_exhaustion(net, range(1, radius + 1))
        exact = energy_kernel(net, x, p).approximant
        r_xo = rn.effective_resistance(net, x, 0, p).value
        mc = hitting_probability(net, x, 0, y, cfg)
        ok = ok and abs(r_xo * mc.value - exact.value(y)) < max(
            3 * r_xo * mc.stderr, 1e-9)
    report(10, "Monte Carlo matches exact solves", ok,
           f"hit={est.value:.4f} G(0,0)={green.value:.4f}±{green.stderr:.4f}")


def test_criterion_11_determinism(tmp_path):
    ok = True
    for args in (
        ["gen", "--model", "geom-z", "--c", "2", "--radius", "25"],
        ["walk", "--model", "geom-zplus", "--c", "2", "--radius", "30",
         "--op", "escape", "--radii", "2,4,8", "--walks", "4000",
         "--steps", "4000", "--seed", "33"],
        ["transience", "--model", "geom-zplus", "--c", "2", "--radius", "40",
         "--seed", "12", "--walks", "2000", "--steps", "2000"],
    ):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main(args + ["-o", str(a)]) in (0, 3)
        assert main(args + ["-o", str(b)]) in (0, 3)
        ok = ok and a.read_bytes() == b.read_bytes()
    report(11, "repeated runs are byte-identical", ok)
