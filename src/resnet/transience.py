"""Transience classification and grounded-energy-space projections.

Three independent lines of evidence:

(a) the monopole: the wired stage resistances R_r = g_r(o) stop growing
    exactly when a finite-energy monopole exists, and the last stage's
    wired solve of Δw = δ_o, checked pointwise, is then that monopole;
(b) Monte Carlo: the expected visits to the origin stop growing with the
    horizon (Green finiteness) and the escape probability stays positive;
(c) the grounded projection of the constant function 1: its value u_o at the
    origin is positive for transient networks and 0 in the recurrent case.

The grounded inner product is ⟨u, v⟩ = u(o)v(o) + E(u, v).  The projection of
1 off the closure of the finitely supported functions solves Δu = −u_o δ_o
self-consistently; writing u = 1 − β g with g the wired unit monopole at the
origin forces β = 1/(1 + g(o)), and the projection satisfies the parabola
relation u_o = E(u) + u_o², so (u_o, E(u)) lives on a parabola with peak
(1/2, 1/4).

Criteria (a) and (c) read one wired trace, taken before any criterion runs:
one solve of Δg = δ_o per stage, none when the plan covers a finite network.
One rule, :func:`~resnet.kernels._trace_limit`, fits its tail for both, so
they never vote apart on it; a trace that grows like log r settles nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import (_dipoles, _energy_of, _monopole, _origin_zero, _sweep, _trace_limit,
                      _wired_trace, _zero_on)
from .models import ModelSpec, build
from .network import VertexFunction, doubling_exhaustion
from .operators import prefix_sums
from .randomwalk import WalkConfig, green_estimate
from .solver import FREE, WIRED

TRANSIENT = "transient"
RECURRENT = "recurrent"
INCONCLUSIVE = "inconclusive"

RECURRENCE_U_O_THRESHOLD = 1e-4
HARM_MASS_THRESHOLD = 1e-4
GRAM_RANK_THRESHOLD = 1e-5


@dataclass(frozen=True)
class GroundedProjection:
    """The projection u of 1 off the grounded finitely-supported subspace.

    ``u_o`` is the limit value u(o) (0 on recurrent networks); ``energy`` is
    E(u) evaluated from the function values, counting the crossing edges on
    which u jumps to its exterior value 1 (the ghost grounding of the stage
    solve identifies everything beyond the window with the point at infinity,
    where u is 1).  The parabola residual |u_o − E(u) − u_o²| then checks the
    defining property of the projection through independent code paths.
    """

    u: VertexFunction
    u_o: float
    energy: float
    converged: bool
    trace: tuple          # (radius, wired_resistance, u_o_estimate)
    meta: dict = field(default_factory=dict)

    @property
    def parabola_residual(self):
        return abs(self.u_o - (self.energy + self.u_o ** 2))


@dataclass(frozen=True)
class TransienceVerdict:
    verdict: str
    criteria: dict
    evidence: dict

    def agreement(self):
        votes = [v for v in self.criteria.values() if v != INCONCLUSIVE]
        return {"votes": dict(self.criteria),
                "unanimous": len(set(votes)) <= 1}

    def to_jsonable(self):
        return {"verdict": self.verdict, "criteria": dict(self.criteria),
                "agreement": self.agreement(), "evidence": self.evidence}


def _default_plan(net, plan):
    return plan if plan is not None else doubling_exhaustion(net)


def grounded_projection_of_one(net, plan=None):
    """Compute P⊥1 over exhaustion stages from the wired unit monopole.

    Each stage solves Δg = δ_o with the complement grounded; the stage
    projection is u = 1 − β g, where β = 1/(1 + g(o)) solves β = 1 − β g(o)
    in closed form, and g(o) is the stage's wired resistance.
    Resistances that :func:`~resnet.kernels._trace_limit` calls settled give
    the transient projection; growing ones certify 1 ∈ closure(span δ_x) and
    the projection is 0.
    """
    plan = _default_plan(net, plan)
    return _grounded_projection(net, plan, _wired_trace(net, net._order[0], plan))


def _grounded_projection(net, plan, trace):
    """:func:`grounded_projection_of_one` on the value of :func:`_wired_trace`
    at the origin; None, for a plan covering a finite network, gives P⊥1 = 0."""
    if trace is None:
        # Finite network: 1 is itself finitely supported, so P⊥1 = 0.
        zero = _zero_on(net, plan.final_radius)
        return GroundedProjection(u=zero, u_o=0.0, energy=0.0, converged=True,
                                  trace=(), meta={"finite": True})
    radii, resistances, radius, pos, g = trace
    betas = [1.0 / (1.0 + r) for r in resistances]
    entries = tuple(zip(radii, resistances, betas))
    converged, growing = _trace_limit(radii, resistances)
    if converged:
        beta = betas[-1]
        values = 1.0 - beta * g
        u = VertexFunction(net.vertices, pos, values)
        pairs = net._leaving(pos)  # the edges to the ghost, in row order
        gaps = values[np.searchsorted(pos, net.arrays.rows[pairs])] - 1.0
        # Python's d ** 2 (C pow), not numpy's d * d: they differ in the last bit.
        ghost = [c * d ** 2 for c, d in zip(net.arrays.cond[pairs].tolist(), gaps.tolist())]
        e = _energy_of(net, pos, values) + float(prefix_sums(np.array(ghost))[-1])
        return GroundedProjection(u=u, u_o=beta, energy=e, converged=True,
                                  trace=entries)
    # Diverging wired resistance: the projection limit is the zero function.
    u_o = 0.0 if growing else betas[-1]
    return GroundedProjection(u=_zero_on(net, radius), u_o=u_o,
                              energy=0.0, converged=False, trace=entries,
                              meta={"diverging_resistance": growing,
                                    "last_beta": betas[-1]})


def _criterion_monopole(net, plan, trace):
    element = _monopole(net, net._order[0], plan, trace)
    evidence = {"stage_energies": list(element.stage_energies),
                "converged": element.converged, "diverged": element.diverged}
    if element.converged:
        return TRANSIENT, evidence
    if element.diverged:
        return RECURRENT, evidence
    return INCONCLUSIVE, evidence


def _criterion_monte_carlo(net, cfg):
    est = green_estimate(net, net.origin, net.origin, cfg)
    evidence = {"green_mean_visits": est.value, "stderr": est.stderr,
                "half_horizon_mean": est.meta.get("half_horizon_mean"),
                "flags": list(est.flags), "seed": est.seed}
    if "diverging" in est.flags:
        return RECURRENT, evidence
    mid = est.meta.get("half_horizon_mean") or 0.0
    if mid > 0 and est.value <= 1.02 * mid:
        return TRANSIENT, evidence
    return INCONCLUSIVE, evidence


def _criterion_grounded(net, plan, trace):
    proj = _grounded_projection(net, plan, trace)
    evidence = {"u_o": proj.u_o, "energy": proj.energy,
                "converged": proj.converged,
                "parabola_residual": proj.parabola_residual if proj.converged else None,
                "trace": [list(t) for t in proj.trace]}
    if proj.converged:
        if proj.u_o > RECURRENCE_U_O_THRESHOLD:
            return TRANSIENT, evidence
        return RECURRENT, evidence
    if proj.meta.get("diverging_resistance"):
        return RECURRENT, evidence
    return INCONCLUSIVE, evidence


def classify(net, plan=None, walk_cfg=None):
    """Run the three criteria and aggregate their votes.

    Any explicit disagreement (both transient and recurrent votes) yields
    ``inconclusive`` with the full evidence attached; a verdict is never
    forced past contradicting criteria.
    """
    plan = _default_plan(net, plan)
    if walk_cfg is None:
        walk_cfg = WalkConfig(n_walks=4000, max_steps=4000, seed=0)
    # One wired trace of the origin for the monopole and grounded criteria,
    # before any criterion runs: a trace that fails raises before the walk.
    trace = _wired_trace(net, net._order[0], plan)
    criteria, evidence = {}, {}
    criteria["monopole"], evidence["monopole"] = _criterion_monopole(net, plan, trace)
    criteria["monte_carlo"], evidence["monte_carlo"] = _criterion_monte_carlo(net, walk_cfg)
    criteria["grounded"], evidence["grounded"] = _criterion_grounded(net, plan, trace)
    votes = set(criteria.values()) - {INCONCLUSIVE}
    if votes == {TRANSIENT}:
        verdict = TRANSIENT
    elif votes == {RECURRENT}:
        verdict = RECURRENT
    else:
        verdict = INCONCLUSIVE
    return TransienceVerdict(verdict=verdict, criteria=criteria, evidence=evidence)


def _default_probe_vertices(net):
    """The positions of up to four vertices adjacent to the origin, one per
    outgoing direction.

    Distance-1 samples keep the harmonic-mass gate sharp: the leakage energy
    of the dipole at x on a recurrent net scales with the distance of x, so
    probing farther out only blurs the threshold.
    """
    dist = net.arrays.dist
    picks = np.flatnonzero(dist == 1)
    if len(picks) < 2:
        picks = np.concatenate((picks, np.flatnonzero(dist == 2)))
    return picks[:4]


def harm_dimension_probe(net, plan=None, samples=None):
    """Numerical dimension of span{h_x} for sample base vertices.

    Each h_x must carry real harmonic mass (energy above
    ``HARM_MASS_THRESHOLD`` relative to its dipole element) to enter the Gram
    matrix; the reported dimension is the number of Gram eigenvalues above
    ``GRAM_RANK_THRESHOLD`` relative to the largest.  Per-stage energies are
    exposed so a decaying trend (wired and free limits merging, the recurrent
    signature) is visible in the evidence.
    """
    plan = _default_plan(net, plan)
    samples = (_default_probe_vertices(net) if samples is None
               else [net._require(x) for x in samples])
    samples = [p for p in samples if p != net._order[0]]
    if not samples:
        raise DomainError("need at least one non-origin sample vertex")
    # One sweep, free and wired, gives E(h_x) of h_x = v_x − f_x at each
    # stage; the last, solved whole, gives E(v_x) and the Gram matrix.
    h_energies = [[] for _ in samples]
    for stage in _sweep(net, _dipoles(net, samples), plan, (FREE, WIRED), energies=True):
        for k, e in zip(stage.held, stage.energies):
            h_energies[k].append(e)
    pos = stage.reports[0].pos
    v, f = (_origin_zero(net, pos, rep.values) for rep in stage.reports)
    h = v - f
    kept, detail = [], {}
    for k, (x, e_v) in enumerate(zip(samples, _energy_of(net, pos, v))):
        e_h, e_v = h_energies[k][-1], max(e_v, 1e-300)
        detail[str(net.vertices[x])] = {"harm_energy": e_h, "dipole_energy": e_v,
                                        "stage_energies": h_energies[k]}
        if e_h > HARM_MASS_THRESHOLD * e_v:
            kept.append(k)
    if not kept:
        return 0, detail
    gram, hk = np.empty((len(kept), len(kept))), h[:, kept]
    i, j = np.tril_indices(len(kept))
    gram[i, j] = gram[j, i] = _energy_of(net, pos, hk[:, i], hk[:, j])
    eigvals = np.linalg.eigvalsh(gram)
    top = max(eigvals.max(), 1e-300)
    rank = int((eigvals > GRAM_RANK_THRESHOLD * top).sum())
    return rank, detail


def grounded_parameter_sweep(cs):
    """u_o and E(P⊥1) on geom-z across conductance bases; resolves where the
    grounded energy peaks.  Returns per-c records and the argmax entry.

    Each base gets a window deep enough that the geometric truncation
    r^radius sits below 1e-9 (capped at 200, floor 20); no window covers a
    finite network, so each projection runs its wired trace.
    """
    cs = [float(c) for c in cs]
    if not cs:
        raise DomainError("the grounded-parameter sweep is empty: give at least one base c")
    records = []
    for c in cs:
        r_geom = min(1.0 / c, 0.999)
        depth = int(-9.0 * math.log(10.0) / math.log(r_geom)) + 2
        radius = max(20, min(200, depth))
        net = build(ModelSpec("geom_z", {"c": c}), radius=radius)
        proj = grounded_projection_of_one(net, doubling_exhaustion(net))
        records.append({"c": c, "radius": radius, "u_o": proj.u_o,
                        "energy": proj.energy, "converged": proj.converged,
                        "parabola_residual": proj.parabola_residual})
    best = max(records, key=lambda rec: rec["energy"])
    return {"records": records, "max_energy_c": best["c"],
            "max_energy": best["energy"], "max_u_o": best["u_o"]}
