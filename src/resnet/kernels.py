"""Energy kernels, their orthogonal parts, monopoles and derived quantities.

The dipole kernel element at x is the finite-energy solution of
Δv = δ_x − δ_o singled out by the reproducing property ⟨v_x, u⟩_E =
u(x) − u(o).  Constructively, each element is the limit of free-boundary
solves along an exhaustion; its projection to the energy-closure of the
finitely supported functions comes from wired solves of the same equation,
and the harmonic part is the difference.  Monopoles (Δw = δ_x) come from
wired solves: the stage resistances R_r = g_r(x), full energies read as
source pairings, stop growing exactly on transient networks, and the last
stage's solve is then the monopole w_x on that ball.

All elements report per-stage energies and an explicit convergence flag; a
computation that did not settle never pretends otherwise.

Each public function reads its vertex ids once, as positions in
``net.vertices`` (``Network._require``, which refuses an unknown or ring id
before any solve); the private helpers take a vertex x as its position.  The
stage loops pass each ball to the solver as its radius and run on the
solver's arrays: the origin pin, the stage energies (the edge sum of
:func:`~resnet.operators.energy`), the harmonic difference h = u_free −
u_wired and the probe deltas.  Dipole traces sweep the plan stage-major, one
block solve per stage for all of their sources, keeping the last stage; a
harmonic part, and the dimension probe of :mod:`resnet.transience` over its
sample vertices, each make one sweep, free and wired at each stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GreenUndefinedError, IncompatibleSourceError
from .network import GAUGE_ORIGIN, GAUGE_RAW, GAUGE_VANISH, Ball, VertexFunction
from .operators import (edge_energy, inner_edges, prefix_sums,
                        scaled_laplacian_residual)
from .serialize import csv_text, vertex_label
from .solver import FREE, WIRED, solve_poisson

KIND_DIPOLE = "dipole"
KIND_FIN = "fin"
KIND_HARM = "harm"
KIND_MONOPOLE = "monopole"

POINTWISE_TOL = 1e-7
ENERGY_CAUCHY_TOL = 1e-8
DIVERGENCE_CAP = 1e12
# Non-Cauchy resistances that keep growing by this factor across the second
# half of the trace are classified as divergent (linear-in-radius growth on
# recurrent networks never reaches the hard cap at desk-scale windows).
GROWTH_FACTOR = 1.5

_PROBE_SEED = 0x5EED


@dataclass
class KernelElement:
    """One computed kernel element with its exhaustion trace.

    ``approximant`` holds the final-stage values; ``stage_energies`` the
    energy at each usable stage; ``converged`` is the explicit verdict of the
    stage-agreement test and ``diverged`` flags energy blow-up (recurrence
    evidence for monopoles).
    """

    base: object
    kind: str
    approximant: VertexFunction
    stage_energies: tuple
    converged: bool
    diverged: bool = False
    meta: dict = field(default_factory=dict)

    @property
    def energy(self):
        return self.stage_energies[-1] if self.stage_energies else 0.0

    def to_jsonable(self):
        return {
            "base": list(self.base) if isinstance(self.base, tuple) else self.base,
            "kind": self.kind,
            "gauge": self.approximant.gauge,
            "converged": self.converged,
            "diverged": self.diverged,
            "stage_energies": list(self.stage_energies),
            "meta": {k: v for k, v in self.meta.items()},
            "values": [[list(x) if isinstance(x, tuple) else x, val]
                       for x, val in self.approximant.items()],
        }

    def csv_rows(self):
        """(vertex label, value) rows of the approximant, in canonical order."""
        return [(vertex_label(x), val) for x, val in self.approximant.items()]

    def to_csv(self):
        return csv_text(("vertex", "value"), self.csv_rows())


@dataclass(frozen=True)
class ResistanceValue:
    """Effective resistance between two vertices under one boundary variant."""

    value: float
    variant: str
    converged: bool
    stages: tuple


def _probe_positions(net, x, plan):
    """Sorted positions of the probe vertices: the origin, x, their
    neighbours and five seeded picks from the rest of the final stage."""
    a = net.arrays
    ends = np.array([net._order[0], x])
    near = np.concatenate((ends, a.nbr[net._pairs(ends)]))
    near = near[near >= 0]
    chosen = np.unique(near[a.dist[near] <= plan.final_radius])
    final = net._ball_positions(plan.final_radius)
    pool = final[~np.isin(final, chosen)]
    rng = np.random.default_rng(_PROBE_SEED)
    picks = (rng.choice(len(pool), size=min(5, len(pool)), replace=False)
             if len(pool) else [])
    return np.union1d(chosen, pool[picks])


def _distances(net, plan, needed):
    """The distance of each ``needed`` vertex; the plan's last ball must hold
    them all."""
    far = net.arrays.dist[needed]
    if far.max() > plan.final_radius:
        raise DomainError("no exhaustion stage contains the required vertices")
    return far


def _usable_stages(net, plan, needed):
    """The plan's balls that hold the ``needed`` vertices."""
    far = _distances(net, plan, needed).max()
    return [Ball(net, r) for r in plan.radii if far <= r]


def _covers(net, plan):
    """Whether the plan's last ball is the whole of a finite network."""
    return net.is_finite and net._cut(plan.final_radius) == len(net.vertices)


def _zero_on(net, radius, gauge=GAUGE_RAW):
    """The zero function on B_radius."""
    pos = net._ball_positions(radius)
    return VertexFunction(net.vertices, pos, np.zeros(len(pos)), gauge)


def _energy_of(net, pos, u, v=None):
    """E(u, v) over the induced subgraph on a region, for functions given by
    their values at the region's sorted canonical positions ``pos``, or one
    energy per column of blocks of them; each the same sum as :func:`energy`
    over that window."""
    uu, vv = np.zeros((2, len(net.vertices)) + u.shape[1:])
    uu[pos] = u
    vv[pos] = u if v is None else v
    return edge_energy(net, inner_edges(net, pos), uu, vv)


class _Trace(NamedTuple):
    """A dipole trace on the solver's arrays: the last stage's sorted
    positions and the part of its solutions the trace follows; that part's
    energy at each stage, and per boundary condition the probe deltas between
    successive stages and the convergence flag, all Python floats and bools."""

    pos: np.ndarray
    values: np.ndarray
    energies: tuple
    deltas: tuple
    converged: tuple


def _sweep(net, xs, plan, *bcs):
    """Stage-major solves of Δu = δ_x − δ_o for each source x of ``xs``
    under each boundary condition of ``bcs``: at each stage one block solve
    per condition for the sources the stage holds, re-gauged to the
    origin-zero representative (u − u(o), then exactly 0 at the origin).
    Yields the stage's sorted positions, the solutions as columns, one
    array per condition, and the indices in ``xs`` of their sources.  One
    report is rebound from solve to solve, so at most two systems are alive
    at once."""
    xs, o = np.asarray(xs), net._order[0]
    far = _distances(net, plan, xs)
    for r in plan.radii:
        held = np.flatnonzero(far <= r)
        if not held.size:
            continue
        # Column k is δ at xs[held[k]] (row k + 1) less δ_o (row 0).
        values = np.vstack((np.full(len(held), -1.0), np.eye(len(held))))
        us = []
        for bc in bcs:
            rep = solve_poisson(net, Ball(net, r), (np.r_[o, xs[held]], values), bc)
            i = np.searchsorted(rep.pos, o)
            us.append(rep.values - rep.values[i])
            us[-1][i] = 0.0
        yield rep.pos, us, held.tolist()


def _dipole_trace(net, x, plan, tol, bcs, part=lambda us: us[0]):
    """The stages of :func:`_sweep` for the one source x under each condition
    of ``bcs``: the energy of ``part`` of each stage's solutions, and each
    condition's probe deltas and convergence flag; only the last stage is
    kept.  A last ball that covers a finite network gives the exact
    solution."""
    if x == net._order[0]:
        raise DomainError("the kernel element at the origin is the zero class")
    probes = _probe_positions(net, x, plan)
    energies, deltas, prev = [], [[] for _ in bcs], None
    for pos, us, _ in _sweep(net, [x], plan, *bcs):
        us = [u[:, 0] for u in us]
        energies.append(_energy_of(net, pos, part(us)))
        at = np.minimum(np.searchsorted(pos, probes), len(pos) - 1)
        inside, reads = pos[at] == probes, [u[at] for u in us]
        if prev is not None:
            common, before = prev
            for d, read, old in zip(deltas, reads, before):
                d.append(float(np.max(np.abs(read[common] - old[common]))))
        prev = inside, reads
    covers = _covers(net, plan)
    return _Trace(pos, part(us), tuple(energies), tuple(map(tuple, deltas)),
                  tuple((bool(d) and d[-1] <= tol) or covers for d in deltas))


def _dipole_element(net, x, plan, kind, bc, tol):
    trace = _dipole_trace(net, x, plan, tol, [bc])
    return KernelElement(base=net.vertices[x], kind=kind,
                         approximant=VertexFunction(net.vertices, trace.pos, trace.values,
                                                    GAUGE_ORIGIN),
                         stage_energies=trace.energies, converged=trace.converged[0],
                         meta={"plan": plan.descriptor, "bc": bc,
                               "probe_deltas": trace.deltas[0]})


def energy_kernel(net, x, plan, *, tol=POINTWISE_TOL):
    """The dipole kernel element at x from free-boundary exhaustion solves.

    Free stages realize the reproducing-kernel element: the value u(x) − u(o)
    of any finite-energy u is recovered by the energy pairing against the
    limit.  Convergence means the last two stages agreed pointwise on the
    probe set to ``tol``; a plan too short to settle yields
    ``converged=False``, never a silent answer.
    """
    return _dipole_element(net, net._require(x), plan, KIND_DIPOLE, FREE, tol)


def fin_part(net, x, plan, *, tol=POINTWISE_TOL):
    """Projection of the dipole kernel element onto the closure of the
    finitely supported functions, from wired solves of the same equation."""
    return _dipole_element(net, net._require(x), plan, KIND_FIN, WIRED, tol)


def harm_part(net, x, plan, *, tol=POINTWISE_TOL):
    """Harmonic component h_x = v_x − f_x, with per-stage energies of the
    difference (their decay or stabilization feeds the dimension probe),
    from one sweep that solves free and wired at each stage."""
    trace = _dipole_trace(net, net._require(x), plan, tol, [FREE, WIRED],
                          lambda us: us[0] - us[1])
    return KernelElement(base=x, kind=KIND_HARM,
                         approximant=VertexFunction(net.vertices, trace.pos, trace.values,
                                                    GAUGE_RAW),
                         stage_energies=trace.energies, converged=all(trace.converged),
                         meta={"plan": plan.descriptor})


def _vanish_gauge(net, rep, ball):
    """The solution of ``rep``, a solve on ``ball``, less its mean over the
    boundary of the ball (the vertices with a neighbour beyond it), added in
    canonical order."""
    bd = np.flatnonzero(net.arrays.reach[rep.pos] > ball.radius)
    if not bd.size:
        return rep.solution
    shift = float(prefix_sums(rep.values[bd])[-1]) / len(bd)
    return VertexFunction(net.vertices, rep.pos, rep.values - shift, GAUGE_VANISH)


def _wired_trace(net, x, plan):
    """One wired solve of Δg = δ_x per stage that contains x: the resistances
    R_r = g_r(x) as Python floats, the last stage and its solve report.  With
    the ghost at 0, E(g, g) = ⟨g, Δg⟩ = g(x): R_r is the unit monopole's full
    energy, edges to the ghost included, and increases to R(x→∞).  The trace
    ends at the first R_r past ``DIVERGENCE_CAP``; a stage covering a whole
    finite network raises IncompatibleSourceError."""
    resistances = []
    for stage in _usable_stages(net, plan, [x]):
        rep = solve_poisson(net, stage, ([x], [1.0]), WIRED)
        resistances.append(float(rep.values[np.searchsorted(rep.pos, x)]))
        if resistances[-1] > DIVERGENCE_CAP:
            break
    return tuple(resistances), stage, rep


def _window_limit(resistances):
    """The converged and diverged flags of a wired trace: decaying increments
    mean the window has stopped mattering, steady growth is the recurrent
    signature."""
    deltas = [abs(b - a) for a, b in zip(resistances, resistances[1:])]
    growing = (resistances[-1] > DIVERGENCE_CAP
               or (len(resistances) >= 4
                   and resistances[-1] > GROWTH_FACTOR * resistances[len(resistances) // 2]
                   and deltas[-1] >= deltas[0]))
    # Increments must be on a decaying trend (compared scale-free against the
    # middle of the trace) or already at tolerance level.
    settled = (len(deltas) >= 3
               and deltas[-1] <= max(0.5 * deltas[(len(deltas) - 1) // 2],
                                     1e-12 * max(1.0, resistances[-1])))
    settled = settled or (len(deltas) >= 1 and
                          deltas[-1] <= ENERGY_CAUCHY_TOL * max(1.0, resistances[-1]))
    return settled and not growing, growing


def monopole(net, x, plan):
    """Monopole element at x: the limit of the wired window solves.

    The wired resistances R_r = g_r(x) along the plan
    (``meta["wired_stage_energies"]``) decide the limit: decaying increments
    certify that the window has stopped mattering, steady growth is
    recurrent evidence.  A settled element is the last ball's wired solve of
    Δu = δ_x, checked pointwise against that equation; its stage energy is
    the in-window energy E(u, u) over the induced subgraph on the ball, which
    leaves out the edges to the ghost that R_r counts.
    """
    i = net._require(x)
    return _monopole(net, i, plan, partial(_wired_trace, net, i, plan))


def _monopole(net, x, plan, trace):
    """:func:`monopole` on the wired trace that ``trace()`` returns; a plan
    covering a finite network needs none."""
    base = net.vertices[x]
    if _covers(net, plan):
        # Full finite network: no ghost, no monopole.  Pure recurrence.
        return KernelElement(base=base, kind=KIND_MONOPOLE,
                             approximant=_zero_on(net, plan.final_radius),
                             stage_energies=(float("inf"),), converged=False,
                             diverged=True,
                             meta={"plan": plan.descriptor,
                                   "reason": "finite network admits no monopole"})
    resistances, last_stage, rep = trace()
    settled, growing = _window_limit(resistances)
    meta = {"plan": plan.descriptor, "wired_stage_energies": resistances}
    if not settled:
        return KernelElement(base=base, kind=KIND_MONOPOLE,
                             approximant=_vanish_gauge(net, rep, last_stage),
                             stage_energies=resistances, converged=False,
                             diverged=growing, meta=meta)
    # Bounded energies alone are not enough: the limit must actually solve
    # Δu = δ_x pointwise.
    interior = rep.pos[net.arrays.reach[rep.pos] <= last_stage.radius]
    res = scaled_laplacian_residual(net, rep.solution, ([x], [1.0]), interior)
    meta["defining_residual"] = res
    converged = res <= 1e-6  # NaN fails too
    if not converged:
        meta["reason"] = "wired limit does not solve the monopole equation"
    return KernelElement(base=base, kind=KIND_MONOPOLE,
                         approximant=_vanish_gauge(net, rep, last_stage),
                         stage_energies=(_energy_of(net, rep.pos, rep.values),),
                         converged=converged, diverged=not converged, meta=meta)


def wired_monopole(net, x, plan):
    """The wired monopole stages: the staged values are the wired
    resistances R_r = g_r(x) from x to the collapsed complement, the full
    energies of the stage solves, edges to the ghost included."""
    resistances, stage, rep = _wired_trace(net, net._require(x), plan)
    settled, growing = _window_limit(resistances)
    return KernelElement(base=x, kind=KIND_MONOPOLE,
                         approximant=_vanish_gauge(net, rep, stage),
                         stage_energies=resistances, converged=settled,
                         diverged=growing, meta={"plan": plan.descriptor})


def green_kernel(net, x, y, plan):
    """Symmetrized Green value g(x, y): the wired monopole at x, in the
    vanish-at-infinity gauge, read at y.  Undefined on recurrent networks."""
    net._require(y)
    try:
        element = wired_monopole(net, x, plan)
    except IncompatibleSourceError:
        raise GreenUndefinedError("finite network: the walk is recurrent and the "
                                  "Green kernel diverges") from None
    if element.diverged or not element.converged:
        raise GreenUndefinedError(
            "monopole energies did not stabilize (recurrent or inconclusive); "
            f"stage energies {element.stage_energies[-3:]}")
    return element.approximant.value(y)


def effective_resistance(net, x, y, plan, variant=FREE):
    """R(x, y) = u(x) − u(y) for the unit dipole Δu = δ_x − δ_y under the
    given variant: the dipole's full energy ⟨u, Δu⟩, which for wired stages
    counts the edges to the grounded ghost.

    Free stages are nonincreasing in the window and wired stages
    nondecreasing; both trends are reported for use as convergence
    diagnostics.
    """
    if x == y:
        raise DomainError("effective resistance needs two distinct vertices")
    if variant not in (FREE, WIRED):
        raise DomainError(f"unknown variant {variant!r}")
    ends = [net._require(x), net._require(y)]
    values = []
    for stage in _usable_stages(net, plan, ends):
        rep = solve_poisson(net, stage, (ends, [1.0, -1.0]), variant)
        ux, uy = rep.values[np.searchsorted(rep.pos, ends)]
        values.append(float(ux - uy))
    converged = _covers(net, plan) or (  # a covering last ball is exact
        len(values) >= 2 and abs(values[-1] - values[-2]) <= 1e-9 * max(1.0, values[-1]))
    return ResistanceValue(value=values[-1], variant=variant,
                           converged=converged, stages=tuple(values))


def dirac_expansion_check(net, x, plan):
    """Residual of the expansion δ_x = c(x) v_x − Σ_{y~x} c_xy v_y.

    The identity holds between energy classes, so representatives may differ
    by a constant; the reported residual is max − min of the pointwise
    difference over the interior of the final stage (0 for a perfect match up
    to a constant).  One free sweep solves for x and its neighbours together;
    v_o is 0, so the origin is no source.
    """
    i, a = net._require(x), net.arrays
    pairs = net._inside(net._pairs(np.array([i])))
    ps, cs = np.r_[i, a.nbr[pairs]], np.r_[a.ctot[i], -a.cond[pairs]]
    kept = ps != net._order[0]
    for pos, (u,), _ in _sweep(net, ps[kept], plan, FREE):
        pass  # the last stage holds every source
    interior = np.flatnonzero(a.reach <= plan.final_radius)
    v = u[np.searchsorted(pos, interior)]
    expansion = prefix_sums(cs[kept][:, None] * v.T)[-1]  # term by term, in order
    diffs = (interior == i) - expansion
    return float(diffs.max() - diffs.min())
