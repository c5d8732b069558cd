"""Energy kernels, their orthogonal parts, monopoles and derived quantities.

The dipole kernel element at x is the finite-energy solution of
Δv = δ_x − δ_o singled out by the reproducing property ⟨v_x, u⟩_E =
u(x) − u(o).  Constructively, each element is the limit of free-boundary
solves along an exhaustion; its projection to the energy-closure of the
finitely supported functions comes from wired solves of the same equation,
and the harmonic part is the difference.  Monopoles (Δw = δ_x) come from
wired solves: the stage resistances R_r = g_r(x), full energies read as
source pairings, stop growing exactly on transient networks, and wired,
regularized solves (ε + Δ)u = δ_x with ε driven to zero then reach w_x.

All elements report per-stage energies and an explicit convergence flag; a
computation that did not settle never pretends otherwise.

The stage loops pass each ball to the solver as its radius and run on the
solver's arrays: the origin pin, the stage energies (the edge sum of
:func:`~resnet.operators.energy`), the harmonic difference h = u_free −
u_wired and the probe deltas.  Dipole traces sweep the plan stage-major, one
block solve per stage for all of their sources; the harmonic dimension probe
of :mod:`resnet.transience` makes one free and one wired sweep over its
sample vertices and reads every v_x and h_x from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GreenUndefinedError, IncompatibleSourceError
from .network import GAUGE_ORIGIN, GAUGE_RAW, GAUGE_VANISH, Ball, VertexFunction
from .operators import (edge_energy, inner_edges, prefix_sums, read_values,
                        scaled_laplacian_residual)
from .serialize import csv_text, vertex_label
from .solver import FREE, WIRED, solve_poisson, solve_regularized

KIND_DIPOLE = "dipole"
KIND_FIN = "fin"
KIND_HARM = "harm"
KIND_MONOPOLE = "monopole"

POINTWISE_TOL = 1e-7
ENERGY_CAUCHY_TOL = 1e-8
DIVERGENCE_CAP = 1e12
# Non-Cauchy energies that keep growing by this factor across the second half
# of the schedule are classified as divergent (linear-in-radius growth on
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
    near = {net.origin, x, *net.neighbors(net.origin), *net.neighbors(x)}
    chosen = net._positions([y for y in near if net.has_vertex(y)
                             and net.distance(y) <= plan.final_radius])
    final = net._ball_positions(plan.final_radius)
    pool = final[~np.isin(final, chosen)]
    rng = np.random.default_rng(_PROBE_SEED)
    picks = (rng.choice(len(pool), size=min(5, len(pool)), replace=False)
             if len(pool) else [])
    return np.union1d(chosen, pool[picks])


def _distances(net, plan, needed):
    """The distance of each ``needed`` vertex; the plan's last ball must hold
    them all."""
    far = [net.distance(x) for x in needed]
    if max(far) > plan.final_radius:
        raise DomainError("no exhaustion stage contains the required vertices")
    return far


def _usable_stages(net, plan, *needed):
    """The plan's balls that hold the ``needed`` vertices, as radii."""
    far = max(_distances(net, plan, needed))
    return [Ball(net, r) for r in plan.radii if far <= r]


def _covers(net, plan):
    """Whether the plan's last ball is the whole of a finite network."""
    return net.is_finite and net._cut(plan.final_radius) == len(net.vertices)


def _zero_on(net, radius, gauge=GAUGE_RAW):
    """The zero function on B_radius."""
    pos = net._ball_positions(radius)
    return VertexFunction.at_positions(net.vertices, pos, np.zeros(len(pos)), gauge)


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
    """A dipole trace on the solver's arrays: per stage, the region's sorted
    positions and the origin-zero solution there; the stage energies (empty
    when not asked for), the probe deltas between successive stages and the
    convergence flag, all Python floats and bools."""

    stages: tuple
    energies: tuple
    deltas: tuple
    converged: bool


def _sweep(net, xs, plan, bc):
    """Stage-major solves of Δu = δ_x − δ_o for each source x of ``xs``
    under the given boundary condition: at each stage one block solve for
    the sources the stage holds, re-gauged to the origin-zero representative
    (u − u(o), then exactly 0 at the origin).  Yields the stage's sorted
    positions, the solutions as columns and the indices in ``xs`` of their
    sources."""
    far, o = _distances(net, plan, xs), net._pos[net.origin]
    for r in plan.radii:
        held = [k for k, d in enumerate(far) if d <= r]
        if not held:
            continue
        rep = solve_poisson(net, Ball(net, r),
                            [{xs[k]: 1.0, net.origin: -1.0} for k in held], bc)
        i = np.searchsorted(rep.pos, o)
        u = rep.values - rep.values[i]
        u[i] = 0.0
        yield rep.pos, u, held


def _dipole_trace(net, x, plan, bc, tol, *, energies=True):
    """The stages of :func:`_sweep` for the one source x, with their energies
    (when asked for), probe deltas and convergence flag."""
    probes = _probe_positions(net, x, plan)
    stages, stage_energies, deltas = [], [], []
    prev = None
    for pos, u, _ in _sweep(net, [x], plan, bc):
        u = u[:, 0]
        stages.append((pos, u))
        if energies:
            stage_energies.append(_energy_of(net, pos, u))
        at = np.minimum(np.searchsorted(pos, probes), len(pos) - 1)
        inside, read = pos[at] == probes, u[at]
        if prev is not None:
            common, before = prev
            deltas.append(float(np.max(np.abs(read[common] - before[common]))))
        prev = inside, read
    converged = bool(deltas) and deltas[-1] <= tol
    return _Trace(tuple(stages), tuple(stage_energies), tuple(deltas), converged)


def _harm_trace(net, free, wired):
    """h = u_free − u_wired at every stage of a free and a wired dipole trace:
    its last stage as ``(pos, values)`` and its stage energies."""
    energies = []
    for (pos, uf), (_, uw) in zip(free.stages, wired.stages):
        h = uf - uw
        energies.append(_energy_of(net, pos, h))
    return (pos, h), tuple(energies)


def _dipole_element(net, x, plan, kind, bc, tol):
    if x == net.origin:
        raise DomainError("the kernel element at the origin is the zero class")
    trace = _dipole_trace(net, x, plan, bc, tol)
    return KernelElement(base=x, kind=kind,
                         approximant=VertexFunction.at_positions(
                             net.vertices, *trace.stages[-1], GAUGE_ORIGIN),
                         stage_energies=trace.energies, converged=trace.converged,
                         meta={"plan": plan.descriptor, "bc": bc,
                               "probe_deltas": trace.deltas})


def energy_kernel(net, x, plan, *, tol=POINTWISE_TOL):
    """The dipole kernel element at x from free-boundary exhaustion solves.

    Free stages realize the reproducing-kernel element: the value u(x) − u(o)
    of any finite-energy u is recovered by the energy pairing against the
    limit.  Convergence means the last two stages agreed pointwise on the
    probe set to ``tol``; a plan too short to settle yields
    ``converged=False``, never a silent answer.
    """
    return _dipole_element(net, x, plan, KIND_DIPOLE, FREE, tol)


def fin_part(net, x, plan, *, tol=POINTWISE_TOL):
    """Projection of the dipole kernel element onto the closure of the
    finitely supported functions, from wired solves of the same equation."""
    return _dipole_element(net, x, plan, KIND_FIN, WIRED, tol)


def harm_part(net, x, plan, *, tol=POINTWISE_TOL):
    """Harmonic component h_x = v_x − f_x, with per-stage energies of the
    difference (their decay or stabilization feeds the dimension probe)."""
    free = _dipole_trace(net, x, plan, FREE, tol, energies=False)
    wired = _dipole_trace(net, x, plan, WIRED, tol, energies=False)
    h, energies = _harm_trace(net, free, wired)
    return KernelElement(base=x, kind=KIND_HARM,
                         approximant=VertexFunction.at_positions(
                             net.vertices, *h, GAUGE_RAW),
                         stage_energies=energies,
                         converged=free.converged and wired.converged,
                         meta={"plan": plan.descriptor})


def default_eps_schedule(max_k=40):
    """ε_k = 2^−k for k = 0..max_k."""
    return tuple(2.0 ** -k for k in range(max_k + 1))


def _vanish_gauge(net, rep, ball):
    """The solution of ``rep``, a solve on ``ball``, less its mean over the
    boundary of the ball (the vertices with a neighbour beyond it), added in
    canonical order."""
    bd = np.flatnonzero(net.arrays.reach[rep.pos] > ball.radius)
    if not bd.size:
        return rep.solution
    shift = float(prefix_sums(rep.values[bd])[-1]) / len(bd)
    return VertexFunction.at_positions(net.vertices, rep.pos, rep.values - shift,
                                       GAUGE_VANISH)


def _classify_energy_trace(energies):
    """Divergence evidence: the hard cap, or steady growth at the end of the
    trace (recurrent energies track the window resistance and would never hit
    a fixed cap at desk-scale radii).  The early entries are excluded because
    the regularization ramp makes any trace rise at first."""
    return bool(energies) and (energies[-1] > DIVERGENCE_CAP or (
        len(energies) >= 5
        and energies[-1] > GROWTH_FACTOR * max(energies[-4], 1e-300)))


def _wired_trace(net, x, plan):
    """One wired solve of Δg = δ_x per stage that contains x: the resistances
    R_r = g_r(x) as Python floats, the last stage and its solve report.  With
    the ghost at 0, E(g, g) = ⟨g, Δg⟩ = g(x): R_r is the unit monopole's full
    energy, edges to the ghost included, and increases to R(x→∞).  The trace
    ends at the first R_r past ``DIVERGENCE_CAP``; a stage covering a whole
    finite network raises IncompatibleSourceError."""
    resistances, i = [], net._require(x)
    for stage in _usable_stages(net, plan, x):
        rep = solve_poisson(net, stage, {x: 1.0}, WIRED)
        resistances.append(float(rep.values[np.searchsorted(rep.pos, i)]))
        if resistances[-1] > DIVERGENCE_CAP:
            break
    return tuple(resistances), stage, rep


def _window_limit(net, resistances):
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
    settled = settled or (len(resistances) == 1 and net.is_finite)
    return settled and not growing, growing


def monopole(net, x, plan, eps_schedule=None, *, cauchy_tol=ENERGY_CAUCHY_TOL):
    """Monopole element at x: wired window limit, then the resolvent limit.

    Stage one reads the wired resistances R_r = g_r(x) along the plan
    (``meta["wired_stage_energies"]``): decaying increments certify the
    window limit, steady growth is recurrent evidence.  Stage two drives
    (ε_k + Δ)u = δ_x on the final window with ε_k from the schedule until
    successive in-window energies agree to ``cauchy_tol``, then verifies the
    limit solves the defining equation pointwise.
    """
    return _monopole(net, x, plan, partial(_wired_trace, net, x, plan),
                     eps_schedule, cauchy_tol)


def _monopole(net, x, plan, trace, eps_schedule=None, cauchy_tol=ENERGY_CAUCHY_TOL):
    """:func:`monopole` on the wired trace that ``trace()`` returns; a plan
    covering a finite network needs none."""
    net._require(x)
    if _covers(net, plan):
        # Full finite network: no ghost, no monopole.  Pure recurrence.
        return KernelElement(base=x, kind=KIND_MONOPOLE,
                             approximant=_zero_on(net, plan.final_radius),
                             stage_energies=(float("inf"),), converged=False,
                             diverged=True,
                             meta={"plan": plan.descriptor,
                                   "reason": "finite network admits no monopole"})
    resistances, last_stage, rep = trace()
    settled, growing = _window_limit(net, resistances)
    meta = {"plan": plan.descriptor, "wired_stage_energies": resistances}
    if not settled:
        return KernelElement(base=x, kind=KIND_MONOPOLE,
                             approximant=_vanish_gauge(net, rep, last_stage),
                             stage_energies=resistances, converged=False,
                             diverged=growing, meta=meta)

    energies, converged = [], False
    for eps in default_eps_schedule() if eps_schedule is None else eps_schedule:
        if eps == 0.0:
            rep = solve_poisson(net, last_stage, {x: 1.0}, WIRED)
        else:
            rep = solve_regularized(net, last_stage, eps, {x: 1.0}, bc=WIRED)
        energies.append(_energy_of(net, rep.pos, rep.values))
        if energies[-1] > DIVERGENCE_CAP:
            break
        if len(energies) >= 2 and abs(energies[-1] - energies[-2]) < cauchy_tol:
            converged = True
            break
    meta["eps_steps"] = len(energies)
    if converged:
        # Bounded energies alone are not enough: the limit must actually
        # solve Δu = δ_x pointwise.
        interior = rep.pos[net.arrays.reach[rep.pos] <= last_stage.radius]
        res = scaled_laplacian_residual(net, rep.solution, {x: 1.0}, interior)
        meta["defining_residual"] = res
        if not res <= 1e-6:  # NaN fails too
            converged = False
            meta["reason"] = "regularized limit does not solve the monopole equation"
    diverged = not converged and ("reason" in meta or _classify_energy_trace(energies))
    return KernelElement(base=x, kind=KIND_MONOPOLE,
                         approximant=_vanish_gauge(net, rep, last_stage),
                         stage_energies=tuple(energies),
                         converged=converged and not diverged, diverged=diverged,
                         meta=meta)


def wired_monopole(net, x, plan):
    """Direct (ε = 0) wired monopole stages; the staged values are the wired
    resistances R_r = g_r(x) from x to the collapsed complement."""
    resistances, stage, rep = _wired_trace(net, x, plan)
    settled, growing = _window_limit(net, resistances)
    return KernelElement(base=x, kind=KIND_MONOPOLE,
                         approximant=_vanish_gauge(net, rep, stage),
                         stage_energies=resistances, converged=settled,
                         diverged=growing, meta={"plan": plan.descriptor, "eps": 0.0})


def green_kernel(net, x, y, plan):
    """Symmetrized Green value g(x, y): the wired monopole at x, in the
    vanish-at-infinity gauge, read at y.  Undefined on recurrent networks."""
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
    source, ends = {x: 1.0, y: -1.0}, [net._require(x), net._require(y)]
    values = []
    for stage in _usable_stages(net, plan, x, y):
        rep = solve_poisson(net, stage, source, variant)
        ux, uy = rep.values[np.searchsorted(rep.pos, ends)]
        values.append(float(ux - uy))
    converged = (len(values) >= 2
                 and abs(values[-1] - values[-2]) <= 1e-9 * max(1.0, values[-1]))
    return ResistanceValue(value=values[-1], variant=variant,
                           converged=converged, stages=tuple(values))


def dirac_expansion_check(net, x, plan):
    """Residual of the expansion δ_x = c(x) v_x − Σ_{y~x} c_xy v_y.

    The identity holds between energy classes, so representatives may differ
    by a constant; the reported residual is max − min of the pointwise
    difference over the interior of the final stage (0 for a perfect match up
    to a constant).
    """
    def kernel_fn(z):
        if z == net.origin:
            return _zero_on(net, plan.final_radius, GAUGE_ORIGIN)
        return energy_kernel(net, z, plan).approximant

    terms = [(net.total_conductance(x), kernel_fn(x))]
    terms.extend((-c, kernel_fn(y)) for y, c in net.incident(x))
    pos = np.flatnonzero(net.arrays.reach <= plan.final_radius)  # int B_r
    expansion = sum(a * read_values(net, fn, pos)[pos] for a, fn in terms)
    diffs = (pos == net._pos[x]) - expansion
    return float(diffs.max() - diffs.min())
