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
before any solve); the private helpers take a vertex x as its position.
Every stage loop is one sweep of the plan (:func:`_sweep`), free and wired
together where both are read, for all of its sources: the stages before the
last come off one natural-order window factor per boundary condition, their
energies from the Gauss-Green sphere term, unless its envelope is over
budget; the last stage, which gives the approximants, is a block solve, one
for both conditions when its ball covers a finite network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GreenUndefinedError, IncompatibleSourceError
from .network import GAUGE_ORIGIN, GAUGE_RAW, GAUGE_VANISH, Ball, VertexFunction
from .operators import (edge_energy, inner_edges, prefix_sums,
                        scaled_laplacian_residual)
from .solver import FREE, WIRED, _fits, _Leading, solve_poisson

KIND_DIPOLE = "dipole"
KIND_FIN = "fin"
KIND_HARM = "harm"
KIND_MONOPOLE = "monopole"

POINTWISE_TOL = 1e-7
ENERGY_CAUCHY_TOL = 1e-8
DIVERGENCE_CAP = 1e12

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


def _origin_zero(net, pos, u):
    """u − u(o), exactly 0 at the origin: the origin-zero representative of
    values at the sorted positions ``pos``, or of each column of a block."""
    i = np.searchsorted(pos, net._order[0])
    u = u - u[i]
    u[i] = 0.0
    return u


def _dipoles(net, xs):
    """The sources δ_x − δ_o, a column per x of ``xs``, as ``(at, values)``."""
    return np.r_[net._order[0], xs], np.vstack((np.full(len(xs), -1.0), np.eye(len(xs))))


class _Stage(NamedTuple):
    """A stage of :func:`_sweep`: the columns ``held``, per condition their
    pairings bᵀu and reads (NaN off the ball), energies, and solve reports."""

    radius: int
    held: list
    pairings: list
    reads: list
    energies: list
    reports: list


def _sweep(net, source, plan, bcs, reads=(), energies=False):
    """The plan's stages of Δu = Σ_k values[k] δ_at[k], ``source = (at,
    values)`` with ``values`` a block, a column per source held from the
    first ball that holds its support, under each condition of ``bcs``; with
    ``energies``, the energy over the ball of u, or for both conditions of
    v − f̃ = u_free − u_wired.

    The stages before the last whose balls have edges leaving them are read
    off one window factor per condition (:class:`~resnet.solver._Leading`)
    when :func:`~resnet.solver._fits` admits it, their energies from the
    Gauss-Green sphere term, κ_s the conductance from s ∈ S_r out of B_r:
    E(v) = bᵀv, E(f̃) = bᵀf̃ − Σ κ_s f̃(s)² and E(v − f̃) = Σ κ_s (v − f̃)(s)
    f̃(s).  Any other stage is one block solve per condition (one for both
    on a ball that covers a finite network), its energies edge sums of the
    origin-zero solutions."""
    at, values = np.asarray(source[0], np.int64), np.asarray(source[1], float)
    first = np.where(values != 0.0, _distances(net, plan, at)[:, None], -1).max(axis=0)
    radii = [r for r in plan.radii if r >= first.min()]
    factored = [r for r in radii[:-1] if r and not net._covers(r)]
    staged = dict(_factored(net, at, values, first, factored, bcs, reads))
    for r in radii:
        held = np.flatnonzero(first <= r)
        yield staged.pop(r, None) or _solved(net, at, values[:, held], r, held, bcs,
                                             reads, energies)


def _solved(net, at, cols, r, held, bcs, reads, energies):
    """A stage of :func:`_sweep` from a block solve per condition, or one for
    all when the ball covers a finite network: no edge leaves it, so its
    wired system is the free one (see :func:`~resnet.solver._system`)."""
    rows = (cols != 0.0).any(axis=1)
    at, cols = at[rows], cols[rows]
    if net._covers(r):
        reports = [solve_poisson(net, Ball(net, r), (at, cols), bcs[0])] * len(bcs)
    else:
        reports = [solve_poisson(net, Ball(net, r), (at, cols), bc) for bc in bcs]
    pos, us = reports[0].pos, [rep.values for rep in reports]
    i = np.minimum(np.searchsorted(pos, reads), len(pos) - 1)
    zs = [_origin_zero(net, pos, u) for u in us]
    e = _energy_of(net, pos, zs[0] - zs[-1] if len(zs) > 1 else zs[0]) if energies else None
    return _Stage(r, held.tolist(),
                  [np.add.reduce(cols * u[np.searchsorted(pos, at)], axis=0) for u in us],
                  [np.where((pos[i] == reads)[:, None], u[i], np.nan) for u in us], e, reports)


def _factored(net, at, values, first, radii, bcs, reads):
    """(radius, stage) of :func:`_sweep` for ``radii`` off one window factor
    per condition, if the guard admits it, but stages that a free sphere
    block would cost digits on."""
    cuts = [net._cut(r) for r in radii]
    if not radii or not _fits(net, cuts[-1], sum(cuts)):
        return
    reads = np.asarray(reads, np.int64)
    per_bc = [_Leading(net, cuts[-1], bc).stages(radii, at, values, reads) for bc in bcs]
    for r, stage in zip(radii, zip(*per_bc)):
        if None in stage:
            continue
        held = np.flatnonzero(first <= r)
        (p, _, u, k), f = stage[0], stage[-1][2]
        e = (k * (u - f) * f).sum(axis=0) if len(bcs) > 1 else (
            p - (k * f * f).sum(axis=0) if bcs[0] == WIRED else p)
        e = np.maximum(e[held], 0.0)  # an energy, whose sphere form may round below 0
        yield r, _Stage(r, held.tolist(), [s[0][held] for s in stage],
                        [s[1][:, held] for s in stage], e.tolist(), None)


def _dipole_element(net, x, plan, tol, kind, bcs):
    """The element of Δu = δ_x − δ_o from :func:`_sweep` under ``bcs``: the
    solution, or the free less the wired one, and its stage energies; it
    converges when each condition's last probe delta is within ``tol``, or
    its last ball covers a finite network."""
    o = net._order[0]
    if x == o:
        raise DomainError("the kernel element at the origin is the zero class")
    probes = _probe_positions(net, x, plan)
    k = np.searchsorted(probes, o)
    energies, deltas, prev = [], [[] for _ in bcs], None
    for stage in _sweep(net, _dipoles(net, [x]), plan, bcs, probes, energies=True):
        energies.append(stage.energies[0])
        reads = [read[:, 0] - read[k, 0] for read in stage.reads]
        if prev is not None:
            common = ~np.isnan(prev[0])
            for d, read, old in zip(deltas, reads, prev):
                d.append(float(np.max(np.abs(read[common] - old[common]))))
        prev = reads
    pos = stage.reports[0].pos
    us = [_origin_zero(net, pos, rep.values[:, 0]) for rep in stage.reports]
    meta = {"plan": plan.descriptor}
    if len(bcs) == 1:
        meta.update(bc=bcs[0], probe_deltas=tuple(deltas[0]))
    return KernelElement(
        base=net.vertices[x], kind=kind, stage_energies=tuple(energies), meta=meta,
        approximant=VertexFunction(net.vertices, pos, us[0] - us[1] if len(us) > 1 else us[0],
                                   GAUGE_RAW if len(us) > 1 else GAUGE_ORIGIN),
        converged=all((bool(d) and d[-1] <= tol) or net._covers(plan.final_radius)
                      for d in deltas))


def energy_kernel(net, x, plan, *, tol=POINTWISE_TOL):
    """The dipole kernel element at x from free-boundary exhaustion solves.

    Free stages realize the reproducing-kernel element: the value u(x) − u(o)
    of any finite-energy u is recovered by the energy pairing against the
    limit.  Convergence means the last two stages agreed pointwise on the
    probe set to ``tol``; a plan too short to settle yields
    ``converged=False``, never a silent answer.
    """
    return _dipole_element(net, net._require(x), plan, tol, KIND_DIPOLE, [FREE])


def fin_part(net, x, plan, *, tol=POINTWISE_TOL):
    """Projection of the dipole kernel element onto the closure of the
    finitely supported functions, from wired solves of the same equation."""
    return _dipole_element(net, net._require(x), plan, tol, KIND_FIN, [WIRED])


def harm_part(net, x, plan, *, tol=POINTWISE_TOL):
    """Harmonic component h_x = v_x − f_x, with per-stage energies of the
    difference (their decay or stabilization feeds the dimension probe),
    from one sweep that solves free and wired at each stage."""
    return _dipole_element(net, net._require(x), plan, tol, KIND_HARM, [FREE, WIRED])


def _vanish_gauge(net, pos, g, radius):
    """The wired solution ``g`` at the sorted positions ``pos`` of B_radius,
    less its mean over the ball's boundary (the vertices with a neighbour
    beyond it), added in canonical order."""
    bd = np.flatnonzero(net.arrays.reach[pos] > radius)
    shift = float(prefix_sums(g[bd])[-1]) / len(bd) if bd.size else 0.0
    return VertexFunction(net.vertices, pos, g - shift if bd.size else g, GAUGE_VANISH)


def _wired_trace(net, x, plan):
    """The radii of the stages that contain x and the wired resistances R_r =
    g_r(x) of Δg = δ_x there, as Python tuples, then the last stage's radius,
    its sorted positions and g there, from its own solve; None, with no solve,
    when the plan's last ball covers a finite network.  With the ghost at 0,
    E(g, g) = ⟨g, Δg⟩ = g(x): R_r is the full energy, and increases to
    R(x→∞).  The trace ends at the first R_r past ``DIVERGENCE_CAP``."""
    if net._covers(plan.final_radius):
        return None
    radii, resistances = [], []
    for stage in _sweep(net, ([x], [[1.0]]), plan, [WIRED]):
        radii.append(stage.radius)
        resistances.append(float(stage.pairings[0][0]))
        if resistances[-1] > DIVERGENCE_CAP:
            break
    rep = (stage.reports or [solve_poisson(net, Ball(net, stage.radius), ([x], [[1.0]]),
                                           WIRED)])[0]
    return tuple(radii), tuple(resistances), stage.radius, rep.pos, rep.values[:, 0]


def _tail_fit(a, b, y):
    """(λ, RMS residual) of the best fit of ``y`` by log ∫_a^b e^{−λt} dt over
    the intervals [a, b] plus a free constant: λ on a grid over [−5, 5],
    refined three times around its best point."""
    h, grid, step = b - a, np.arange(-100, 101) * 0.05, 0.05
    for _ in range(4):
        lam = grid[:, None]
        m = np.where(lam != 0.0, np.abs(lam), 1.0)  # e^{−λt} factored out at its larger end
        e = y - np.where(lam != 0.0, np.log(-np.expm1(-m * h)) - np.log(m)
                         - lam * np.where(lam > 0.0, a, b), np.log(h))
        rms = np.sqrt(((e - e.mean(axis=1, keepdims=True)) ** 2).mean(axis=1))
        best, step = grid[np.argmin(rms)], step / 10
        grid = best + step * np.arange(-10, 11)
    return best, rms.min()


def _trace_limit(radii, resistances):
    """The settled and growing flags of a wired trace at ``radii``, the one
    limit rule of the monopole and grounded criteria: past ``DIVERGENCE_CAP``
    it grows, and a last increment within ``ENERGY_CAUCHY_TOL`` has settled.
    Else the logs of the last max(4, ⌈n/2⌉) increments, all positive, are
    fitted as ∫e^{−λr}dr and ∫r^{−s−1}dr over their [r_k, r_{k+1}]: with no
    fit within 0.03 neither flag is set; a tenfold better exponential fit
    settles at λ > 0 and grows otherwise, and the power fit settles at s > 0.5
    and grows at s < −0.5, so log growth (s = 0, as on Z²) never settles."""
    last = resistances[-1]
    if last > DIVERGENCE_CAP:
        return False, True
    d = np.diff(resistances)
    if len(d) and abs(d[-1]) <= ENERGY_CAUCHY_TOL * max(1.0, last):
        return True, False
    m = max(4, -(-len(d) // 2))
    if len(d) < m or (d[-m:] <= 0.0).any():
        return False, False
    y, r = np.log(d[-m:]), np.asarray(radii[-m - 1:], float)
    (lam, e_exp), (s, e_pow) = (_tail_fit(t[:-1], t[1:], y) for t in (r, np.log(r)))
    if min(e_exp, e_pow) > 0.03:
        return False, False
    if 10 * e_exp < e_pow:
        return bool(lam > 0.0), bool(lam <= 0.0)
    return bool(s > 0.5), bool(s < -0.5)


def monopole(net, x, plan):
    """Monopole element at x: the limit of the wired window solves.

    The wired resistances R_r = g_r(x) along the plan
    (``meta["wired_stage_energies"]``) decide the limit by the grounded
    criterion's rule, :func:`_trace_limit`: a geometric or fast power tail has
    settled, linear or power growth is recurrent evidence, and log growth
    decides nothing.  A settled element is the last ball's wired solve of
    Δu = δ_x, checked pointwise against that equation; its stage energy is
    the in-window energy E(u, u) over the induced subgraph on the ball, which
    leaves out the edges to the ghost that R_r counts.
    """
    i = net._require(x)
    return _monopole(net, i, plan, _wired_trace(net, i, plan))


def _monopole(net, x, plan, trace):
    """:func:`monopole` on the value of :func:`_wired_trace` at x, raising
    nothing; None, for a plan covering a finite network, gives the zero element."""
    base = net.vertices[x]
    if trace is None:
        # Full finite network: no ghost, no monopole.  Pure recurrence.
        return KernelElement(base=base, kind=KIND_MONOPOLE,
                             approximant=_zero_on(net, plan.final_radius),
                             stage_energies=(float("inf"),), converged=False,
                             diverged=True,
                             meta={"plan": plan.descriptor,
                                   "reason": "finite network admits no monopole"})
    radii, resistances, radius, pos, g = trace
    settled, growing = _trace_limit(radii, resistances)
    meta = {"plan": plan.descriptor, "wired_stage_energies": resistances}
    if not settled:
        return KernelElement(base=base, kind=KIND_MONOPOLE,
                             approximant=_vanish_gauge(net, pos, g, radius),
                             stage_energies=resistances, converged=False,
                             diverged=growing, meta=meta)
    # Bounded energies alone are not enough: the limit must actually solve
    # Δu = δ_x pointwise.
    interior = pos[net.arrays.reach[pos] <= radius]
    res = scaled_laplacian_residual(net, VertexFunction(net.vertices, pos, g, GAUGE_VANISH),
                                    ([x], [1.0]), interior)
    meta["defining_residual"] = res
    converged = res <= 1e-6  # NaN fails too
    if not converged:
        meta["reason"] = "wired limit does not solve the monopole equation"
    return KernelElement(base=base, kind=KIND_MONOPOLE,
                         approximant=_vanish_gauge(net, pos, g, radius),
                         stage_energies=(_energy_of(net, pos, g),),
                         converged=converged, diverged=not converged, meta=meta)


def wired_monopole(net, x, plan):
    """The wired monopole stages: the staged values are the wired
    resistances R_r = g_r(x) from x to the collapsed complement, the full
    energies of the stage solves, edges to the ghost included, read by
    :func:`_trace_limit`; a plan covering a finite network raises
    IncompatibleSourceError, solving nothing."""
    trace = _wired_trace(net, net._require(x), plan)
    if trace is None:
        raise IncompatibleSourceError("a finite network covered by the plan has no monopole")
    radii, resistances, radius, pos, g = trace
    settled, growing = _trace_limit(radii, resistances)
    return KernelElement(base=x, kind=KIND_MONOPOLE,
                         approximant=_vanish_gauge(net, pos, g, radius),
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
    values = [float(stage.pairings[0][0]) for stage in
              _sweep(net, (ends, [[1.0], [-1.0]]), plan, [variant])]
    converged = net._covers(plan.final_radius) or (  # a covering last ball is exact
        len(values) >= 2 and abs(values[-1] - values[-2]) <= 1e-9 * max(1.0, values[-1]))
    return ResistanceValue(value=values[-1], variant=variant,
                           converged=converged, stages=tuple(values))


def dirac_expansion_check(net, x, plan):
    """Residual of the expansion δ_x = c(x) v_x − Σ_{y~x} c_xy v_y.

    The identity holds between energy classes, so representatives may differ
    by a constant; the reported residual is max − min of the pointwise
    difference over the interior of the final stage (0 for a perfect match up
    to a constant).  One free block solve on the final ball gives x and its
    neighbours together; v_o is 0, so the origin is no source.
    """
    i, a = net._require(x), net.arrays
    pairs = net._inside(net._pairs(np.array([i])))
    ps, cs = np.r_[i, a.nbr[pairs]], np.r_[a.ctot[i], -a.cond[pairs]]
    kept = ps != net._order[0]
    _distances(net, plan, ps)  # the final ball must hold every source
    rep = solve_poisson(net, Ball(net, plan.final_radius), _dipoles(net, ps[kept]), FREE)
    interior = np.flatnonzero(a.reach <= plan.final_radius)
    v = rep.values[np.searchsorted(rep.pos, interior)]
    expansion = prefix_sums(cs[kept][:, None] * v.T)[-1]  # term by term, in order
    diffs = (interior == i) - expansion
    return float(diffs.max() - diffs.min())
