"""Both sides of the discrete Gauss-Green identity along exhaustions.

For a finite stage G of an exhaustion, regrouping the energy sum over edges
inside G gives the exact identity

    E_G(u, v) = Σ_{x in int G} u(x) Δv(x) + Σ_{x in bd G} u(x) ∂v(x),

where ∂v is the normal derivative (the Laplacian sum restricted to neighbors
inside G).  Following the two right-hand sums along the exhaustion separates
the energy into a vertex part and a boundary part; the boundary part tends to
zero for dipole-kernel combinations and for summable cases, converges to a
nonzero limit exactly on transient networks, and can genuinely depend on the
exhaustion for functions outside the monopole domain.  This module measures
all of it rather than assuming any of it.

Stages are balls, so the energies, vertex sums and boundary sums of every
stage of one or two exhaustions come from one pass over the network's arrays
(:attr:`~resnet.network.Network.arrays`): O(n + m) per call on a network of
n vertices and m edges, however many stages there are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, WindowError
from .kernels import harm_part
from .network import VertexFunction
from .operators import (energy, pair_sums, prefix_sums, read_values,
                        scaled_laplacian_residual, window_laplacian)

LIMIT_TOL = 1e-6          # last-3-stage agreement declares a limit
EXHAUSTION_TOL = 1e-3     # two plans differing more than this are dependent
STAGE_IDENTITY_TOL = 1e-9

VERDICT_IDENTITY = "identity-holds"
VERDICT_BOUNDARY = "boundary-nonvanishing"
VERDICT_DEPENDENT = "exhaustion-dependent"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GaussGreenStage:
    radius: int
    size: int
    energy: float
    vertex_sum: float
    boundary_sum: float
    residual: float


@dataclass(frozen=True)
class GaussGreenReport:
    """Stagewise decomposition of E(u, v) plus limit estimates and a verdict.

    ``boundary_zero_shift`` is the gauge shift t such that replacing u by
    u + t makes the boundary term vanish; it exists whenever Σ Δv is nonzero
    (shifting a representative moves mass between the two sums but never
    changes their total).
    """

    stages: tuple
    lhs_energy: float
    lhs_converged: bool
    vertex_limit: float | None
    boundary_limit: float | None
    verdict: str
    descriptor: str
    boundary_zero_shift: float | None = None
    meta: dict = field(default_factory=dict)

    def to_jsonable(self):
        return {
            "descriptor": self.descriptor,
            "verdict": self.verdict,
            "lhs_energy": self.lhs_energy,
            "lhs_converged": self.lhs_converged,
            "vertex_limit": self.vertex_limit,
            "boundary_limit": self.boundary_limit,
            "boundary_zero_shift": self.boundary_zero_shift,
            "stages": [[s.radius, s.size, s.energy, s.vertex_sum,
                        s.boundary_sum, s.residual] for s in self.stages],
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class BoundarySumTrace:
    stages: tuple            # (radius, value) pairs
    limit: float | None
    converged: bool
    alt_stages: tuple = ()
    alt_limit: float | None = None
    exhaustion_dependent: bool | None = None


def _limit_estimate(values, tol=LIMIT_TOL, window=3):
    if len(values) < window:
        return None, False
    tail = values[-window:]
    if max(tail) - min(tail) <= tol:
        return float(prefix_sums(np.array(tail))[-1]) / len(tail), True
    return None, False


def _compare_plans(boundary_at, plan, alt_plan, tol):
    """The boundary limit along ``alt_plan`` and whether the boundary term
    depends on the exhaustion, from both plans' stage sums ``boundary_at``:
    True when the two limits differ by more than EXHAUSTION_TOL or the last
    three sums are disjoint by more than it (unambiguous before either
    settles), False when both settled within it, else None."""
    values = [boundary_at[r] for r in plan.radii]
    alt_values = [boundary_at[r] for r in alt_plan.radii]
    limit, alt_limit = (_limit_estimate(t, tol=tol)[0] for t in (values, alt_values))
    dependent = None
    if limit is not None and alt_limit is not None:
        dependent = abs(limit - alt_limit) > EXHAUSTION_TOL
    ta, tb = values[-3:], alt_values[-3:]
    if min(len(values), len(alt_values)) >= 3 and (
            min(ta) - max(tb) > EXHAUSTION_TOL or min(tb) - max(ta) > EXHAUSTION_TOL):
        dependent = True
    return alt_limit, dependent


def _stage_sums(net, u, v, plans, *, vertex_part=True):
    """Energy, vertex sum and boundary sum of every stage of every plan.

    Stages are the balls B_r of the plans' radii.  Over the final ball of
    the farthest plan, u and v are read once, and Δv and the normal
    derivatives come from one pass over the incident pairs:

    * E_{B_r}(u, v) is a prefix sum of the edge terms, ordered (stably) by
      the larger endpoint distance;
    * Σ_{int B_r} u Δv is a prefix sum of u Δv, ordered (stably) by the
      largest distance over each vertex's closed neighbourhood;
    * Σ_{bd B_r} u ∂v sums over the vertices at distance r with a neighbour
      outside B_r, with ∂v over their neighbours at distance <= r.

    Δv, ∂v and the boundary sums add their terms left to right in the
    order of the stagewise definition (canonical vertex order, neighbours in
    ``incident`` order), and so do the prefix sums wherever canonical order
    is distance order; elsewhere those agree with it to rounding.  The cost
    is O(n + m) for the whole call.

    Returns ``(energy_at, vertex_at, boundary_at, mass)``: the three stage
    sums as dicts keyed by radius, and Σ Δv over the interior of the first
    plan's final stage.  With ``vertex_part=False`` only ``boundary_at`` is
    formed (the rest are None), and u is read only on the stage boundaries
    and v only where ∂v needs it.
    """
    a = net.arrays
    radii = np.unique(np.concatenate([p.radii for p in plans]))
    top = radii[-1]
    row, nbr = a.rows, a.nbr
    # Boundary vertices of some stage, and the pairs their ∂v sums over.
    bd = np.flatnonzero(np.isin(a.dist, radii) & (a.reach > a.dist))
    pairs = net._pairs(bd)
    inward = pairs[(nbr[pairs] >= 0) & (a.dist[nbr[pairs]] <= a.dist[row[pairs]])]
    if vertex_part:
        ball = np.flatnonzero(a.dist <= top)
        uu = read_values(net, u, ball)
        vv = uu if v is u else read_values(net, v, ball)
    else:
        uu = read_values(net, u, bd)
        vv = read_values(net, v, np.union1d(bd, nbr[inward]))

    # Σ_{bd B_r} u ∂v for every radius r, each summed in canonical order.
    bd = bd[np.argsort(a.dist[bd], kind="stable")]
    bd_terms = uu[bd] * pair_sums(net, inward, vv)[bd]
    cuts = np.searchsorted(a.dist[bd], radii, side="left").tolist() + [len(bd)]
    boundary_at = {r: float(prefix_sums(bd_terms[lo:hi])[-1])
                   for r, lo, hi in zip(radii.tolist(), cuts, cuts[1:])}
    if not vertex_part:
        return None, None, boundary_at, None

    def staged(key, terms):  # for every radius r, the terms keyed <= r in stable key order
        order = np.argsort(key, kind="stable")
        cuts = np.searchsorted(key[order], radii, side="right")
        sums = prefix_sums(terms[order[:cuts[-1]]])[cuts]
        return dict(zip(radii.tolist(), sums.tolist()))

    ex, ey = a.edge_x, a.edge_y
    du = uu[ex] - uu[ey]
    dv = du if v is u else vv[ex] - vv[ey]
    energy_at = staged(np.maximum(a.dist[ex], a.dist[ey]), a.edge_c * du * dv)
    lap = pair_sums(net, slice(None), vv)  # exact on the rows of reach <= top
    vertex_at = staged(a.reach, uu * lap)
    mass = float(prefix_sums(lap[a.reach <= plans[0].final_radius])[-1])
    return energy_at, vertex_at, boundary_at, mass


def gauss_green(net, u, v, plan, alt_plan=None, *, limit_tol=LIMIT_TOL):
    """Evaluate energy, vertex sums and boundary sums per exhaustion stage.

    The verdict is ``identity-holds`` when the boundary sums settle at zero,
    ``boundary-nonvanishing`` when they settle elsewhere, and
    ``inconclusive`` when the plan ends before they settle.  Supplying
    ``alt_plan`` additionally compares the two boundary limits and returns
    ``exhaustion-dependent`` when they disagree beyond tolerance.

    Every stage of both plans must lie inside the windows of u and v; a
    WindowError naming the plan is raised before any stage is evaluated.
    """
    plans = (plan,) if alt_plan is None else (plan, alt_plan)
    covered = np.zeros((1 if v is u else 2, len(net.vertices)), bool)
    for row, f in zip(covered, (u, v)):
        row[f._positions_in(net)[0]] = True
    for p in plans:
        if not covered[:, net._order[:net._cut(p.final_radius)]].all():
            raise WindowError(
                f"plan {p.descriptor!r} reaches radius {p.final_radius}, "
                "beyond the windows of u and v")
    energy_at, vertex_at, boundary_at, mass = _stage_sums(net, u, v, plans)
    stages = tuple(GaussGreenStage(radius=r, size=net._cut(r), energy=energy_at[r],
                                   vertex_sum=vertex_at[r], boundary_sum=boundary_at[r],
                                   residual=energy_at[r] - vertex_at[r] - boundary_at[r])
                   for r in plan.radii)
    boundary_limit, b_conv = _limit_estimate([s.boundary_sum for s in stages], limit_tol)
    vertex_limit, _ = _limit_estimate([s.vertex_sum for s in stages], limit_tol)
    energies = [s.energy for s in stages]
    lhs, lhs_conv = _limit_estimate(energies, tol=limit_tol)
    lhs = energies[-1] if lhs is None else lhs

    meta = {}
    verdict = VERDICT_INCONCLUSIVE
    if b_conv:
        verdict = VERDICT_IDENTITY if abs(boundary_limit) <= limit_tol \
            else VERDICT_BOUNDARY
    if alt_plan is not None:
        alt_limit, dependent = _compare_plans(boundary_at, plan, alt_plan, limit_tol)
        meta["alt_descriptor"] = alt_plan.descriptor
        meta["alt_boundary_limit"] = alt_limit
        if dependent:
            verdict = VERDICT_DEPENDENT

    # mass, the rate at which a gauge shift of u moves the boundary term, is
    # Σ Δv over the final window (equals −Σ ∂v by the edge-pairing identity).
    shift = None
    if boundary_limit is not None and abs(mass) > 1e-8:
        shift = boundary_limit / mass
    return GaussGreenReport(stages=stages, lhs_energy=lhs, lhs_converged=lhs_conv,
                            vertex_limit=vertex_limit, boundary_limit=boundary_limit,
                            verdict=verdict, descriptor=plan.descriptor,
                            boundary_zero_shift=shift, meta=meta)


def boundary_sum(net, u, v, plan, alt_plan=None, *, limit_tol=LIMIT_TOL):
    """Stagewise boundary sums Σ_{bd G_k} u ∂v with a limit estimate.

    With ``alt_plan`` the same sums run along a second exhaustion and the
    trace records whether the two limits disagree beyond tolerance (the
    identity's boundary term is only well defined when they do not).
    """
    plans = (plan,) if alt_plan is None else (plan, alt_plan)
    _, _, boundary_at, _ = _stage_sums(net, u, v, plans, vertex_part=False)
    main = tuple((r, boundary_at[r]) for r in plan.radii)
    limit, conv = _limit_estimate([b for _, b in main], tol=limit_tol)
    if alt_plan is None:
        return BoundarySumTrace(stages=main, limit=limit, converged=conv)
    alt_limit, dependent = _compare_plans(boundary_at, plan, alt_plan, limit_tol)
    return BoundarySumTrace(stages=main, limit=limit, converged=conv,
                            alt_stages=tuple((r, boundary_at[r]) for r in alt_plan.radii),
                            alt_limit=alt_limit, exhaustion_dependent=dependent)


def harmonic_boundary_representation(net, u, x, plan, *, harmonic_tol=1e-6):
    """Reconstruct u(x) for harmonic u as Σ_bd u ∂h_x + u(o).

    h_x is the harmonic part of the dipole kernel element at x.  Raises
    DomainError when u is not harmonic on the window interior.
    """
    res = scaled_laplacian_residual(net, u, {}, net.interior_of(u.window))
    if not res <= harmonic_tol:  # a NaN residual is no evidence of harmonicity
        raise DomainError(f"function is not harmonic (scaled residual {res:.2e})")
    if x == net.origin:
        return u.value(net.origin)
    hx = harm_part(net, x, plan)
    trace = boundary_sum(net, u, hx.approximant, plan)
    value = trace.limit if trace.limit is not None else trace.stages[-1][1]
    return value + u.value(net.origin)


def balanced_check(net, u, window=None):
    """Σ_x Δu(x) over the interior of u's window.

    Near zero for combinations of dipole-kernel elements (their sources and
    sinks cancel); equal to the total injected charge for monopoles.
    """
    if window is None:
        window = net.interior_of(u.window)
    return float(prefix_sums(window_laplacian(net, u, window)[1])[-1])


def two_sum_identity_check(net, u, window=None):
    """(lhs, rhs) of ⟨u, Δu⟩_E = Σ_x |Δu(x)|² + |Σ_x Δu(x)|².

    Valid for u in the span of the dipole kernel; both sides are evaluated
    over the interior of u's window (the second rhs term is then the squared
    total of a balanced source, hence ≈ 0 for true kernel combinations).
    """
    if window is None:
        window = net.interior_of(u.window)
    pos, lap = window_laplacian(net, u, window)
    lap_fn = VertexFunction.at_positions(net.vertices, pos, lap)
    lhs = energy(net, u, lap_fn, window=window).value
    total = float(prefix_sums(lap)[-1])
    rhs = float(prefix_sums(lap * lap)[-1]) + total * total
    return lhs, rhs


def ell2_converse_check(net, u, v, window=None, *, tail_tol=1e-6):
    """Residual |E(u, v) − Σ u Δv| in the summable-square regime.

    Requires u, v, Δu and Δv to be square-summable with negligible tails on
    the window: the outer half of the window must carry less than
    ``tail_tol`` of squared mass, else PreconditionError.  Certifies the
    no-boundary-term case.
    """
    if window is None:
        window = net.interior_of(u.window & v.window)
    window = frozenset(window)
    pos, du = window_laplacian(net, u, window)
    dv = window_laplacian(net, v, window)[1]
    uu, vv = read_values(net, u, pos)[pos], read_values(net, v, pos)[pos]
    dist = net.arrays.dist[pos]
    outer = dist > dist.max() // 2
    tail = float(prefix_sums((uu * uu + vv * vv + du * du + dv * dv)[outer])[-1])
    if tail > tail_tol:
        raise PreconditionError(
            f"outer-window squared mass {tail:.3e} exceeds {tail_tol:.1e}; "
            "functions are not summable-square on this window")
    lhs = energy(net, u, v, window=window).value
    rhs = float(prefix_sums(uu * dv)[-1])
    return abs(lhs - rhs)
