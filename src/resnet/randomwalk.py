"""Monte Carlo engine for the network random walk.

The walk moves from x to a neighbor y with probability c_xy / c(x).  All
runs are deterministic: the uniform used by walk w at global step t comes
from a counter-based Philox stream keyed by (seed, t) and indexed by w, so
results are bit-identical regardless of batching and trivially
parallelizable.

Walks that step beyond the materialized window are terminated and counted as
exits; estimators report that fraction so truncation never passes silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class WalkConfig:
    """Walk count, horizon and seed; identical configs give identical output."""

    n_walks: int = 100_000
    max_steps: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n_walks < 1:
            raise DomainError("need at least one walk")
        if self.max_steps < 1:
            raise DomainError("need a positive step cap")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and audit trail."""

    value: float
    stderr: float
    n_walks: int
    seed: int
    flags: tuple = ()
    meta: dict = field(default_factory=dict)


def _walk_space(net):
    """Padded neighbor/cumulative-probability arrays for vectorized stepping,
    built from ``net.arrays`` on each call.

    Index -1 marks padding and index n a neighbour beyond the window, so
    stepping onto it ends the walk.  Each row's probabilities c_xy / c(x)
    accumulate left to right; the last one is raised to 1 + 1e-12.
    """
    a, n = net.arrays, len(net.vertices)
    deg = np.diff(a.indptr)
    slot = np.arange(len(a.rows)) - a.indptr[a.rows]
    nbr = np.full((n, deg.max()), -1, dtype=np.int64)
    nbr[a.rows, slot] = np.where(a.nbr >= 0, a.nbr, n)
    prob = np.zeros(nbr.shape)
    prob[a.rows, slot] = a.cond / a.ctot[a.rows]
    cum = np.ones(nbr.shape)
    cum[a.rows, slot] = np.cumsum(prob, axis=1)[a.rows, slot]
    cum[np.arange(n), deg - 1] = 1.0 + 1e-12
    return nbr, cum


def _uniform_row(seed, t, n):
    key = ((int(t) & _MASK64) << 64) | (int(seed) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key)).random(n)


def transition_probabilities(net, x):
    """(neighbor, probability) pairs at x; probabilities sum to 1."""
    c_tot = net.total_conductance(x)
    return tuple((y, c / c_tot) for y, c in net.incident(x))


def step(net, x, rng):
    """One step of the walk from x using the supplied numpy Generator."""
    u = float(rng.random())
    acc = 0.0
    pairs = transition_probabilities(net, x)
    for y, p in pairs:
        acc += p
        if u < acc:
            return y
    return pairs[-1][0]


def _simulate(net, start, cfg, *, absorb=(), count_visits_to=None,
              track_max_distance=False, return_home=None, mid_step=None):
    """Vectorized batch of walks from ``start``.

    Returns a dict with per-walk outcome arrays: ``absorbed_at`` (index into
    ``absorb`` order, -1 if none), ``exited`` (left the window), ``capped``,
    plus optional visit counts, max pre-return distance and mid-horizon visit
    counts.  Absorption applies from step 1, never at time 0.
    """
    if not net.has_vertex(start):
        raise DomainError(f"start vertex {start!r} is not materialized")
    nbr, cum = _walk_space(net)
    index, dist, n_verts = net._pos, net.arrays.dist, len(net.vertices)
    absorb_code = np.full(n_verts, -1, dtype=np.int64)
    for a_i, aset in enumerate(absorb):
        for v in aset:
            absorb_code[index[v]] = a_i

    n = cfg.n_walks
    pos = np.full(n, index[start], dtype=np.int64)
    active = np.ones(n, dtype=bool)
    absorbed_at = np.full(n, -1, dtype=np.int64)
    exited = np.zeros(n, dtype=bool)
    visits = target = None
    if count_visits_to is not None:
        target = index[count_visits_to]
        visits = (pos == target).astype(np.int64)
    mid_visits = visits.copy() if (visits is not None and mid_step is not None) else None
    maxdist = home = None
    if track_max_distance:
        maxdist = np.zeros(n, dtype=np.int64)
        home = index[return_home]

    for t in range(cfg.max_steps):
        if not active.any():
            break
        u_row = _uniform_row(cfg.seed, t, n)
        idx = np.nonzero(active)[0]
        cur = pos[idx]
        choice = (u_row[idx][:, None] >= cum[cur]).sum(axis=1)
        nxt = nbr[cur, choice]
        off_window = nxt >= n_verts
        if off_window.any():
            gone = idx[off_window]
            exited[gone] = True
            active[gone] = False
            keep = ~off_window
            idx, nxt = idx[keep], nxt[keep]
        if not len(idx):
            continue
        pos[idx] = nxt
        if visits is not None:
            at_target = (nxt == target).astype(np.int64)
            visits[idx] += at_target
            if mid_visits is not None and t < mid_step:
                mid_visits[idx] += at_target
        if maxdist is not None:
            maxdist[idx] = np.maximum(maxdist[idx], dist[nxt])
            active[idx[nxt == home]] = False
        hit = absorb_code[nxt]
        landed = hit >= 0
        if landed.any():
            absorbed_at[idx[landed]] = hit[landed]
            active[idx[landed]] = False
    return {
        "absorbed_at": absorbed_at,
        "exited": exited,
        "capped": active.copy(),
        "visits": visits,
        "mid_visits": mid_visits,
        "max_distance": maxdist,
    }


def hitting_probability(net, target, absorber, start, cfg):
    """Estimate P[the walk reaches ``target`` before ``absorber`` | start].

    Walks that hit the step cap or leave the window are excluded from the
    estimate; a ``biased`` flag is raised when they exceed 1% of the batch.
    """
    if target == absorber:
        raise DomainError("target and absorber must differ")
    if start == target:
        return McEstimate(value=1.0, stderr=0.0, n_walks=cfg.n_walks,
                          seed=cfg.seed)
    if start == absorber:
        return McEstimate(value=0.0, stderr=0.0, n_walks=cfg.n_walks,
                          seed=cfg.seed)
    out = _simulate(net, start, cfg, absorb=({target}, {absorber}))
    decided = out["absorbed_at"] >= 0
    n_dec = int(decided.sum())
    lost = cfg.n_walks - n_dec
    flags = []
    if lost > 0.01 * cfg.n_walks:
        flags.append("biased")
    if n_dec == 0:
        return McEstimate(value=float("nan"), stderr=float("inf"),
                          n_walks=cfg.n_walks, seed=cfg.seed,
                          flags=("biased", "no-decisions"))
    p = float((out["absorbed_at"][decided] == 0).mean())
    stderr = float(np.sqrt(max(p * (1.0 - p), 1e-300) / n_dec))
    return McEstimate(value=p, stderr=stderr, n_walks=cfg.n_walks, seed=cfg.seed,
                      flags=tuple(flags), meta={"decided": n_dec, "lost": lost})


def green_estimate(net, x, y, cfg):
    """Expected visits to y (counting time 0) for walks from x, by horizon.

    Compares visit counts at the half horizon and the full horizon; partial
    sums still growing by more than 15% earn a ``diverging`` flag, the Monte
    Carlo signature of recurrence.
    """
    out = _simulate(net, x, cfg, count_visits_to=y, mid_step=cfg.max_steps // 2)
    visits = out["visits"].astype(np.float64)
    value = float(visits.mean())
    stderr = float(visits.std(ddof=1) / np.sqrt(cfg.n_walks)) if cfg.n_walks > 1 else 0.0
    mid = float(out["mid_visits"].mean())
    flags = []
    if mid > 0 and value > 1.15 * mid:
        flags.append("diverging")
    exited = int(out["exited"].sum())
    return McEstimate(value=value, stderr=stderr, n_walks=cfg.n_walks,
                      seed=cfg.seed, flags=tuple(flags),
                      meta={"half_horizon_mean": mid, "exited": exited,
                            "capped": int(out["capped"].sum())})


@dataclass(frozen=True)
class EscapeTrace:
    """Escape probabilities per radius plus truncation accounting."""

    points: tuple            # (radius, probability, stderr)
    capped: int
    exited: int
    n_walks: int
    seed: int


def escape_probability(net, origin, radii, cfg):
    """P[the walk leaves the ball of radius r before returning to origin].

    One batch serves every radius: each walk records the largest distance it
    reaches before first returning home.  Radii must stay strictly inside the
    materialized window so the edge kill cannot be mistaken for a return.
    """
    radii = tuple(int(r) for r in radii)
    if not radii:
        raise DomainError("need at least one radius")
    if not net.is_finite and max(radii) >= net.window_radius:
        raise DomainError(
            f"escape radii must stay below the window radius {net.window_radius}")
    out = _simulate(net, origin, cfg, track_max_distance=True,
                    return_home=origin)
    maxdist = out["max_distance"]
    points = []
    for r in radii:
        p = float((maxdist > r).mean())
        stderr = float(np.sqrt(max(p * (1.0 - p), 1e-300) / cfg.n_walks))
        points.append((r, p, stderr))
    return EscapeTrace(points=tuple(points), capped=int(out["capped"].sum()),
                       exited=int(out["exited"].sum()),
                       n_walks=cfg.n_walks, seed=cfg.seed)
