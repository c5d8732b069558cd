"""Monte Carlo engine for the network random walk.

The walk moves from x to a neighbor y with probability c_xy / c(x).  All
runs are deterministic: the uniform used by walk w at global step t is the
w-th double of the counter-based Philox stream keyed by (seed, t), the
stream of ``Generator(Philox(key=(t << 64) | seed)).random``, so results are
bit-identical regardless of batching and trivially parallelizable.  A batch
uses one Philox bit generator, and only active walks draw: they are split
into spans where consecutive walks are more than ``_SPAN_GAP`` indices
apart, and at every step the state is reset to each span's first block and
draws to its last walk, which is the same stream.  A walk holds the offset
of its row in flat neighbour and threshold tables and compares its raw
64-bit draw with integer thresholds of its cumulative probabilities, which
picks the same neighbour as comparing the double.

One engine serves every estimator.  A walk ends on a stop set of positions
or beyond the materialized window, and the engine reports where each walk
ended (exits are counted, so truncation never passes silently).  A fold of
per-position weights with one ufunc reduces each path to one integer: a
visit count with ``np.add``, a maximum distance with ``np.maximum``.  The
estimators read their vertex ids once, as positions (an id outside the
window is a DomainError naming its role); the engine sees only positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericalError, ResnetError
from .network import _ints

_MASK64 = (1 << 64) - 1
# Active walks more than this many indices apart draw in separate spans.  A
# span costs a state reset and a call, about as much as a couple of hundred
# draws, so narrower gaps of ended walks are drawn through.
_SPAN_GAP = 128


@dataclass(frozen=True)
class WalkConfig:
    """Walk count, horizon and seed; identical configs give identical output."""

    n_walks: int = 100_000
    max_steps: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_walks", "max_steps", "seed"):
            _ints([getattr(self, name)], DomainError, f"{name} must be an int")
        if self.n_walks < 1:
            raise DomainError("need at least one walk")
        if self.max_steps < 1:
            raise DomainError("need a positive step cap")
        if not 0 <= self.seed <= _MASK64:
            raise DomainError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error and audit trail."""

    value: float
    stderr: float
    n_walks: int
    seed: int
    flags: tuple = ()
    meta: dict = field(default_factory=dict)


def _thresholds(cum):
    """uint64 thresholds with ``raw > thr`` exactly when the double
    ``(raw >> 11) * 2**-53`` is ``>= cum``, for every raw 64-bit value.

    With k = ⌈cum·2⁵³⌉ (the scaling is exact) that double is >= cum exactly
    when ``raw >> 11 >= k``, that is when ``raw > (k << 11) - 1``.  Every cum
    is positive, so k >= 1; a transition probability that underflows to 0
    raises NumericalError rather than wrap around.  From k = 2⁵³ on (cum
    above 1 - 2⁻⁵³, the last slot's 1 + 1e-12 and the 2.0 padding) no double
    reaches cum, and the threshold 2⁶⁴ − 1 is never passed either.
    """
    k = np.ceil(cum * 2.0 ** 53)
    if not (k >= 1.0).all():
        raise NumericalError("a transition probability c_xy / c(x) underflows to 0")
    thr = np.full(cum.shape, _MASK64, dtype=np.uint64)
    below = k < 2.0 ** 53
    thr[below] = (k[below].astype(np.uint64) << np.uint64(11)) - np.uint64(1)
    return thr


def _walk_space(net):
    """Flat neighbour and threshold rows for vectorized stepping, built from
    ``net.arrays`` on each call; returns ``(nbr, thr, shift)``.

    Row i spans ``i << shift:(i + 1) << shift``: its width ``1 << shift`` is
    the largest degree rounded up to a power of two, and ``i << shift`` is the
    row's offset.  ``nbr`` holds the offsets of the neighbours' rows, so a
    walk steps from offset to offset; position n marks a neighbour beyond the
    window, so stepping onto its offset ends the walk.  Each row's
    probabilities c_xy / c(x) accumulate left to right to ``cum``; the last
    one is raised to 1 + 1e-12 and the padding is 2.0, so ``cum <= u`` holds
    on a prefix of every row for any u in [0, 1).  ``thr`` holds
    :func:`_thresholds` of ``cum``, so a raw draw passes a threshold exactly
    when its uniform u reaches that ``cum``.
    """
    a, n = net.arrays, len(net.vertices)
    deg = np.diff(a.indptr)
    shift = (int(deg.max()) - 1).bit_length()
    slot = np.arange(len(a.rows)) - a.indptr[a.rows]
    nbr = np.full((n, 1 << shift), n << shift, dtype=np.int64)
    nbr[a.rows, slot] = np.where(a.nbr >= 0, a.nbr, n) << shift
    prob = np.zeros(nbr.shape)
    prob[a.rows, slot] = a.cond / a.ctot[a.rows]
    cum = np.full(nbr.shape, 2.0)
    cum[a.rows, slot] = np.cumsum(prob, axis=1)[a.rows, slot]
    cum[np.arange(n), deg - 1] = 1.0 + 1e-12
    return nbr.ravel(), _thresholds(cum.ravel()), shift


def _draw_spans(walks):
    """The draw spans of the ascending walk indices ``walks``; returns
    ``(spans, gather)``.

    A span starts at the Philox block (four draws) of its first walk and
    ends at its last; a new span starts where consecutive walks are more than
    ``_SPAN_GAP`` apart.  ``spans`` lists ``(block, count)`` pairs, and
    ``gather`` takes each walk's draw out of the spans' draws laid end to
    end, or is None when the spans draw for no other index.
    """
    cut = np.flatnonzero(np.diff(walks) > _SPAN_GAP) + 1
    lo = walks[np.r_[0, cut]] & ~3
    count = walks[np.r_[cut - 1, len(walks) - 1]] + 1 - lo
    spans = list(zip((lo >> 2).tolist(), count.tolist()))
    if count.sum() == len(walks):
        return spans, None
    # Per span, where its draws start end to end, less the index they start at.
    start = np.cumsum(count) - count - lo
    return spans, walks + np.repeat(start, np.diff(np.r_[0, cut, len(walks)]))


def _require_vertices(net, **roles):
    """The window positions of the vertices, in role order; DomainError
    naming the role of the first one that is not in the window."""
    for role, v in roles.items():
        try:
            yield net._require(v)
        except ResnetError:  # an unknown id, or one beyond the window
            raise DomainError(f"{role} vertex {v!r} is not materialized") from None


def _simulate(net, start, cfg, *, stop=(), fold=None):
    """Vectorized batch of walks from ``start``; returns ``(last, score, half)``.

    Vertices come as window positions.  A walk ends when it steps onto a
    position in ``stop`` (from step 1, never at time 0) or beyond the window.
    ``last[w]`` is where walk w ended: a ``stop`` position, ``n`` (the number
    of window vertices) beyond the window, or -1 if it was still walking at
    the horizon.  ``fold = (weight, ufunc)`` reduces each path to one int64:
    it starts at ``weight[start]`` and applies ``ufunc(score, weight[v])`` at
    every position v the walk steps onto, with ``weight[n]`` for the step
    beyond the window.  ``half`` is the fold after ``cfg.max_steps // 2``
    steps; without a fold ``score`` and ``half`` are None.

    Only active walks move.  They are kept as an ascending array of walk
    indices, with their row offsets (see :func:`_walk_space`) and folds
    aligned to it; the fold weights and the halt flags are laid out by
    offset, so no step multiplies.  Walk w gets the w-th double of the stream
    ``Generator(Philox(key=(t << 64) | seed))`` at step t, so the result does
    not depend on which walks are still active.  The active walks draw in
    spans (:func:`_draw_spans`, recomputed only when walks end): per span,
    one Philox bit generator is reset to key (seed, t) and the span's first
    block and draws to its last walk.  Each walk then finds its neighbour by
    binary search over its row of thresholds, comparing the raw draw, never
    the double, into one preallocated bool buffer.  The halt test runs only
    when a walk can stop: with a stop set or a window ring.
    """
    nbr, thr, shift = _walk_space(net)
    n_verts = len(net.vertices)
    # Per row offset, with the row of position n_verts for every vertex beyond
    # the window: whether stepping onto it ends the walk.  Padding points at
    # that row too, but no walk steps onto padding: only the stop set and the
    # ring end one.
    halt = np.zeros(n_verts + 1, dtype=bool)
    halt[[n_verts, *stop]] = True
    halt = halt.repeat(1 << shift)
    can_stop = bool(stop) or bool((net.arrays.nbr < 0).any())

    n, mid = cfg.n_walks, cfg.max_steps // 2
    walks = np.arange(n)
    cur = np.full(n, start << shift, dtype=np.int64)
    last = np.full(n, -1, dtype=np.int64)
    score = acc = half = None
    if fold is not None:
        by_position, ufunc = fold
        score = np.full(n, by_position[start], dtype=np.int64)
        acc = score.copy()
        weight = by_position.repeat(1 << shift)  # by row offset, as halt
    # Binary search probes: the half-widths, each against a shifted view.
    probes = [(h, thr[h - 1:]) for h in (1 << k for k in reversed(range(shift)))]
    passed = np.empty(n, dtype=bool)
    spans, gather = [(0, n)], None  # every walk is active
    bits = np.random.Philox(0)
    counter, key = [0, 0, 0, 0], [int(cfg.seed), 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": counter, "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}

    for t in range(cfg.max_steps):
        if t == mid and acc is not None:
            half = score.copy()
            half[walks] = acc
        key[1] = t & _MASK64
        draws = []
        for block, count in spans:
            counter[0] = block
            bits.state = state
            draws.append(bits.random_raw(count))
        raw = draws[0] if len(draws) == 1 else np.concatenate(draws)
        if gather is not None:
            raw = raw.take(gather)
        for h, shifted in probes:
            np.greater(raw, shifted.take(cur), out=passed)
            cur += passed if h == 1 else passed * h
        cur = nbr.take(cur)
        if acc is not None:
            ufunc(acc, weight.take(cur), out=acc)
        if not can_stop:
            continue
        ended = halt.take(cur)
        gone = np.flatnonzero(ended)
        if len(gone):
            w, keep = walks[gone], ~ended
            last[w] = cur[gone] >> shift
            if acc is not None:
                score[w], acc = acc[gone], acc[keep]
            walks, cur = walks[keep], cur[keep]
            if not len(walks):
                break
            spans, gather = _draw_spans(walks)
            passed = passed[:len(walks)]

    if acc is not None:
        score[walks] = acc
        if half is None:  # every walk ended before the half horizon
            half = score.copy()
    return last, score, half


def hitting_probability(net, target, absorber, start, cfg):
    """Estimate P[the walk reaches ``target`` before ``absorber`` | start].

    Walks that hit the step cap or leave the window are excluded from the
    estimate; a ``biased`` flag is raised when they exceed 1% of the batch.
    """
    s, t, a = _require_vertices(net, start=start, target=target, absorber=absorber)
    if t == a:
        raise DomainError("target and absorber must differ")
    if s == t:
        return McEstimate(value=1.0, stderr=0.0, n_walks=cfg.n_walks,
                          seed=cfg.seed)
    if s == a:
        return McEstimate(value=0.0, stderr=0.0, n_walks=cfg.n_walks,
                          seed=cfg.seed)
    last = _simulate(net, s, cfg, stop=(t, a))[0]
    hits = int((last == t).sum())
    n_dec = hits + int((last == a).sum())
    lost = cfg.n_walks - n_dec
    flags = []
    if lost > 0.01 * cfg.n_walks:
        flags.append("biased")
    if n_dec == 0:
        return McEstimate(value=float("nan"), stderr=float("inf"),
                          n_walks=cfg.n_walks, seed=cfg.seed,
                          flags=("biased", "no-decisions"))
    p = hits / n_dec
    stderr = float(np.sqrt(p * (1.0 - p) / n_dec))
    return McEstimate(value=p, stderr=stderr, n_walks=cfg.n_walks, seed=cfg.seed,
                      flags=tuple(flags), meta={"decided": n_dec, "lost": lost})


def green_estimate(net, x, y, cfg):
    """Expected visits to y (counting time 0) for walks from x, by horizon.

    Compares visit counts at the half horizon and the full horizon; partial
    sums still growing by more than 15% earn a ``diverging`` flag, the Monte
    Carlo signature of recurrence.
    """
    s, t = _require_vertices(net, start=x, target=y)
    weight = np.zeros(len(net.vertices) + 1, dtype=np.int64)
    weight[t] = 1
    last, visits, half = _simulate(net, s, cfg, fold=(weight, np.add))
    visits = visits.astype(np.float64)
    value = float(visits.mean())
    stderr = float(visits.std(ddof=1) / np.sqrt(cfg.n_walks)) if cfg.n_walks > 1 else 0.0
    mid = float(half.mean())
    flags = []
    if mid > 0 and value > 1.15 * mid:
        flags.append("diverging")
    return McEstimate(value=value, stderr=stderr, n_walks=cfg.n_walks,
                      seed=cfg.seed, flags=tuple(flags),
                      meta={"half_horizon_mean": mid,
                            "exited": int((last == len(net.vertices)).sum()),
                            "capped": int((last < 0).sum())})


@dataclass(frozen=True)
class EscapeTrace:
    """Escape probabilities per radius plus truncation accounting."""

    points: tuple            # (radius, probability, stderr)
    capped: int
    exited: int
    n_walks: int
    seed: int


def escape_probability(net, radii, cfg):
    """P[the walk from the origin leaves the ball of radius r before
    returning to the origin].

    The ball is measured from the origin, so the walks start there.  One
    batch serves every radius: each walk records the largest distance it
    reaches before first returning home.  Radii are nonnegative (the ball of
    radius 0 is the origin, which every walk leaves, so P = 1) and stay
    strictly inside the materialized window so the edge kill cannot be
    mistaken for a return.
    """
    radii = _ints(radii, DomainError, "escape radii must be ints")
    if not radii:
        raise DomainError("need at least one radius")
    if min(radii) < 0:
        raise DomainError(f"escape radii must be nonnegative, got {min(radii)}")
    if not net.is_finite and max(radii) >= net.window_radius:
        raise DomainError(
            f"escape radii must stay below the window radius {net.window_radius}")
    o = net._order[0]
    # Slot n, beyond the window, weighs 0 so an exit never raises the maximum.
    dist = np.append(net.arrays.dist, 0)
    last, maxdist, _ = _simulate(net, o, cfg, stop=(o,), fold=(dist, np.maximum))
    points = []
    for r in radii:
        p = float((maxdist > r).mean())
        stderr = float(np.sqrt(p * (1.0 - p) / cfg.n_walks))
        points.append((r, p, stderr))
    return EscapeTrace(points=tuple(points), capped=int((last < 0).sum()),
                       exited=int((last == len(dist) - 1).sum()),
                       n_walks=cfg.n_walks, seed=cfg.seed)
