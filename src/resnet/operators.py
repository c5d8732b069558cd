"""Pointwise operators and the Dirichlet energy form.

The Laplacian used throughout has the positive-spectrum sign convention,
(Δv)(x) = Σ_{y~x} c_xy (v(x) − v(y)), and the energy form counts every edge
exactly once: E(u, v) = ½ Σ_{x,y} c_xy (u(x) − u(y))(v(x) − v(y)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np


@dataclass(frozen=True)
class EnergyValue:
    """An energy evaluated over an explicit truncation window.

    ``converged`` is True when the value is trusted as a limit: the window
    covers the whole of a finite network, so no edge is left out.
    """

    value: float
    window: frozenset
    converged: bool


def laplacian_apply(net, u, x):
    """(Δu)(x); requires u on x and all its neighbors, never zero-extends."""
    ux = u.value(x)
    terms = [c * (ux - u.value(y)) for y, c in net.incident(x)]
    return float(prefix_sums(np.array(terms))[-1])


def prefix_sums(terms):
    """[0, t0, t0 + t1, ...] along the first axis, added one at a time left to
    right: never the builtin ``sum``, which compensates floats from Python 3.12."""
    return np.cumsum(np.concatenate((np.zeros((1,) + terms.shape[1:]), terms)), axis=0)


def read_values(net, u, positions):
    """u at the given vertex positions, scattered into an array over every
    vertex (0.0 elsewhere); reads through u's window, so a vertex outside it
    raises WindowError."""
    have, values = u._positions_in(net)
    at = positions  # u on every vertex has its values by position
    if len(have) < len(net.vertices):
        at = np.full(len(net.vertices), -1)
        at[have] = np.arange(len(have))
        at = at[positions]
        if (at < 0).any():  # u.value names the first vertex outside the window
            u.value(net.vertices[positions[np.argmax(at < 0)]])
    out = np.zeros(len(net.vertices))
    out[positions] = values[at]
    return out


def inner_edges(net, pos):
    """Mask over the edge list of ``net.arrays``: the edges with both ends at
    the window positions ``pos``."""
    inside = np.zeros(len(net.vertices), bool)
    inside[pos] = True
    return inside[net.arrays.edge_x] & inside[net.arrays.edge_y]


def edge_energy(net, keep, uu, vv):
    """Σ c_xy (u(x) − u(y))(v(x) − v(y)) over the edges that the mask ``keep``
    selects, added left to right in the order of the edge list of
    ``net.arrays``; ``uu`` and ``vv`` hold u and v by vertex position, or
    one function per column, with one sum per column (a list).  The one
    summation behind :func:`energy` and the kernel traces."""
    a = net.arrays
    ex, ey, ec = a.edge_x[keep], a.edge_y[keep], a.edge_c[keep]
    if uu.ndim == 2:
        ec = ec[:, None]
    return prefix_sums(ec * (uu[ex] - uu[ey]) * (vv[ex] - vv[ey]))[-1].tolist()


def pair_sums(net, keep, vv):
    """Σ c_xy (v(x) − v(y)) at every vertex x over the pairs of ``net.arrays``
    that ``keep`` (a mask, increasing indices or a slice) selects, added left
    to right in ``incident`` order as :func:`laplacian_apply` adds them; ``vv``
    holds v by vertex position.  The one pair sum behind Δ and ∂."""
    a = net.arrays
    x, y = a.rows[keep], a.nbr[keep]
    return np.bincount(x, a.cond[keep] * (vv[x] - vv[y]), minlength=len(a.dist))


def window_laplacian(net, u, window):
    """The sorted canonical positions of ``window`` (vertices, or sorted
    positions) and Δu there, the floats of :func:`laplacian_apply`, from one
    :func:`pair_sums` pass that reads u once over the window and its
    neighbours.  A window vertex with a neighbour beyond the materialized
    window or outside u's window raises WindowError."""
    a = net.arrays
    pos = window if isinstance(window, np.ndarray) else net._positions(frozenset(window))
    pairs = net._pairs(pos)
    beyond = pairs[a.nbr[pairs] < 0]
    if beyond.size:  # WindowError naming the first such neighbour
        net._require(net._name(int(net._ids[beyond[0]])))
    read = np.zeros(len(a.dist), bool)
    read[pos] = read[a.nbr[pairs]] = True
    uu = read_values(net, u, np.flatnonzero(read))
    return pos, pair_sums(net, pairs, uu)[pos]


def energy(net, u, v=None, window=None):
    """Energy over the induced subgraph on ``window`` (crossing edges excluded).

    Symmetric, bilinear and gauge-independent.  Defaults: v = u, and the
    window is the common support window of u and v.  The edge terms are
    summed left to right in the order of the edge list of ``net.arrays``.
    """
    if v is None:
        v = u
    if window is None:
        window = u.window if v is u else (u.window & v.window)
    window = frozenset(window)
    a = net.arrays
    keep = inner_edges(net, net._positions(window))
    read = np.zeros(len(net.vertices), bool)
    read[a.edge_x[keep]] = read[a.edge_y[keep]] = True
    ends = np.flatnonzero(read)
    uu = read_values(net, u, ends)
    vv = uu if v is u else read_values(net, v, ends)
    converged = net.is_finite and len(window) == len(net.vertices)
    return EnergyValue(value=edge_energy(net, keep, uu, vv), window=window,
                       converged=converged)


def scaled_laplacian_residual(net, u, rhs, window):
    """max over ``window`` (vertices, or sorted positions) of |Δu − rhs| / max(1, c(x)).

    Conductance scaling keeps the check meaningful across the huge dynamic
    ranges of geometric models, where forming c_xy (u(x) − u(y)) already costs
    c_xy·eps of absolute accuracy in floating point.
    """
    pos, lap = window_laplacian(net, u, window)
    f = np.fromiter(map(rhs.get, map(net.vertices.__getitem__, pos.tolist()),
                        repeat(0.0)), float, len(pos))
    worst = np.abs(lap - f) / np.maximum(1.0, net.arrays.ctot[pos])
    return float(worst.max(initial=0.0))
