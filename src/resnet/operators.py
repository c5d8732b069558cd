"""Pointwise operators and the Dirichlet energy form.

The Laplacian used throughout has the positive-spectrum sign convention,
(Δv)(x) = Σ_{y~x} c_xy (v(x) − v(y)), and the energy form counts every edge
exactly once: E(u, v) = ½ Σ_{x,y} c_xy (u(x) − u(y))(v(x) − v(y)).

A ``window`` argument is the sorted positions of its vertices in
``net.vertices``, and every function lies on that vertex sequence.  Only
``laplacian_apply``, the pointwise reference, takes a vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLOCK = 8192  # pairs per gather: 64 KiB reuses freed memory, not fresh pages


@dataclass(frozen=True)
class EnergyValue:
    """An energy evaluated over an explicit truncation window.

    ``converged`` is True when the value is trusted as a limit: the window
    covers the whole of a finite network, so no edge is left out.
    """

    value: float
    converged: bool


def laplacian_apply(net, u, x):
    """(Δu)(x); requires u on x and all its neighbors, never zero-extends."""
    pairs = net.incident(x)
    ux = u.value(x)
    terms = [c * (ux - u.value(y)) for y, c in pairs]
    return float(prefix_sums(np.array(terms))[-1])


def prefix_sums(terms):
    """[0, t0, t0 + t1, ...] along the first axis, added one at a time left to
    right: never the builtin ``sum``, which compensates floats from Python 3.12."""
    sums = np.zeros((len(terms) + 1,) + terms.shape[1:])
    sums[1:] = terms
    return np.cumsum(sums, axis=0, out=sums)


def read_values(net, u, positions):
    """u at the given distinct vertex positions, in an array over every
    vertex (0.0 elsewhere): u's own, read-only, when u and the read cover
    every vertex.  A vertex outside u's window raises WindowError."""
    have, values = u._on(net.vertices)
    if len(positions) == len(have) == len(net.vertices):
        return values
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


def common_window(net, u, v=None):
    """The sorted positions of u's window, or of the windows of u and v."""
    pos = u._on(net.vertices)[0]
    if v is not None and v is not u:
        pos = np.intersect1d(pos, v._on(net.vertices)[0], assume_unique=True)
    return pos


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
    w = vv[x]
    for lo in range(0, len(w), _BLOCK):  # v(y) a block at a time
        w[lo:lo + _BLOCK] -= vv[y[lo:lo + _BLOCK]]
    w *= a.cond[keep]  # c (v(x) − v(y)), the same bits as its product
    return np.bincount(x, w, minlength=len(a.dist))


def window_laplacian(net, u, pos):
    """Δu at the window positions ``pos``, the floats of
    :func:`laplacian_apply`, from one :func:`pair_sums` pass that reads u
    once over the window and its neighbours.  A window vertex with a
    neighbour beyond the materialized window or outside u's window raises
    WindowError."""
    a = net.arrays
    pairs = net._inside(net._pairs(pos))
    read = np.zeros(len(a.dist), bool)
    read[pos] = read[a.nbr[pairs]] = True
    uu = read_values(net, u, np.flatnonzero(read))
    return pair_sums(net, pairs, uu)[pos]


def energy(net, u, v=None, window=None):
    """Energy over the induced subgraph on ``window`` (crossing edges excluded).

    Symmetric, bilinear and gauge-independent.  Defaults: v = u, and the
    window is the common support window of u and v.  The edge terms are
    summed left to right in the order of the edge list of ``net.arrays``.
    """
    if v is None:
        v = u
    if window is None:
        window = common_window(net, u, v)
    a = net.arrays
    keep = inner_edges(net, window)
    read = np.zeros(len(net.vertices), bool)
    read[a.edge_x[keep]] = read[a.edge_y[keep]] = True
    ends = np.flatnonzero(read)
    uu = read_values(net, u, ends)
    vv = uu if v is u else read_values(net, v, ends)
    converged = net.is_finite and len(window) == len(net.vertices)
    return EnergyValue(value=edge_energy(net, keep, uu, vv), converged=converged)


def scaled_laplacian_residual(net, u, rhs, window):
    """max over ``window`` of |Δu − f| / max(1, c(x)), for the source f =
    Σ_k values[k] δ_{at[k]} that ``rhs = (at, values)`` gives by vertex
    position; sources outside the window are ignored.

    Conductance scaling keeps the check meaningful across the huge dynamic
    ranges of geometric models, where forming c_xy (u(x) − u(y)) already costs
    c_xy·eps of absolute accuracy in floating point.
    """
    lap = window_laplacian(net, u, window)
    f = np.zeros(len(net.vertices))
    np.add.at(f, np.asarray(rhs[0], np.int64), rhs[1])
    worst = np.abs(lap - f[window]) / np.maximum(1.0, net.arrays.ctot[window])
    return float(worst.max(initial=0.0))
