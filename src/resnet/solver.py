"""Sparse linear solves on finite regions, backing all kernel computations.

Two boundary treatments are supported for a finite region G of a (possibly
infinite) network:

* ``free``  -- the system matrix is the Laplacian of the induced subgraph on
  G; edges crossing out of G are dropped.  The matrix is singular with kernel
  the constants, so sources must be balanced and the gauge is pinned at the
  origin.
* ``wired`` -- every vertex outside G is identified with a single ghost
  vertex held at value 0; crossing edges attach to the ghost.  Eliminating
  the ghost adds the crossing conductance of each boundary vertex to its
  diagonal, giving a positive definite system with no compatibility
  condition.

Solves are direct sparse LU factorizations.  A region is a ball B_r,
passed as its radius (:class:`~resnet.network.Ball`); it holds the origin
and is connected, since a shortest path from the origin to a vertex of B_r
stays in B_r.  Each solve assembles its ball's system from
``Network.arrays`` on the sorted positions of ``Network._ball_positions``
straight into compressed arrays (the matrix is symmetric, so its compressed
rows and columns are the same arrays), factors it and solves; nothing is
kept between solves.  The kernel loops solve each ball once, stage-major, so
no factor would be used twice.  A :class:`SolveReport` holds the solution,
not the system: each solve's factor is freed when the solve returns.

A source is given by vertex position, as ``(at, values)``: the solver takes
positions in ``net.vertices``, as its reports give them, and never reads a
vertex id.  A solve takes one source or a block of them.  A block is one
column per source, solved by one call of the factor and checked by one
residual product; each column is the same bits as its single solve (SuperLU
solves the columns of a block one by one) and is held to the same residual
bound.

A stage sweep factors its window once per boundary condition instead, when
:func:`_fits` admits it: in search order each ball is a leading block of the
window's matrix, so one natural-order factor serves them all (:class:`_Leading`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (DomainError, IncompatibleSourceError, NumericalError)
from .network import GAUGE_ORIGIN, GAUGE_VANISH, VertexFunction

FREE = "free"
WIRED = "wired"

DEFAULT_TOLERANCE = 1e-10

# Free solves treat |sum f| <= COMPAT_TOL * max(1, sum|f|) as balanced.
COMPAT_TOL = 1e-9

# A window factor may have fewer than _FACTOR_BUDGET strictly lower entries
# (about 12 MB for L and U), and at most _FILL_PER_ROW per row that the
# per-stage factors would take; a free sphere block's inverse must be at
# most 1 / _SPHERE_FLOOR in Frobenius norm (see _Leading.stages).
_FACTOR_BUDGET = 500_000
_FILL_PER_ROW = 8
_SPHERE_FLOOR = 1e-4


@dataclass(frozen=True)
class SolveReport:
    """Solution of one finite-region solve plus its scaled residual.

    ``pos`` holds the region's canonical vertex positions in increasing
    order (read-only: the system shares it) and ``values`` the solution at
    them, one column per source for a block of sources; ``vertices`` is the
    network's canonical vertex sequence; the report holds no factor, which
    is freed when the solve returns.  ``solution`` is the same function as a
    :class:`VertexFunction` over the same arrays, built on first access (for
    a single source).

    The residual is the max over region rows and columns of |(system·u −
    f)(x)| scaled by max(1, c(x)) and the magnitude of the column's solution,
    a backward-error style metric: it reflects what float64 can represent
    when edge weights grow geometrically or the solution carries a large
    zero-mode component.
    """

    pos: np.ndarray
    values: np.ndarray
    residual: float
    gauge: str
    vertices: tuple = field(repr=False, compare=False)

    @cached_property
    def solution(self):
        return VertexFunction(self.vertices, self.pos, self.values, self.gauge)


class _System(NamedTuple):
    """One region system: the region's sorted vertex positions, its CSC
    matrix and the factor a solve uses (None for a one-vertex free system)."""

    pos: np.ndarray
    matrix: sp.csc_matrix
    factor: object


def _compressed(row, col, cond, diag):
    """``(indptr, indices, data)`` of the m x m matrix, m = len(diag), with
    −cond at the pairs (row, col), given sorted by (row, col), and ``diag`` on
    the diagonal.  The pattern is symmetric, so the arrays are at once the
    compressed rows and the compressed columns, indices increasing in each."""
    m = len(diag)
    ptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=m))))
    at = ptr[:-1] + np.bincount(row[col < row], minlength=m)
    return (ptr + np.arange(m + 1), np.insert(col, at, np.arange(m)),
            np.insert(-cond, at, diag))


def _inner_pairs(net, order):
    """Each position's row for the rows ``order``, then the row, column and
    conductance of the pairs among them by (row, column)."""
    a, m = net.arrays, len(order)
    rank = np.full(len(a.dist) + 1, -1)  # the last entry: the ring
    rank[order] = np.arange(m)
    pair = net._pairs(order)
    row = np.repeat(np.arange(m), a.indptr[order + 1] - a.indptr[order])
    col = rank[a.nbr[pair]]
    inner = np.flatnonzero(col >= 0)
    inner = inner[np.argsort(row[inner] * m + col[inner], kind="stable")]
    return rank, row[inner], col[inner], a.cond[pair[inner]]


def _origin_index(net, pos):
    """The index of the origin, first in the search order, in a ball's ``pos``."""
    return int(np.searchsorted(pos, net._order[0]))


def _system(net, ball, bc):
    """The system of a :class:`~resnet.network.Ball` from ``net.arrays``, with
    the factor a Poisson solve uses: the whole matrix for a wired ball that
    does not cover a finite network, else the free matrix pinned at the
    origin.  On a covering ball no edge leaves, and the wired matrix is the
    free one, bit for bit (both diagonals add the same row in the same order)."""
    pos = net._ball_positions(ball.radius)
    pos.flags.writeable = False
    m = len(pos)
    _, row, col, cond = _inner_pairs(net, pos)
    diag = net.arrays.ctot[pos] if bc == WIRED else np.bincount(row, cond, minlength=m)
    indptr, indices, data = _compressed(row, col, cond, diag)
    matrix = sp.csc_matrix((data, indices, indptr), shape=(m, m))
    factor = None
    if bc == WIRED and not net._covers(ball.radius):
        factor = _ScaledLU(indptr, indices, data)
    elif m > 1:
        # Pin the gauge: drop the origin's row and column.
        o = _origin_index(net, pos)
        off = (row != o) & (col != o)
        row, col = row[off], col[off]
        factor = _ScaledLU(*_compressed(row - (row > o), col - (col > o),
                                        cond[off], np.delete(diag, o)))
    return _System(pos, matrix, factor)


class _ScaledLU:
    """LU of the symmetrically Jacobi-scaled system.

    Geometric conductance growth makes the raw system ill-conditioned in
    potential variables (raw LU forward error grows like c_max * eps);
    after diagonal scaling the factorization is componentwise backward
    stable and solution values come out near rounding level.  Iterative
    refinement is deliberately absent: residual matvecs over the huge
    dynamic range only inject noise along the worst-conditioned direction,
    which measurably degrades the solution.

    The system comes as compressed arrays ``(indptr, indices, data)`` with
    one diagonal entry in each column.  Each scaled entry is the product that
    ``diags(s) @ A @ diags(s)`` forms, so the factor is bit-identical to the
    factor of that sparse product.  ``order`` is SuperLU's column order.
    """

    def __init__(self, indptr, indices, data, order="MMD_AT_PLUS_A"):
        cols = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        diag = data[indices == cols]
        diag[diag <= 0.0] = 1.0
        self.scale = 1.0 / np.sqrt(diag)
        # Row scale first, as the two sparse products apply it.
        scaled = (self.scale[indices] * data) * self.scale[cols]
        # Symmetric mode with diagonal pivots: a Cholesky-like factorization.
        # Threshold row pivoting is what makes the default path erratic here.
        m = len(indptr) - 1
        try:
            self.lu = spla.splu(sp.csc_matrix((scaled, indices, indptr), shape=(m, m)),
                                permc_spec=order, diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True})
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise NumericalError(f"factorization failed: {exc}") from None

    def solve(self, b):
        """The solution for ``b``, a vector or one column per right-hand side."""
        scale = self.scale if b.ndim == 1 else self.scale[:, None]
        return scale * self.lu.solve(scale * b)


def _rhs(net, pos, f):
    """The right-hand sides at the region's sorted positions ``pos`` of the
    source ``f = (at, values)``, one column per source, each contiguous."""
    at, values = np.asarray(f[0], np.int64), np.asarray(f[1], float)
    if values.ndim == 1:
        values = values[:, None]
    i = np.searchsorted(pos, at)
    inside = pos[np.minimum(i, len(pos) - 1)] == at
    outside = ~inside & (values != 0.0).any(axis=1)
    if outside.any():
        x = net.vertices[at[np.argmax(outside)]]
        raise DomainError(f"source vertex {x!r} lies outside the region")
    b = np.zeros((len(pos), values.shape[1]), order="F")
    np.add.at(b, i[inside], values[inside])
    return b


def _residual(net, pos, matrix, u, b, tol, what, note=""):
    """The largest backward-error style residual of the columns: |system*u −
    f| relative to the local conductance scale c(x) and the column's
    magnitude, divided by one and then the other, as their product may
    overflow.  The first column above ``tol``, or NaN, raises."""
    residuals = np.abs(matrix @ u - b) / np.maximum(1.0, net.arrays.ctot[pos])[:, None]
    return _bounded(residuals, u, tol, what, note)


def _bounded(residuals, u, tol, what, note=""):
    """:func:`_residual` from the rows' residuals, already scaled."""
    residuals = (residuals / (1.0 + np.abs(u).max(axis=0))).max(axis=0)
    over = residuals[~(residuals <= tol)]  # NaN fails too
    if len(over):
        raise NumericalError(
            f"{what} residual {over[0]:.3e} exceeds tolerance {tol:.1e}{note}")
    return float(residuals.max())


def _envelope(net, m):
    """Σ_i (i − the least rank of a neighbour at or before i) over the first m
    vertices of the search order: the strictly lower entries of their wired
    natural-order factor, as each prefix of the order is connected."""
    _, row, col, _ = _inner_pairs(net, net._order[:m])
    first = np.arange(m)
    np.minimum.at(first, row, col)
    return int((np.arange(m) - first).sum())


def _fits(net, m, rows):
    """Whether to factor the first m vertices once, not ``rows`` rows by stage."""
    fill = _envelope(net, m)
    return fill < _FACTOR_BUDGET and fill <= _FILL_PER_ROW * rows


class _Leading:
    """The natural-order factor of the wired matrix (diagonal c(x)) on the
    first m vertices of the search order, for ``FREE`` less the origin's row
    and column: each ball B_r, r ≥ 1, is a leading block, S_r its last rows."""

    def __init__(self, net, m, bc):
        self.net, self.pinned = net, int(bc == FREE)
        self.order = order = net._order[self.pinned:m]
        self.rank, row, col, cond = _inner_pairs(net, order)
        indptr, indices, data = _compressed(row, col, cond, net.arrays.ctot[order])
        self.matrix = sp.csc_matrix((data, indices, indptr), shape=(len(order),) * 2)
        self.factor = _ScaledLU(indptr, indices, data, order="NATURAL")
        if (self.factor.lu.perm_r != np.arange(len(order))).any():
            raise NumericalError("window factor pivoted off its diagonal")

    def _rows(self, at, values):
        """Σ values[k] δ_at[k] in factor order, a column each (rows it has)."""
        i = self.rank[at]
        b = np.zeros((len(self.order), values.shape[1]))
        np.add.at(b, i[i >= 0], values[i >= 0])
        return b

    def stages(self, radii, at, values, reads, tol=DEFAULT_TOLERANCE):
        """Per ball B_r, r in ``radii``, the solutions u of Δu = b, a column
        per source ``(at, values)``: the pairings bᵀu, u at ``reads`` (NaN
        off the ball), u on S_r in search order and κ, the conductances out
        of B_r, there.  With A = L D Lᵀ (Jacobi scaled) and y = L⁻¹b split at
        S_r into (y_P, y_T), M = L_TT D_T L_TTᵀ − diag(κ) (κ = 0 wired) is
        u's system on S_r, u_T = M⁻¹ L_TT y_T, and u pairs with f, z = L⁻¹f,
        as Σ_P z y / d + (L_TT z_T)ᵀ u_T.  M carries about |S_r| eps of
        rounding: a free ball whose M⁻¹ has a Frobenius norm above
        1 / ``_SPHERE_FLOOR`` gives None.  Full and sphere solves are held to
        ``tol``."""
        net, lu, scale = self.net, self.factor.lu, self.factor.scale[:, None]
        b, lower, d = self._rows(at, values), lu.L, lu.U.diagonal()
        _residual(net, self.order, self.matrix, self.factor.solve(b), b, tol, "window solve")
        y = spla.spsolve_triangular(lower, scale * np.hstack((b, self._rows(
            reads, np.eye(len(reads))))), lower=True, unit_diagonal=True, overwrite_A=True)
        y, z = y[:, :b.shape[1]], y[:, b.shape[1]:]
        yd = y / d[:, None]
        pair = np.cumsum(y * yd, axis=0)
        cross = np.cumsum(z[:, :, None] * yd[:, None, :], axis=0)
        cut = np.array([net._cut(r) for r in radii]) - self.pinned
        start = np.array([net._cut(r - 1) for r in radii]) - self.pinned
        a = net.arrays  # κ: each vertex's conductance to farther ones
        far = (a.nbr < 0) | (a.dist[a.nbr] > a.dist[a.rows])
        kappa = np.bincount(a.rows, np.where(far, a.cond, 0.0))[self.order]
        shrink = kappa * self.factor.scale ** 2 * self.pinned
        rank, origin = self.rank[reads], (reads == net._order[0]) & bool(self.pinned)
        out = []
        for lo, hi in zip(start.tolist(), cut.tolist()):
            lt = self._block(lower, lo, hi)
            g = lt @ y[lo:hi]
            m_t = (lt * d[lo:hi]) @ lt.T - np.diag(shrink[lo:hi])
            inv = np.linalg.inv(m_t)  # 1 / its Frobenius norm: below M's least eigenvalue
            if self.pinned and not (inv * inv).sum() <= _SPHERE_FLOOR ** -2:  # NaN too
                out.append(None)
                continue
            u_t = inv @ g
            _bounded(np.abs(m_t @ u_t - g), u_t, tol, "sphere solve")
            got = (cross[lo - 1] if lo else 0.0) + (lt @ z[lo:hi]).T @ u_t
            got[(rank < 0) | (rank >= hi)] = np.nan
            got[origin] = 0.0
            out.append(((pair[lo - 1] if lo else 0.0) + (g * u_t).sum(axis=0), got,
                        scale[lo:hi] * u_t, kappa[lo:hi, None]))
        return out

    @staticmethod
    def _block(lower, lo, hi):
        """The dense block of ``lower`` (CSC) on the rows and columns [lo, hi)."""
        ptr = lower.indptr[lo:hi + 1]
        rows = lower.indices[ptr[0]:ptr[-1]]
        cols, keep = np.repeat(np.arange(hi - lo), np.diff(ptr)), rows < hi
        block = np.zeros((hi - lo, hi - lo))
        block[rows[keep] - lo, cols[keep]] = lower.data[ptr[0]:ptr[-1]][keep]
        return block


def _report(net, system, u, f, residual, gauge):
    return SolveReport(pos=system.pos, values=u if np.ndim(f[1]) == 2 else u[:, 0],
                       residual=residual, gauge=gauge, vertices=net.vertices)


def solve_poisson(net, region, f, bc, *, tol=DEFAULT_TOLERANCE):
    """Solve Δu = f on the region under the given boundary condition.

    The region is a :class:`~resnet.network.Ball`.  The source ``f = (at,
    values)`` is Σ_k values[k] δ_{at[k]}, for vertex positions ``at`` in
    ``net.vertices``; the region must hold every position with a nonzero
    value.  A 2-d ``values`` is a block of sources, one column each, solved
    together: the report's ``values`` then holds one solution column per
    source, each checked as a single solve.
    Free solves require balanced sources and return the origin-zero
    representative; wired solves return the ghost-grounded solution, which is
    the vanish-at-infinity representative.
    """
    if bc not in (FREE, WIRED):
        raise DomainError(f"unknown boundary condition {bc!r}")
    system = _system(net, region, bc)
    b = _rhs(net, system.pos, f)
    if bc == WIRED and not net._covers(region.radius):
        u = system.factor.solve(b)
        residual = _residual(net, system.pos, system.matrix, u, b, tol, "wired solve")
        return _report(net, system, u, f, residual, GAUGE_VANISH)
    # Free, or wired on a ball covering a finite network, where wiring changes
    # nothing (finite networks admit no unbalanced solution).
    for column in b.T:
        total = float(column.sum())
        if abs(total) > COMPAT_TOL * max(1.0, float(np.abs(column).sum())):
            raise IncompatibleSourceError(
                f"free boundary solve needs a balanced source, got sum {total:g}")
    u = np.zeros(b.shape)
    if system.factor is not None:
        keep = np.arange(len(b)) != _origin_index(net, system.pos)
        u[keep] = system.factor.solve(b[keep])
    residual = _residual(net, system.pos, system.matrix, u, b, tol, "free solve",
                         f" (region size {len(b)})")
    return _report(net, system, u, f, residual, GAUGE_ORIGIN)
