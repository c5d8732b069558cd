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
no factor would be used twice.  A :class:`SolveReport` holds the system it
was solved on: a loop that rebinds its report frees the previous stage's
factor only after the next one is built, so the C heap is not trimmed and
paged in again at every stage.

A source is given by vertex position, as ``(at, values)``: the solver takes
positions in ``net.vertices``, as its reports give them, and never reads a
vertex id.  A solve takes one source or a block of them.  A block is one
column per source, solved by one call of the factor and checked by one
residual product; each column is the same bits as its single solve (SuperLU
solves the columns of a block one by one) and is held to the same residual
bound.
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


@dataclass(frozen=True)
class SolveReport:
    """Solution of one finite-region solve plus its scaled residual.

    ``pos`` holds the region's canonical vertex positions in increasing
    order (read-only: the system shares it) and ``values`` the solution at
    them, one column per source for a block of sources; ``vertices`` is the
    network's canonical vertex sequence and ``system`` the system solved, freed
    with the report.  ``solution`` is the same function as a
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
    bc: str
    vertices: tuple = field(repr=False, compare=False)
    system: object = field(repr=False, compare=False)

    @cached_property
    def solution(self):
        return VertexFunction(self.vertices, self.pos, self.values, self.gauge)


class _System(NamedTuple):
    """One region system: the region's sorted vertex positions, its CSC
    matrix, the factor a solve uses (None for a one-vertex free system)
    and whether any edge leaves the region."""

    pos: np.ndarray
    matrix: sp.csc_matrix
    factor: object
    has_crossing: bool


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


def _origin_index(net, pos):
    """The index of the origin, first in the search order, in a ball's ``pos``."""
    return int(np.searchsorted(pos, net._order[0]))


def _system(net, ball, bc):
    """The system of a :class:`~resnet.network.Ball` from ``net.arrays``, with
    the factor a Poisson solve uses: the whole matrix for a wired ball with
    crossing edges, else the free matrix pinned at the origin.  Without
    crossing edges the wired matrix is the free one, bit for bit (both
    diagonals add the same row in the same order)."""
    pos = net._ball_positions(ball.radius)
    pos.flags.writeable = False
    a, m = net.arrays, len(pos)
    # Every pair of the region's rows, in incident order (so increasing
    # columns in each row), and the place in the region of its other end.
    pair = net._pairs(pos)
    row = np.repeat(np.arange(m), a.indptr[pos + 1] - a.indptr[pos])
    col = np.searchsorted(pos, a.nbr[pair])
    inner = pos[np.minimum(col, m - 1)] == a.nbr[pair]
    row, col, cond = row[inner], col[inner], a.cond[pair[inner]]
    diag = a.ctot[pos] if bc == WIRED else np.bincount(row, cond, minlength=m)
    indptr, indices, data = _compressed(row, col, cond, diag)
    matrix = sp.csc_matrix((data, indices, indptr), shape=(m, m))
    has_crossing = not inner.all()
    factor = None
    if bc == WIRED and has_crossing:
        factor = _ScaledLU(indptr, indices, data)
    elif m > 1:
        # Pin the gauge: drop the origin's row and column.
        o = _origin_index(net, pos)
        off = (row != o) & (col != o)
        row, col = row[off], col[off]
        factor = _ScaledLU(*_compressed(row - (row > o), col - (col > o),
                                        cond[off], np.delete(diag, o)))
    return _System(pos, matrix, factor, has_crossing)


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
    factor of that sparse product.
    """

    def __init__(self, indptr, indices, data):
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
                                permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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
    residuals = (residuals / (1.0 + np.abs(u).max(axis=0))).max(axis=0)
    over = residuals[~(residuals <= tol)]  # NaN fails too
    if len(over):
        raise NumericalError(
            f"{what} residual {over[0]:.3e} exceeds tolerance {tol:.1e}{note}")
    return float(residuals.max())


def _report(net, system, u, f, residual, gauge, bc):
    return SolveReport(pos=system.pos, values=u if np.ndim(f[1]) == 2 else u[:, 0],
                       residual=residual, gauge=gauge, bc=bc, vertices=net.vertices,
                       system=system)


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
    if bc == WIRED and system.has_crossing:
        u = system.factor.solve(b)
        residual = _residual(net, system.pos, system.matrix, u, b, tol, "wired solve")
        return _report(net, system, u, f, residual, GAUGE_VANISH, WIRED)
    # Free, or wired with an empty complement, where wiring changes nothing
    # (finite networks admit no unbalanced solution).
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
    return _report(net, system, u, f, residual, GAUGE_ORIGIN, FREE)
