"""Locally finite resistance networks and the machinery for exhausting them.

A network is a connected graph whose edges carry symmetric positive
conductances (reciprocal resistances), together with a distinguished origin
vertex.  Finite networks are built from an explicit edge list; infinite
families are materialized on a hard window radius.  Every operation that
would need information beyond the materialized window raises
:class:`~resnet.errors.WindowError` rather than truncating silently: limits
along exhaustions are always explicit in this package, never implied.

A window comes as arrays, and one constructor builds every network on them:
the built-in families give theirs in closed form
(:func:`resnet.models.build`), an explicit edge list from one breadth-first
search over its compressed rows.  The constructor builds the
:class:`NetworkArrays` every query reads and checks conductance symmetry
once, on them.  A ball is a radius: B_r is a prefix of the search order, an
int array, and an exhaustion plan keeps radii.  A function on a window is an
array of values over canonical positions (:class:`VertexFunction`).

Vertex ids are integers, or tuples of integers for branched models such as
stars and trees.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from threading import Lock

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import ConfigurationError, DomainError, WindowError

GAUGE_ORIGIN = "origin-zero"
GAUGE_VANISH = "vanish-at-infinity"
GAUGE_RAW = "raw"
GAUGES = (GAUGE_ORIGIN, GAUGE_VANISH, GAUGE_RAW)


def vertex_key(v):
    """Total order on vertex ids: all ints first, then int tuples."""
    if isinstance(v, tuple):
        return (1, v)
    return (0, (v,))


def vsorted(vertices):
    """The vertices in :func:`vertex_key` order: plain order, unless ints
    mix with tuples."""
    vertices = list(vertices)
    try:
        vertices.sort()
    except TypeError:  # ints mixed with tuples
        vertices.sort(key=vertex_key)
    return vertices


class Network:
    """Immutable weighted graph with a distinguished origin.

    A window comes as arrays over canonical vertex positions, and every
    network is built on them by one constructor.  The built-in families
    (:func:`resnet.models.build`) give their windows in closed form;
    :meth:`from_edges` gives an explicit finite network its arrays from one
    breadth-first search.  ``arrays``, the :class:`NetworkArrays` of the
    window, is the one representation of it that every query, solve and walk
    reads.  The search order is an int array of positions, and the dict
    from vertex id to position is built on the first lookup by id.  The
    network also owns the store of its solver systems (bounded
    in count and bytes, freed with it), guarded by a per-network lock.
    Instances are safe to share across threads.
    """

    def __init__(self, origin, vertices, order, dist, degree, ids, cond, ring, *,
                 window_radius=None, model=None):
        """The window as arrays: ``vertices`` in canonical order; ``order``,
        the canonical positions in search order (distances nondecreasing);
        ``dist`` and ``degree``, the distance and row length of each vertex;
        ``ids`` and ``cond``, the neighbour and conductance of each pair, rows
        in canonical order and each row in canonical order of its neighbours.
        A neighbour in the window is its position; ``ring[i]``, the i-th
        vertex of the tuple ``ring`` just outside the window, is n + i."""
        self.origin, self.model, self.window_radius = origin, model, window_radius
        self._vertices, self._order, self._ring, self._ids = vertices, order, ring, ids
        self.arrays = NetworkArrays.of(dist, degree, ids, cond)
        self._validate()
        # Ball B_r is the first _cuts[r] vertices of the search order.
        self._cuts = np.cumsum(np.bincount(self.arrays.dist))
        # Solver systems of this network, least recently used first.
        self._systems, self._lock = OrderedDict(), Lock()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, origin, edges):
        """Build an explicit finite network from (u, v, conductance) triples.

        Parallel edges are merged by summing their conductances in input
        order.  Self loops, negative conductances, an origin with no edge and
        disconnected graphs are rejected; zero conductances are dropped.
        """
        kept = []
        for u, v, c in edges:
            if u == v:
                raise DomainError(f"self loop at {u!r} is not allowed")
            c = float(c)
            if c < 0.0:
                raise DomainError(f"negative conductance on edge ({u!r}, {v!r})")
            if c != 0.0:
                kept.append((u, v, c))
        found = {w for u, v, _ in kept for w in (u, v)}
        if origin not in found:
            raise DomainError(f"origin {origin!r} has no incident edge")
        verts = tuple(vsorted(found))
        n = len(verts)
        index = dict(zip(verts, range(n)))
        # Each edge both ways, in input order: the sorted keys row * n + column
        # give the rows in canonical order, each row's neighbours too, and
        # bincount adds the conductances of parallel edges in input order.
        ends = np.fromiter((index[w] for u, v, _ in kept for w in (u, v, v, u)),
                           np.int64, 4 * len(kept)).reshape(-1, 2)
        keys, slot = np.unique(ends[:, 0] * n + ends[:, 1], return_inverse=True)
        cond = np.bincount(slot, np.repeat([c for _, _, c in kept], 2))
        rows, ids = np.divmod(keys, n)
        degree = np.bincount(rows, minlength=n)
        graph = csr_matrix((cond, ids, np.concatenate(([0], np.cumsum(degree)))),
                           shape=(n, n))
        search, parent = breadth_first_order(graph, index[origin], directed=True)
        if len(search) < n:
            raise DomainError("network is not connected")
        dist = [0] * n
        for v, p in zip(search[1:].tolist(), parent[search[1:]].tolist()):
            dist[v] = dist[p] + 1
        return cls(origin, verts, search.astype(np.int64), np.array(dist, np.int64),
                   degree, ids, cond, ())

    def _validate(self):
        """Reject duplicate pairs, isolated vertices and one-sided or
        (bit-exactly) asymmetric edges."""
        a, ids, verts = self.arrays, self._ids, self._vertices
        # A sorted row puts a duplicate right after its twin.
        dup = np.flatnonzero((ids[1:] == ids[:-1]) & (a.rows[1:] == a.rows[:-1]))
        if dup.size:
            x, y = verts[a.rows[dup[0]]], self._name(int(ids[dup[0]]))
            raise DomainError(f"duplicate edge ({x!r}, {y!r})")
        isolated = np.flatnonzero(a.indptr[1:] == a.indptr[:-1])
        if isolated.size:
            raise DomainError(f"vertex {verts[isolated[0]]!r} is isolated")
        # Each pair inside the window has its reverse, with the same value,
        # exactly when the pairs below the diagonal, reversed and sorted, are
        # the edge list.  Only a failure is searched, for the first bad pair.
        n, lower = len(verts), np.flatnonzero((a.nbr < a.rows) & (a.nbr >= 0))
        back = a.nbr[lower] * n + a.rows[lower]
        at = np.argsort(back, kind="stable")
        if np.array_equal(back[at], a.edge_x * n + a.edge_y) and np.array_equal(
                a.cond[lower][at], a.edge_c):
            return
        x, y, c = (col[a.nbr >= 0] for col in (a.rows, a.nbr, a.cond))
        keys, back = x * n + y, y * n + x
        at = np.minimum(np.searchsorted(keys, back), len(keys) - 1)
        found = keys[at] == back
        k = np.flatnonzero(~found | (c[at] != c))[0]
        raise DomainError(
            f"asymmetric conductance on edge ({verts[x[k]]!r}, {verts[y[k]]!r}): "
            f"{float(c[k])!r} vs {float(c[at[k]]) if found[k] else None!r}")

    # -- basic queries -----------------------------------------------------

    @property
    def is_finite(self):
        """True when the whole vertex set is known (explicit construction)."""
        return self.window_radius is None

    @property
    def vertices(self):
        """Materialized vertices in canonical order."""
        return self._vertices

    @property
    def max_radius(self):
        """The window radius, or on a finite network the largest distance."""
        return len(self._cuts) - 1 if self.is_finite else self.window_radius

    @cached_property
    def _pos(self):
        return dict(zip(self._vertices, range(len(self._vertices))))

    def has_vertex(self, x):
        return x in self._pos

    def _require(self, x):
        """The position of window vertex ``x``."""
        p = self._pos.get(x)
        if p is None:
            if x in self._ring_set:
                raise WindowError(
                    f"vertex {x!r} lies beyond the materialized window "
                    f"(radius {self.window_radius})")
            raise DomainError(f"unknown vertex {x!r}")
        return p

    @cached_property
    def _ring_set(self):
        return frozenset(self._ring)

    def _name(self, i):
        """The vertex of neighbour id ``i``: a window position, or n + the
        index of a ring vertex."""
        n = len(self._vertices)
        return self._vertices[i] if i < n else self._ring[i - n]

    def _row(self, x):
        """The pair range of ``x`` in the arrays."""
        p = self._require(x)
        return self.arrays.indptr[p:p + 2].tolist()

    def neighbors(self, x):
        lo, hi = self._row(x)
        return tuple(map(self._name, self._ids[lo:hi].tolist()))

    def incident(self, x):
        """(neighbor, conductance) pairs of ``x`` in canonical order."""
        lo, hi = self._row(x)
        return tuple(zip(map(self._name, self._ids[lo:hi].tolist()),
                         self.arrays.cond[lo:hi].tolist()))

    def degree(self, x):
        lo, hi = self._row(x)
        return hi - lo

    def conductance(self, x, y):
        """Edge conductance, 0.0 for non-adjacent pairs."""
        for z, c in self.incident(x):
            if z == y:
                return c
        return 0.0

    def total_conductance(self, x):
        """c(x), the sum of conductances of all edges at ``x``."""
        return float(self.arrays.ctot[self._require(x)])

    def distance(self, x):
        """Graph distance from the origin."""
        return int(self.arrays.dist[self._require(x)])

    # -- subsets, balls and boundaries --------------------------------------

    def _cut(self, radius):
        """|B_r|: the length of the search-order prefix that is the ball."""
        if radius < 0:
            raise DomainError("radius must be nonnegative")
        if not self.is_finite and radius > self.window_radius:
            raise WindowError(
                f"ball radius {radius} exceeds the materialized window "
                f"(radius {self.window_radius})")
        return int(self._cuts[min(radius, len(self._cuts) - 1)])

    def ball(self, radius):
        """Vertices within graph distance ``radius`` of the origin: a prefix
        of the search order, so O(|B_r|)."""
        return next(self._balls((radius,)))

    def _ball_positions(self, radius):
        """The sorted canonical positions of B_r."""
        return np.sort(self._order[:self._cut(radius)])

    def _balls(self, radii):
        """The balls of the increasing ``radii``, each grown from the last."""
        ball, lo = frozenset(), 0
        for r in radii:
            hi = self._cut(r)
            ball = ball.union(map(self._vertices.__getitem__, self._order[lo:hi].tolist()))
            lo = hi
            yield ball

    def _positions(self, subset):
        """The sorted canonical positions of a set of window vertices; the
        first vertex outside the window, in canonical order, raises
        :meth:`_require`'s error."""
        try:
            pos = np.fromiter(map(self._pos.__getitem__, subset), np.int64, len(subset))
        except KeyError:
            for x in vsorted(subset):
                self._require(x)
        return np.sort(pos)

    def _pairs(self, pos):
        """The pairs of the rows at window positions ``pos``, row after row,
        each row in ``incident`` order."""
        lo, hi = self.arrays.indptr[pos], self.arrays.indptr[pos + 1]
        deg = hi - lo
        return np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())

    def _leaving(self, pos):
        """For the sorted window positions ``pos``: the pairs of their rows
        that leave the vertex set ``pos``, in row order."""
        inside = np.zeros(len(self._vertices) + 1, dtype=bool)  # last: the ring
        inside[pos] = True
        pairs = self._pairs(pos)
        return pairs[~inside[self.arrays.nbr[pairs]]]

    def boundary_of(self, subset):
        """Vertices of ``subset`` having a neighbor outside it."""
        rows = self.arrays.rows[self._leaving(self._positions(frozenset(subset)))]
        return frozenset(map(self._vertices.__getitem__, np.unique(rows).tolist()))

    def interior_of(self, subset):
        """Vertices of ``subset`` all of whose neighbors lie in it."""
        sub = frozenset(subset)
        return sub - self.boundary_of(sub)


@dataclass(frozen=True)
class NetworkArrays:
    """A network as arrays indexed by canonical vertex position, built with
    the network.

    ``nbr``/``cond`` hold every vertex's incident pairs in :meth:`incident`
    order, row i spanning ``indptr[i]:indptr[i + 1]``, and ``rows`` the row of
    each entry; a neighbour beyond the window has index -1.
    ``edge_x``/``edge_y``/``edge_c`` list each edge inside the window once,
    from its end of smaller position, ordered by that end and then in
    ``incident`` order.  ``reach[i]`` is the largest distance over vertex i
    and its neighbours (inf next to a neighbour beyond the window), so vertex
    i is interior to the ball B_r exactly when ``reach[i] <= r``, and on its
    boundary when ``dist[i] == r < reach[i]``.  ``ctot[i]`` is c(x) of vertex
    i, its row of conductances added left to right.
    """

    dist: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    nbr: np.ndarray
    cond: np.ndarray
    edge_x: np.ndarray
    edge_y: np.ndarray
    edge_c: np.ndarray
    reach: np.ndarray
    ctot: np.ndarray

    @classmethod
    def of(cls, dist, degree, ids, cond):
        """From the distance and degree of each vertex, and the neighbour
        position (>= n beyond the window) and conductance of each pair."""
        n = len(dist)
        indptr = np.concatenate(([0], np.cumsum(degree)))
        rows = np.repeat(np.arange(n), degree)
        nbr = np.where(ids < n, ids, -1)
        inner = np.flatnonzero(nbr > rows)  # indices: faster to gather than a mask
        ex, ey = rows[inner], nbr[inner]
        farther, dx, dy = np.zeros(n, bool), dist[ex], dist[ey]
        farther[ex[dx < dy]] = farther[ey[dy < dx]] = True
        reach = np.add(dist, farther, dtype=float)  # neighbours' dist differ by <= 1
        reach[rows[nbr < 0]] = np.inf
        return cls(dist=dist, indptr=indptr, rows=rows, nbr=nbr, cond=cond,
                   edge_x=ex, edge_y=ey, edge_c=cond[inner], reach=reach,
                   ctot=np.bincount(rows, cond, minlength=n))


class Ball:
    """B_r as its radius: it iterates the vertices of ``net.ball(radius)``,
    in search order, without building the set.  The solver keys the systems
    of balls by radius and reads their positions from
    :meth:`Network._ball_positions`."""

    __slots__ = ("net", "radius")

    def __init__(self, net, radius):
        self.net, self.radius = net, radius

    def __len__(self):
        return self.net._cut(self.radius)

    def __iter__(self):
        net = self.net
        return map(net._vertices.__getitem__, net._order[:len(self)].tolist())


@dataclass(frozen=True)
class ExhaustionPlan(Sequence):
    """Nested increasing finite connected vertex sets exhausting a network.

    Stages are graph-distance balls around the origin, so nesting,
    connectedness and containment of the origin hold by construction.  A
    plan holds radii; it is the sequence of its stages, each ball built when
    it is read.
    """

    radii: tuple
    descriptor: str
    net: Network = field(repr=False)

    def __len__(self):
        return len(self.radii)

    def __iter__(self):
        return self.net._balls(self.radii)

    def __getitem__(self, k):
        return (tuple(map(self.net.ball, self.radii[k])) if isinstance(k, slice)
                else self.net.ball(self.radii[k]))

    @property
    def stages(self):
        return self

    @property
    def final(self):
        return self.net.ball(self.radii[-1])

    @property
    def final_radius(self):
        return self.radii[-1]


def make_exhaustion(net, radii, descriptor=None):
    """Build the exhaustion by balls of the given strictly increasing radii."""
    radii = tuple(int(r) for r in radii)
    if not radii:
        raise ConfigurationError("empty radius schedule")
    if any(r <= 0 for r in radii):
        raise ConfigurationError("radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigurationError(f"radius schedule must be strictly increasing: {radii}")
    net._cut(radii[-1])  # a ball beyond the window raises here
    if descriptor is None:
        descriptor = "balls:" + ",".join(str(r) for r in radii)
    return ExhaustionPlan(radii=radii, descriptor=descriptor, net=net)


def doubling_exhaustion(net):
    """Balls of radii 1, 2, 4, ... and ``net.max_radius``; a cheap way to
    reach a large window."""
    radii, r = [], 1
    while r < net.max_radius:
        radii.append(r)
        r *= 2
    return make_exhaustion(net, radii + [net.max_radius])


class VertexFunction:
    """Real-valued function on a finite vertex window with an explicit gauge.

    ``_values[i]`` is the value at vertex ``_vertices[_pos[i]]``: a tuple of
    ids in canonical order, and increasing positions into it, the window.
    A function computed on a network shares its ``vertices`` tuple
    (:meth:`at_positions`), so the network reads it by indexing; one built
    from a mapping is built on its own sorted keys.  An id is found by
    binary search in canonical order.

    The gauge records which representative of an energy equivalence class the
    values carry: ``origin-zero`` (value 0 at the origin), ``vanish-at-infinity``
    (values tending to 0 at the window edge) or ``raw``.  Reading a vertex
    outside the window raises :class:`WindowError`.
    """

    __slots__ = ("_vertices", "_pos", "_values", "gauge")

    def __init__(self, values, gauge=GAUGE_RAW):
        values = dict(values)
        keys = tuple(vsorted(values))
        if gauge not in GAUGES:
            raise ConfigurationError(f"unknown gauge {gauge!r}")
        self._vertices, self._pos, self.gauge = keys, np.arange(len(keys)), gauge
        self._values = np.fromiter(map(values.__getitem__, keys), float, len(keys))

    @classmethod
    def zero(cls, window, gauge=GAUGE_RAW):
        return cls({x: 0.0 for x in window}, gauge)

    @classmethod
    def at_positions(cls, vertices, pos, values, gauge=GAUGE_RAW):
        """The function with ``values[i]`` at vertex ``vertices[pos[i]]``, for
        a canonical vertex tuple and increasing positions ``pos``."""
        u = cls((), gauge)
        u._vertices, u._pos, u._values = vertices, np.asarray(pos), np.array(values, float)
        return u

    @classmethod
    def indicator(cls, window, on, gauge=GAUGE_RAW):
        on = frozenset(on)
        return cls({x: (1.0 if x in on else 0.0) for x in window}, gauge)

    def _index(self, x):
        """The index of vertex ``x`` in the arrays, or -1 off the window."""
        try:
            k = bisect_left(self._vertices, vertex_key(x), key=vertex_key)
        except TypeError:  # not a vertex id
            return -1
        i = int(np.searchsorted(self._pos, k))
        hit = i < len(self._pos) and self._pos[i] == k and self._vertices[k] == x
        return i if hit else -1

    def _ids(self):
        return map(self._vertices.__getitem__, self._pos.tolist())

    def _positions_in(self, net):
        """The increasing positions in ``net`` of the window vertices, and the
        values there: the function's own arrays when it is on
        ``net.vertices``, else translated through ``net._pos`` (both tuples
        are in canonical order)."""
        if self._vertices is net.vertices:
            return self._pos, self._values
        pos = np.fromiter(map(net._pos.get, self._ids(), repeat(-1)), np.int64, len(self))
        keep = np.flatnonzero(pos >= 0)
        return pos[keep], self._values[keep]

    @property
    def window(self):
        return frozenset(self._ids())

    def __contains__(self, x):
        return self._index(x) >= 0

    def __len__(self):
        return len(self._pos)

    def value(self, x):
        i = self._index(x)
        if i < 0:
            raise WindowError(f"vertex {x!r} is outside the function window")
        return float(self._values[i])

    __call__ = value

    def items(self):
        """(vertex, value) pairs in canonical vertex order."""
        return list(zip(self._ids(), self._values.tolist()))

    def _like(self, at, values, gauge):
        """``values`` at the window entries ``at``, on the same vertex tuple."""
        return VertexFunction.at_positions(self._vertices, self._pos[at], values, gauge)

    def restricted(self, window):
        at = {x: self._index(x) for x in frozenset(window)}
        missing = [x for x, i in at.items() if i < 0]
        if missing:
            raise WindowError(f"window extends beyond the function: {vsorted(missing)[:3]}")
        at = np.sort(np.fromiter(at.values(), np.int64, len(at)))
        return self._like(at, self._values[at], self.gauge)

    def shifted(self, k):
        """The representative u + k (same class, raw gauge)."""
        return self._like(slice(None), self._values + k, GAUGE_RAW)

    def pinned_at(self, origin):
        """The representative with value exactly 0 at ``origin``."""
        values = self._values - self.value(origin)
        values[self._index(origin)] = 0.0
        return self._like(slice(None), values, GAUGE_ORIGIN)

    def scaled(self, a):
        return self._like(slice(None), a * self._values, self.gauge)

    def _merge(self, other, op):
        theirs = np.fromiter(map(other._index, self._ids()), np.int64, len(self))
        at = np.flatnonzero(theirs >= 0)
        return self._like(at, op(self._values[at], other._values[theirs[at]]), GAUGE_RAW)

    def __add__(self, other):
        return self._merge(other, np.add)

    def __sub__(self, other):
        return self._merge(other, np.subtract)

    def __mul__(self, a):
        return self.scaled(float(a))

    __rmul__ = __mul__

    def __repr__(self):
        return f"VertexFunction(|window|={len(self)}, gauge={self.gauge!r})"
