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
once, on them.  A window is the sorted int64 positions of its vertices in
:attr:`Network.vertices`, and a function on it the array of its values
there, on that vertex sequence (:class:`VertexFunction`).  A ball is a radius:
B_r is a prefix of the search order, and an exhaustion plan keeps radii.

Vertex ids are integers, or tuples of integers for branched models such as
stars and trees.  A public entry that takes an id reads it once, by
:meth:`Network._require`, which refuses an unknown id (DomainError) and a ring
id (WindowError); everything below works on positions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from .errors import ConfigurationError, DomainError, WindowError

GAUGE_ORIGIN = "origin-zero"
GAUGE_VANISH = "vanish-at-infinity"
GAUGE_RAW = "raw"
GAUGES = (GAUGE_ORIGIN, GAUGE_VANISH, GAUGE_RAW)

_BLOCK = 8192  # pairs per gather: 64 KiB reuses freed memory, not fresh pages


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


def _ints(values, error, what):
    """``values`` as a tuple of ints; ``error`` naming ``what`` at the first
    that is a bool or neither an int nor a numpy integer."""
    values = tuple(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise error(f"{what}, got {v!r}")
    return tuple(map(int, values))


def _stable_order(key):
    """The stable argsort of ``key``, or ``slice(None)`` if it is sorted."""
    return slice(None) if (key[1:] >= key[:-1]).all() else np.argsort(key, kind="stable")


class Network:
    """Immutable weighted graph with a distinguished origin.

    A window comes as arrays over canonical vertex positions, and every
    network is built on them by one constructor.  The built-in families
    (:func:`resnet.models.build`) give their windows in closed form;
    :meth:`from_edges` gives an explicit finite network its arrays from one
    breadth-first search.  ``arrays``, the :class:`NetworkArrays` of the
    window, is the one representation of it that every query, solve and walk
    reads.  ``vertices`` is an immutable sequence in canonical order: a
    ``range`` on the line families, a tuple elsewhere.  The search order is
    an int array of positions, and the dict from vertex id to position is
    built on the first :meth:`_require`.  A network keeps no solver state:
    each solve assembles and factors its own system.  Instances are safe to
    share across threads.
    """

    def __init__(self, origin, vertices, order, dist, degree, ids, cond, ring, *,
                 window_radius=None, model=None):
        """The window as arrays: ``vertices``, a sequence in canonical order;
        ``order``, the canonical positions in search order (distances
        nondecreasing); ``dist`` and ``degree``, the distance and row length of
        each vertex; ``ids`` and ``cond``, the neighbour and conductance of
        each pair, rows in canonical order and each row in canonical order of
        its neighbours.  A neighbour in the window is its position; the i-th
        pair that leaves the window reaches ``ring[i]``, and its id is n + i.
        The network owns these arrays: ``ids`` becomes ``arrays.nbr`` in place."""
        self.origin, self.model, self.window_radius = origin, model, window_radius
        self._vertices, self._order, self._ring = vertices, order, ring
        rows = np.repeat(np.arange(len(vertices)), degree)
        # A sorted row puts a duplicate right after its twin; ring ids still differ.
        twin = np.flatnonzero((ids[1:] == ids[:-1]) & (rows[1:] == rows[:-1]))
        ids[ids >= len(vertices)] = -1
        self.arrays, symmetric = NetworkArrays.of(dist, degree, rows, ids, cond)
        self._validate(twin, symmetric)
        # Ball B_r is the first _cuts[r] vertices of the search order.
        counts = np.bincount(self.arrays.dist)
        self._cuts = np.cumsum(counts, out=counts)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, origin, edges):
        """Build an explicit finite network from (u, v, conductance) triples.

        Parallel edges are merged by summing their conductances in input
        order.  Self loops, negative or non-finite conductances, an origin
        with no edge and disconnected graphs are rejected; zero conductances
        are dropped.
        """
        kept = []
        for u, v, c in edges:
            if u == v:
                raise DomainError(f"self loop at {u!r} is not allowed")
            c = float(c)
            if not math.isfinite(c):
                raise DomainError(f"non-finite conductance on edge ({u!r}, {v!r})")
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

    def _validate(self, twin, symmetric):
        """Reject duplicate pairs (each pair in ``twin`` repeats the next one),
        isolated vertices, a total conductance c(x) that overflows and, unless
        the arrays found the pairs ``symmetric``, one-sided or (bit-exactly)
        asymmetric edges."""
        a, verts = self.arrays, self._vertices
        if twin.size:
            x, y = verts[a.rows[twin[0]]], self._name(int(twin[0]))
            raise DomainError(f"duplicate edge ({x!r}, {y!r})")
        isolated = np.flatnonzero(a.indptr[1:] == a.indptr[:-1])
        if isolated.size:
            raise DomainError(f"vertex {verts[isolated[0]]!r} is isolated")
        overflow = np.flatnonzero(np.isinf(a.ctot))
        if overflow.size:
            raise DomainError(f"total conductance of vertex {verts[overflow[0]]!r} "
                              "overflows float64")
        if symmetric:
            return
        # Only a failure is searched, for the first bad pair.
        n = len(verts)
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
        """Materialized vertices in canonical order, an immutable sequence."""
        return self._vertices

    @property
    def max_radius(self):
        """The window radius, or on a finite network the largest distance."""
        return len(self._cuts) - 1 if self.is_finite else self.window_radius

    @cached_property
    def _pos(self):
        return dict(zip(self._vertices, range(len(self._vertices))))

    def _require(self, x):
        """The position of window vertex ``x``."""
        p = self._pos.get(x)
        if p is None:
            if x in self._ring:
                raise WindowError(
                    f"vertex {x!r} lies beyond the materialized window "
                    f"(radius {self.window_radius})")
            raise DomainError(f"unknown vertex {x!r}")
        return p

    @cached_property
    def _beyond(self):
        """The pairs that leave the window, in order."""
        return np.flatnonzero(self.arrays.nbr < 0)

    def _name(self, pair):
        """The vertex that pair ``pair`` reaches: a window vertex, or the ring
        vertex of the pair's rank among those leaving the window."""
        i = int(self.arrays.nbr[pair])
        return self._vertices[i] if i >= 0 else self._ring[
            int(np.searchsorted(self._beyond, pair))]

    def incident(self, x):
        """(neighbor, conductance) pairs of ``x`` in canonical order."""
        p = self._require(x)
        lo, hi = self.arrays.indptr[p:p + 2].tolist()
        return tuple(zip(map(self._name, range(lo, hi)), self.arrays.cond[lo:hi].tolist()))

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

    def _covers(self, radius):
        """Whether B_r is the whole of a finite network, so that no edge
        leaves it: its wired and free problems are one."""
        return self.is_finite and self._cut(radius) == len(self._vertices)

    def _ball_positions(self, radius):
        """The sorted canonical positions of B_r."""
        return np.sort(self._order[:self._cut(radius)])

    def _pairs(self, pos):
        """The pairs of the rows at window positions ``pos``, row after row,
        each row in ``incident`` order."""
        lo, hi = self.arrays.indptr[pos], self.arrays.indptr[pos + 1]
        deg = hi - lo
        return np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())

    def _inside(self, pairs):
        """``pairs``, if every neighbour they reach lies in the window; the
        first that does not raises WindowError naming it."""
        beyond = pairs[self.arrays.nbr[pairs] < 0]
        if beyond.size:
            self._require(self._name(int(beyond[0])))
        return pairs

    def _leaving(self, pos):
        """For the sorted window positions ``pos``: the pairs of their rows
        that leave the vertex set ``pos``, in row order."""
        inside = np.zeros(len(self._vertices) + 1, dtype=bool)  # last: the ring
        inside[pos] = True
        pairs = self._pairs(pos)
        return pairs[~inside[self.arrays.nbr[pairs]]]

    def _interior(self, pos):
        """The sorted window positions ``pos`` less those with a neighbour
        outside them."""
        return np.setdiff1d(pos, self.arrays.rows[self._leaving(pos)])

    def boundary_of(self, subset):
        """Vertices of ``subset`` having a neighbor outside it."""
        pos = np.fromiter(map(self._require, vsorted(frozenset(subset))), np.int64)
        rows = self.arrays.rows[self._leaving(pos)]
        return frozenset(map(self._vertices.__getitem__, np.unique(rows).tolist()))


@dataclass(frozen=True)
class NetworkArrays:
    """A network as arrays indexed by canonical vertex position, built with
    the network.

    ``nbr``/``cond`` hold every vertex's incident pairs in :meth:`incident`
    order, row i spanning ``indptr[i]:indptr[i + 1]``, and ``rows`` the row of
    each entry (``nbr`` is the constructor's ``ids``, -1 beyond the window).
    They are the window's only edge list: :meth:`edges` names the pair of
    each edge inside the window.  ``reach[i]`` is the largest distance over
    vertex i and its neighbours (inf next to a neighbour beyond the window),
    so vertex i is interior to the ball B_r exactly when ``reach[i] <= r``,
    and on its boundary when ``dist[i] == r < reach[i]``.  ``ctot[i]`` is c(x)
    of vertex i, its row of conductances added left to right.
    """

    dist: np.ndarray
    indptr: np.ndarray
    rows: np.ndarray
    nbr: np.ndarray
    cond: np.ndarray
    reach: np.ndarray
    ctot: np.ndarray

    @classmethod
    def of(cls, dist, degree, rows, nbr, cond):
        """From the distance and degree of each vertex, and the row, neighbour
        position (-1 beyond the window) and conductance of each pair, uncopied:
        the arrays, and whether each pair inside the window has its reverse
        with the same conductance, bit for bit."""
        n = len(dist)
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum(degree, out=indptr[1:])
        arrays = cls(dist=dist, indptr=indptr, rows=rows, nbr=nbr, cond=cond,
                     reach=dist.astype(float),
                     ctot=np.bincount(rows, cond, minlength=n))
        # The pairs are symmetric exactly when the pairs below the diagonal,
        # reversed and sorted (stably by neighbour: rows come in order), are
        # the edges.  Both ends of each edge are found once, a block at a
        # time, for this and for reach.
        edges = arrays.edges()
        lower = np.flatnonzero((nbr < rows) & (nbr >= 0))
        lower = lower[_stable_order(nbr[lower])]
        symmetric = len(lower) == len(edges)
        farther = np.zeros(n, bool)
        for lo in range(0, len(edges), _BLOCK):
            at, back = edges[lo:lo + _BLOCK], lower[lo:lo + _BLOCK]
            ex, ey = rows[at], nbr[at]
            step = dist[ey] - dist[ex]
            farther[ex[step > 0]] = farther[ey[step < 0]] = True
            symmetric = symmetric and (np.array_equal(nbr[back], ex)
                                       and np.array_equal(rows[back], ey)
                                       and np.array_equal(cond[back], cond[at]))
        arrays.reach[farther] += 1.0  # neighbours' dist differ by <= 1
        arrays.reach[rows[nbr < 0]] = np.inf
        return arrays, symmetric

    def edges(self):
        """The pairs that are edges inside the window, those with ``nbr >
        rows``: each edge once, from its end of smaller position, ordered by
        that end and then in :meth:`Network.incident` order."""
        return np.flatnonzero(self.nbr > self.rows)  # indices: faster to gather than a mask


class Ball:
    """B_r as its radius: it iterates the vertices of B_r in search order.
    The solver reads its positions from :meth:`Network._ball_positions`."""

    __slots__ = ("net", "radius")

    def __init__(self, net, radius):
        self.net, self.radius = net, radius

    def __len__(self):
        return self.net._cut(self.radius)

    def __iter__(self):
        net = self.net
        return map(net._vertices.__getitem__, net._order[:len(self)].tolist())


@dataclass(frozen=True)
class ExhaustionPlan:
    """Nested increasing finite connected vertex sets exhausting a network.

    Stages are graph-distance balls around the origin, so nesting,
    connectedness and containment of the origin hold by construction.  A
    plan holds radii; its stages are the :class:`Ball` of each radius.
    """

    radii: tuple
    descriptor: str
    net: Network = field(repr=False)

    @property
    def stages(self):
        return tuple(Ball(self.net, r) for r in self.radii)

    @property
    def final_radius(self):
        return self.radii[-1]


def make_exhaustion(net, radii, descriptor=None):
    """Build the exhaustion by balls of the given strictly increasing radii."""
    radii = _ints(radii, ConfigurationError, "radii must be ints")
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

    ``VertexFunction(vertices, pos, values)`` has ``values[i]`` at vertex
    ``vertices[pos[i]]``: the vertex sequence of a network, and increasing
    positions into it, the window.  An id is found by binary search in
    canonical order.

    The gauge records which representative of an energy equivalence class the
    values carry: ``origin-zero`` (value 0 at the origin), ``vanish-at-infinity``
    (values tending to 0 at the window edge) or ``raw``.  Reading a vertex
    outside the window raises :class:`WindowError`.  The constructor copies
    ``values``; the package's own builders hand theirs over uncopied (:meth:`_of`).
    """

    __slots__ = ("_vertices", "_pos", "_values", "gauge")

    def __init__(self, vertices, pos, values, gauge=GAUGE_RAW):
        if gauge not in GAUGES:
            raise ConfigurationError(f"unknown gauge {gauge!r}")
        self._vertices, self._pos, self.gauge = vertices, np.asarray(pos, np.int64), gauge
        self._values = np.array(values, float)
        self._values.flags.writeable = False  # the operators read it in place

    @classmethod
    def _of(cls, vertices, pos, values, gauge=GAUGE_RAW):
        """The function of ``values``, taken over uncopied if a float array."""
        f = cls(vertices, pos, (), gauge)
        f._values = values = np.asarray(values, float)
        values.flags.writeable = False
        return f

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

    def _on(self, vertices):
        """Positions and values of a function on the sequence ``vertices``."""
        if self._vertices is not vertices:
            raise DomainError("function is not on the network's vertices")
        return self._pos, self._values

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
        """``values``, made for it, at the window entries ``at``, on the same
        vertex sequence."""
        return VertexFunction._of(self._vertices, self._pos[at], values, gauge)

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
        pos, values = other._on(self._vertices)
        _, mine, theirs = np.intersect1d(self._pos, pos, assume_unique=True,
                                         return_indices=True)
        return self._like(mine, op(self._values[mine], values[theirs]), GAUGE_RAW)

    def __add__(self, other):
        return self._merge(other, np.add)

    def __sub__(self, other):
        return self._merge(other, np.subtract)

    def __mul__(self, a):
        return self.scaled(float(a))

    __rmul__ = __mul__

    def __repr__(self):
        return f"VertexFunction(|window|={len(self)}, gauge={self.gauge!r})"
