"""Locally finite resistance networks and the machinery for exhausting them.

A network is a connected graph whose edges carry symmetric positive
conductances (reciprocal resistances), together with a distinguished origin
vertex.  Finite networks are built from an explicit edge list; infinite
families are backed by a pure generator function plus a hard window radius.
Every operation that would need information beyond the materialized window
raises :class:`~resnet.errors.WindowError` rather than truncating silently:
limits along exhaustions are always explicit in this package, never implied.

Vertex ids are integers, or tuples of integers for branched models such as
stars and trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    return sorted(vertices, key=vertex_key)


class Network:
    """Immutable weighted graph with a distinguished origin.

    Use :meth:`from_edges` for explicit finite networks and
    :meth:`from_generator` for generator-backed infinite families.  Instances
    are safe to share across threads; generators must be pure functions of
    the vertex id.
    """

    def __init__(self, origin, adjacency, *, generator=None, window_radius=None,
                 model=None):
        self.origin = origin
        self.generator = generator
        self.window_radius = window_radius
        self.model = model
        self._adj = {x: tuple(sorted(nbrs, key=lambda e: vertex_key(e[0])))
                     for x, nbrs in adjacency.items()}
        self._ctot = {x: sum(c for _, c in nbrs) for x, nbrs in self._adj.items()}
        self._validate()
        self._dist = self._distances_from_origin()
        if any(x not in self._dist for x in self._adj):
            raise DomainError("network is not connected")
        ring = set()
        for nbrs in self._adj.values():
            ring.update(y for y, _ in nbrs if y not in self._adj)
        self._ring = frozenset(ring)
        self._vertices = tuple(vsorted(self._adj))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, origin, edges, *, model=None):
        """Build an explicit finite network from (u, v, conductance) triples.

        Parallel edges are merged by summing their conductances.  Self loops,
        nonpositive conductances, isolated vertices and disconnected graphs
        are rejected.
        """
        merged = {}
        for u, v, c in edges:
            if u == v:
                raise DomainError(f"self loop at {u!r} is not allowed")
            c = float(c)
            if c < 0.0:
                raise DomainError(f"negative conductance on edge ({u!r}, {v!r})")
            if c == 0.0:
                continue
            key = tuple(vsorted((u, v)))
            merged[key] = merged.get(key, 0.0) + c
        adjacency = {}
        for (u, v), c in merged.items():
            adjacency.setdefault(u, []).append((v, c))
            adjacency.setdefault(v, []).append((u, c))
        if origin not in adjacency:
            raise DomainError(f"origin {origin!r} has no incident edge")
        return cls(origin, adjacency, model=model)

    @classmethod
    def from_generator(cls, origin, neighbor_fn, radius, *, model=None):
        """Materialize the ball of the given radius around the origin.

        ``neighbor_fn(x)`` must return the complete, finite list of
        ``(neighbor, conductance)`` pairs of ``x`` and must be a pure
        function of ``x``.  Conductance symmetry is checked bit-exactly on
        every materialized edge.
        """
        if radius < 0:
            raise ConfigurationError("window radius must be nonnegative")
        dist = {origin: 0}
        adjacency = {}
        queue = deque([origin])
        while queue:
            x = queue.popleft()
            nbrs = []
            for y, c in neighbor_fn(x):
                if y == x:
                    raise DomainError(f"generator produced a self loop at {x!r}")
                c = float(c)
                if c < 0.0:
                    raise DomainError(f"negative conductance on edge ({x!r}, {y!r})")
                if c == 0.0:
                    continue
                nbrs.append((y, c))
                if y not in dist and dist[x] + 1 <= radius:
                    dist[y] = dist[x] + 1
                    queue.append(y)
            adjacency[x] = nbrs
        for x, nbrs in adjacency.items():
            for y, c in nbrs:
                if y in adjacency:
                    back = dict(adjacency[y]).get(x)
                    if back != c:
                        raise DomainError(
                            f"asymmetric conductance on edge ({x!r}, {y!r}): "
                            f"{c!r} vs {back!r}")
        return cls(origin, adjacency, generator=neighbor_fn,
                   window_radius=radius, model=model)

    def _validate(self):
        for x, nbrs in self._adj.items():
            seen = set()
            for y, c in nbrs:
                if y == x:
                    raise DomainError(f"self loop at {x!r}")
                if c <= 0.0:
                    raise DomainError(f"nonpositive conductance on ({x!r}, {y!r})")
                if y in seen:
                    raise DomainError(f"duplicate edge ({x!r}, {y!r})")
                seen.add(y)
            if self._ctot[x] <= 0.0:
                raise DomainError(f"vertex {x!r} is isolated")
        for x, nbrs in self._adj.items():
            for y, c in nbrs:
                if y in self._adj and self.conductance(y, x) != c:
                    raise DomainError(f"asymmetric conductance on ({x!r}, {y!r})")

    def _distances_from_origin(self):
        dist = {self.origin: 0}
        queue = deque([self.origin])
        while queue:
            x = queue.popleft()
            for y, _ in self._adj[x]:
                if y in self._adj and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    # -- basic queries -----------------------------------------------------

    @property
    def is_finite(self):
        """True when the whole vertex set is known (explicit construction)."""
        return self.generator is None

    @property
    def vertices(self):
        """Materialized vertices in canonical order."""
        return self._vertices

    def has_vertex(self, x):
        return x in self._adj

    def _require(self, x):
        if x not in self._adj:
            if x in self._ring:
                raise WindowError(
                    f"vertex {x!r} lies beyond the materialized window "
                    f"(radius {self.window_radius})")
            raise DomainError(f"unknown vertex {x!r}")

    def neighbors(self, x):
        self._require(x)
        return tuple(y for y, _ in self._adj[x])

    def incident(self, x):
        """(neighbor, conductance) pairs of ``x`` in canonical order."""
        self._require(x)
        return self._adj[x]

    def degree(self, x):
        self._require(x)
        return len(self._adj[x])

    def conductance(self, x, y):
        """Edge conductance, 0.0 for non-adjacent pairs."""
        self._require(x)
        for z, c in self._adj[x]:
            if z == y:
                return c
        return 0.0

    def total_conductance(self, x):
        """c(x), the sum of conductances of all edges at ``x``."""
        self._require(x)
        return self._ctot[x]

    def distance(self, x):
        """Graph distance from the origin."""
        self._require(x)
        return self._dist[x]

    @cached_property
    def arrays(self):
        """The network as :class:`NetworkArrays`, built on first use and kept
        on this instance (so it is freed with the network)."""
        return NetworkArrays.of(self)

    # -- subsets, balls and boundaries --------------------------------------

    def ball(self, radius):
        """Vertices within graph distance ``radius`` of the origin."""
        if radius < 0:
            raise DomainError("radius must be nonnegative")
        if not self.is_finite and radius > self.window_radius:
            raise WindowError(
                f"ball radius {radius} exceeds the materialized window "
                f"(radius {self.window_radius})")
        return frozenset(v for v, d in self._dist.items() if d <= radius)

    def boundary_of(self, subset):
        """Vertices of ``subset`` having a neighbor outside it."""
        sub = frozenset(subset)
        out = set()
        for x in sub:
            self._require(x)
            if any(y not in sub for y, _ in self._adj[x]):
                out.add(x)
        return frozenset(out)

    def interior_of(self, subset):
        """Vertices of ``subset`` all of whose neighbors lie in it."""
        sub = frozenset(subset)
        return sub - self.boundary_of(sub)

    def edges_within(self, subset):
        """Each edge with both ends in ``subset``, once, in canonical order."""
        sub = frozenset(subset)
        for x in vsorted(sub):
            self._require(x)
            xk = vertex_key(x)
            for y, c in self._adj[x]:
                if y in sub and vertex_key(y) > xk:
                    yield x, y, c

    def crossing_edges(self, subset):
        """Edges from inside ``subset`` to outside it, as (x, y, c) with x in."""
        sub = frozenset(subset)
        for x in vsorted(sub):
            self._require(x)
            for y, c in self._adj[x]:
                if y not in sub:
                    yield x, y, c


@dataclass(frozen=True)
class NetworkArrays:
    """A network as arrays indexed by canonical vertex position.

    ``nbr``/``cond`` hold every vertex's incident pairs in :meth:`incident`
    order, row i spanning ``indptr[i]:indptr[i + 1]``; a neighbour beyond the
    window has index -1.  ``edge_x``/``edge_y``/``edge_c`` list the edges of
    ``edges_within(vertices)`` in its order.  ``reach[i]`` is the largest
    distance over vertex i and its neighbours (inf next to a neighbour beyond
    the window), so vertex i is interior to the ball B_r exactly when
    ``reach[i] <= r``, and on its boundary when ``dist[i] == r < reach[i]``.
    """

    dist: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray
    cond: np.ndarray
    edge_x: np.ndarray
    edge_y: np.ndarray
    edge_c: np.ndarray
    reach: np.ndarray

    @classmethod
    def of(cls, net):
        verts = net.vertices
        n = len(verts)
        pos = {x: i for i, x in enumerate(verts)}
        adj = net._adj
        dist = np.fromiter((net._dist[x] for x in verts), np.int64, n)
        indptr = np.zeros(n + 1, np.int64)
        np.cumsum([len(adj[x]) for x in verts], out=indptr[1:])
        m = int(indptr[-1])
        nbr = np.fromiter((pos.get(y, -1) for x in verts for y, _ in adj[x]),
                          np.int64, m)
        cond = np.fromiter((c for x in verts for _, c in adj[x]), float, m)
        row = np.repeat(np.arange(n), np.diff(indptr))
        inner = nbr > row
        reach = dist.astype(float)
        np.maximum.at(reach, row, np.where(nbr >= 0, dist[nbr], np.inf))
        return cls(dist=dist, indptr=indptr, nbr=nbr, cond=cond,
                   edge_x=row[inner], edge_y=nbr[inner], edge_c=cond[inner],
                   reach=reach)

    @property
    def rows(self):
        """The row (vertex position) of every entry of ``nbr``."""
        return np.repeat(np.arange(len(self.dist)), np.diff(self.indptr))


@dataclass(frozen=True)
class ExhaustionPlan:
    """Nested increasing finite connected vertex sets exhausting a network.

    Stages are graph-distance balls around the origin, so nesting,
    connectedness and containment of the origin hold by construction.
    """

    stages: tuple
    radii: tuple
    descriptor: str

    def __len__(self):
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    @property
    def final(self):
        return self.stages[-1]

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
    stages = tuple(net.ball(r) for r in radii)
    if descriptor is None:
        descriptor = "balls:" + ",".join(str(r) for r in radii)
    return ExhaustionPlan(stages=stages, radii=radii, descriptor=descriptor)


def doubling_exhaustion(net, max_radius=None, first=1):
    """Balls at geometrically growing radii; cheap way to reach a large window."""
    if max_radius is None:
        max_radius = net.window_radius if not net.is_finite else max(
            1, max(net.distance(v) for v in net.vertices))
    radii = []
    r = first
    while r < max_radius:
        radii.append(r)
        r *= 2
    radii.append(max_radius)
    return make_exhaustion(net, radii)


class VertexFunction:
    """Real-valued function on a finite vertex window with an explicit gauge.

    The gauge records which representative of an energy equivalence class the
    values carry: ``origin-zero`` (value 0 at the origin), ``vanish-at-infinity``
    (values tending to 0 at the window edge) or ``raw``.  Reading a vertex
    outside the window raises :class:`WindowError`.
    """

    __slots__ = ("_values", "gauge")

    def __init__(self, values, gauge=GAUGE_RAW):
        if gauge not in GAUGES:
            raise ConfigurationError(f"unknown gauge {gauge!r}")
        self._values = dict(values)
        self.gauge = gauge

    @classmethod
    def zero(cls, window, gauge=GAUGE_RAW):
        return cls({x: 0.0 for x in window}, gauge)

    @classmethod
    def indicator(cls, window, on, gauge=GAUGE_RAW):
        on = frozenset(on)
        return cls({x: (1.0 if x in on else 0.0) for x in window}, gauge)

    @property
    def window(self):
        return frozenset(self._values)

    def __contains__(self, x):
        return x in self._values

    def __len__(self):
        return len(self._values)

    def value(self, x):
        try:
            return self._values[x]
        except KeyError:
            raise WindowError(f"vertex {x!r} is outside the function window") from None

    __call__ = value

    def items(self):
        """(vertex, value) pairs in canonical vertex order."""
        return [(x, self._values[x]) for x in vsorted(self._values)]

    def restricted(self, window):
        window = frozenset(window)
        missing = window - self.window
        if missing:
            raise WindowError(f"window extends beyond the function: {vsorted(missing)[:3]}")
        return VertexFunction({x: self._values[x] for x in window}, self.gauge)

    def shifted(self, k):
        """The representative u + k (same class, raw gauge)."""
        return VertexFunction({x: v + k for x, v in self._values.items()}, GAUGE_RAW)

    def pinned_at(self, origin):
        """The representative with value exactly 0 at ``origin``."""
        u0 = self.value(origin)
        vals = {x: v - u0 for x, v in self._values.items()}
        vals[origin] = 0.0
        return VertexFunction(vals, GAUGE_ORIGIN)

    def scaled(self, a):
        return VertexFunction({x: a * v for x, v in self._values.items()}, self.gauge)

    def _merge(self, other, op):
        window = self.window & other.window
        return VertexFunction({x: op(self._values[x], other._values[x]) for x in window},
                              GAUGE_RAW)

    def __add__(self, other):
        return self._merge(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._merge(other, lambda a, b: a - b)

    def __mul__(self, a):
        return self.scaled(float(a))

    __rmul__ = __mul__

    def __repr__(self):
        return f"VertexFunction(|window|={len(self)}, gauge={self.gauge!r})"
