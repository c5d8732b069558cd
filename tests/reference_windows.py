"""Reference windows: one breadth-first search over neighbour generators and
explicit edge lists, in plain Python, building the network's inputs vertex
by vertex, and the arrays a network derives from them
(:func:`pointwise_arrays`).  The closed-form windows of ``models.build``, the
array search of ``Network.from_edges`` and ``NetworkArrays.of`` are pinned
against it; the built-in families come here as neighbour generators, one
pure function of the vertex id each.  The per-vertex queries by id
(:func:`neighbors`, :func:`distance`, ...) read the network's arrays through
``Network._require`` and ``Network.incident``."""

from functools import partial
from itertools import chain, count, islice, product
from operator import itemgetter

import numpy as np

from resnet.errors import ConfigurationError, DomainError, UnsupportedModelError
from resnet.network import Ball, Network, NetworkArrays, vertex_key, vsorted


def explore(origin, neighbor_fn, radius):
    """Breadth-first search to distance ``radius``, returning ``(dist,
    adjacency)`` in search order; each adjacency drops zero conductances and
    is sorted, and visited, in vertex_key order of the neighbours."""
    dist, adjacency, order = {origin: 0}, {}, [origin]
    first = itemgetter(0)
    for x in order:
        nbrs = []
        for y, c in neighbor_fn(x):
            if y == x:
                raise DomainError(f"generator produced a self loop at {x!r}")
            c = float(c)
            if c < 0.0:
                raise DomainError(f"negative conductance on edge ({x!r}, {y!r})")
            if c != 0.0:
                nbrs.append((y, c))
        # Plain comparison gives vertex_key order unless ints mix with tuples.
        try:
            nbrs.sort(key=first)
        except TypeError:
            nbrs.sort(key=lambda e: vertex_key(e[0]))
        adjacency[x] = nbrs = tuple(nbrs)
        d = dist[x] + 1
        if d <= radius:
            for y, _ in nbrs:
                if y not in dist:
                    dist[y] = d
                    order.append(y)
    return dist, adjacency


def searched(origin, dist, adjacency, **kwargs):
    """The network of ``dist`` and ``adjacency`` as returned by
    :func:`explore`; it takes ``dist`` over."""
    try:
        verts = tuple(sorted(adjacency))
    except TypeError:  # ints mixed with tuples
        verts = tuple(vsorted(adjacency))
    n = len(verts)
    incident = [adjacency[x] for x in verts]
    pairs = list(chain.from_iterable(incident))
    dist_array = np.fromiter(map(dist.__getitem__, verts), np.int64, n)
    # Re-key the search-order dict from distances to canonical positions;
    # ids beyond the window get distinct values >= n, increasing in pair
    # order, and then n + i names the i-th of them.  The first n values are
    # the search order as positions.
    pos = dist
    pos.update(zip(verts, range(n)))
    ids = np.fromiter(map(pos.setdefault, map(itemgetter(0), pairs), count(n)),
                      np.int64, len(pairs))
    beyond = ids >= n
    ids[beyond] = n + np.unique(ids[beyond], return_inverse=True)[1]
    ring = tuple(islice(pos, n, None))
    order = np.fromiter(islice(pos.values(), n), np.int64, n)
    return Network(origin, verts, order, dist_array,
                   np.fromiter(map(len, incident), np.int64, n), ids,
                   np.fromiter(map(itemgetter(1), pairs), float, len(pairs)),
                   ring, **kwargs)


def from_generator(origin, neighbor_fn, radius):
    """The ball of the given radius around the origin.

    ``neighbor_fn(x)`` must return the complete, finite list of
    ``(neighbor, conductance)`` pairs of ``x`` and must be a pure function of
    ``x``; the search calls it once per window vertex.  Symmetry is checked
    once, bit-exactly, on the arrays.
    """
    if radius < 0:
        raise ConfigurationError("window radius must be nonnegative")
    dist, adjacency = explore(origin, neighbor_fn, radius)
    return searched(origin, dist, adjacency, window_radius=radius)


def explore_edges(origin, edges):
    """:func:`explore` over the explicit finite network of (u, v,
    conductance) triples, with parallel edges merged by a dict sum in input
    order."""
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
    dist, found = explore(origin, adjacency.__getitem__, float("inf"))
    if len(dist) < len(adjacency):
        raise DomainError("network is not connected")
    return dist, found


def from_edges(origin, edges):
    """The explicit finite network of (u, v, conductance) triples."""
    return searched(origin, *explore_edges(origin, edges))


def pointwise_arrays(dist, adjacency):
    """The :class:`NetworkArrays` of the window that :func:`explore` found,
    built vertex by vertex in plain Python: ``reach`` as the largest distance
    over each row (inf next to the ring), ``ctot`` added left to right and
    the edge lists by a loop."""
    verts = vsorted(adjacency)
    index = {x: i for i, x in enumerate(verts)}
    indptr, rows, nbr, cond, reach, ctot, edges = [0], [], [], [], [], [], []
    for i, x in enumerate(verts):
        far, total = dist[x], 0.0
        for y, c in adjacency[x]:
            j = index.get(y, -1)
            rows.append(i)
            nbr.append(j)
            cond.append(c)
            far = max(far, dist[y] if j >= 0 else float("inf"))
            total += c
            if j > i:
                edges.append((i, j, c))
        indptr.append(len(rows))
        reach.append(float(far))
        ctot.append(total)
    ints, floats = partial(np.array, dtype=np.int64), partial(np.array, dtype=float)
    edge_x, edge_y, edge_c = zip(*edges) if edges else ((), (), ())
    return NetworkArrays(dist=ints([dist[x] for x in verts]), indptr=ints(indptr),
                         rows=ints(rows), nbr=ints(nbr), cond=floats(cond),
                         edge_x=ints(edge_x), edge_y=ints(edge_y), edge_c=floats(edge_c),
                         reach=floats(reach), ctot=floats(ctot))


def has_vertex(net, x):
    """Whether ``x`` is a vertex of the window."""
    return x in net._pos


def neighbors(net, x):
    """The neighbours of ``x`` in canonical order, ring vertices included."""
    return tuple(y for y, _ in net.incident(x))


def degree(net, x):
    return len(net.incident(x))


def conductance(net, x, y):
    """Edge conductance, 0.0 for non-adjacent pairs."""
    return dict(net.incident(x)).get(y, 0.0)


def total_conductance(net, x):
    """c(x), the sum of conductances of all edges at ``x``."""
    return float(net.arrays.ctot[net._require(x)])


def distance(net, x):
    """Graph distance from the origin."""
    return int(net.arrays.dist[net._require(x)])


def positions(net, subset):
    """The sorted positions in ``net.vertices`` of a set of window vertices
    (a ``Ball`` too); the first vertex outside the window, in canonical
    order, raises the network's error for it."""
    subset = frozenset(subset)
    try:
        pos = np.fromiter(map(net._pos.__getitem__, subset), np.int64, len(subset))
    except KeyError:
        for x in vsorted(subset):
            net._require(x)
    return np.sort(pos)


def ball(net, radius):
    """The vertex set of B_radius."""
    return frozenset(Ball(net, radius))


def final_ball(plan):
    """The vertex set of the last stage of ``plan``."""
    return ball(plan.net, plan.final_radius)


def interior_of(net, subset):
    """The vertices of ``subset`` all of whose neighbours lie in it."""
    subset = frozenset(subset)
    return subset - net.boundary_of(subset)


def crossing_edges(net, subset):
    """Edges from inside ``subset`` to outside it, as (x, y, c) with x in,
    in canonical order of x and then of y."""
    pairs = net._leaving(positions(net, subset))
    return zip(map(net.vertices.__getitem__, net.arrays.rows[pairs].tolist()),
               map(net._name, pairs.tolist()),
               net.arrays.cond[pairs].tolist())


def cutset_sums(net):
    """Nash-Williams sums NW_r = Σ_{k <= r} 1/C_k for r = 0..window radius,
    where C_k is the total conductance from the sphere S_k to S_{k+1}, edges
    to the ring included: one bincount over the pairs of ``net.arrays`` that
    step outward, with no solve.  The cutsets are disjoint and each separates
    the origin from the complement of B_r, so NW_r bounds the wired
    resistance R_r from below, with equality when every sphere is at one
    potential (the lines, the geometric families, the star and the tree)."""
    a = net.arrays
    d = a.dist[a.rows]
    out = (a.nbr < 0) | (a.dist[a.nbr] > d)
    return np.cumsum(1.0 / np.bincount(d[out], a.cond[out]))


def lattice(dim, radius):
    """The L¹ ball of the given radius in Z^dim with unit conductances, by
    ``Network.from_edges``; vertices are dim-tuples, the origin all zeros.
    The ball's graph distance is the L¹ norm, so a wired stage of radius
    below ``radius`` sees the same edges as in the whole lattice."""
    pts = [p for p in product(range(-radius, radius + 1), repeat=dim)
           if sum(map(abs, p)) <= radius]
    inside, edges = set(pts), []
    for p in pts:
        for k in range(dim):
            q = p[:k] + (p[k] + 1,) + p[k + 1:]
            if q in inside:
                edges.append((p, q, 1.0))
    return Network.from_edges((0,) * dim, edges)


def geom_edge(c, a, b):
    """Conductance of the integer edge {a, b} = c^max(|a|, |b|)."""
    return c ** max(abs(a), abs(b))


def reference_generator(spec):
    """(origin, neighbour function) of a built-in family."""
    c = spec.c
    # The half-lines (geom_zplus, log_increment_line) stop at 0.
    half = spec.family in ("geom_zplus", "log_increment_line")
    if spec.family in ("unit_line", "log_increment_line"):
        def nbrs(n):
            return ((n + 1, 1.0),) if half and n <= 0 else ((n - 1, 1.0), (n + 1, 1.0))
        return 0, nbrs
    if spec.family in ("geom_z", "geom_zplus"):
        def nbrs(n):
            up = (n + 1, geom_edge(c, n, n + 1))
            return (up,) if half and n <= 0 else ((n - 1, geom_edge(c, n - 1, n)), up)
        return 0, nbrs
    if spec.family == "star":
        m = spec.arms

        def nbrs(v):
            b, d = v
            if d == 0:
                return [((arm, 1), c) for arm in range(m)]
            out = [((b, d - 1) if d > 1 else (0, 0), c ** d)]
            out.append(((b, d + 1), c ** (d + 1)))
            return out
        return (0, 0), nbrs
    if spec.family == "binary_tree":
        # Vertex (k, d) is the k-th node at depth d; children (2k, d+1), (2k+1, d+1).
        def nbrs(v):
            k, d = v
            out = [((2 * k, d + 1), 1.0), ((2 * k + 1, d + 1), 1.0)]
            if d > 0:
                out.append(((k // 2, d - 1), 1.0))
            return out
        return (0, 0), nbrs
    raise UnsupportedModelError(spec.family)


def reference_window(spec, radius):
    """The window of ``spec`` at ``radius``, from one breadth-first search."""
    origin, nbrs = reference_generator(spec)
    return from_generator(origin, nbrs, radius)


def reference_window_arrays(spec, radius):
    """The :func:`pointwise_arrays` of the window of ``spec`` at ``radius``."""
    origin, nbrs = reference_generator(spec)
    return pointwise_arrays(*explore(origin, nbrs, radius))
