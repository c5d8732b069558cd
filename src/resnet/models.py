"""Built-in network families with closed-form oracles.

Families
--------
``geom_z``              integers, edge (n-1, n) has conductance c^max(|n|,|n-1|)
``geom_zplus``          nonnegative integers with the same conductances
``star``                m copies of geom_zplus glued at a common origin
``unit_line``           integers with unit conductances
``binary_tree``         rooted binary tree, unit conductances
``log_increment_line``  nonnegative integers, unit conductances (carrier of the
                        exhaustion-dependence test function)

:func:`build` gives each family's window in closed form, as numpy arrays
in the order a breadth-first search from the origin would visit them, and
refuses a window too large before allocating it.  The geometric
conductances c^k are the Python floats ``c ** k``.

Oracles for the geometric families (r = 1/c):

* dipole kernel    v_n(k) = sum_{j=1..min(|k|,|n|)} r^j on the side of n,
                   0 on the other side, constant past n; solves
                   Δv_n = δ_n − δ_0 with v_n(0) = 0.
* monopole         w_o(n) = a r^|n| with a = r/(2(1−r)) on geom_z and
                   a = r/(1−r) on geom_zplus; solves Δw_o = δ_0 and
                   E(w_o) = a.
* harmonic         h(n) = sgn(n)(1 − r^|n|) on geom_z (Δh ≡ 0, asymptotes
                   ±1, E(h) = 2(1−r)/r); the zero function on geom_zplus.

Every oracle is validated against its defining pointwise equation by
:func:`oracle_residuals`; a formula that failed that check would be
quarantined rather than shipped.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, UnsupportedModelError
from .network import GAUGE_ORIGIN, GAUGE_VANISH, Network, VertexFunction, _ints

FAMILIES = ("geom_z", "geom_zplus", "star", "unit_line", "binary_tree",
            "log_increment_line")

_GEOMETRIC = ("geom_z", "geom_zplus", "star")
# The parameters each family reads; every family reads its window radius.
_PARAMS = {"geom_z": ("c",), "geom_zplus": ("c",), "star": ("c", "arms")}

# Windows with more vertices than this are refused before they are built.
MAX_WINDOW_VERTICES = 2 ** 20


@dataclass(frozen=True)
class ModelSpec:
    """A built-in family plus its parameters.

    Parameters: ``c`` (conductance base, geometric families), ``arms``
    (star arm count), ``radius`` (default window radius); a parameter the
    family does not read is refused, and so are a base c that is not a finite
    positive real and an arm count or radius that is not an int.
    """

    family: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UnsupportedModelError(
                f"unknown model family {self.family!r}; choose from {FAMILIES}")
        reads = ("radius", *_PARAMS.get(self.family, ()))
        unread = sorted(set(self.params) - set(reads))
        if unread:
            raise ConfigurationError(
                f"model {self.family} does not read {', '.join(map(repr, unread))}; "
                f"its parameters are {', '.join(reads)}")
        for name in ("arms", "radius"):
            if name in self.params:
                _ints([self.params[name]], ConfigurationError, f"{name} must be an int")
        c = self.params.get("c", 2.0)  # not read through float(): True or "2" is no base
        if self.family in _GEOMETRIC and (isinstance(c, bool) or not isinstance(
                c, numbers.Real) or not 0.0 < c < math.inf):  # NaN fails too
            raise ConfigurationError(f"conductance base c must be finite and positive, got {c!r}")
        if self.family == "star" and self.arms < 1:
            raise ConfigurationError("a star needs at least one arm")

    @property
    def c(self):
        return float(self.params.get("c", 2.0))

    @property
    def r(self):
        return 1.0 / self.c

    @property
    def arms(self):
        return int(self.params.get("arms", 3))

    @property
    def radius(self):
        return int(self.params.get("radius", 30))


def _check_window(spec, radius):
    """Refuse a window of more than MAX_WINDOW_VERTICES vertices, from the
    family's closed-form window size, before anything is allocated."""
    m = MAX_WINDOW_VERTICES
    if spec.family == "binary_tree":
        largest, size = (m + 1).bit_length() - 2, f"2^{radius + 1} - 1"
    elif spec.family == "star":
        largest, size = (m - 1) // spec.arms, spec.arms * radius + 1
    elif spec.family in ("geom_zplus", "log_increment_line"):
        largest, size = m - 1, radius + 1
    else:
        largest, size = (m - 1) // 2, 2 * radius + 1
    if radius > largest:
        raise ConfigurationError(
            f"a {spec.family} window of radius {radius} has {size} vertices, more "
            f"than {m}; the largest radius that fits is {largest}")
    # An edge vertex has the largest c(x): c^radius + c^(radius + 1).
    if spec.family in _GEOMETRIC and not _in_float_range(spec.c, radius + 1):
        raise ConfigurationError(
            f"a {spec.family} window of radius {radius} needs conductance "
            f"c^{radius + 1} = {spec.c:g}^{radius + 1}, and c(x) = c^{radius} + "
            f"c^{radius + 1} at its edge, and one of them is not a positive finite "
            f"float; the largest radius that base allows is {_largest_exponent(spec.c) - 1}")


def _in_float_range(c, k):
    """Whether the float c ** k is positive and c ** (k - 1) + c ** k finite."""
    try:
        return 0.0 < c ** k and c ** (k - 1) + c ** k < math.inf
    except OverflowError:
        return False


def _largest_exponent(c):
    """The largest k that :func:`_in_float_range` allows, for c != 1: a
    logarithmic estimate, then settled on c ** k itself."""
    bound = sys.float_info.max if c > 1.0 else math.ulp(0.0)
    k = int(math.log(bound) / math.log(c))
    while not _in_float_range(c, k):
        k -= 1
    while _in_float_range(c, k + 1):
        k += 1
    return k


# Each family's window is (origin, vertices, order, dist, degree, ids, cond,
# ring): the arguments of Network, but the search order as positions and id
# -1 for every ring neighbour.  Rows and their pairs come in canonical order.


def _line(spec, radius, powers):
    """The integer window -R..R, or 0..R on a half-line; edge {n - 1, n}
    carries powers[max(|n - 1|, |n|)]."""
    half = spec.family in ("geom_zplus", "log_increment_line")
    lo = 0 if half else -radius
    n = radius + 1 - lo
    # Row p pairs with p - 1 and p + 1 (-1 past either end) over edges p, p + 1.
    pairs = np.empty((n, 2), np.int64)
    pairs[:, 0] = np.arange(-1, n - 1)
    pairs[:, 1] = np.arange(1, n + 1)
    pairs[0, 0] = pairs[-1, 1] = -1
    size = np.arange(lo - 1, radius + 2)
    np.abs(size, out=size)
    edge = powers[np.maximum(size[:-1], size[1:])]  # edge p: {lo + p - 1, lo + p}
    degree = np.full(n, 2)
    degree[:half] = 1  # the half-line's 0 has one neighbour
    if half:
        order, ring = size[1:-1], (radius + 1,)  # 0..R: the distances too
    else:
        # 0, -1, 1, -2, 2, ...: positions from the centre outwards.
        order = radius + np.outer(np.arange(radius + 1), [-1, 1]).ravel()[1:]
        ring = (lo - 1, radius + 1)
    return (0, range(lo, radius + 1), order, size[1:-1], degree,
            pairs.ravel()[half:], np.repeat(edge, 2)[1 + half:-1], ring)


def _star(spec, radius, powers):
    """Arm b at depth d is (b, d), at position b R + d after the centre."""
    m, n = spec.arms, spec.arms * radius + 1
    b, d = np.divmod(np.arange(n - 1), max(radius, 1))
    d = d + 1
    p = np.arange(1, n)
    centre = np.where(radius > 0, np.arange(m) * radius + 1, -1)
    ids = np.concatenate((centre, np.stack((np.where(d > 1, p - 1, 0),
                                            np.where(d < radius, p + 1, -1)),
                                           axis=1).ravel()))
    cond = np.concatenate((np.full(m, powers[1]),
                           np.stack((powers[d], powers[d + 1]), axis=1).ravel()))
    # Level by level, arms in order.
    order = np.concatenate(([0], p.reshape(m, radius).T.ravel()))
    vertices = ((0, 0),) + tuple(zip(b.tolist(), d.tolist()))
    return ((0, 0), vertices, order, np.concatenate(([0], d)),
            np.concatenate(([m], np.full(n - 1, 2))), ids, cond,
            tuple((arm, radius + 1) for arm in range(m)))


def _binary_tree(radius):
    """Vertex (k, d) is the k-th node at depth d, with children (2k, d+1) and
    (2k+1, d+1); its level index is 2^d - 1 + k."""
    n = 2 ** (radius + 1) - 1
    depth = np.repeat(np.arange(radius + 1), 2 ** np.arange(radius + 1))
    k = np.arange(n) - (2 ** depth - 1)
    level = np.lexsort((depth, k))  # canonical position -> level index
    pos = np.empty(n, np.int64)
    pos[level] = np.arange(n)
    # Rows list the parent, then the two children; the root has no parent.
    d = depth[level]
    parent = np.where(d > 0, pos[(level - 1) // 2], -2)
    inner = d < radius
    c0 = np.where(inner, 2 * level + 1, 0)
    c1 = np.where(inner, c0 + 1, 0)
    rows = np.stack((parent, np.where(inner, pos[c0], -1),
                     np.where(inner, pos[c1], -1)), axis=1).ravel()
    ids = rows[rows != -2]
    vertices = tuple(zip(k[level].tolist(), d.tolist()))
    ring = tuple(zip(range(2 ** (radius + 1)), [radius + 1] * 2 ** (radius + 1)))
    return ((0, 0), vertices, pos, d, np.where(d > 0, 3, 2), ids,
            np.ones(len(ids)), ring)


def build(spec, radius=None):
    """Materialize the window of the given radius of a model family, in
    closed form; windows above MAX_WINDOW_VERTICES vertices raise
    ConfigurationError before anything is allocated."""
    radius = spec.radius if radius is None else _ints(
        [radius], ConfigurationError, "a window radius must be an int")[0]
    if radius < 0:
        raise ConfigurationError(f"a window radius must be nonnegative, got {radius}")
    _check_window(spec, radius)
    if spec.family == "binary_tree":
        window = _binary_tree(radius)
    else:
        # c ** k as Python floats: the bits of the conductances c^k (or 1.0).
        powers = (np.array([spec.c ** k for k in range(radius + 2)])
                  if spec.family in _GEOMETRIC else np.broadcast_to(1.0, radius + 2))
        window = (_star if spec.family == "star" else _line)(spec, radius, powers)
    origin, vertices, order, dist, degree, ids, cond, ring = window
    beyond = ids < 0
    ids[beyond] = len(vertices) + np.arange(np.count_nonzero(beyond))
    model = {"model": spec.family, "params": {k: v.item() if isinstance(v, np.generic) else v
                                              for k, v in spec.params.items()},
             "radius": int(radius)}  # numpy scalars recorded as Python ones, for JSON
    model["params"].pop("radius", None)
    return Network(origin, vertices, order, dist, degree, ids, cond, ring,
                   window_radius=radius, model=model)


def spec_of(net):
    """Recover the ModelSpec of a model-built network, or None."""
    if net.model is None:
        return None
    return ModelSpec(net.model["model"], dict(net.model.get("params", {})))


def _require_geometric(spec, op):
    if spec.family not in ("geom_z", "geom_zplus"):
        raise UnsupportedModelError(f"{op} oracle only covers geom_z/geom_zplus, "
                                    f"not {spec.family!r}")
    if spec.c <= 1.0:
        warnings.warn(f"{op} oracle assumes c > 1 (transient regime); got c={spec.c:g}",
                      stacklevel=3)


def oracle_v(spec, n, k):
    """Closed-form dipole kernel value v_n(k) on the geometric integer models."""
    _require_geometric(spec, "dipole kernel")
    n, k = int(n), int(k)
    if spec.family == "geom_zplus" and (n < 0 or k < 0):
        raise DomainError("geom_zplus vertices are nonnegative")
    if n == 0:
        return 0.0
    if k == 0 or (k > 0) != (n > 0):
        return 0.0
    r = spec.r
    m = min(abs(k), abs(n))
    if r == 1.0:
        return float(m)
    return (r - r ** (m + 1)) / (1.0 - r)


def oracle_w_o(spec, n):
    """Closed-form origin monopole value w_o(n) = a r^|n|."""
    _require_geometric(spec, "monopole")
    if spec.c <= 1.0:
        raise DomainError("no finite-energy monopole exists for c <= 1")
    r = spec.r
    if spec.family == "geom_z":
        a = r / (2.0 * (1.0 - r))
    else:
        if int(n) < 0:
            raise DomainError("geom_zplus vertices are nonnegative")
        a = r / (1.0 - r)
    return a * r ** abs(int(n))


def oracle_h(spec, n):
    """Closed-form finite-energy harmonic value h(n) = sgn(n)(1 − r^|n|).

    geom_zplus supports no nonconstant finite-energy harmonic function, so
    its oracle is identically zero.
    """
    _require_geometric(spec, "harmonic")
    n = int(n)
    if spec.family == "geom_zplus":
        if n < 0:
            raise DomainError("geom_zplus vertices are nonnegative")
        return 0.0
    if n == 0:
        return 0.0
    sign = 1.0 if n > 0 else -1.0
    return sign * (1.0 - spec.r ** abs(n))


def harmonic_energy(spec):
    """E(h) for the geom_z harmonic oracle: 2(1−r)/r."""
    _require_geometric(spec, "harmonic")
    if spec.family != "geom_z":
        return 0.0
    r = spec.r
    return 2.0 * (1.0 - r) / r


def _line_function(window, values, gauge, vertices):
    """``values``, taken over, on the integer range ``window``, on ``vertices``,
    the vertex tuple of a network of the model whose window is at least as large."""
    pos = np.arange(window.start - vertices[0], window.stop - vertices[0])
    return VertexFunction._of(vertices, pos, values, gauge)


def oracle_v_function(spec, n, radius, vertices):
    window = range(-radius, radius + 1) if spec.family == "geom_z" else range(radius + 1)
    return _line_function(window, [oracle_v(spec, n, k) for k in window], GAUGE_ORIGIN,
                          vertices)


def oracle_w_o_function(spec, radius, vertices):
    window = range(-radius, radius + 1) if spec.family == "geom_z" else range(radius + 1)
    return _line_function(window, [oracle_w_o(spec, k) for k in window], GAUGE_VANISH,
                          vertices)


def oracle_h_function(spec, radius, vertices, *, unit_energy=False):
    """The harmonic oracle on a symmetric window, optionally scaled to E(h) = 1.

    For a harmonic function the whole energy arrives through the boundary
    term, so the unit-energy representative is the one whose boundary sum
    over symmetric exhaustions converges to exactly 1.
    """
    window = range(-radius, radius + 1)
    values = np.array([oracle_h(spec, k) for k in window])
    if unit_energy:
        e = harmonic_energy(spec)
        if e <= 0.0:
            raise UnsupportedModelError("no nonconstant harmonic function to normalize")
        values = e ** -0.5 * values
    return _line_function(window, values, GAUGE_ORIGIN, vertices)


def log_increment_function(radius, vertices):
    """The unbounded finite-energy test function on the unit half-line.

    u(0) = 0 and u(n) − u(n−1) is 1/k when n = 2^k, else 1/n.  The n = 1
    increment (formally 1/0, since 1 = 2^0) is taken to be 1; this keeps the
    asymptotics of the construction and is the only sensible reading.  The
    increments are added left to right.
    """
    if radius < 2:
        raise ConfigurationError("log-increment window needs radius >= 2")
    u = np.arange(radius + 1, dtype=float)  # u(n) - u(n - 1), summed in place
    np.divide(1.0, u[1:], out=u[1:])
    k = np.arange(1, int(radius).bit_length())
    u[1 << k] = 1.0 / k
    u[1] = 1.0
    return _line_function(range(radius + 1), np.cumsum(u, out=u), GAUGE_ORIGIN, vertices)


def oracle_residuals(spec, radius=30):
    """Scaled pointwise residuals of each oracle against its defining equation.

    Returns a dict with the worst |Δ(oracle) − expected| / max(1, c(x)) over
    the interior of the given window, for the dipole (n = 2), monopole and
    harmonic oracles.  Values should sit at float rounding level; anything
    larger would mean the closed form fails its own equation and must not be
    used as a reference.
    """
    from .operators import scaled_laplacian_residual

    net = build(spec, radius=radius)
    interior = np.flatnonzero(net.arrays.reach <= radius)  # positions of int B_r
    out = {}
    n0 = 2 if radius >= 3 else 1
    v = oracle_v_function(spec, n0, radius, net.vertices)
    o = net._order[0]
    out["dipole"] = scaled_laplacian_residual(net, v, ([net._require(n0), o], [1.0, -1.0]),
                                              interior)
    w = oracle_w_o_function(spec, radius, net.vertices)
    out["monopole"] = scaled_laplacian_residual(net, w, ([o], [1.0]), interior)
    if spec.family == "geom_z":
        h = oracle_h_function(spec, radius, net.vertices)
        out["harmonic"] = scaled_laplacian_residual(net, h, ((), ()), interior)
    return out


# -- JSON interchange -------------------------------------------------------


def _vertex_to_json(v):
    return list(v) if isinstance(v, tuple) else v


def _vertex_from_json(v):
    return tuple(v) if isinstance(v, list) else v


def network_to_jsonable(net):
    """Canonical JSON-ready dict for a network (model form when available)."""
    if net.model is not None:
        return {"model": net.model["model"],
                "params": dict(net.model.get("params", {})),
                "radius": int(net.model["radius"])}
    a, verts, at = net.arrays, net.vertices, net.arrays.edges()
    edges = [{"u": _vertex_to_json(verts[x]), "v": _vertex_to_json(verts[y]), "c": c}
             for x, y, c in zip(a.rows[at].tolist(), a.nbr[at].tolist(), a.cond[at].tolist())]
    return {"origin": _vertex_to_json(net.origin),
            "vertices": [_vertex_to_json(v) for v in net.vertices],
            "edges": edges}


def load_network(text_or_obj, radius=None):
    """Load a network from either JSON form (explicit edges, or model spec),
    given as text or as its parsed object; ``radius`` overrides a model's
    window radius, and is refused with explicit edges, which have no window
    to resize."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    if "model" in obj:
        spec = ModelSpec(obj["model"], dict(obj.get("params", {})))
        return build(spec, radius=radius if radius is not None else obj.get("radius"))
    if radius is not None:
        raise ConfigurationError(
            f"a window radius ({radius}) applies only to a model network, "
            "not to one given by explicit edges")
    try:
        origin = _vertex_from_json(obj["origin"])
        edges = [(_vertex_from_json(e["u"]), _vertex_from_json(e["v"]), float(e["c"]))
                 for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed network JSON: {exc}") from exc
    net = Network.from_edges(origin, edges)
    declared = {_vertex_from_json(v) for v in obj.get("vertices", [])}
    if declared and declared != set(net.vertices):
        raise ConfigurationError("declared vertex list disagrees with the edges")
    return net
