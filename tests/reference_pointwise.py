"""Pointwise references: per-vertex definitions that the tests check the
package's identities and window-level operators with.  No command or
acceptance criterion calls them, so they live with the tests."""

import numpy as np
from scipy.sparse import coo_matrix

from resnet.errors import DomainError
from resnet.network import GAUGE_RAW, VertexFunction
from resnet.operators import EnergyValue, energy, scaled_laplacian_residual

from reference_windows import interior_of, neighbors, positions, total_conductance


def function_on(net, values, gauge=GAUGE_RAW):
    """The function on ``net``'s vertex tuple with the values of the mapping
    ``values`` from window vertices; a vertex outside the window raises the
    network's error for it."""
    pos = positions(net, values)
    at = [values[net.vertices[p]] for p in pos.tolist()]
    return VertexFunction(net.vertices, pos, at, gauge)


def source(net, f):
    """The ``(at, values)`` source of the solver and the window residual for
    a mapping {vertex: value}, or for a list of them (a block, one column
    each): the vertices in canonical order of their positions."""
    block = not hasattr(f, "items")
    maps = f if block else [f]
    at = positions(net, {x for m in maps for x in m})
    values = np.array([[m.get(net.vertices[p], 0.0) for m in maps] for p in at.tolist()],
                      float).reshape(len(at), len(maps))
    return at, values if block else values[:, 0]


def source_maps(net, f):
    """The mapping, or the list of mappings for a block, of the nonzero
    values of an ``(at, values)`` source, added up by vertex."""
    at, values = np.asarray(f[0]), np.asarray(f[1], float)
    columns = values.reshape(len(at), -1).T
    maps = []
    for column in columns:
        m = {}
        for p, val in zip(at.tolist(), column.tolist()):
            m[net.vertices[p]] = m.get(net.vertices[p], 0.0) + val
        maps.append({x: val for x, val in m.items() if val != 0.0})
    return maps if values.ndim == 2 else maps[0]


def indicator(net, window, on):
    """The function on ``window`` that is 1 on ``on`` and 0 elsewhere."""
    return function_on(net, {x: float(x in on) for x in window})


def restricted(net, u, window):
    """u on the part ``window`` of its window."""
    return function_on(net, {x: u.value(x) for x in window}, u.gauge)


def seq_sum(terms):
    """The terms added left to right to 0.0, as the package adds floats; the
    builtin ``sum`` compensates float sums from Python 3.12 on."""
    total = 0.0
    for t in terms:
        total += t
    return total


def transfer_apply(net, u, x):
    """(Tu)(x) = Σ_{y~x} c_xy u(y), so that Δ = c − T pointwise."""
    return seq_sum(c * u.value(y) for y, c in net.incident(x))


def normal_derivative(net, subset, v, x):
    """∂v(x) for x on the boundary of ``subset``: the Laplacian sum restricted
    to neighbors inside the subset."""
    sub = subset if isinstance(subset, (set, frozenset)) else frozenset(subset)
    if x not in sub or all(y in sub for y in neighbors(net, x)):
        raise DomainError(f"vertex {x!r} is not on the boundary of the subset")
    vx = v.value(x)
    return seq_sum(c * (vx - v.value(y)) for y, c in net.incident(x) if y in sub)


def contract(net, u):
    """Pointwise clamp of u to [0, 1]; never increases energy (Markov property)."""
    return function_on(net, {x: min(1.0, max(0.0, val)) for x, val in u.items()})


def energy_over_plan(net, u, v, plan, rel_tol=1e-9):
    """Energy along an exhaustion, flagged converged when the last two stages
    agree to ``rel_tol`` relative."""
    values = [energy(net, u, v, window=positions(net, stage)).value
              for stage in plan.stages]
    converged = len(values) >= 2 and (
        abs(values[-1] - values[-2]) <= rel_tol * max(1.0, abs(values[-1])))
    return EnergyValue(value=values[-1], converged=converged)


def reproducing_residual(net, element, u):
    """|⟨v_x, u⟩_E − (u(x) − u(o))| over the common window of the pair."""
    v = element.approximant
    pairing = energy(net, v, u).value
    return abs(pairing - (u.value(element.base) - u.value(net.origin)))


def kernel_symmetry_residual(net, ex, ey):
    """|v_x(y) − v_y(x)| in the origin-zero gauge."""
    return abs(ex.approximant.value(ey.base) - ey.approximant.value(ex.base))


def harmonicity_residual(net, element, window=None):
    """Scaled max |Δh| over the interior: how harmonic the element really is."""
    h = element.approximant
    if window is None:
        window = positions(net, interior_of(net, h.window))
    return scaled_laplacian_residual(net, h, ((), ()), window)


def transition_probabilities(net, x):
    """(neighbor, probability) pairs at x; probabilities sum to 1."""
    c_tot = total_conductance(net, x)
    return tuple((y, c / c_tot) for y, c in net.incident(x))


def step(net, x, rng):
    """One step of the walk from x using the supplied numpy Generator."""
    u = float(rng.random())
    acc = 0.0
    pairs = transition_probabilities(net, x)
    for y, p in pairs:
        acc += p
        if u < acc:
            return y
    return pairs[-1][0]


def expected_visits(edges, origin, horizons):
    """{N: Σ_{k<=N} P^k(origin, origin)} for each horizon N: the expected visits
    to the origin at times 0..N of the walk from it, P(x, y) = c_xy / c(x).
    From the (u, v, conductance) triples alone: the distribution of the walk
    is carried forward by sparse products with P transposed."""
    verts = sorted({w for u, v, _ in edges for w in (u, v)})
    index = {x: i for i, x in enumerate(verts)}
    ends = [index[u] for u, _, _ in edges], [index[v] for _, v, _ in edges]
    c = np.array([float(c) for _, _, c in edges] * 2)
    # Symmetric: c_xy at (x, y) and (y, x), parallel edges added.
    cond = coo_matrix((c, (ends[0] + ends[1], ends[1] + ends[0])),
                      shape=(len(verts), len(verts))).tocsr()
    p_transposed = cond.multiply(1.0 / np.asarray(cond.sum(axis=0)).ravel()).tocsr()
    o = index[origin]
    p, total, out = np.zeros(len(verts)), 0.0, {}
    p[o] = 1.0
    for k in range(max(horizons) + 1):
        total += float(p[o])
        if k in horizons:
            out[k] = total
        p = p_transposed @ p
    return out


def wired_green(edges, ball, y):
    """{x: g(x)} for the wired Δg = δ_y on the vertex set ``ball``, with Δg(x)
    = Σ_z c_xz (g(x) − g(z)) over the (u, v, conductance) triples and g = 0
    off the ball: one dense solve.  g(y) is the resistance from y to the
    complement of the ball, and c(y) g(x) the expected number of visits to
    y, time 0 included, of the walk from x before it leaves the ball."""
    verts = list(ball)
    index = {x: i for i, x in enumerate(verts)}
    lap = np.zeros((len(verts), len(verts)))
    for u, v, c in edges:
        for a, b in ((u, v), (v, u)):
            if a in index:
                lap[index[a], index[a]] += c
                if b in index:
                    lap[index[a], index[b]] -= c
    delta = np.zeros(len(verts))
    delta[index[y]] = 1.0
    return dict(zip(verts, np.linalg.solve(lap, delta).tolist()))


def harmonic_measure(edges, start, target, absorber):
    """P_start[the walk hits ``target`` before ``absorber``] on the finite
    connected network of the (u, v, conductance) triples: h(start) for the h
    with Δh = 0 off {target, absorber}, h(target) = 1 and h(absorber) = 0,
    from one dense solve of the Laplacian's rows off those two vertices."""
    verts = sorted({w for u, v, _ in edges for w in (u, v)})
    index = {x: i for i, x in enumerate(verts)}
    lap = np.zeros((len(verts), len(verts)))
    for u, v, c in edges:
        i, j = index[u], index[v]
        lap[i, i] += c
        lap[j, j] += c
        lap[i, j] -= c
        lap[j, i] -= c
    t = index[target]
    free = [i for i in range(len(verts)) if i not in (t, index[absorber])]
    h = np.zeros(len(verts))
    h[t] = 1.0
    h[free] = np.linalg.solve(lap[np.ix_(free, free)], -lap[free, t])
    return float(h[index[start]])
