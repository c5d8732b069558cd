"""Pointwise references: per-vertex definitions that the tests check the
package's identities and window-level operators with.  No command or
acceptance criterion calls them, so they live with the tests."""

from resnet.errors import DomainError
from resnet.network import GAUGE_RAW, VertexFunction
from resnet.operators import EnergyValue, energy, scaled_laplacian_residual


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
    if x not in sub or all(y in sub for y in net.neighbors(x)):
        raise DomainError(f"vertex {x!r} is not on the boundary of the subset")
    vx = v.value(x)
    return seq_sum(c * (vx - v.value(y)) for y, c in net.incident(x) if y in sub)


def contract(u):
    """Pointwise clamp of u to [0, 1]; never increases energy (Markov property)."""
    return VertexFunction({x: min(1.0, max(0.0, val)) for x, val in u.items()},
                          GAUGE_RAW)


def energy_over_plan(net, u, v, plan, rel_tol=1e-9):
    """Energy along an exhaustion, flagged converged when the last two stages
    agree to ``rel_tol`` relative."""
    values = [energy(net, u, v, window=stage).value for stage in plan.stages]
    converged = len(values) >= 2 and (
        abs(values[-1] - values[-2]) <= rel_tol * max(1.0, abs(values[-1])))
    return EnergyValue(value=values[-1], window=frozenset(plan.final),
                       converged=converged)


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
        window = net.interior_of(h.window)
    return scaled_laplacian_residual(net, h, {}, window)


def transition_probabilities(net, x):
    """(neighbor, probability) pairs at x; probabilities sum to 1."""
    c_tot = net.total_conductance(x)
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
